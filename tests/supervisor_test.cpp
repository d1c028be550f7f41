/**
 * @file
 * Unit tests for the sweep fault-tolerance layer that need no
 * end-to-end simulation and no fork(): CRC-32C, v2 cache record
 * integrity (truncation / bit-flip properties), retry/backoff policy
 * with a fake clock, chaos-plan parsing and determinism, and atime-LRU
 * eviction.
 *
 * Everything fork- or simulation-shaped lives in sweep_fault_test.cpp
 * (slow label).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sweep/result_cache.hh"
#include "sweep/supervisor.hh"

namespace
{

using namespace mop;
using sweep::CacheRecord;
using sweep::FailureKind;
using sweep::Fingerprint;
using sweep::RecordStatus;
using sweep::RetryPolicy;
using sweep::SweepFault;
using sweep::SweepFaultPlan;

std::string
freshDir(const std::string &name)
{
    std::string dir = testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), std::streamsize(bytes.size()));
}

CacheRecord
sampleRecord()
{
    CacheRecord rec;
    rec.add("cycles", 123456789);
    rec.add("insts", 200000);
    rec.addF64("ipc", 1.618033988749895);
    rec.addF64("occ", 0.0);
    rec.add("zero", 0);
    return rec;
}

Fingerprint
fp(uint64_t hi, uint64_t lo)
{
    Fingerprint f;
    f.hi = hi;
    f.lo = lo;
    return f;
}

// --- CRC-32C ------------------------------------------------------------

TEST(Crc32cTest, KnownVectors)
{
    // The canonical CRC-32C check value.
    EXPECT_EQ(sweep::crc32c("123456789", 9), 0xE3069283u);
    EXPECT_EQ(sweep::crc32c("", 0), 0u);
}

TEST(Crc32cTest, IncrementalMatchesOneShot)
{
    const std::string s = "mopres 2\ncycles 42\n";
    uint32_t one = sweep::crc32c(s.data(), s.size());
    uint32_t inc = sweep::crc32c(s.data() + 5, s.size() - 5,
                                 sweep::crc32c(s.data(), 5));
    EXPECT_EQ(one, inc);
}

// --- v2 record integrity ------------------------------------------------

TEST(RecordV2Test, EncodeDecodeRoundTrip)
{
    CacheRecord rec = sampleRecord();
    std::string bytes = sweep::encodeRecordV2(rec);
    EXPECT_EQ(bytes.rfind("mopres 2\n", 0), 0u);

    CacheRecord out;
    ASSERT_EQ(sweep::decodeRecord(bytes, out), RecordStatus::Ok);
    ASSERT_EQ(out.fields.size(), rec.fields.size());
    for (size_t i = 0; i < rec.fields.size(); ++i) {
        EXPECT_EQ(out.fields[i].first, rec.fields[i].first);
        EXPECT_EQ(out.fields[i].second, rec.fields[i].second);
    }
}

TEST(RecordV2Test, LegacyV1StillDecodes)
{
    CacheRecord out;
    EXPECT_EQ(sweep::decodeRecord("mopres 1\ncycles 7\nipc 3\n", out),
              RecordStatus::LegacyOk);
    uint64_t v = 0;
    EXPECT_TRUE(out.get("cycles", v));
    EXPECT_EQ(v, 7u);
}

TEST(RecordV2Test, EveryTruncationIsDetected)
{
    // Property: no strict byte-prefix of a valid v2 record may decode
    // as a valid record — truncation (power loss, short write, torn
    // copy) must never produce a wrong-but-plausible result.
    std::string bytes = sweep::encodeRecordV2(sampleRecord());
    for (size_t n = 0; n < bytes.size(); ++n) {
        CacheRecord out;
        RecordStatus st = sweep::decodeRecord(bytes.substr(0, n), out);
        EXPECT_EQ(st, RecordStatus::Corrupt)
            << "prefix of " << n << " bytes decoded as "
            << int(st);
    }
}

TEST(RecordV2Test, EveryBitFlipIsDetected)
{
    std::string bytes = sweep::encodeRecordV2(sampleRecord());
    for (size_t byte = 0; byte < bytes.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string bad = bytes;
            bad[byte] = char(uint8_t(bad[byte]) ^ (1u << bit));
            CacheRecord out;
            EXPECT_EQ(sweep::decodeRecord(bad, out),
                      RecordStatus::Corrupt)
                << "flip byte " << byte << " bit " << bit;
        }
    }
}

TEST(RecordV2Test, AppendedGarbageIsDetected)
{
    std::string bytes = sweep::encodeRecordV2(sampleRecord());
    CacheRecord out;
    EXPECT_EQ(sweep::decodeRecord(bytes + "x", out),
              RecordStatus::Corrupt);
    EXPECT_EQ(sweep::decodeRecord(bytes + bytes, out),
              RecordStatus::Corrupt);
}

// --- Cache corrupt / quarantine / eviction ------------------------------

TEST(CacheIntegrityTest, CorruptRecordQuarantinedAndCounted)
{
    std::string dir = freshDir("mop-sup-corrupt");
    sweep::ResultCache cache(dir);
    Fingerprint f1 = fp(1, 2);
    cache.store(f1, sampleRecord());

    // Flip one bit in the stored file.
    std::string file;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().extension() == ".res")
            file = e.path().string();
    ASSERT_FALSE(file.empty());
    std::string bytes = slurp(file);
    bytes[bytes.size() / 2] = char(uint8_t(bytes[bytes.size() / 2]) ^ 1);
    spit(file, bytes);

    CacheRecord out;
    EXPECT_FALSE(cache.load(f1, out));
    EXPECT_EQ(cache.corrupt(), 1u);
    EXPECT_EQ(cache.misses(), 0u);  // corrupt is not a plain miss
    // The damaged file moved aside for post-mortem...
    EXPECT_FALSE(std::filesystem::exists(file));
    ASSERT_TRUE(std::filesystem::exists(cache.quarantineDir()));
    size_t quarantined = 0;
    for (const auto &e :
         std::filesystem::directory_iterator(cache.quarantineDir()))
        quarantined += e.is_regular_file();
    EXPECT_EQ(quarantined, 1u);
    // ...and a recompute+store+load cycle works again.
    cache.store(f1, sampleRecord());
    EXPECT_TRUE(cache.load(f1, out));
}

TEST(CacheIntegrityTest, LegacyV1UpgradedOnLoad)
{
    std::string dir = freshDir("mop-sup-v1");
    sweep::ResultCache cache(dir);
    Fingerprint f1 = fp(3, 4);
    cache.store(f1, sampleRecord());
    std::string file;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().extension() == ".res")
            file = e.path().string();
    spit(file, "mopres 1\ncycles 11\n");

    CacheRecord out;
    ASSERT_TRUE(cache.load(f1, out));
    uint64_t v = 0;
    ASSERT_TRUE(out.get("cycles", v));
    EXPECT_EQ(v, 11u);
    // The file on disk is now v2 with a valid CRC.
    CacheRecord reread;
    EXPECT_EQ(sweep::decodeRecord(slurp(file), reread),
              RecordStatus::Ok);
}

TEST(CacheIntegrityTest, VerifyPassReportsAndRepairs)
{
    std::string dir = freshDir("mop-sup-verify");
    sweep::ResultCache cache(dir);
    cache.store(fp(1, 1), sampleRecord());
    cache.store(fp(2, 2), sampleRecord());
    cache.store(fp(3, 3), sampleRecord());

    std::vector<std::string> files;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().extension() == ".res")
            files.push_back(e.path().string());
    std::sort(files.begin(), files.end());
    ASSERT_EQ(files.size(), 3u);
    spit(files[0], "mopres 1\ncycles 5\n");          // legacy
    spit(files[1], slurp(files[1]).substr(0, 10));   // truncated

    sweep::CacheVerifyStats st = cache.verify();
    EXPECT_EQ(st.checked, 3u);
    EXPECT_EQ(st.ok, 1u);
    EXPECT_EQ(st.upgraded, 1u);
    EXPECT_EQ(st.corrupt, 1u);
    EXPECT_GT(st.bytes, 0u);

    // A second pass sees a fully healthy (v2) directory.
    st = cache.verify();
    EXPECT_EQ(st.checked, 2u);
    EXPECT_EQ(st.ok, 2u);
    EXPECT_EQ(st.upgraded, 0u);
    EXPECT_EQ(st.corrupt, 0u);
}

TEST(CacheIntegrityTest, EvictionKeepsRecentlyUsed)
{
    std::string dir = freshDir("mop-sup-evict");
    sweep::ResultCache cache(dir);
    for (uint64_t i = 0; i < 8; ++i)
        cache.store(fp(i, i), sampleRecord());

    uint64_t total = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().extension() == ".res")
            total += e.file_size();
    uint64_t one = total / 8;

    // Budget for half the records: 4 must go, 4 must stay.
    uint64_t evicted = cache.evictToBudget(4 * one);
    EXPECT_EQ(evicted, 4u);
    EXPECT_EQ(cache.evictions(), 4u);
    size_t left = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        left += e.path().extension() == ".res";
    EXPECT_EQ(left, 4u);

    // Zero budget = disabled, evicts nothing.
    EXPECT_EQ(cache.evictToBudget(0), 0u);
    EXPECT_EQ(cache.evictToBudget(1), 4u);  // now everything goes
}

// --- Retry policy -------------------------------------------------------

TEST(RetryPolicyTest, TransientRetriedDeterministicNot)
{
    RetryPolicy p;
    p.maxAttempts = 3;
    EXPECT_TRUE(p.shouldRetry(FailureKind::Crash, 1));
    EXPECT_TRUE(p.shouldRetry(FailureKind::Timeout, 1));
    EXPECT_TRUE(p.shouldRetry(FailureKind::CorruptResult, 2));
    EXPECT_FALSE(p.shouldRetry(FailureKind::Crash, 3));  // budget spent
    // A C++ exception is deterministic: retrying cannot help.
    EXPECT_FALSE(p.shouldRetry(FailureKind::Error, 1));
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyAndCaps)
{
    RetryPolicy p;
    p.backoffBase = 0.05;
    p.backoffMax = 0.3;
    EXPECT_DOUBLE_EQ(p.backoffSeconds(1), 0.05);
    EXPECT_DOUBLE_EQ(p.backoffSeconds(2), 0.10);
    EXPECT_DOUBLE_EQ(p.backoffSeconds(3), 0.20);
    EXPECT_DOUBLE_EQ(p.backoffSeconds(4), 0.30);  // capped
    EXPECT_DOUBLE_EQ(p.backoffSeconds(10), 0.30);
}

// --- Chaos plan ---------------------------------------------------------

TEST(SweepFaultPlanTest, ParseFullAndDefaults)
{
    SweepFaultPlan p =
        SweepFaultPlan::parse("crash:0.5:2,hang,corrupt-record:0.25", 9);
    EXPECT_TRUE(p.any());
    EXPECT_EQ(p.seed, 9u);
    EXPECT_DOUBLE_EQ(p.rules[size_t(SweepFault::Crash)].rate, 0.5);
    EXPECT_EQ(p.rules[size_t(SweepFault::Crash)].failAttempts, 2);
    EXPECT_DOUBLE_EQ(p.rules[size_t(SweepFault::Hang)].rate, 1.0);
    EXPECT_EQ(p.rules[size_t(SweepFault::Hang)].failAttempts, 1);
    EXPECT_DOUBLE_EQ(
        p.rules[size_t(SweepFault::CorruptRecord)].rate, 0.25);
    EXPECT_DOUBLE_EQ(p.rules[size_t(SweepFault::ShortWrite)].rate, 0.0);
    EXPECT_EQ(p.toString(),
              "crash:0.5:2,hang:1:1,corrupt-record:0.25:1");
}

TEST(SweepFaultPlanTest, ParseRejectsGarbage)
{
    EXPECT_THROW(SweepFaultPlan::parse("segfault"),
                 std::invalid_argument);
    EXPECT_THROW(SweepFaultPlan::parse("crash:0"),
                 std::invalid_argument);
    EXPECT_THROW(SweepFaultPlan::parse("crash:1.5"),
                 std::invalid_argument);
    EXPECT_THROW(SweepFaultPlan::parse("crash:0.5:0"),
                 std::invalid_argument);
    EXPECT_THROW(SweepFaultPlan::parse(""), std::invalid_argument);
}

TEST(SweepFaultPlanTest, VictimSelectionIsDeterministic)
{
    SweepFaultPlan a = SweepFaultPlan::parse("crash:0.5", 42);
    SweepFaultPlan b = SweepFaultPlan::parse("crash:0.5", 42);
    SweepFaultPlan other = SweepFaultPlan::parse("crash:0.5", 43);

    int victims = 0, differs = 0;
    for (uint64_t i = 0; i < 200; ++i) {
        Fingerprint f = fp(i * 7919, i * 104729 + 1);
        bool hit = a.fires(SweepFault::Crash, f, 1);
        EXPECT_EQ(hit, b.fires(SweepFault::Crash, f, 1));
        victims += hit;
        differs += hit != other.fires(SweepFault::Crash, f, 1);
    }
    // rate 0.5 over 200 draws: comfortably away from 0 and 200, and
    // a different seed picks a different victim set.
    EXPECT_GT(victims, 50);
    EXPECT_LT(victims, 150);
    EXPECT_GT(differs, 0);
}

TEST(SweepFaultPlanTest, FailAttemptsGatesRecovery)
{
    // failAttempts=2 with rate 1: attempts 1 and 2 fail, attempt 3
    // succeeds — a retry budget of 3 always recovers.
    SweepFaultPlan p = SweepFaultPlan::parse("crash:1.0:2", 7);
    Fingerprint f = fp(11, 13);
    EXPECT_TRUE(p.fires(SweepFault::Crash, f, 1));
    EXPECT_TRUE(p.fires(SweepFault::Crash, f, 2));
    EXPECT_FALSE(p.fires(SweepFault::Crash, f, 3));
}

// --- Supervisor with a fake clock (no forking: policy-only paths) -------

TEST(SupervisorPolicyTest, SleeperReceivesBackoffSequence)
{
    // Drive superviseJob through retries with an always-failing chaos
    // plan and record what the injected sleeper was asked to sleep:
    // the unit proof that backoff wiring (not just the pure policy)
    // is correct. Uses the real sandbox, so keep it to one tiny job.
    sweep::SupervisorOptions o;
    o.jobTimeoutSeconds = 30;
    o.retry.maxAttempts = 3;
    o.retry.backoffBase = 0.125;
    o.retry.backoffMax = 10.0;
    std::vector<double> slept;
    o.sleeper = [&](double s) { slept.push_back(s); };
    SweepFaultPlan plan = SweepFaultPlan::parse("crash:1.0:99", 5);
    o.plan = &plan;

    sweep::SweepJob job;
    job.bench = "gzip";
    job.insts = 200;
    sweep::JobReport r = sweep::superviseJob(job, fp(6, 6), o);

    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.attempts, 3);
    EXPECT_EQ(r.failure.kind, FailureKind::Crash);
    EXPECT_EQ(r.failure.attempts, 3);
    ASSERT_EQ(slept.size(), 2u);  // between 1->2 and 2->3
    EXPECT_DOUBLE_EQ(slept[0], 0.125);
    EXPECT_DOUBLE_EQ(slept[1], 0.25);
}

} // namespace
