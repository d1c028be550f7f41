/**
 * @file
 * Unit tests for the result cache's integrity layer that need no
 * end-to-end simulation: CRC-32C, v2 cache record integrity
 * (truncation / bit-flip properties), quarantine of corrupt and
 * pre-CRC records, the --cache-verify pass, and atime-LRU eviction.
 *
 * Sweep-shaped cache tests (kill-and-rerun, a failed job, corrupt
 * records met mid-sweep) live in sweep_fault_test.cpp (slow label).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sweep/result_cache.hh"

namespace
{

using namespace mop;
using sweep::CacheRecord;
using sweep::Fingerprint;
using sweep::RecordStatus;

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

TEST(RecordV2Test, LegacyV1IsCorrupt)
{
    // The pre-CRC form carries nothing to verify, so it never decodes
    // (and never partially fills the output).
    CacheRecord out;
    out.add("keep", 1);
    EXPECT_EQ(sweep::decodeRecord("mopres 1\ncycles 7\nipc 3\n", out),
              RecordStatus::Corrupt);
    ASSERT_EQ(out.fields.size(), 1u);
    EXPECT_EQ(out.fields[0].first, "keep");
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

TEST(CacheIntegrityTest, LegacyV1QuarantinedOnLoad)
{
    // A pre-CRC record is never served or certified: load counts it as
    // corrupt and moves it aside, and the recomputed result replaces it.
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
    EXPECT_FALSE(cache.load(f1, out));
    EXPECT_TRUE(out.fields.empty());
    EXPECT_EQ(cache.corrupt(), 1u);
    EXPECT_FALSE(std::filesystem::exists(file));
    EXPECT_TRUE(std::filesystem::exists(
        cache.quarantineDir() + "/" +
        std::filesystem::path(file).filename().string()));
    cache.store(f1, sampleRecord());
    ASSERT_TRUE(cache.load(f1, out));
    EXPECT_EQ(out.fields.size(), sampleRecord().fields.size());
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
    spit(files[0], "mopres 1\ncycles 5\n");          // legacy: no CRC
    spit(files[1], slurp(files[1]).substr(0, 10));   // truncated

    sweep::CacheVerifyStats st = cache.verify();
    EXPECT_EQ(st.checked, 3u);
    EXPECT_EQ(st.ok, 1u);
    EXPECT_EQ(st.corrupt, 2u);
    EXPECT_GT(st.bytes, 0u);

    // A second pass sees only the healthy record.
    st = cache.verify();
    EXPECT_EQ(st.checked, 1u);
    EXPECT_EQ(st.ok, 1u);
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

} // namespace
