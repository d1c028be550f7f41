/**
 * @file
 * Tests for binary trace recording/replay and the dependence-matrix
 * renderer.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/matrix_render.hh"
#include "trace/profiles.hh"
#include "trace/trace_file.hh"

namespace
{

using namespace mop::trace;
using mop::isa::MicroOp;
using mop::isa::OpClass;

std::string
tmpPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

TEST(TraceFile, RoundTripsSyntheticStream)
{
    std::string path = tmpPath("roundtrip.mtrace");
    SyntheticSource src(profileFor("gzip"));
    uint64_t n = recordTrace(src, path, 5000);
    EXPECT_EQ(n, 5000u);

    src.reset();
    FileSource replay(path);
    MicroOp a, b;
    for (uint64_t i = 0; i < n; ++i) {
        ASSERT_TRUE(src.next(a));
        ASSERT_TRUE(replay.next(b)) << i;
        ASSERT_EQ(a.pc, b.pc);
        ASSERT_EQ(a.op, b.op);
        ASSERT_EQ(a.dst, b.dst);
        ASSERT_EQ(a.src[0], b.src[0]);
        ASSERT_EQ(a.src[1], b.src[1]);
        ASSERT_EQ(a.memAddr, b.memAddr);
        ASSERT_EQ(a.taken, b.taken);
        ASSERT_EQ(a.target, b.target);
        ASSERT_EQ(a.firstUop, b.firstUop);
    }
    MicroOp end;
    EXPECT_FALSE(replay.next(end));
    std::remove(path.c_str());
}

TEST(TraceFile, ResetRestartsReplay)
{
    std::string path = tmpPath("reset.mtrace");
    SyntheticSource src(profileFor("bzip"));
    recordTrace(src, path, 100);
    FileSource replay(path);
    MicroOp first, u;
    ASSERT_TRUE(replay.next(first));
    while (replay.next(u)) {
    }
    replay.reset();
    ASSERT_TRUE(replay.next(u));
    EXPECT_EQ(u.pc, first.pc);
    EXPECT_EQ(u.seq, 0u);
    std::remove(path.c_str());
}

TEST(TraceFile, RejectsMissingFile)
{
    EXPECT_THROW(FileSource("/nonexistent/dir/x.mtrace"),
                 std::runtime_error);
}

TEST(TraceFile, RejectsCorruptHeader)
{
    std::string path = tmpPath("corrupt.mtrace");
    FILE *f = std::fopen(path.c_str(), "wb");
    std::fwrite("NOTATRACEFILE123", 1, 16, f);
    std::fclose(f);
    EXPECT_THROW(FileSource fs(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceFile, RejectsZeroLengthFile)
{
    std::string path = tmpPath("empty.mtrace");
    FILE *f = std::fopen(path.c_str(), "wb");
    std::fclose(f);
    EXPECT_THROW(FileSource fs(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceFile, RejectsTruncatedHeader)
{
    // Valid magic but the version word is cut off.
    std::string path = tmpPath("shorthdr.mtrace");
    FILE *f = std::fopen(path.c_str(), "wb");
    std::fwrite("MOPTRACE", 1, 8, f);
    std::fwrite("\x01\x00", 1, 2, f);
    std::fclose(f);
    EXPECT_THROW(FileSource fs(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceFile, RejectsWrongVersion)
{
    std::string path = tmpPath("badver.mtrace");
    FILE *f = std::fopen(path.c_str(), "wb");
    uint32_t version = 999, reserved = 0;
    std::fwrite("MOPTRACE", 1, 8, f);
    std::fwrite(&version, sizeof(version), 1, f);
    std::fwrite(&reserved, sizeof(reserved), 1, f);
    std::fclose(f);
    EXPECT_THROW(FileSource fs(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceFile, ThrowsOnShortRecord)
{
    // A record cut mid-way must raise, not be silently treated as EOF.
    std::string path = tmpPath("shortrec.mtrace");
    {
        SyntheticSource src(profileFor("gzip"));
        recordTrace(src, path, 3);
    }
    // Chop 5 bytes off the last 32-byte record.
    FILE *f = std::fopen(path.c_str(), "rb+");
    std::fseek(f, 0, SEEK_END);
    long len = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(len, 16 + 3 * 32);
    ASSERT_EQ(truncate(path.c_str(), len - 5), 0);

    FileSource replay(path);
    MicroOp u;
    ASSERT_TRUE(replay.next(u));
    ASSERT_TRUE(replay.next(u));
    EXPECT_THROW(replay.next(u), std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceFile, WriterReportsCount)
{
    std::string path = tmpPath("count.mtrace");
    TraceWriter w(path);
    MicroOp u;
    u.op = OpClass::IntAlu;
    for (int i = 0; i < 7; ++i)
        w.write(u);
    EXPECT_EQ(w.written(), 7u);
    w.close();
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// MOPEVTRC cycle-event trace: format version negotiation.
// ---------------------------------------------------------------------

/** Handcraft a v1 (64-byte record) event trace file, byte for byte,
 *  the way the pre-lifecycle writer laid it out. */
void
writeV1EventFile(const std::string &path,
                 const std::vector<CycleEvent> &events)
{
    FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    uint32_t version = 1, reserved = 0;
    std::fwrite("MOPEVTRC", 1, 8, f);
    std::fwrite(&version, sizeof(version), 1, f);
    std::fwrite(&reserved, sizeof(reserved), 1, f);
    for (const CycleEvent &ev : events) {
        uint8_t head[8] = {uint8_t(ev.kind), ev.op, 0, 0, 0, 0, 0, 0};
        std::fwrite(head, 1, sizeof(head), f);
        uint64_t words[7] = {ev.seq, ev.pc, ev.insert, ev.issue,
                             ev.execStart, ev.complete, ev.commit};
        std::fwrite(words, sizeof(uint64_t), 7, f);
    }
    std::fclose(f);
}

TEST(EventTraceVersion, V1FileLoadsWithDocumentedDefaults)
{
    std::string path = tmpPath("v1compat.evt");
    CycleEvent in;
    in.kind = CycleEvent::Kind::Uop;
    in.op = 3;
    in.seq = 42;
    in.pc = 0x400100;
    in.insert = 10;
    in.issue = 15;
    in.execStart = 16;
    in.complete = 17;
    in.commit = 20;
    writeV1EventFile(path, {in});

    EventTraceReader rd(path);
    EXPECT_EQ(rd.version(), 1u);
    CycleEvent out;
    ASSERT_TRUE(rd.next(out));
    EXPECT_EQ(out.seq, in.seq);
    EXPECT_EQ(out.pc, in.pc);
    EXPECT_EQ(out.insert, in.insert);
    EXPECT_EQ(out.issue, in.issue);
    EXPECT_EQ(out.commit, in.commit);
    // v1 records predate the lifecycle extension: fetch/queueReady
    // collapse onto insert, ready onto issue, and there is no dep /
    // MOP-pairing / flag information.
    EXPECT_EQ(out.fetch, in.insert);
    EXPECT_EQ(out.queueReady, in.insert);
    EXPECT_EQ(out.ready, in.issue);
    EXPECT_EQ(out.dep[0], CycleEvent::kNone);
    EXPECT_EQ(out.dep[1], CycleEvent::kNone);
    EXPECT_EQ(out.mopId, CycleEvent::kNone);
    EXPECT_EQ(out.flags, 0);
    EXPECT_FALSE(rd.next(out));
    std::remove(path.c_str());
}

TEST(EventTraceVersion, V2RoundTripPreservesLifecycle)
{
    std::string path = tmpPath("v2full.evt");
    CycleEvent in;
    in.kind = CycleEvent::Kind::Uop;
    in.op = 5;
    in.flags = CycleEvent::kFlagGrouped | CycleEvent::kFlagLoad |
               CycleEvent::kFlagDl1Miss;
    in.seq = 7;
    in.pc = 0x400200;
    in.fetch = 1;
    in.queueReady = 3;
    in.insert = 4;
    in.ready = 9;
    in.issue = 11;
    in.execStart = 12;
    in.complete = 30;
    in.commit = 33;
    in.dep = {2, 5};
    in.mopId = 6;
    {
        EventTraceWriter w(path);
        w.write(in);
    }
    EventTraceReader rd(path);
    EXPECT_EQ(rd.version(), 2u);
    CycleEvent out;
    ASSERT_TRUE(rd.next(out));
    EXPECT_EQ(out, in);
    std::remove(path.c_str());
}

TEST(EventTraceWriter, BatchWriteMatchesSingleWrites)
{
    // writeInPlace packs the records over its input: the file must be
    // byte-for-byte what one write() per event produces.
    std::vector<CycleEvent> evs(5);
    for (size_t i = 0; i < evs.size(); ++i) {
        evs[i].kind = i % 2 ? CycleEvent::Kind::Counter
                            : CycleEvent::Kind::Uop;
        evs[i].op = uint8_t(i);
        evs[i].flags = uint8_t(1u << i);
        evs[i].seq = 100 + i;
        evs[i].commit = 7 * i;
        evs[i].dep = {i, CycleEvent::kNone};
    }
    std::string one = tmpPath("single.evt"), batch = tmpPath("batch.evt");
    {
        EventTraceWriter w(one);
        for (const CycleEvent &ev : evs)
            w.write(ev);
        w.close();
    }
    std::vector<CycleEvent> packed = evs;
    {
        EventTraceWriter w(batch);
        w.writeInPlace(packed.data(), packed.size());
        EXPECT_EQ(w.written(), evs.size());
        w.close();
    }
    auto bytes = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    EXPECT_EQ(bytes(one), bytes(batch));
    EXPECT_EQ(readEventTrace(batch), evs);
    std::remove(one.c_str());
    std::remove(batch.c_str());
}

TEST(EventTraceWriter, CloseReportsAFailedFinalFlush)
{
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full";
    // One record fits the stdio buffer, so nothing fails until close()
    // pushes it to the device; that loss must be reported, once.
    EventTraceWriter w("/dev/full");
    w.write(CycleEvent{});
    EXPECT_THROW(w.close(), std::runtime_error);
    EXPECT_NO_THROW(w.close());
}

TEST(EventTraceVersion, RejectsFutureVersionWithClearError)
{
    std::string path = tmpPath("v9.evt");
    FILE *f = std::fopen(path.c_str(), "wb");
    uint32_t version = 9, reserved = 0;
    std::fwrite("MOPEVTRC", 1, 8, f);
    std::fwrite(&version, sizeof(version), 1, f);
    std::fwrite(&reserved, sizeof(reserved), 1, f);
    std::fclose(f);
    try {
        EventTraceReader rd(path);
        FAIL() << "future version must be rejected";
    } catch (const std::runtime_error &e) {
        // The error must name the offending version and the supported
        // range, so a user with a newer trace knows what happened.
        EXPECT_NE(std::string(e.what()).find("version 9"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("1-3"), std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(EventTraceVersion, RejectsBadMagicAndTruncatedHeader)
{
    std::string path = tmpPath("badmagic.evt");
    FILE *f = std::fopen(path.c_str(), "wb");
    std::fwrite("NOTEVTRC\x02\x00\x00\x00\x00\x00\x00\x00", 1, 16, f);
    std::fclose(f);
    EXPECT_THROW(EventTraceReader rd(path), std::runtime_error);

    // Right magic, version word cut off.
    f = std::fopen(path.c_str(), "wb");
    std::fwrite("MOPEVTRC\x02", 1, 9, f);
    std::fclose(f);
    EXPECT_THROW(EventTraceReader rd(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(EventTraceVersion, ThrowsOnTruncatedRecordBothVersions)
{
    // v2: cut the only 112-byte record short.
    std::string path = tmpPath("shortv2.evt");
    {
        EventTraceWriter w(path);
        w.write(CycleEvent{});
    }
    ASSERT_EQ(truncate(path.c_str(), 16 + 112 - 5), 0);
    {
        EventTraceReader rd(path);
        CycleEvent ev;
        EXPECT_THROW(rd.next(ev), std::runtime_error);
    }
    std::remove(path.c_str());

    // v1: two whole records plus a ragged tail; the reader must
    // deliver both and then raise rather than report clean EOF.
    path = tmpPath("shortv1.evt");
    writeV1EventFile(path, {CycleEvent{}, CycleEvent{}, CycleEvent{}});
    ASSERT_EQ(truncate(path.c_str(), 16 + 2 * 64 + 7), 0);
    {
        EventTraceReader rd(path);
        CycleEvent ev;
        EXPECT_TRUE(rd.next(ev));
        EXPECT_TRUE(rd.next(ev));
        EXPECT_THROW(rd.next(ev), std::runtime_error);
    }
    std::remove(path.c_str());
}

TEST(MatrixRender, ShowsMarksAndFlags)
{
    using mop::core::MatrixSlot;
    auto mk = [](OpClass op, int dst, int s0 = -1, int s1 = -1) {
        MicroOp u;
        u.op = op;
        u.dst = int16_t(dst);
        u.src = {int16_t(s0), int16_t(s1)};
        return u;
    };
    std::vector<MatrixSlot> win = {
        {mk(OpClass::IntAlu, 1), true, false},
        {mk(OpClass::Load, 2, 1), false, false},
        {mk(OpClass::IntAlu, 3, 1, 2), false, false},
    };
    std::string s = mop::core::renderMatrix(win);
    EXPECT_NE(s.find("H"), std::string::npos);   // head flag
    EXPECT_NE(s.find("x"), std::string::npos);   // non-candidate
    EXPECT_NE(s.find("2"), std::string::npos);   // two-source mark
    EXPECT_NE(s.find("Load"), std::string::npos);
}

TEST(MatrixRender, RenameSemanticsInMarks)
{
    using mop::core::MatrixSlot;
    auto mk = [](int dst, int s0 = -1) {
        MicroOp u;
        u.op = OpClass::IntAlu;
        u.dst = int16_t(dst);
        u.src = {int16_t(s0), mop::isa::kNoReg};
        return u;
    };
    // r1 is rewritten between producer and consumer: the mark must be
    // on the *second* writer's column.
    std::vector<MatrixSlot> win = {
        {mk(1), false, false},
        {mk(1), false, false},
        {mk(2, 1), false, false},
    };
    std::string s = mop::core::renderMatrix(win);
    // Row I3 must carry exactly one dependence mark ('1', its source
    // count), on the column of the *second* writer of r1.
    size_t i3 = s.find("\n  I3");  // the row, not the column header
    ASSERT_NE(i3, std::string::npos);
    i3 += 1;
    std::string row = s.substr(i3, s.find('\n', i3) - i3);
    // Matrix cells: 3 chars each, following the 7-char label area.
    int digits = 0;
    size_t mark_pos = 0;
    for (size_t p = 7; p < 7 + 3 * win.size() && p < row.size(); ++p) {
        if (isdigit(uint8_t(row[p]))) {
            ++digits;
            mark_pos = p;
        }
    }
    EXPECT_EQ(digits, 1);
    // Column 0 (I1) occupies cells up to position 10; the mark must be
    // in I2's column, past it.
    EXPECT_GT(mark_pos, 9u);
}

} // namespace
