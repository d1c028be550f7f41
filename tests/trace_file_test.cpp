/**
 * @file
 * Tests for the MOPEVTRC cycle-event trace format and the
 * dependence-matrix renderer.
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
        w.write(&in, 1, 0);
    }
    EventTraceReader rd(path);
    EXPECT_EQ(rd.version(), 2u);
    CycleEvent out;
    ASSERT_TRUE(rd.next(out));
    EXPECT_EQ(out, in);
    std::remove(path.c_str());
}

/** The whole of the file at @p path. */
std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(EventTraceWriter, BatchWriteMatchesSingleWrites)
{
    // Each record has a fixed place in the file: positioned writes of
    // single records, in any order, must give byte for byte what one
    // call for all of them gives.
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
        for (size_t i : {3, 0, 4, 1, 2})
            w.write(&evs[i], 1, i);
        w.close();
    }
    {
        EventTraceWriter w(batch);
        w.write(evs.data(), evs.size(), 0);
        w.close();
    }
    EXPECT_EQ(fileBytes(one), fileBytes(batch));
    EXPECT_EQ(readEventTrace(batch), evs);
    std::remove(one.c_str());
    std::remove(batch.c_str());
}

TEST(EventTraceWriter, RecordBytesArePinned)
{
    // A v2 record is a CycleEvent byte for byte. The hex below is what
    // the writer wrote for this event while it still packed a separate
    // on-disk struct field by field: every field distinct,
    // little-endian, the five reserved bytes zero. The static_asserts
    // in trace_file.cc pin the offsets; this pins the bytes.
    CycleEvent ev;
    ev.kind = CycleEvent::Kind::Counter;
    ev.op = 0x23;
    ev.flags = 0xa5;
    ev.seq = 0x0102030405060708ULL;
    ev.pc = 0x1112131415161718ULL;
    ev.insert = 0x2122232425262728ULL;
    ev.issue = 0x3132333435363738ULL;
    ev.execStart = 0x4142434445464748ULL;
    ev.complete = 0x5152535455565758ULL;
    ev.commit = 0x6162636465666768ULL;
    ev.fetch = 0x7172737475767778ULL;
    ev.queueReady = 0x8182838485868788ULL;
    ev.ready = 0x9192939495969798ULL;
    ev.dep = {0xa1a2a3a4a5a6a7a8ULL, 0xb1b2b3b4b5b6b7b8ULL};
    ev.mopId = 0xc1c2c3c4c5c6c7c8ULL;
    const std::string path = tmpPath("pinned.evt");
    {
        EventTraceWriter w(path);
        w.write(&ev, 1, 0);
        w.close();
    }
    const std::string bytes = fileBytes(path);
    ASSERT_EQ(bytes.size(), 16u + 112u);
    std::string hex;
    for (size_t i = 16; i < bytes.size(); ++i) {
        char b[3];
        std::snprintf(b, sizeof b, "%02x", unsigned(uint8_t(bytes[i])));
        hex += b;
    }
    EXPECT_EQ(hex, "0123a500000000000807060504030201"
                   "18171615141312112827262524232221"
                   "38373635343332314847464544434241"
                   "58575655545352516867666564636261"
                   "78777675747372718887868584838281"
                   "9897969594939291a8a7a6a5a4a3a2a1"
                   "b8b7b6b5b4b3b2b1c8c7c6c5c4c3c2c1");
    EXPECT_EQ(readEventTrace(path), std::vector<CycleEvent>{ev});
    std::remove(path.c_str());
}

TEST(EventTraceWriter, CloseReportsAFailedFinalFlush)
{
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full";
    // The header's flush fails at once, and the failure stays on the
    // stream: close() must report that loss, once.
    EventTraceWriter w("/dev/full");
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
        const CycleEvent ev{};
        EventTraceWriter w(path);
        w.write(&ev, 1, 0);
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

/** A three-record v2 trace whose byte @p offset of record 2 is set to
 *  @p value; the reader must deliver records 0 and 1 and then refuse
 *  record 2 with an error naming the file and the record. */
void
expectRecord2Rejected(const char *name, size_t offset, char value,
                      const std::string &why)
{
    const std::string path = tmpPath(name);
    std::vector<CycleEvent> evs(3);
    for (size_t i = 0; i < evs.size(); ++i)
        evs[i].seq = i;
    {
        EventTraceWriter w(path);
        w.write(evs.data(), evs.size(), 0);
        w.close();
    }
    {
        std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(std::streamoff(16 + 2 * 112 + offset));
        f.put(value);
    }
    EventTraceReader rd(path);
    CycleEvent ev;
    ASSERT_TRUE(rd.next(ev));
    EXPECT_EQ(ev, evs[0]);
    ASSERT_TRUE(rd.next(ev));
    EXPECT_EQ(ev, evs[1]);
    try {
        rd.next(ev);
        FAIL() << "record 2 must be rejected";
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()),
                  "event trace " + path + ": record 2: " + why);
    }
    std::remove(path.c_str());
}

TEST(EventTraceReader, RejectsAKindThatIsNeitherUopNorCounter)
{
    // analyzeCritPath skips a record that is not a Uop, while
    // summarizeTrace counts anything but a Counter as a µop: a kind
    // byte of 7 would read as both.
    expectRecord2Rejected("badkind.evt", 0, 7,
                          "kind 7 is neither uop (0) nor counter (1)");
}

TEST(EventTraceReader, RejectsANonzeroReservedByte)
{
    // Every v2/v3 writer zeroed the five bytes after flags.
    expectRecord2Rejected("badpad.evt", 3, 1, "nonzero reserved byte");
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
