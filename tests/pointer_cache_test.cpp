/**
 * @file
 * MOP pointer cache tests: IL1-line coupling and the last-arriving
 * operand exclusion mechanism (Sections 5.1.3 / 5.4.2).
 */

#include <gtest/gtest.h>

#include <map>
#include <random>

#include "core/mop_pointer.hh"

namespace
{

using namespace mop::core;

MopPointer
ptr(uint8_t offset, bool ctrl = false)
{
    MopPointer p;
    p.offset = offset;
    p.ctrl = ctrl;
    p.tailPc = 0x400000 + offset * 4;
    return p;
}

TEST(PointerCache, WriteAndLookup)
{
    MopPointerCache c;
    EXPECT_FALSE(c.lookup(0x400000).valid());
    c.write(0x400000, ptr(3, true));
    MopPointer p = c.lookup(0x400000);
    EXPECT_TRUE(p.valid());
    EXPECT_EQ(p.offset, 3);
    EXPECT_TRUE(p.ctrl);
    EXPECT_EQ(c.writes(), 1u);
}

TEST(PointerCache, ZeroOffsetIsInvalidAndNotStored)
{
    MopPointerCache c;
    c.write(0x400000, MopPointer{});
    EXPECT_FALSE(c.lookup(0x400000).valid());
    EXPECT_EQ(c.size(), 0u);
}

TEST(PointerCache, LineEvictionDropsPointersInLine)
{
    MopPointerCache c;
    c.write(0x400000, ptr(1));
    c.write(0x40003c, ptr(2));  // same 64B line
    c.write(0x400040, ptr(3));  // next line
    c.evictLine(0x400000, 64);
    EXPECT_FALSE(c.lookup(0x400000).valid());
    EXPECT_FALSE(c.lookup(0x40003c).valid());
    EXPECT_TRUE(c.lookup(0x400040).valid());
    EXPECT_EQ(c.lineEvictions(), 1u);
}

TEST(PointerCache, DeleteAndExcludeBlocksSamePairing)
{
    MopPointerCache c;
    c.write(0x400000, ptr(3));
    c.deleteAndExclude(0x400000);
    EXPECT_FALSE(c.lookup(0x400000).valid());
    EXPECT_TRUE(c.isExcluded(0x400000, 3));
    EXPECT_FALSE(c.isExcluded(0x400000, 2));
    // Re-detection of the same pair is rejected...
    c.write(0x400000, ptr(3));
    EXPECT_FALSE(c.lookup(0x400000).valid());
    // ...but an alternative pair is accepted (Figure 12c).
    c.write(0x400000, ptr(2));
    EXPECT_TRUE(c.lookup(0x400000).valid());
    EXPECT_EQ(c.filterDeletions(), 1u);
}

TEST(PointerCache, DeleteOfMissingPointerIsNoop)
{
    MopPointerCache c;
    c.deleteAndExclude(0x400123);
    EXPECT_EQ(c.filterDeletions(), 0u);
}

TEST(PointerCache, IndependentFlagRoundTrips)
{
    MopPointerCache c;
    MopPointer p = ptr(1);
    p.independent = true;
    c.write(0x400100, p);
    EXPECT_TRUE(c.lookup(0x400100).independent);
}

TEST(PointerCache, ProbeReturnsPointerAndExclusionsTogether)
{
    MopPointerCache c;
    c.write(0x400000, ptr(3));
    c.deleteAndExclude(0x400000);
    c.write(0x400000, ptr(2));
    PointerProbe p = c.probe(0x400000);
    EXPECT_EQ(p.ptr.offset, 2);
    EXPECT_EQ(p.excluded, uint8_t(1u << 3));
    PointerProbe none = c.probe(0x400004);
    EXPECT_FALSE(none.ptr.valid());
    EXPECT_EQ(none.excluded, 0);
}

TEST(PointerCache, VersionMovesOnEveryVisibleMutationOnly)
{
    MopPointerCache c;
    uint64_t v = c.version();
    c.write(0x400000, ptr(3));
    EXPECT_GT(c.version(), v) << "write";
    v = c.version();
    c.write(0x400000, ptr(3));
    EXPECT_GT(c.version(), v) << "rewrite";
    v = c.version();
    c.deleteAndExclude(0x400000);
    EXPECT_GT(c.version(), v) << "delete";
    v = c.version();
    c.write(0x400000, ptr(3));
    EXPECT_EQ(c.version(), v) << "excluded write";
    c.write(0x400000, MopPointer{});
    EXPECT_EQ(c.version(), v) << "invalid write";
    c.deleteAndExclude(0x400000);
    c.deleteAndExclude(0x400200);
    EXPECT_EQ(c.version(), v) << "delete of an absent pointer";
    c.evictLine(0x400000, 64);
    c.evictLine(0x500000, 64);
    EXPECT_EQ(c.version(), v) << "eviction of lines without pointers";
    c.write(0x400004, ptr(1));
    v = c.version();
    c.evictLine(0x400000, 64);
    EXPECT_GT(c.version(), v) << "eviction that drops a pointer";
}

TEST(PointerCache, ExclusionsSurviveEviction)
{
    MopPointerCache c;
    c.write(0x400000, ptr(3));
    c.deleteAndExclude(0x400000);
    c.write(0x400000, ptr(2));
    c.evictLine(0x400000, 64);
    EXPECT_FALSE(c.lookup(0x400000).valid());
    EXPECT_TRUE(c.isExcluded(0x400000, 3));
    c.write(0x400000, ptr(3));
    EXPECT_FALSE(c.lookup(0x400000).valid());
    c.write(0x400000, ptr(2));
    EXPECT_TRUE(c.lookup(0x400000).valid());
}

TEST(PointerCache, SizeCountsResidentPointers)
{
    MopPointerCache c;
    c.write(0x400000, ptr(1));
    c.write(0x400004, ptr(2));
    EXPECT_EQ(c.size(), 2u);
    c.write(0x400000, ptr(3));  // rewrite
    EXPECT_EQ(c.size(), 2u);
    c.deleteAndExclude(0x400000);
    EXPECT_EQ(c.size(), 1u);
    c.deleteAndExclude(0x400000);  // already gone
    EXPECT_EQ(c.size(), 1u);
    c.write(0x400000, ptr(2));  // alternative pairing after exclusion
    EXPECT_EQ(c.size(), 2u);
    c.evictLine(0x400000, 64);
    EXPECT_EQ(c.size(), 0u);
    EXPECT_EQ(c.writes(), 4u);
}

TEST(PointerCache, MatchesMapModelAcrossGrowth)
{
    // 100k distinct head PCs force the table to grow many times; a
    // std::map model of pointers and exclusions must agree throughout,
    // including after deletions and evictions punch holes in probe
    // runs.
    struct Model
    {
        uint8_t offset = 0;
        uint8_t excluded = 0;
    };
    std::map<uint64_t, Model> model;
    MopPointerCache c;
    std::mt19937_64 rng(7);
    auto check = [&](uint64_t pc) {
        const Model &m = model[pc];
        PointerProbe p = c.probe(pc);
        ASSERT_EQ(p.ptr.offset, m.offset) << std::hex << pc;
        ASSERT_EQ(p.excluded, m.excluded) << std::hex << pc;
        if (m.offset) {
            ASSERT_EQ(p.ptr.tailPc, pc + 4u * m.offset) << std::hex << pc;
        }
    };
    constexpr uint64_t kPcs = 100000;
    for (uint64_t i = 0; i < 3 * kPcs; ++i) {
        uint64_t pc = 0x400000 + 4 * (i < kPcs ? i : rng() % kPcs);
        uint8_t off = uint8_t(1 + rng() % 7);
        switch (rng() % 8) {
          case 0: {
            c.deleteAndExclude(pc);
            Model &m = model[pc];
            if (m.offset) {
                m.excluded |= uint8_t(1u << m.offset);
                m.offset = 0;
            }
            break;
          }
          case 1: {
            uint64_t line = pc & ~uint64_t(63);
            c.evictLine(line, 64);
            for (uint64_t q = line; q < line + 64; q += 4)
                if (model.count(q))
                    model[q].offset = 0;
            break;
          }
          default: {
            MopPointer p;
            p.offset = off;
            p.tailPc = pc + 4u * off;
            c.write(pc, p);
            Model &m = model[pc];
            if (!((m.excluded >> off) & 1))
                m.offset = off;
            break;
          }
        }
        check(pc);
        if (HasFatalFailure())
            return;
    }
    size_t resident = 0;
    for (const auto &[pc, m] : model) {
        check(pc);
        if (HasFatalFailure())
            return;
        resident += m.offset != 0;
    }
    EXPECT_EQ(c.size(), resident);
    // A PC never touched has nothing.
    EXPECT_FALSE(c.lookup(0x9000000).valid());
}

} // namespace
