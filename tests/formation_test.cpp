/**
 * @file
 * MOP formation tests: the dependence-translation table of Figure 10,
 * the pending/insert-group policy of Figure 11, pointer verification
 * against diverging control flow, and tail demotion.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/mop_formation.hh"
#include "sched/scheduler.hh"

namespace
{

using namespace mop::core;
using mop::isa::MicroOp;
using mop::isa::OpClass;
using mop::sched::kNoTag;
using mop::sched::Tag;
using Role = FormOutcome::Role;

constexpr uint64_t kPc = 0x400000;

MicroOp
alu(uint64_t dyn_id, int dst, int s0 = -1, int s1 = -1)
{
    MicroOp u;
    u.pc = kPc + 4 * dyn_id;
    u.op = OpClass::IntAlu;
    u.dst = int16_t(dst);
    u.src = {int16_t(s0), int16_t(s1)};
    return u;
}

void
writePointer(MopPointerCache &c, uint64_t head_dyn, uint8_t offset,
             bool independent = false)
{
    MopPointer p;
    p.offset = offset;
    p.tailPc = kPc + 4 * (head_dyn + offset);
    p.independent = independent;
    c.write(kPc + 4 * head_dyn, p);
}

TEST(Formation, Figure10TranslationExample)
{
    // I1: SUB r3 <- r1,1   I2: ADD r4 <- r3,5
    // I3: NOT r5 <- r3     I4: XOR r6 <- r2,r5
    // MOPs: (I1,I2) and (I3,I4); a single MOP ID per pair.
    MopPointerCache cache;
    writePointer(cache, 0, 1);
    writePointer(cache, 2, 1);
    MopFormation f(true, cache);

    FormOutcome o1 = f.process(alu(0, 3, 1), 0);
    EXPECT_EQ(o1.role, Role::Head);
    Tag m5 = o1.dst;
    f.setHeadEntry(0, 17);

    FormOutcome o2 = f.process(alu(1, 4, 3, -1), 1);
    EXPECT_EQ(o2.role, Role::Tail);
    EXPECT_EQ(o2.headEntry, 17);
    EXPECT_EQ(o2.dst, m5);          // same MOP ID for both
    EXPECT_EQ(o2.src[0], m5);       // internal edge, elided downstream

    FormOutcome o3 = f.process(alu(2, 5, 3), 2);
    EXPECT_EQ(o3.role, Role::Head);
    Tag m6 = o3.dst;
    EXPECT_NE(m6, m5);
    EXPECT_EQ(o3.src[0], m5);       // r3 now maps to MOP m5
    f.setHeadEntry(2, 23);

    FormOutcome o4 = f.process(alu(3, 6, 2, 5), 3);
    EXPECT_EQ(o4.role, Role::Tail);
    EXPECT_EQ(o4.dst, m6);
    EXPECT_EQ(o4.src[0], kNoTag);   // r2 has no in-flight producer
    EXPECT_EQ(o4.src[1], m6);       // r5 -> m6 (internal)

    // A consumer of r4 becomes a child of MOP m5 (Figure 10's point).
    FormOutcome o5 = f.process(alu(4, 7, 4), 4);
    EXPECT_EQ(o5.role, Role::Single);
    EXPECT_EQ(o5.src[0], m5);
    EXPECT_EQ(f.groupsFormed(), 2u);
}

TEST(Formation, DisabledNeverGroups)
{
    MopPointerCache cache;
    writePointer(cache, 0, 1);
    MopFormation f(false, cache);
    FormOutcome o1 = f.process(alu(0, 1), 0);
    EXPECT_EQ(o1.role, Role::Single);
    FormOutcome o2 = f.process(alu(1, 2, 1), 1);
    EXPECT_EQ(o2.role, Role::Single);
    EXPECT_EQ(o2.src[0], o1.dst);  // plain dependence renaming works
}

TEST(Formation, FreshTagsAreUnique)
{
    MopPointerCache cache;
    MopFormation f(true, cache);
    Tag a = f.process(alu(0, 1), 0).dst;
    Tag b = f.process(alu(1, 2), 1).dst;
    Tag c = f.process(alu(2, 3), 2).dst;
    EXPECT_NE(a, b);
    EXPECT_NE(b, c);
}

TEST(Formation, PendingExpiresAfterTwoGroupBoundaries)
{
    MopPointerCache cache;
    writePointer(cache, 0, 5);
    MopFormation f(true, cache);
    FormOutcome o = f.process(alu(0, 1), 0);
    ASSERT_EQ(o.role, Role::Head);
    f.setHeadEntry(0, 7);
    EXPECT_TRUE(f.groupBoundary().empty());  // tail may be next group
    auto expired = f.groupBoundary();        // too late now (Figure 11)
    ASSERT_EQ(expired.size(), 1u);
    EXPECT_EQ(expired[0], 7);
    EXPECT_EQ(f.pendingExpired(), 1u);
    // The tail µop now arrives: it must be an ordinary instruction.
    FormOutcome t = f.process(alu(5, 2, 1), 5);
    EXPECT_EQ(t.role, Role::Single);
}

TEST(Formation, VerifyFailOnUnexpectedInstruction)
{
    MopPointerCache cache;
    writePointer(cache, 0, 2);
    MopFormation f(true, cache);
    FormOutcome h = f.process(alu(0, 1), 0);
    ASSERT_EQ(h.role, Role::Head);
    f.setHeadEntry(0, 9);
    f.process(alu(1, 8), 1);
    // Control flow diverged: the µop at the expected dyn id has a
    // different PC than the pointer recorded.
    MicroOp wrong = alu(7, 2, 1);  // pc of dyn id 7, arriving as id 2
    FormOutcome t = f.process(wrong, 2);
    EXPECT_NE(t.role, Role::Tail);
    EXPECT_EQ(t.clearPendingEntry, 9);
    EXPECT_EQ(f.verifyFails(), 1u);
}

TEST(Formation, DemoteTailAssignsFreshTag)
{
    MopPointerCache cache;
    writePointer(cache, 0, 1);
    MopFormation f(true, cache);
    f.process(alu(0, 1), 0);
    f.setHeadEntry(0, 3);
    FormOutcome t = f.process(alu(1, 2, 1), 1);
    ASSERT_EQ(t.role, Role::Tail);
    Tag mop_tag = t.dst;
    // Caller failed to append (source budget): demote.
    Tag fresh = f.demoteTail(alu(1, 2, 1));
    EXPECT_NE(fresh, mop_tag);
    // Consumers of r2 now see the demoted tag.
    FormOutcome c = f.process(alu(2, 3, 2), 2);
    EXPECT_EQ(c.src[0], fresh);
    EXPECT_EQ(f.demotions(), 1u);
}

TEST(Formation, TailClaimedByOnlyOneHead)
{
    MopPointerCache cache;
    writePointer(cache, 0, 2);
    writePointer(cache, 1, 1);  // would claim the same tail (dyn 2)
    MopFormation f(true, cache);
    EXPECT_EQ(f.process(alu(0, 1), 0).role, Role::Head);
    f.setHeadEntry(0, 1);
    // Second head's expected tail is already claimed: stays single.
    EXPECT_EQ(f.process(alu(1, 2), 1).role, Role::Single);
    FormOutcome t = f.process(alu(2, 3, 1), 2);
    EXPECT_EQ(t.role, Role::Tail);
    EXPECT_EQ(t.headDynId, 0u);
}

TEST(Formation, IndependentPointerAllowsNonValueGenHead)
{
    MopPointerCache cache;
    MopPointer p;
    p.offset = 1;
    p.tailPc = kPc + 4;
    p.independent = true;
    cache.write(kPc, p);
    MopFormation f(true, cache);
    MicroOp store;
    store.pc = kPc;
    store.op = OpClass::StoreAddr;
    store.src = {10, -1};
    FormOutcome h = f.process(store, 0);
    EXPECT_EQ(h.role, Role::Head);
    EXPECT_TRUE(h.independent);
    EXPECT_NE(h.dst, kNoTag);  // MOP scheduling tag despite no dest
}

TEST(Formation, DependentPointerRequiresValueGenHead)
{
    MopPointerCache cache;
    writePointer(cache, 0, 1, /*independent=*/false);
    MopFormation f(true, cache);
    MicroOp store;
    store.pc = kPc;
    store.op = OpClass::StoreAddr;
    store.src = {10, -1};
    EXPECT_EQ(f.process(store, 0).role, Role::Single);
}

// With the scheduler's tag pool attached, every table slot, checkpoint
// slot and pending window holds a reference to the tag it names.

mop::sched::SchedParams
poolParams()
{
    mop::sched::SchedParams p;
    p.numEntries = 32;
    return p;
}

TEST(Formation, PooledSourceOutlivesItsOwnDestinationMapping)
{
    // r1 = r1 + 1 displaces the very tag it reads. With the producer
    // gone from the queue, the displaced mapping is the tag's last
    // reference, so it must hold until the consumer's entry names it.
    mop::sched::Scheduler s(poolParams());
    MopPointerCache cache;
    MopFormation f(false, cache);
    f.setTagPool(&s);
    Tag a = f.process(alu(0, 1), 0).dst;
    f.releaseDisplaced();
    FormOutcome o = f.process(alu(1, 1, 1), 1);
    ASSERT_EQ(o.src[0], a);
    EXPECT_TRUE(s.tagPool().isLive(a));
    EXPECT_EQ(s.tagPool().refs(a), 1u);  // the displaced mapping
    mop::sched::SchedOp op;
    op.seq = 1;
    op.dst = o.dst;
    op.src = o.src;
    s.insert(op, 0);
    f.releaseDisplaced();
    EXPECT_EQ(s.tagPool().refs(a), 1u);  // now the entry's
    EXPECT_NO_THROW(s.auditStructures());
    // The next fresh tag is not the one still named.
    EXPECT_NE(f.process(alu(2, 2), 2).dst, a);
}

TEST(Formation, CheckpointHoldsTagsUntilRestore)
{
    mop::sched::Scheduler s(poolParams());
    MopPointerCache cache;
    MopFormation f(false, cache);
    f.setTagPool(&s);
    Tag right = f.process(alu(0, 1), 0).dst;
    f.releaseDisplaced();
    f.checkpoint();
    EXPECT_EQ(s.tagPool().refs(right), 2u);  // table + checkpoint
    Tag wrong = f.process(alu(1, 1), 1).dst;
    f.releaseDisplaced();
    EXPECT_EQ(s.tagPool().refs(right), 1u);  // the checkpoint's
    EXPECT_NO_THROW(s.auditStructures());
    f.restoreToCheckpoint();
    EXPECT_FALSE(s.tagPool().isLive(wrong));
    EXPECT_EQ(s.tagPool().refs(right), 1u);  // handed to the table
    EXPECT_EQ(f.process(alu(2, 2, 1), 2).src[0], right);
    EXPECT_THROW(f.restoreToCheckpoint(), std::logic_error);
}

TEST(Formation, PendingWindowHoldsItsMopTag)
{
    // A head with no destination register is named only by its
    // window until the head's entry is inserted.
    mop::sched::Scheduler s(poolParams());
    MopPointerCache cache;
    writePointer(cache, 0, 5, /*independent=*/true);
    MopFormation f(true, cache);
    f.setTagPool(&s);
    MicroOp store;
    store.pc = kPc;
    store.op = OpClass::StoreAddr;
    store.src = {10, -1};
    FormOutcome h = f.process(store, 0);
    ASSERT_EQ(h.role, Role::Head);
    EXPECT_EQ(s.tagPool().refs(h.dst), 1u);
    f.groupBoundary();
    f.groupBoundary();  // the window expires
    EXPECT_FALSE(s.tagPool().isLive(h.dst));
}

TEST(Formation, ZeroRegisterSourcesNeverTranslate)
{
    MopPointerCache cache;
    MopFormation f(true, cache);
    f.process(alu(0, mop::isa::kZeroReg), 0);  // dst is the zero reg
    FormOutcome o = f.process(alu(1, 2, mop::isa::kZeroReg), 1);
    EXPECT_EQ(o.src[0], kNoTag);
}

} // namespace
