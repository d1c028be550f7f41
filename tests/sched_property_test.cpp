/**
 * @file
 * Randomized property tests of the scheduler: arbitrary dependence
 * DAGs (with MOP pairs under the 2-cycle policy), random load
 * hit/miss latencies, random op classes — under every scheduling
 * policy. Invariants checked:
 *
 *  1. liveness: every inserted op eventually completes;
 *  2. dataflow: no consumer begins execution before every producer's
 *     value is available;
 *  3. MOP atomicity: grouped pairs issue once, sequenced over two
 *     consecutive execution cycles;
 *  4. replay soundness: after load misses, replayed consumers still
 *     satisfy (2);
 *  5. stall accounting: with the stall probe on, every issue slot of
 *     every cycle is charged to exactly one cause
 *     (sum(causes) == issueWidth * cycles), including under fault
 *     injection and across wrong-path squashes, and the structural
 *     audit (which checks every entry's stall class and the class
 *     counts, and that a stall snapshot the scheduler would reuse
 *     equals a fresh walk) passes every cycle.
 */

#include <gtest/gtest.h>

#include <map>
#include <random>

#include "obs/stall.hh"
#include "sched_harness.hh"
#include "verify/difftest.hh"
#include "verify/fault_injector.hh"
#include "verify/integrity.hh"

namespace
{

using namespace mop::test;
using mop::isa::OpClass;
namespace sched = mop::sched;

struct GenOp
{
    sched::SchedOp op;
    std::vector<uint64_t> producers;  // seqs of source producers
    bool mopHeadOf = false;           // next op joins this one
};

/** Build a random batch of ops with dependencies on earlier ops. */
std::vector<GenOp>
makeDag(std::mt19937 &rng, bool allow_mops, int n)
{
    std::vector<GenOp> ops;
    std::map<uint64_t, sched::Tag> tag_of;  // seq -> tag
    sched::Tag next_tag = 0;
    std::uniform_real_distribution<> uni(0, 1);

    for (int i = 0; i < n; ++i) {
        GenOp g;
        g.op.seq = uint64_t(i);
        double r = uni(rng);
        if (r < 0.15)
            g.op.op = OpClass::Load;
        else if (r < 0.2)
            g.op.op = OpClass::IntMult;
        else if (r < 0.25)
            g.op.op = OpClass::Branch;
        else
            g.op.op = OpClass::IntAlu;

        int nsrc = int(rng() % 3);
        for (int s = 0; s < nsrc && i > 0; ++s) {
            uint64_t p = rng() % uint64_t(i);
            if (tag_of.count(p)) {
                g.op.src[size_t(s) % 2] = tag_of[p];
                g.producers.push_back(p);
            }
        }
        if (g.op.op != OpClass::Branch) {
            g.op.dst = next_tag++;
            tag_of[g.op.seq] = g.op.dst;
        }
        // Pair two adjacent single-cycle value producers as a MOP:
        // tail depends on head only (always cycle-safe).
        if (allow_mops && g.op.op == OpClass::IntAlu && uni(rng) < 0.25 &&
            i + 1 < n) {
            g.mopHeadOf = true;
        }
        ops.push_back(g);
        if (g.mopHeadOf) {
            GenOp t;
            t.op.seq = uint64_t(++i);
            t.op.op = OpClass::IntAlu;
            t.op.dst = g.op.dst;  // shared MOP tag
            t.op.src = {g.op.dst, sched::kNoTag};
            t.producers.push_back(g.op.seq);
            ops.push_back(t);
        }
    }
    return ops;
}

class SchedProperty
    : public ::testing::TestWithParam<
          std::tuple<int, int, mop::sched::PolicyId>>
{
};

TEST_P(SchedProperty, RandomDagsCompleteInDataflowOrder)
{
    auto [pol_idx, seed, pid] = GetParam();
    const LoopPolicy policies[] = {
        LoopPolicy::Atomic,
        LoopPolicy::TwoCycle,
        LoopPolicy::SelectFreeSquashDep,
        LoopPolicy::SelectFreeScoreboard,
    };
    LoopPolicy pol = policies[pol_idx];
    SchedParams p = Harness::params(pol, pid);
    MOP_SKIP_IF_REJECTED(p);

    std::mt19937 rng(uint32_t(seed) * 7919 + uint32_t(pol_idx));
    bool mops = pol == LoopPolicy::TwoCycle;
    std::vector<GenOp> dag = makeDag(rng, mops, 60);

    p.numEntries = 24;  // force contention and stalls
    p.issueWidth = 2;
    Harness h(p);
    // Random load latencies: 40% misses of assorted depths.
    h.s.setLoadLatencyFn([seed](uint64_t seq) {
        std::mt19937 r(uint32_t(seq) * 131 + uint32_t(seed));
        int roll = int(r() % 10);
        if (roll < 6)
            return 2;
        if (roll < 8)
            return 10;
        return 110;
    });

    // Feed respecting queue capacity; join MOP tails immediately.
    size_t fed = 0;
    std::map<uint64_t, uint64_t> mop_pair;  // tail seq -> head seq
    int guard = 0;
    while (fed < dag.size() || h.s.occupancy() > 0) {
        ASSERT_LT(guard++, 20000) << "no forward progress";
        while (fed < dag.size() && h.s.canInsert()) {
            GenOp &g = dag[fed];
            if (g.mopHeadOf) {
                int e = h.s.insert(g.op, h.now, true);
                GenOp &t = dag[fed + 1];
                ASSERT_TRUE(h.s.appendTail(e, t.op, h.now));
                mop_pair[t.op.seq] = g.op.seq;
                fed += 2;
            } else {
                h.s.insert(g.op, h.now, false);
                fed += 1;
            }
        }
        h.tick();
    }

    // 1. Liveness.
    for (const GenOp &g : dag)
        ASSERT_TRUE(h.done.count(g.op.seq)) << "seq " << g.op.seq;

    // 2. Dataflow order (covers replay soundness).
    for (const GenOp &g : dag) {
        for (uint64_t p : g.producers) {
            if (mop_pair.count(g.op.seq) && mop_pair[g.op.seq] == p) {
                // Internal MOP edge: head completes exactly when the
                // tail starts executing.
                EXPECT_LE(h.done.at(p).complete,
                          h.done.at(g.op.seq).execStart + 0)
                    << "mop edge " << p << "->" << g.op.seq;
                continue;
            }
            EXPECT_LE(h.done.at(p).complete, h.done.at(g.op.seq).execStart)
                << "edge " << p << " -> " << g.op.seq;
        }
    }

    // 3. MOP atomicity.
    for (auto [tail, head] : mop_pair) {
        EXPECT_EQ(h.done.at(tail).issued, h.done.at(head).issued);
        EXPECT_EQ(h.done.at(tail).execStart,
                  h.done.at(head).execStart + 1);
    }
}

/** The end of a mispredict episode: squashAfter(seq) once every op
 *  has been inserted and @p delay further cycles have run. */
struct EpisodeSquash
{
    uint64_t seq;
    int delay;
};

/**
 * Drive one random DAG through a probed scheduler, charging every
 * cycle's issue slots into @p acc and auditing the queue structures
 * every cycle. Returns false if the run gave up (no forward progress,
 * or a MOP tail the scheduler refused).
 */
bool
runProbedSchedule(Harness &h, std::vector<GenOp> &dag,
                  mop::obs::StallAccounting &acc,
                  const EpisodeSquash *squash = nullptr)
{
    size_t fed = 0;
    int guard = 0;
    int since_fed = 0;
    while (fed < dag.size() || h.s.occupancy() > 0) {
        if (guard++ >= 60000)
            return false;
        while (fed < dag.size() && h.s.canInsert()) {
            GenOp &g = dag[fed];
            if (g.mopHeadOf && fed + 1 < dag.size()) {
                int e = h.s.insert(g.op, h.now, true);
                if (!h.s.appendTail(e, dag[fed + 1].op, h.now))
                    return false;
                fed += 2;
            } else {
                h.s.insert(g.op, h.now, false);
                fed += 1;
            }
        }
        if (squash && fed == dag.size() && since_fed++ == squash->delay)
            h.s.squashAfter(squash->seq, h.now);
        Cycle c = h.now;
        h.tick();
        acc.charge(h.s.stallSnapshot(c), mop::obs::StallCause::Frontend);
        h.s.auditStructures();
    }
    return true;
}

class SchedStallInvariant : public PerPolicyTest
{
};

TEST_P(SchedStallInvariant, HoldsOverThousandRandomSchedules)
{
    const LoopPolicy policies[] = {
        LoopPolicy::Atomic,
        LoopPolicy::TwoCycle,
        LoopPolicy::SelectFreeSquashDep,
        LoopPolicy::SelectFreeScoreboard,
    };
    for (int seed = 0; seed < 1000; ++seed) {
        // effectiveLoop keeps all 1000 seeds live under load-delay by
        // folding the select-free rotations onto their bases.
        LoopPolicy pol = effectiveLoop(policies[seed % 4]);
        std::mt19937 rng(uint32_t(seed) * 2654435761u + 17);
        std::vector<GenOp> dag =
            makeDag(rng, pol == LoopPolicy::TwoCycle, 30);

        SchedParams p = params(pol);
        p.numEntries = 16;
        p.issueWidth = 2 + seed % 3;
        Harness h(p);
        h.s.setStallProbe(true);
        h.s.setLoadLatencyFn([seed](uint64_t seq) {
            std::mt19937 r(uint32_t(seq) * 131 + uint32_t(seed));
            return int(r() % 10) < 7 ? 2 : 110;
        });

        mop::obs::StallAccounting acc(p.issueWidth);
        ASSERT_TRUE(runProbedSchedule(h, dag, acc)) << "seed " << seed;
        ASSERT_NO_THROW(acc.verifyInvariant()) << "seed " << seed;
        EXPECT_EQ(acc.totalSlots(),
                  uint64_t(p.issueWidth) * acc.cycles())
            << "seed " << seed;
        EXPECT_GT(acc.slots(mop::obs::StallCause::Useful), 0u)
            << "seed " << seed;
    }
}

TEST(SchedStallFaults, HoldsUnderEveryFaultKind)
{
    // Fault injection perturbs wakeup/select arbitrarily; whatever the
    // scheduler does, every charged cycle must still account for
    // exactly issueWidth slots, under every behaviour policy.
    // Detection (integrity/deadlock throws) is an acceptable outcome; a
    // broken invariant is not.
    for (sched::PolicyId pid : sched::registeredPolicies()) {
        for (size_t k = 0; k < mop::verify::kNumFaultKinds; ++k) {
            for (int seed = 1; seed <= 4; ++seed) {
                mop::verify::FaultSpec spec;
                spec.rate[k] = 0.05;
                spec.seed = uint64_t(seed);
                mop::verify::FaultInjector inj(spec);

                std::mt19937 rng(uint32_t(seed) * 7919 + uint32_t(k));
                std::vector<GenOp> dag = makeDag(rng, true, 40);

                SchedParams p = Harness::params(LoopPolicy::TwoCycle, pid);
                p.numEntries = 16;
                p.issueWidth = 2;
                p.watchdogCycles = 5000;
                Harness h(p);
                h.s.setFaultInjector(&inj);
                h.s.setStallProbe(true);

                mop::obs::StallAccounting acc(p.issueWidth);
                try {
                    runProbedSchedule(h, dag, acc);
                } catch (const mop::verify::IntegrityError &) {
                    // structured detection: fine
                } catch (const sched::DeadlockError &) {
                    // fault-induced deadlock, diagnosed: fine
                }
                ASSERT_NO_THROW(acc.verifyInvariant())
                    << sched::policyIdToken(pid) << " "
                    << mop::verify::faultKindName(mop::verify::FaultKind(k))
                    << " seed " << seed;
                EXPECT_EQ(acc.totalSlots(),
                          uint64_t(p.issueWidth) * acc.cycles())
                    << sched::policyIdToken(pid) << " "
                    << mop::verify::faultKindName(mop::verify::FaultKind(k))
                    << " seed " << seed;
            }
        }
    }
}

class SchedStallWrongPath : public PerPolicyTest
{
};

TEST_P(SchedStallWrongPath, SquashedEpisodesKeepPlanesExact)
{
    // A mispredict episode as the core drives it: every op after the
    // branch anchor is wrong-path, queued and issued alongside the
    // right path, then squashed at the anchor while some are still
    // waiting (splitting a MOP when the anchor is its head). The
    // stall classes and their counts must follow every free and flag
    // change of the squash, and wrong-path occupancy must be charged.
    const LoopPolicy policies[] = {
        LoopPolicy::Atomic,
        LoopPolicy::TwoCycle,
        LoopPolicy::SelectFreeSquashDep,
        LoopPolicy::SelectFreeScoreboard,
    };
    uint64_t wrong_slots = 0;
    for (int seed = 0; seed < 400; ++seed) {
        LoopPolicy pol = effectiveLoop(policies[seed % 4]);
        std::mt19937 rng(uint32_t(seed) * 40503u + 11);
        std::vector<GenOp> dag =
            makeDag(rng, pol == LoopPolicy::TwoCycle, 40);
        const size_t anchor = 8 + size_t(seed) % 16;
        for (size_t i = anchor + 1; i < dag.size(); ++i)
            dag[i].op.wrongPath = true;

        SchedParams p = params(pol);
        p.numEntries = 16;
        p.issueWidth = 2 + seed % 3;
        Harness h(p);
        h.s.setStallProbe(true);
        h.s.setLoadLatencyFn([seed](uint64_t seq) {
            std::mt19937 r(uint32_t(seq) * 131 + uint32_t(seed));
            return int(r() % 10) < 6 ? 2 : 60;
        });

        mop::obs::StallAccounting acc(p.issueWidth);
        const EpisodeSquash squash{dag[anchor].op.seq, seed % 7};
        ASSERT_TRUE(runProbedSchedule(h, dag, acc, &squash))
            << "seed " << seed;
        ASSERT_NO_THROW(acc.verifyInvariant()) << "seed " << seed;
        wrong_slots += acc.slots(mop::obs::StallCause::WrongPath);
    }
    EXPECT_GT(wrong_slots, 0u);
}

TEST(SchedStallProbe, SwitchingOnMidRunRebuildsThePlanes)
{
    // The stall classes are kept only under the probe. Switching it
    // on over a busy queue (issued, waiting, ready and pending entries,
    // loads in a miss shadow) must rebuild them and their counts from
    // the entries, so the audit passes at once and keeps passing.
    std::mt19937 rng(7);
    std::vector<GenOp> dag = makeDag(rng, false, 24);
    Harness h(Harness::params(LoopPolicy::TwoCycle));
    h.s.setLoadLatencyFn([](uint64_t seq) { return seq % 3 ? 2 : 60; });
    for (size_t i = 0; i < dag.size(); ++i) {
        h.s.insert(dag[i].op, h.now, false);
        if (i % 4 == 3)
            h.tick();
    }
    // A MOP head whose tail has not arrived yet.
    int head = h.s.insert(Harness::alu(dag.size(), Tag(dag.size() + 100)),
                          h.now, true);
    h.s.setStallProbe(true);
    ASSERT_NO_THROW(h.s.auditStructures());

    mop::obs::StallAccounting acc(h.s.params().issueWidth);
    for (int c = 0; c < 400 && h.s.occupancy() > 0; ++c) {
        if (c == 20)
            h.s.clearPending(head, h.now);
        Cycle now = h.now;
        h.tick();
        acc.charge(h.s.stallSnapshot(now), mop::obs::StallCause::Frontend);
        ASSERT_NO_THROW(h.s.auditStructures()) << "cycle " << now;
    }
    EXPECT_EQ(h.s.occupancy(), 0);
    EXPECT_NO_THROW(acc.verifyInvariant());
}

class SchedOracle : public PerPolicyTest
{
};

TEST_P(SchedOracle, ProductionMatchesReferenceOnThousandSchedules)
{
    // The strongest property we have: the production scheduler and the
    // deliberately simple reference oracle agree cycle-for-cycle on
    // every issue, completion and occupancy over a large random corpus
    // spanning all four loop organizations (the generator sweeps them)
    // — run once per registered behaviour policy.
    for (int seed = 0; seed < 1000; ++seed) {
        uint64_t s = uint64_t(uint32_t(seed) * 2654435761u + 17);
        mop::verify::ScriptConfig cfg;
        cfg.numOps = 30;
        cfg.policy = policyId();
        mop::verify::ScheduleScript script =
            mop::verify::makeRandomScript(s, cfg);
        mop::verify::DivergenceReport rep;
        ASSERT_TRUE(
            mop::verify::runLockstep(script, mop::verify::RefQuirks{},
                                     &rep))
            << "seed " << s << " cycle " << rep.cycle << " [" << rep.what
            << "] " << rep.detail;
    }
}

std::string
propertyName(const ::testing::TestParamInfo<
             std::tuple<int, int, mop::sched::PolicyId>> &info)
{
    static const char *names[] = {"atomic", "twocycle", "squashdep",
                                  "scoreboard"};
    return std::string(names[std::get<0>(info.param)]) + "_s" +
           std::to_string(std::get<1>(info.param)) + "_" +
           mop::sched::policyIdToken(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, SchedProperty,
    ::testing::Combine(
        ::testing::Range(0, 4), ::testing::Range(1, 9),
        ::testing::ValuesIn(mop::sched::registeredPolicies())),
    propertyName);

MOP_INSTANTIATE_PER_POLICY(SchedStallInvariant);
MOP_INSTANTIATE_PER_POLICY(SchedStallWrongPath);
MOP_INSTANTIATE_PER_POLICY(SchedOracle);

} // namespace
