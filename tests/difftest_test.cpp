/**
 * @file
 * Differential-oracle tests: fixed-seed fuzz corpora must show zero
 * production/oracle divergence, the generator must be seed-stable, and
 * — mutation testing — re-enabling any historical scheduler bug
 * inside the oracle must make the fuzzer find it and shrink it to a
 * small repro.
 */

#include <gtest/gtest.h>

#include <map>

#include "sched/policy.hh"
#include "verify/difftest.hh"

namespace
{

using mop::verify::DivergenceReport;
using mop::verify::makeRandomScript;
using mop::verify::RefQuirks;
using mop::verify::runLockstep;
using mop::verify::ScheduleScript;
using mop::verify::ScriptConfig;
using mop::verify::ScriptItem;
using mop::verify::scriptOpCount;
using mop::verify::shrinkScript;

ScriptConfig
adversarialMopConfig()
{
    ScriptConfig cfg;
    cfg.sweepParams = false;  // TwoCycle, 4-op MOPs, starved FUs
    cfg.numOps = 80;
    return cfg;
}

/** Mispredict-episode scripts: wrong-path bursts the generator always
 *  terminates with a Squash at the branch anchor. */
ScriptConfig
wrongPathConfig(mop::sched::PolicyId pol)
{
    ScriptConfig cfg;
    cfg.policy = pol;
    cfg.wrongPath = true;
    cfg.numOps = 80;
    return cfg;
}

/**
 * Fuzz under @p quirks and shrink divergences until a repro smaller
 * than @p target_ops emerges (ddmin can plateau on an unlucky script,
 * so keep fuzzing past it like a real campaign would). Returns false
 * if no divergence at all was found.
 */
bool
fuzzAndShrink(const RefQuirks &quirks, const ScriptConfig &cfg,
              uint64_t max_seeds, int target_ops, ScheduleScript *min,
              bool skip_idle = false)
{
    bool any = false;
    int best = INT32_MAX;
    for (uint64_t seed = 1; seed <= max_seeds; ++seed) {
        ScheduleScript s = makeRandomScript(seed, cfg);
        DivergenceReport rep;
        if (runLockstep(s, quirks, &rep, skip_idle))
            continue;
        any = true;
        ScheduleScript m = shrinkScript(s, quirks, skip_idle);
        if (scriptOpCount(m) < best) {
            best = scriptOpCount(m);
            *min = m;
        }
        if (best < target_ops)
            break;
    }
    return any;
}

TEST(Difftest, FixedSeedCorpusHasNoDivergence)
{
    // The CI corpus: parameter-sweeping scripts over all four policies.
    for (uint64_t seed = 1; seed <= 120; ++seed) {
        ScheduleScript s = makeRandomScript(seed);
        DivergenceReport rep;
        ASSERT_TRUE(runLockstep(s, RefQuirks{}, &rep))
            << "seed " << seed << " cycle " << rep.cycle << " ["
            << rep.what << "] " << rep.detail;
    }
}

TEST(Difftest, AdversarialMopCorpusHasNoDivergence)
{
    for (uint64_t seed = 1; seed <= 80; ++seed) {
        ScheduleScript s = makeRandomScript(seed, adversarialMopConfig());
        DivergenceReport rep;
        ASSERT_TRUE(runLockstep(s, RefQuirks{}, &rep))
            << "seed " << seed << " cycle " << rep.cycle << " ["
            << rep.what << "] " << rep.detail;
    }
}

/** Loops deeper than dispatch plus latency broadcast after their
 *  producer completed: both models must keep such an entry until its
 *  broadcast has left the bus, and agree on everything after. */
TEST(Difftest, DeepLoopCorpusHasNoDivergence)
{
    const ScriptConfig configs[] = {ScriptConfig{}, adversarialMopConfig()};
    std::map<int, int> stalls;  // drain-guard stops per depth
    for (int depth : {3, 6, 8}) {
        for (const ScriptConfig &cfg : configs) {
            for (uint64_t seed = 1; seed <= 40; ++seed) {
                ScheduleScript s = makeRandomScript(seed, cfg);
                s.params.schedDepth = depth;
                DivergenceReport rep;
                ASSERT_TRUE(runLockstep(s, RefQuirks{}, &rep))
                    << "depth " << depth << " seed " << seed << " cycle "
                    << rep.cycle << " [" << rep.what << "] " << rep.detail;
                stalls[depth] += rep.stalled;
                // This sweeping-config script squashes a producer that
                // completed but had not broadcast, then issues more ops:
                // none may name the freed tag, so the script drains.
                if (depth == 6 && seed == 5 && &cfg == &configs[0]) {
                    EXPECT_FALSE(rep.stalled);
                }
            }
        }
    }
    // A deeper loop holds entries longer; it must not strand more
    // scripts than the shallow one does.
    EXPECT_LE(stalls[6], stalls[3]);
    EXPECT_LE(stalls[8], stalls[3]);
}

/** The same corpora under each non-paper behaviour policy: the oracle
 *  models load-delay scheduling and static pair fusion too, and must
 *  agree with production everywhere. */
TEST(Difftest, PolicyCorpusHasNoDivergence)
{
    for (auto pol : {mop::sched::PolicyId::LoadDelay,
                     mop::sched::PolicyId::StaticFuse}) {
        ScriptConfig sweeping;
        sweeping.policy = pol;
        ScriptConfig adversarial = adversarialMopConfig();
        adversarial.policy = pol;
        for (const ScriptConfig &cfg : {sweeping, adversarial}) {
            for (uint64_t seed = 1; seed <= 60; ++seed) {
                ScheduleScript s = makeRandomScript(seed, cfg);
                DivergenceReport rep;
                ASSERT_TRUE(runLockstep(s, RefQuirks{}, &rep))
                    << mop::sched::policyIdToken(pol) << " seed " << seed
                    << " cycle " << rep.cycle << " [" << rep.what << "] "
                    << rep.detail;
            }
        }
    }
}

/** Skip-idle lockstep under each non-paper policy: the next-event
 *  invariant must hold for the retimed load broadcasts (load-delay)
 *  and the decode-fused formation engine (static-fuse) too. */
TEST(Difftest, PolicySkipIdleCorpusHasNoDivergence)
{
    for (auto pol : {mop::sched::PolicyId::LoadDelay,
                     mop::sched::PolicyId::StaticFuse}) {
        ScriptConfig sweeping;
        sweeping.policy = pol;
        ScriptConfig adversarial = adversarialMopConfig();
        adversarial.policy = pol;
        for (const ScriptConfig &cfg : {sweeping, adversarial}) {
            for (uint64_t seed = 1; seed <= 40; ++seed) {
                ScheduleScript s = makeRandomScript(seed, cfg);
                DivergenceReport rep;
                ASSERT_TRUE(runLockstep(s, RefQuirks{}, &rep,
                                        /*skip_idle=*/true))
                    << mop::sched::policyIdToken(pol) << " seed " << seed
                    << " cycle " << rep.cycle << " [" << rep.what << "] "
                    << rep.detail;
            }
        }
    }
}

/** Skip-idle mode: the production side follows the core's cycle-skip
 *  recipe (nextEventCycle + skipped ticks) while the oracle ticks
 *  every cycle. Zero divergence means no observable event ever lands
 *  inside a window the production model declared idle — the invariant
 *  the pipeline's event-driven skipping rests on. */
TEST(Difftest, SkipIdleCorpusHasNoDivergence)
{
    for (uint64_t seed = 1; seed <= 60; ++seed) {
        ScheduleScript s = makeRandomScript(seed);
        DivergenceReport rep;
        ASSERT_TRUE(runLockstep(s, RefQuirks{}, &rep,
                                /*skip_idle=*/true))
            << "seed " << seed << " cycle " << rep.cycle << " ["
            << rep.what << "] " << rep.detail;
    }
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        ScheduleScript s = makeRandomScript(seed, adversarialMopConfig());
        DivergenceReport rep;
        ASSERT_TRUE(runLockstep(s, RefQuirks{}, &rep,
                                /*skip_idle=*/true))
            << "seed " << seed << " cycle " << rep.cycle << " ["
            << rep.what << "] " << rep.detail;
    }
}

/** Skip-idle lockstep is not vacuous: an oracle with a reintroduced
 *  bug must still diverge when the production side skips cycles. */
TEST(Difftest, SkipIdleModeStillCatchesMutations)
{
    RefQuirks quirks;
    quirks.fuHeadOnlyCheck = true;
    bool caught = false;
    for (uint64_t seed = 1; seed <= 40 && !caught; ++seed) {
        ScheduleScript s = makeRandomScript(seed, adversarialMopConfig());
        DivergenceReport rep;
        caught = !runLockstep(s, quirks, &rep, /*skip_idle=*/true);
    }
    EXPECT_TRUE(caught)
        << "FU-overbooking quirk invisible to skip-idle lockstep";
}

/** Wrong-path corpora: mispredict episodes (wrong-path bursts with
 *  replay windows the squash lands inside, MOP heads whose tails are
 *  never fetched) under every behaviour policy. Zero divergence is
 *  the proof that SchedOp::wrongPath is observational — the flag
 *  rides through both models and the lockstep comparator checks that
 *  timing never moves. */
TEST(Difftest, WrongPathCorpusHasNoDivergence)
{
    for (auto pol : {mop::sched::PolicyId::Paper,
                     mop::sched::PolicyId::LoadDelay,
                     mop::sched::PolicyId::StaticFuse}) {
        for (uint64_t seed = 1; seed <= 60; ++seed) {
            ScheduleScript s =
                makeRandomScript(seed, wrongPathConfig(pol));
            DivergenceReport rep;
            ASSERT_TRUE(runLockstep(s, RefQuirks{}, &rep))
                << mop::sched::policyIdToken(pol) << " seed " << seed
                << " cycle " << rep.cycle << " [" << rep.what << "] "
                << rep.detail;
        }
    }
}

/** The same episodes under skip-idle lockstep: a wrong-path squash
 *  re-schedules broadcasts and forces sources ready, so the
 *  next-event invariant must survive squashes landing mid-window. */
TEST(Difftest, WrongPathSkipIdleCorpusHasNoDivergence)
{
    for (auto pol : {mop::sched::PolicyId::Paper,
                     mop::sched::PolicyId::LoadDelay,
                     mop::sched::PolicyId::StaticFuse}) {
        for (uint64_t seed = 1; seed <= 40; ++seed) {
            ScheduleScript s =
                makeRandomScript(seed, wrongPathConfig(pol));
            DivergenceReport rep;
            ASSERT_TRUE(runLockstep(s, RefQuirks{}, &rep,
                                    /*skip_idle=*/true))
                << mop::sched::policyIdToken(pol) << " seed " << seed
                << " cycle " << rep.cycle << " [" << rep.what << "] "
                << rep.detail;
        }
    }
}

/** The wrong-path generator is not vacuous: episodes actually appear
 *  (flagged ops followed by a Squash referencing the branch anchor). */
TEST(Difftest, WrongPathScriptsContainTerminatedEpisodes)
{
    int flagged = 0, squashes = 0;
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        ScheduleScript s = makeRandomScript(
            seed, wrongPathConfig(mop::sched::PolicyId::Paper));
        for (size_t i = 0; i < s.items.size(); ++i) {
            const ScriptItem &it = s.items[i];
            if (it.kind == ScriptItem::Kind::Op && it.wrongPath)
                ++flagged;
            if (it.kind == ScriptItem::Kind::Squash) {
                ++squashes;
                // The anchor is a real earlier op item.
                ASSERT_GE(it.ref, 0);
                ASSERT_LT(size_t(it.ref), i);
                EXPECT_EQ(int(s.items[it.ref].kind),
                          int(ScriptItem::Kind::Op));
            }
        }
    }
    EXPECT_GT(flagged, 20) << "episodes never emitted wrong-path ops";
    EXPECT_GT(squashes, 5) << "episodes never terminated with a squash";
}

TEST(Difftest, GeneratorIsDeterministic)
{
    ScheduleScript a = makeRandomScript(42);
    ScheduleScript b = makeRandomScript(42);
    ASSERT_EQ(a.items.size(), b.items.size());
    for (size_t i = 0; i < a.items.size(); ++i) {
        const ScriptItem &x = a.items[i];
        const ScriptItem &y = b.items[i];
        EXPECT_EQ(int(x.kind), int(y.kind)) << i;
        EXPECT_EQ(int(x.op), int(y.op)) << i;
        EXPECT_EQ(x.src0, y.src0) << i;
        EXPECT_EQ(x.src1, y.src1) << i;
        EXPECT_EQ(x.head, y.head) << i;
        EXPECT_EQ(x.ref, y.ref) << i;
        EXPECT_EQ(x.memLat, y.memLat) << i;
        EXPECT_EQ(x.cycles, y.cycles) << i;
        EXPECT_EQ(x.wrongPath, y.wrongPath) << i;
    }
    EXPECT_EQ(a.params.policy, b.params.policy);
    EXPECT_EQ(a.params.numEntries, b.params.numEntries);
}

/** Mutation test: the FU-overbooking bug (select checked only the
 *  first two ops' units) re-enabled inside the oracle must be found
 *  by the fuzzer and shrink to a small repro. */
TEST(Difftest, FuzzerFindsReintroducedFuBookingBug)
{
    RefQuirks quirks;
    quirks.fuHeadOnlyCheck = true;

    ScheduleScript min;
    ASSERT_TRUE(fuzzAndShrink(quirks, adversarialMopConfig(), 400, 20,
                              &min))
        << "no script distinguished the buggy FU check in 400 seeds";
    EXPECT_LT(scriptOpCount(min), 20)
        << "ddmin left " << scriptOpCount(min) << " ops";

    DivergenceReport mrep;
    EXPECT_FALSE(runLockstep(min, quirks, &mrep))
        << "shrunken script no longer reproduces";
    DivergenceReport crep;
    EXPECT_TRUE(runLockstep(min, RefQuirks{}, &crep))
        << "fixed production diverges from the clean oracle: "
        << crep.what << ": " << crep.detail;
}

/** Mutation test: the squashed-MOP entry leak (squashAfter shrank an
 *  issued MOP without re-checking completion or broadcast timing). */
TEST(Difftest, FuzzerFindsReintroducedSquashLeakBug)
{
    RefQuirks quirks;
    quirks.squashLeak = true;

    ScheduleScript min;
    ASSERT_TRUE(fuzzAndShrink(quirks, adversarialMopConfig(), 400, 20,
                              &min))
        << "no script distinguished the squash leak in 400 seeds";
    EXPECT_LT(scriptOpCount(min), 20)
        << "ddmin left " << scriptOpCount(min) << " ops";

    DivergenceReport mrep;
    EXPECT_FALSE(runLockstep(min, quirks, &mrep))
        << "shrunken script no longer reproduces";
    DivergenceReport crep;
    EXPECT_TRUE(runLockstep(min, RefQuirks{}, &crep))
        << "fixed production diverges from the clean oracle: "
        << crep.what << ": " << crep.detail;
}

/** Mutation test: the premature-free bug (entry completion judged by
 *  a bare count of completion events, so a squash-dropped tail that
 *  completed before the squash stood in for a long-latency surviving
 *  op still in flight). */
TEST(Difftest, FuzzerFindsReintroducedCountedCompletionBug)
{
    RefQuirks quirks;
    quirks.countedCompletion = true;

    ScheduleScript min;
    ASSERT_TRUE(fuzzAndShrink(quirks, adversarialMopConfig(), 400, 20,
                              &min))
        << "no script distinguished counted completion in 400 seeds";
    EXPECT_LT(scriptOpCount(min), 20)
        << "ddmin left " << scriptOpCount(min) << " ops";

    DivergenceReport mrep;
    EXPECT_FALSE(runLockstep(min, quirks, &mrep))
        << "shrunken script no longer reproduces";
    DivergenceReport crep;
    EXPECT_TRUE(runLockstep(min, RefQuirks{}, &crep))
        << "fixed production diverges from the clean oracle: "
        << crep.what << ": " << crep.detail;
}

/** Mutation test: the intra-entry FU double-booking bug (select
 *  checked each MOP op's unit independently, missing occupancy
 *  committed by an earlier unpipelined op in the same entry — the bug
 *  FuPool::availableSeq fixes). */
TEST(Difftest, FuzzerFindsReintroducedFuIndependentCheckBug)
{
    RefQuirks quirks;
    quirks.fuIndependentCheck = true;

    ScheduleScript min;
    ASSERT_TRUE(fuzzAndShrink(quirks, adversarialMopConfig(), 400, 20,
                              &min))
        << "no script distinguished the independent FU check in 400 "
           "seeds";
    EXPECT_LT(scriptOpCount(min), 20)
        << "ddmin left " << scriptOpCount(min) << " ops";

    DivergenceReport mrep;
    EXPECT_FALSE(runLockstep(min, quirks, &mrep))
        << "shrunken script no longer reproduces";
    DivergenceReport crep;
    EXPECT_TRUE(runLockstep(min, RefQuirks{}, &crep))
        << "fixed production diverges from the clean oracle: "
        << crep.what << ": " << crep.detail;
}

/** Mutation test, load-delay policy: the stale-delay-table bug (the
 *  per-load delay slot is never invalidated, so each load is scheduled
 *  with the latency the previous load sampled). */
TEST(Difftest, FuzzerFindsReintroducedStaleLoadDelayBug)
{
    RefQuirks quirks;
    quirks.staleLoadDelay = true;
    ScriptConfig cfg;
    cfg.policy = mop::sched::PolicyId::LoadDelay;

    ScheduleScript min;
    ASSERT_TRUE(fuzzAndShrink(quirks, cfg, 400, 20, &min))
        << "no script distinguished the stale delay table in 400 seeds";
    EXPECT_LT(scriptOpCount(min), 20)
        << "ddmin left " << scriptOpCount(min) << " ops";

    DivergenceReport mrep;
    EXPECT_FALSE(runLockstep(min, quirks, &mrep))
        << "shrunken script no longer reproduces";
    DivergenceReport crep;
    EXPECT_TRUE(runLockstep(min, RefQuirks{}, &crep))
        << "fixed production diverges from the clean oracle: "
        << crep.what << ": " << crep.detail;
}

/** Mutation test, static-fuse policy: the indivisible-pair bug (a
 *  decode-fused pair formed across a taken branch keeps its squashed
 *  tail fused, so the tail issues and completes anyway). */
TEST(Difftest, FuzzerFindsReintroducedFusedPairSquashBug)
{
    RefQuirks quirks;
    quirks.fusedPairSurvivesSquash = true;
    ScriptConfig cfg = adversarialMopConfig();
    cfg.policy = mop::sched::PolicyId::StaticFuse;

    ScheduleScript min;
    ASSERT_TRUE(fuzzAndShrink(quirks, cfg, 400, 20, &min))
        << "no script distinguished the fused-pair squash in 400 seeds";
    EXPECT_LT(scriptOpCount(min), 20)
        << "ddmin left " << scriptOpCount(min) << " ops";

    DivergenceReport mrep;
    EXPECT_FALSE(runLockstep(min, quirks, &mrep))
        << "shrunken script no longer reproduces";
    DivergenceReport crep;
    EXPECT_TRUE(runLockstep(min, RefQuirks{}, &crep))
        << "fixed production diverges from the clean oracle: "
        << crep.what << ": " << crep.detail;
}

/** Mutation test: the skip-fold-ignores-squash bug (the lockstep
 *  driver's provably-idle window survives a squashAfter). A squash
 *  re-schedules broadcasts and forces tail-contributed sources ready,
 *  so entries issue inside the stale window while the production
 *  model is not ticking; the oracle, ticking every cycle, sees them.
 *  This is exactly the core bug --wrong-path squashes would expose if
 *  maybeSkipIdle did not fold squash-created events into its
 *  next-event answer — and the difftest's skip-idle mode catches it. */
TEST(Difftest, SkipIdleFuzzerFindsReintroducedSkipFoldSquashBug)
{
    RefQuirks quirks;
    quirks.skipFoldIgnoresSquash = true;

    ScheduleScript min;
    ASSERT_TRUE(fuzzAndShrink(quirks,
                              wrongPathConfig(mop::sched::PolicyId::Paper),
                              400, 20, &min, /*skip_idle=*/true))
        << "no script distinguished the stale skip fold in 400 seeds";
    EXPECT_LT(scriptOpCount(min), 20)
        << "ddmin left " << scriptOpCount(min) << " ops";

    DivergenceReport mrep;
    EXPECT_FALSE(runLockstep(min, quirks, &mrep, /*skip_idle=*/true))
        << "shrunken script no longer reproduces";
    // The quirk lives in the driver's skip fold: the same script in
    // stepped mode must NOT diverge (the mutation is invisible when
    // every cycle is ticked — only --difftest-skip-idle catches it).
    DivergenceReport srep;
    EXPECT_TRUE(runLockstep(min, quirks, &srep))
        << "stepped lockstep diverged, so the quirk leaked out of the "
           "skip fold: " << srep.what << ": " << srep.detail;
    DivergenceReport crep;
    EXPECT_TRUE(runLockstep(min, RefQuirks{}, &crep, /*skip_idle=*/true))
        << "fixed production diverges from the clean oracle: "
        << crep.what << ": " << crep.detail;
}

TEST(Difftest, ReproOutputIsPasteReady)
{
    RefQuirks quirks;
    quirks.fuHeadOnlyCheck = true;
    ScheduleScript min;
    ASSERT_TRUE(fuzzAndShrink(quirks, adversarialMopConfig(), 400, 20,
                              &min));
    DivergenceReport rep;
    EXPECT_FALSE(runLockstep(min, quirks, &rep));
    std::string repro = mop::verify::formatRepro(min, rep);
    EXPECT_NE(repro.find("verify::ScheduleScript s;"), std::string::npos);
    EXPECT_NE(repro.find("s.params.policy"), std::string::npos);
    EXPECT_NE(repro.find("runLockstep"), std::string::npos);
    EXPECT_NE(repro.find("EXPECT_TRUE"), std::string::npos);
}

} // namespace
