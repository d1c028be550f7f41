/**
 * @file
 * Scheduler behaviour policies as one table, and the rules that decide
 * which scheduler configurations can run.
 *
 * The issue-queue machinery (wakeup arrays, select, broadcast/
 * completion calendars, squash splitting) is shared by every policy.
 * A policy differs only in the answers of its table row, which the
 * Scheduler, the RefScheduler oracle and the OooCore read once at
 * construction, so the hot loops branch on plain bools:
 *
 *  - speculative-wakeup decision: are load consumers woken assuming a
 *    DL1 hit (speculate + selectively replay, Section 2.2) or from a
 *    per-load delay table (no recall, no replay)?
 *  - MOP-formation eligibility: dynamic detection through the pointer
 *    cache (Section 5.2) vs a fixed decode-time pattern table, and the
 *    largest MOP the policy's formation produces.
 *
 * Every policy has a matching rule set in the reference oracle
 * (verify/oracle.cc) and is differentially fuzzed against it; see
 * DESIGN.md ("Behaviour-policy framework") for the rule map.
 */

#ifndef MOP_SCHED_POLICY_HH
#define MOP_SCHED_POLICY_HH

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "sched/types.hh"

namespace mop::sched
{

struct PolicyTraits
{
    PolicyId id;
    const char *name;   ///< CLI / report spelling ("load-delay")
    const char *token;  ///< identifier-safe spelling ("loaddelay")
    /** True: load consumers are woken at the speculative hit latency
     *  and recalled/replayed on a miss. False: the broadcast for a
     *  single-op load entry fires when its value is really ready
     *  (predicted from the load's sampled delay), so no miss recall or
     *  replay ever happens. MOP entries never contain loads, so the
     *  decision is per-load, not per-entry. */
    bool speculateOnLoads;
    /** True: pairs are located dynamically (detector + pointer cache).
     *  False: fusion is decided at decode from a fixed pattern table
     *  (core/static_fuse.hh) and the detector is bypassed. */
    bool dynamicFormation;
    /** The largest MOP the policy's formation produces; the scheduler
     *  and the oracle clamp SchedParams::maxMopSize to it, so
     *  appendTail, select booking and the structural audit agree. */
    int maxMopSize;
};

/** One row per PolicyId, in enum order (policyTraits indexes it). */
inline constexpr PolicyTraits kPolicyTable[] = {
    // Kim & Lipasti (MICRO-36): dynamic MOP detection over the pointer
    // cache, speculative load wakeup with selective replay.
    {PolicyId::Paper, "paper", "paper", true, true, kMaxMopOps},
    // Diavastos & Carlson: each load's true delay is tracked and its
    // consumers are woken non-speculatively.
    {PolicyId::LoadDelay, "load-delay", "loaddelay", false, true,
     kMaxMopOps},
    // Celio et al.: adjacent dependent pairs fused at decode.
    {PolicyId::StaticFuse, "static-fuse", "staticfuse", true, false, 2},
};

constexpr const PolicyTraits &
policyTraits(PolicyId id)
{
    return kPolicyTable[size_t(id)];
}

/** Every registered policy, in PolicyId order; the per-policy test
 *  batteries and the difftest corpora iterate this. */
const std::vector<PolicyId> &registeredPolicies();

/** CLI / report spelling of @p id. */
const char *policyIdName(PolicyId id);

/** Identifier-safe spelling ("paper", "loaddelay", "staticfuse") for
 *  gtest parameter names. */
const char *policyIdToken(PolicyId id);

/** Parse a --policy argument (either spelling); returns false on an
 *  unknown name. */
bool parsePolicyId(std::string_view text, PolicyId &out);

/**
 * Why a scheduler cannot run @p p, or "" when it can. This is the one
 * place the scheduler layer's combination rules live; the Scheduler
 * constructor throws std::invalid_argument with the reason, and
 * pipeline::configError adds the core's rules on top.
 */
std::string configError(const SchedParams &p);

} // namespace mop::sched

#endif // MOP_SCHED_POLICY_HH
