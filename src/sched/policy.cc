#include "sched/policy.hh"

namespace mop::sched
{

const std::vector<PolicyId> &
registeredPolicies()
{
    static const std::vector<PolicyId> kAll = [] {
        std::vector<PolicyId> ids;
        for (const PolicyTraits &t : kPolicyTable)
            ids.push_back(t.id);
        return ids;
    }();
    return kAll;
}

const char *
policyIdName(PolicyId id)
{
    return policyTraits(id).name;
}

const char *
policyIdToken(PolicyId id)
{
    return policyTraits(id).token;
}

bool
parsePolicyId(std::string_view text, PolicyId &out)
{
    for (const PolicyTraits &t : kPolicyTable) {
        if (text == t.name || text == t.token) {
            out = t.id;
            return true;
        }
    }
    return false;
}

std::string
configError(const SchedParams &p)
{
    if (!selectFree(p.policy))
        return "";
    if (p.mopEnabled) {
        return "macro-op scheduling is built on the 2-cycle policy; it "
               "cannot be combined with a select-free policy";
    }
    if (!policyTraits(p.policyId).speculateOnLoads) {
        return std::string(policyTraits(p.policyId).name) +
               " scheduling cannot run on a select-free loop: it times a "
               "load's broadcast at issue, from the load's sampled delay, "
               "and the select-free organizations broadcast before "
               "selection, when the delay is not yet known";
    }
    return "";
}

} // namespace mop::sched
