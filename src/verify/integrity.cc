#include "verify/integrity.hh"

namespace mop::verify
{

const char *
IntegrityChecker::checkName(Check c)
{
    switch (c) {
      case Check::RobOrder: return "rob-order";
      case Check::IqAccounting: return "iq-accounting";
      case Check::TagLiveness: return "tag-liveness";
      case Check::MopPairing: return "mop-pairing";
      case Check::Dataflow: return "dataflow";
      case Check::StallAccounting: return "stall-accounting";
      case Check::kCount: break;
    }
    return "unknown";
}

void
IntegrityChecker::fail(Check c, const std::string &msg)
{
    ++violations_[size_t(c)];
    throw IntegrityError(checkName(c), msg);
}

void
IntegrityChecker::requireOccupancyLaw(Check c, const char *what,
                                      uint64_t sum, uint64_t samples,
                                      const OccupancyLedger &ledger,
                                      uint64_t live, uint64_t horizon)
{
    const uint64_t want = ledger.expectedSum(live, horizon);
    if (sum != want) {
        fail(c, std::string(what) + ": " + std::to_string(samples) +
                    " occupancy samples sum to " + std::to_string(sum) +
                    ", arrivals and departures give " +
                    std::to_string(want) + " (" + std::to_string(live) +
                    " live at sample clock " + std::to_string(horizon) +
                    ")");
    }
}

uint64_t
IntegrityChecker::totalViolations() const
{
    uint64_t n = 0;
    for (uint64_t v : violations_)
        n += v;
    return n;
}

void
IntegrityChecker::addStats(stats::StatGroup &g, const std::string &prefix) const
{
    for (size_t i = 0; i < size_t(Check::kCount); ++i) {
        g.addFormula(prefix + "." + checkName(Check(i)) + ".violations",
                     [this, i] { return double(violations_[i]); },
                     "integrity-check violations detected");
    }
}

} // namespace mop::verify
