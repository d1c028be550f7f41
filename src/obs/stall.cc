#include "obs/stall.hh"

#include <algorithm>
#include <iomanip>

namespace mop::obs
{

const char *
stallCauseName(StallCause c)
{
    switch (c) {
      case StallCause::Useful: return "useful";
      case StallCause::Frontend: return "frontend";
      case StallCause::IqFull: return "iq-full";
      case StallCause::RobFull: return "rob-full";
      case StallCause::WakeupWait: return "wakeup-wait";
      case StallCause::SelectLoss: return "select-loss";
      case StallCause::Replay: return "replay";
      case StallCause::DcacheMiss: return "dcache-miss";
      case StallCause::Drain: return "drain";
      case StallCause::WrongPath: return "wrong-path";
      case StallCause::kCount: break;
    }
    return "unknown";
}

void
StallAccounting::charge(const sched::StallSnapshot &snap,
                        StallCause upstream, uint64_t cycles)
{
    int left = width_;
    auto take = [&](StallCause c, int n) {
        int k = std::min(left, std::max(n, 0));
        slots_[size_t(c)] += uint64_t(k) * cycles;
        left -= k;
    };
    // One slot per waiting entry, most-specific cause first. A ready
    // loser is a slot the select arbiter demonstrably wasted; a
    // miss-shadow entry is dead until its corrected wakeup; a replayed
    // entry is serving its penalty; anything else still waits on a
    // plain wakeup. MOP heads pending their tail stall on the frontend
    // delivering that tail, so they fall through to upstream.
    take(StallCause::Useful, snap.issuedSlots);
    // Wrong-path entries outrank every stall cause: whatever such an
    // entry waits on, the slot it denies the right path is squashed
    // work, not a scheduling loss.
    take(StallCause::WrongPath, snap.wrongPath);
    take(StallCause::SelectLoss, snap.readyLosers);
    take(StallCause::DcacheMiss, snap.missWait);
    take(StallCause::Replay, snap.replayWait);
    take(StallCause::WakeupWait, snap.wakeupWait);
    slots_[size_t(upstream)] += uint64_t(left) * cycles;
    cycles_ += cycles;

    integrity_.require(left >= 0,
                       verify::IntegrityChecker::Check::StallAccounting,
                       "stall charge distributed more slots than the "
                       "issue width");
}

uint64_t
StallAccounting::totalSlots() const
{
    uint64_t n = 0;
    for (uint64_t s : slots_)
        n += s;
    return n;
}

void
StallAccounting::verifyInvariant()
{
    uint64_t want = uint64_t(width_) * cycles_;
    uint64_t got = totalSlots();
    integrity_.require(
        got == want, verify::IntegrityChecker::Check::StallAccounting,
        "stall slots " + std::to_string(got) + " != width " +
            std::to_string(width_) + " * cycles " +
            std::to_string(cycles_) + " = " + std::to_string(want));
}

void
StallAccounting::addStats(stats::StatGroup &g) const
{
    for (size_t i = 0; i < kNumStallCauses; ++i) {
        g.addFormula(std::string("obs.stall.") +
                         stallCauseName(StallCause(i)),
                     [this, i] { return double(slots_[i]); },
                     "issue slots charged to this cause");
    }
    g.addFormula("obs.stall.cycles",
                 [this] { return double(cycles_); },
                 "cycles attributed");
    integrity_.addStats(g, "obs.integrity");
}

void
printBreakdown(std::ostream &os,
               const std::array<uint64_t, kNumStallCauses> &slots,
               int width, uint64_t cycles)
{
    os << "stall attribution (" << width << " slots x " << cycles
       << " cycles):\n";
    // The wrong-path row appears only when charged: wrong-path-off
    // reports stay byte-identical to the pre-wrong-path format, and
    // the percentages are computed over the printed rows only.
    std::vector<size_t> rows;
    for (size_t i = 0; i < kNumStallCauses; ++i) {
        if (StallCause(i) == StallCause::WrongPath && slots[i] == 0)
            continue;
        rows.push_back(i);
    }
    std::vector<uint64_t> counts;
    for (size_t i : rows)
        counts.push_back(slots[i]);
    // Largest-remainder rounding: the printed column sums to exactly
    // 100.00 (independent rounding could reach 99.99 or 100.01).
    std::vector<double> pct =
        stats::largestRemainderPercents(counts, 2);
    for (size_t r = 0; r < rows.size(); ++r) {
        size_t i = rows[r];
        os << "  " << std::left << std::setw(12)
           << stallCauseName(StallCause(i)) << std::right << std::setw(7)
           << std::fixed << std::setprecision(2) << pct[r] << "%  "
           << std::setw(12) << slots[i] << "\n";
    }
}

} // namespace mop::obs
