/**
 * @file
 * Stall-attribution breakdown: where every issue slot goes, per
 * benchmark, for base and macro-op scheduling. Not a paper figure —
 * this is the observability layer's per-benchmark surface (the same
 * numbers `mopsim --report breakdown` prints for a single run),
 * rendered through the shared sweep driver so rows come from the
 * persistent result cache when available.
 */

#include <string>

#include "figures/figures.hh"
#include "obs/stall.hh"
#include "sim/config.hh"
#include "stats/table.hh"
#include "sweep/suite.hh"
#include "trace/profiles.hh"

namespace mop::bench
{

namespace
{

using stats::Table;

void
renderBreakdown(sweep::Context &ctx, std::ostream &out)
{
    using obs::StallCause;

    Table t("Stall attribution: % of issue slots per cause "
            "(32-entry queue)");
    t.setColumns({"bench", "machine", "useful", "wakeup", "select",
                  "replay", "dmiss", "frontend", "iq-full", "rob-full",
                  "drain"});
    for (const auto &b : trace::specCint2000()) {
        for (auto m : {sim::Machine::Base, sim::Machine::MopWiredOr}) {
            sim::RunConfig cfg;
            cfg.machine = m;
            cfg.iqEntries = 32;
            cfg.obs.enabled = true;
            pipeline::SimResult r = ctx.run(b, cfg);
            double total = double(r.stallWidth) * double(r.cycles);
            auto pct = [&](StallCause c) {
                return Table::pct(
                    total ? double(r.stallSlots[size_t(c)]) / total : 0.0);
            };
            t.addRow({b, sim::machineName(m),
                      pct(StallCause::Useful), pct(StallCause::WakeupWait),
                      pct(StallCause::SelectLoss), pct(StallCause::Replay),
                      pct(StallCause::DcacheMiss),
                      pct(StallCause::Frontend), pct(StallCause::IqFull),
                      pct(StallCause::RobFull), pct(StallCause::Drain)});
        }
    }
    t.setFootnote("each cycle charges every issue slot to exactly one "
                  "cause; rows sum to 100%");
    t.print(out);
}

} // namespace

void
registerObservabilityFigures()
{
    auto &suite = sweep::Suite::instance();
    suite.add({"breakdown", "per-cause stall attribution",
               renderBreakdown});
}

} // namespace mop::bench
