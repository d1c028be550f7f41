/**
 * @file
 * Figure registry for the benchmark harnesses.
 *
 * Every table/figure/ablation the paper reports is registered once,
 * against sweep::Context, and rendered by the mopsuite driver (every
 * figure or the --only selection, parallel sweep, shared persistent
 * cache).
 */

#ifndef MOP_BENCH_FIGURES_FIGURES_HH
#define MOP_BENCH_FIGURES_FIGURES_HH

namespace mop::bench
{

/** Register every figure with sweep::Suite (idempotent). */
void registerAllFigures();

// Per-file registration hooks (called by registerAllFigures in
// paper order; individually callable is not a supported use).
void registerCharacterizationFigures();  ///< table1, fig6, fig7
void registerPerformanceFigures();       ///< table2, fig13..fig16
void registerAblationFigures();          ///< Section 5/6 ablations
void registerObservabilityFigures();     ///< stall-attribution breakdown
void registerPolicyFigures();            ///< --policy comparison

} // namespace mop::bench

#endif // MOP_BENCH_FIGURES_FIGURES_HH
