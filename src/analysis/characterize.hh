/**
 * @file
 * Machine-independent program characterization (Sections 4.2/4.3).
 *
 * These analyzers reproduce the methodology behind Figures 6 and 7 of
 * the paper: they look only at the committed instruction stream and
 * its register dataflow, independent of any pipeline configuration.
 *
 * Figure 6: for every value-generating MOP candidate ("potential MOP
 * head"), the distance in instructions to the nearest dependent
 * single-cycle candidate ("potential MOP tail"), bucketed 1-3 / 4-7 /
 * 8+; heads with no dependent instruction at all are dynamically dead,
 * heads whose dependents are all non-candidates fall in the
 * "not MOP candidate" bucket.
 *
 * Figure 7: how many instructions greedy chain-grouping can place into
 * MOPs of maximum size 2 ("2x") or 8 ("8x") within an 8-instruction
 * scope, classified as value-generating / non-value-generating
 * grouped, candidate-but-not-grouped, and non-candidate.
 *
 * Both stream the source: Figure 6 keeps one pending producer per
 * register and Figure 7 one scope of instructions, so memory does not
 * grow with the instruction budget.
 */

#ifndef MOP_ANALYSIS_CHARACTERIZE_HH
#define MOP_ANALYSIS_CHARACTERIZE_HH

#include <cstdint>

#include "trace/source.hh"

namespace mop::analysis
{

/** Figure 6 buckets (counts of value-generating candidates). */
struct DistanceResult
{
    uint64_t totalInsts = 0;      ///< committed instructions examined
    uint64_t valueGenCands = 0;   ///< potential MOP heads
    uint64_t dist1to3 = 0;
    uint64_t dist4to7 = 0;
    uint64_t dist8plus = 0;
    uint64_t notCandidate = 0;    ///< dependents exist, none groupable
    uint64_t dead = 0;            ///< no dependent instruction

    double valueGenPct() const
    {
        return totalInsts ? double(valueGenCands) / double(totalInsts)
                          : 0.0;
    }
    /** Fraction of heads with a potential tail within 8 instructions. */
    double within8() const
    {
        return valueGenCands
                   ? double(dist1to3 + dist4to7) / double(valueGenCands)
                   : 0.0;
    }
};

DistanceResult characterizeDistance(trace::TraceSource &src,
                                    uint64_t max_insts);

/** Figure 7 classification (counts of committed instructions). */
struct GroupingResult
{
    uint64_t totalInsts = 0;
    uint64_t notCandidate = 0;
    uint64_t candNotGrouped = 0;
    uint64_t groupedNonValueGen = 0;
    uint64_t groupedValueGen = 0;
    uint64_t groups = 0;          ///< number of MOPs formed

    uint64_t grouped() const
    {
        return groupedNonValueGen + groupedValueGen;
    }
    double groupedFrac() const
    {
        return totalInsts ? double(grouped()) / double(totalInsts) : 0.0;
    }
    double avgGroupSize() const
    {
        return groups ? double(grouped()) / double(groups) : 0.0;
    }
};

GroupingResult characterizeGrouping(trace::TraceSource &src,
                                    uint64_t max_insts, int max_mop_size,
                                    int scope = 8);

} // namespace mop::analysis

#endif // MOP_ANALYSIS_CHARACTERIZE_HH
