/**
 * @file
 * Differential test of MOP detection: the production detector and
 * pointer table against the per-pair reference of ref_detector.hh,
 * fed the same seeded random µop streams and the same cache mutations
 * under every DetectorParams combination. After every cycle both must
 * have the same reject and pair counters, the same number of applied
 * pointer writes, and the same table contents (every pointer field and
 * exclusion bit of every static PC), so a pointer written with other
 * contents, to another PC or in another cycle shows up where it lands.
 */

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/mop_detector.hh"
#include "core/mop_pointer.hh"
#include "ref_detector.hh"

namespace
{

using namespace mop;
using core::DetectorParams;
using core::MopPointer;

constexpr uint64_t kBase = 0x400000;
constexpr uint32_t kLineBytes = 64;

/** A static program: one fixed µop per PC. */
std::vector<isa::MicroOp>
randomProgram(std::mt19937_64 &rng, int len)
{
    // A small register pool keeps dependence marks dense; the zero
    // registers and kNoReg in either source slot are part of the mix.
    const int16_t pool[] = {1, 2, 3, 4, 5, 6, 7, 8, 20, 31, 63};
    auto reg = [&] { return pool[rng() % std::size(pool)]; };
    std::vector<isa::MicroOp> prog(static_cast<size_t>(len));
    for (int k = 0; k < len; ++k) {
        isa::MicroOp &u = prog[size_t(k)];
        u.pc = kBase + 4 * uint64_t(k);
        // Half the ops are IntAlu so candidate pairs are common.
        u.op = rng() % 2 ? isa::OpClass::IntAlu
                         : isa::OpClass(rng() % isa::kNumOpClasses);
        u.dst = rng() % 5 ? reg() : isa::kNoReg;
        u.src[0] = rng() % 4 ? reg() : isa::kNoReg;
        u.src[1] = rng() % 3 ? reg() : isa::kNoReg;
    }
    return prog;
}

struct Caches
{
    core::MopPointerCache cache;
    test_ref::RefPointerCache ref_cache;
};

/** Everything observable must match; returns a description of the
 *  first difference, or "" when the two sides agree. */
std::string
compare(const core::MopDetector &d, const test_ref::RefDetector &r,
        const Caches &c, const std::vector<isa::MicroOp> &prog)
{
    std::ostringstream ss;
    auto counter = [&](const char *name, uint64_t a, uint64_t b) {
        if (a != b && ss.str().empty())
            ss << name << " " << a << " vs reference " << b;
    };
    counter("dependentPairs", d.dependentPairs(), r.dependentPairs());
    counter("independentPairs", d.independentPairs(), r.independentPairs());
    counter("cycleRejects", d.cycleRejects(), r.cycleRejects());
    counter("budgetRejects", d.budgetRejects(), r.budgetRejects());
    counter("ctrlRejects", d.ctrlRejects(), r.ctrlRejects());
    counter("writes", c.cache.writes(), c.ref_cache.writes());
    counter("size", c.cache.size(), c.ref_cache.size());
    counter("filterDeletions", c.cache.filterDeletions(),
            c.ref_cache.filterDeletions());
    counter("lineEvictions", c.cache.lineEvictions(),
            c.ref_cache.lineEvictions());
    if (!ss.str().empty())
        return ss.str();
    for (const isa::MicroOp &u : prog) {
        core::PointerProbe p = c.cache.probe(u.pc);
        MopPointer q = c.ref_cache.lookup(u.pc);
        uint8_t q_excl = 0;
        for (uint8_t off = 0; off < 8; ++off)
            q_excl |= uint8_t(c.ref_cache.isExcluded(u.pc, off) << off);
        if (p.ptr.offset != q.offset || p.ptr.ctrl != q.ctrl ||
            p.ptr.independent != q.independent ||
            p.ptr.chainSafe != q.chainSafe || p.ptr.tailPc != q.tailPc ||
            p.excluded != q_excl) {
            ss << "pc 0x" << std::hex << u.pc << std::dec << ": offset "
               << int(p.ptr.offset) << "/" << int(q.offset) << " ctrl "
               << p.ptr.ctrl << "/" << q.ctrl << " independent "
               << p.ptr.independent << "/" << q.independent
               << " chainSafe " << p.ptr.chainSafe << "/" << q.chainSafe
               << " tailPc " << p.ptr.tailPc << "/" << q.tailPc
               << " excluded " << int(p.excluded) << "/" << int(q_excl)
               << " (production/reference)";
            return ss.str();
        }
    }
    return "";
}

/** Run one seeded stream through both detectors; fails on the first
 *  cycle whose observable state differs. */
void
runStream(const DetectorParams &params, uint64_t seed, int cycles)
{
    std::mt19937_64 rng(seed);
    std::vector<isa::MicroOp> prog = randomProgram(rng, 8 + int(rng() % 33));
    Caches c;
    core::MopDetector det(params, c.cache);
    test_ref::RefDetector ref(params, c.ref_cache);

    size_t pc_idx = 0;
    uint64_t dyn = 0;
    for (int now = 0; now < cycles; ++now) {
        // One rename group of 0..groupWidth µops (0 = bubble); now and
        // then more than a group, which the detector splits itself.
        int n = int(rng() % uint64_t(params.groupWidth + 1));
        if (rng() % 50 == 0)
            n = params.groupWidth + 1 + int(rng() % 3);
        for (int k = 0; k < n; ++k) {
            isa::MicroOp u = prog[pc_idx];
            u.seq = dyn;
            u.taken = isa::opIsControl(u.op) && rng() % 2;
            // Walk the program; a taken transfer jumps anywhere.
            pc_idx = u.taken ? size_t(rng() % prog.size())
                             : (pc_idx + 1) % prog.size();
            det.observe(u, dyn);
            ref.observe(u, dyn);
            dyn += rng() % 64 == 0 ? 2 : 1;  // rare dyn-id gap
        }
        det.endGroup(sched::Cycle(now));
        ref.endGroup(sched::Cycle(now));
        det.drain(sched::Cycle(now));
        ref.drain(sched::Cycle(now));

        // Filter deletions and IL1 evictions between groups, as the
        // core interleaves them.
        if (rng() % 8 == 0) {
            uint64_t pc = prog[rng() % prog.size()].pc;
            c.cache.deleteAndExclude(pc);
            c.ref_cache.deleteAndExclude(pc);
        }
        if (rng() % 16 == 0) {
            uint64_t line = kBase + kLineBytes * (rng() % 3);
            c.cache.evictLine(line, kLineBytes);
            c.ref_cache.evictLine(line, kLineBytes);
        }
        std::string diff = compare(det, ref, c, prog);
        ASSERT_EQ(diff, "") << "seed " << seed << ", cycle " << now;
    }
}

TEST(DetectorDiff, MatchesReferenceUnderEveryParamCombination)
{
    uint64_t seed = 1;
    for (int width : {4, 8, 16})
        for (int mop_size : {2, 3, 4})
            for (bool heuristic : {true, false})
                for (bool cam : {true, false})
                    for (bool indep : {true, false}) {
                        DetectorParams p;
                        p.groupWidth = width;
                        p.maxMopSize = mop_size;
                        p.cycleHeuristic = heuristic;
                        p.camRestrict = cam;
                        p.independentMops = indep;
                        for (int rep = 0; rep < 3; ++rep, ++seed) {
                            p.detectLatency = int(seed % 4);
                            p.maxOffset = seed % 3 ? 7 : 1 + int(seed % 7);
                            SCOPED_TRACE(
                                "width " + std::to_string(width) +
                                " mopSize " + std::to_string(mop_size) +
                                " heuristic " + std::to_string(heuristic) +
                                " cam " + std::to_string(cam) + " indep " +
                                std::to_string(indep) + " latency " +
                                std::to_string(p.detectLatency) +
                                " maxOffset " + std::to_string(p.maxOffset));
                            runStream(p, seed, 1500);
                            if (HasFatalFailure())
                                return;
                        }
                    }
}

} // namespace
