/**
 * @file
 * MOP pointers and their instruction-cache-resident storage.
 *
 * A MOP pointer is the 4-bit hint of Section 5.1.3: a 3-bit forward
 * offset (in decoded micro-ops, 1..7; 0 means "no pointer") from the
 * MOP head to the MOP tail, plus one control bit recording whether a
 * single taken direct branch/jump lies between them. Pointers are
 * stored alongside first-level instruction-cache lines and fetched
 * with the instructions; evicting an IL1 line discards its pointers,
 * and re-detection repopulates them after a refill. This coupling is
 * what makes the MOP detection latency (3 or even 100 cycles)
 * performance-insensitive: pointers are written once and reused every
 * time the line is fetched (Section 6.2).
 *
 * The simulator additionally records the tail PC inside the pointer.
 * Hardware verifies the pointer by comparing the control bit with the
 * predicted control flow ("does not group with an unexpected
 * instruction", Section 5.2.1); keeping the tail PC lets the model
 * perform that verification exactly and conservatively.
 */

#ifndef MOP_CORE_MOP_POINTER_HH
#define MOP_CORE_MOP_POINTER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mop::core
{

struct MopPointer
{
    uint8_t offset = 0;      ///< µops from head to tail; 0 = invalid
    bool ctrl = false;       ///< one taken direct control op between
    bool independent = false;///< independent MOP (Section 5.4.1)
    /** Safe to use as a *chain extension* for MOPs larger than 2: the
     *  tail immediately follows this instruction and has it as its
     *  only source. Pointers from different detection passes compose
     *  when formation follows a tail's own pointer; the pairwise cycle
     *  heuristic (Figure 8c) cannot see cycles through the merged
     *  chain, so only links that provably add no external incoming
     *  edge may extend one. */
    bool chainSafe = false;
    uint64_t tailPc = 0;     ///< verification: expected tail PC

    bool valid() const { return offset != 0; }
};

/** Everything the table holds for one head PC, read in one lookup. */
struct PointerProbe
{
    MopPointer ptr;        ///< invalid when no pointer is resident
    uint8_t excluded = 0;  ///< filter exclusions: bit k = offset k
};

/**
 * Pointer storage coupled to the instruction cache, plus the
 * last-arriving-operand exclusion set (Section 5.4.2): deleted
 * pointers are remembered so re-detection picks an alternative pair.
 *
 * One flat open-addressed table keyed by PC (linear probing, deletion
 * by backward shift) holds the pointer and the exclusion mask of a
 * head side by side; a slot lives while it holds either. Nothing
 * iterates the table, so its layout never reaches an output.
 */
class MopPointerCache
{
  public:
    MopPointerCache();

    /** Pointer and exclusion mask of the instruction at @p pc. */
    PointerProbe probe(uint64_t pc) const { return slots_[find(pc)].entry; }

    /** Look up the pointer for the instruction at @p pc. */
    MopPointer lookup(uint64_t pc) const { return probe(pc).ptr; }

    /** Detection writes a pointer (after its detection latency). */
    void write(uint64_t pc, const MopPointer &p);

    /** Last-arriving filter: delete the pointer and remember the bad
     *  pairing so detection searches for an alternative. */
    void deleteAndExclude(uint64_t pc);

    /** Is (head @p pc, @p offset) excluded by the filter? */
    bool
    isExcluded(uint64_t pc, uint8_t offset) const
    {
        return (probe(pc).excluded >> (offset & 7)) & 1;
    }

    /** IL1 eviction: drop pointers of instructions in the line. The
     *  exclusions of those instructions stay. */
    void evictLine(uint64_t line_addr, uint32_t line_bytes);

    /**
     * Mutation count: bumped by every call that changes what probe()
     * returns for some PC (an applied write, a delete, an eviction
     * that drops a pointer) and by nothing else. A probe taken at
     * version v is still exact while version() == v.
     */
    uint64_t version() const { return version_; }

    size_t size() const { return pointers_; }
    uint64_t writes() const { return writes_; }
    uint64_t filterDeletions() const { return filterDeletions_; }
    uint64_t lineEvictions() const { return lineEvictions_; }

  private:
    struct Slot
    {
        uint64_t pc = 0;
        PointerProbe entry;

        bool used() const { return entry.ptr.valid() || entry.excluded; }
    };

    /** Index of @p pc's slot, or of the free slot that ends its probe
     *  run. */
    size_t find(uint64_t pc) const;
    /** Free slot @p i, shifting later members of its run back. */
    void erase(size_t i);
    void grow();

    std::vector<Slot> slots_;  ///< power-of-two size, at most half used
    size_t used_ = 0;
    size_t pointers_ = 0;
    uint64_t version_ = 0;
    uint64_t writes_ = 0;
    uint64_t filterDeletions_ = 0;
    uint64_t lineEvictions_ = 0;
};

} // namespace mop::core

#endif // MOP_CORE_MOP_POINTER_HH
