/**
 * @file
 * Bounded pool of scheduler tags: the MOP IDs the paper allocates next
 * to the rename map (Section 5.2.2), recycled like physical registers.
 *
 * Every pool tag carries a reference count. A tag is live from its
 * allocation until its last reference drops, then goes back on the
 * free list. References are held by whatever names the tag: a rename
 * table slot, a wrong-path checkpoint slot, a pending MOP window, an
 * issue-queue entry's destination or source, or a queued injected
 * recall. The pool only keeps the books; the Scheduler owns it and
 * resets a tag's scheduler state whenever the tag is handed out again.
 *
 * Tags the pool never handed out (callers that name their own tags,
 * and every tag at or above the bound) are not counted: retain() and
 * release() ignore them.
 */

#ifndef MOP_SCHED_TAG_POOL_HH
#define MOP_SCHED_TAG_POOL_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sched/types.hh"

namespace mop::sched
{

class TagPool
{
  public:
    /** Pool of tags [0, @p bound); the first allocations return 0, 1,
     *  2, ... in order. */
    explicit TagPool(size_t bound)
        : refs_(bound, kNeverUsed), free_(bound), nfree_(bound)
    {
        for (size_t i = 0; i < bound; ++i)
            free_[i] = Tag(bound - 1 - i);
    }

    size_t bound() const { return refs_.size(); }
    size_t live() const { return refs_.size() - nfree_; }

    /**
     * Most tags ever live at once. The free list is a stack whose
     * never-used tags sit below every recycled one, so a never-used
     * tag is taken only when every used tag is live: the peak is the
     * number of tags ever used. O(bound); for tests and reports.
     */
    size_t
    peakLive() const
    {
        size_t used = 0;
        for (uint32_t r : refs_)
            used += r != kNeverUsed;
        return used;
    }
    /** True once any tag has been handed out (tag 0 goes first). */
    bool inUse() const { return !refs_.empty() && refs_[0] != kNeverUsed; }

    /** True if @p t was handed out and has not been freed since. */
    bool
    isLive(Tag t) const
    {
        return size_t(t) < refs_.size() && refs_[size_t(t)] < kFree;
    }

    /** References to live tag @p t. */
    uint32_t refs(Tag t) const { return refs_[size_t(t)]; }

    /** A free tag with no references yet, or kNoTag if none is left. */
    Tag
    alloc()
    {
        if (nfree_ == 0)
            return kNoTag;
        Tag t = free_[--nfree_];
        refs_[size_t(t)] = 0;
        return t;
    }

    void
    retain(Tag t)
    {
        if (isLive(t))
            ++refs_[size_t(t)];
    }

    /** Drop one reference to @p t, freeing it with its last. Returns
     *  false if @p t is live but holds no reference (unbalanced). */
    bool
    release(Tag t)
    {
        if (size_t(t) >= refs_.size())
            return true;
        uint32_t &r = refs_[size_t(t)];
        if (r - 2 < kFree - 2) {  // live with a reference to spare
            --r;
            return true;
        }
        if (r == 1) {
            r = kFree;
            free_[nfree_++] = t;
            return true;
        }
        return r != 0;  // 0: live but unreferenced; else not live
    }

    /** The free list, most recently freed last. */
    std::span<const Tag> freeTags() const { return {free_.data(), nfree_}; }

  private:
    /** refs_ values of tags that are not live: freed since their last
     *  use, or never handed out at all. */
    static constexpr uint32_t kFree = ~uint32_t(0) - 1;
    static constexpr uint32_t kNeverUsed = ~uint32_t(0);

    std::vector<uint32_t> refs_;  ///< per tag; >= kFree when not live
    std::vector<Tag> free_;       ///< [0, nfree_) is the free list
    size_t nfree_ = 0;
};

/**
 * A holder of pool tags outside the scheduler: the formation's rename
 * table, wrong-path checkpoint and pending MOP windows. The scheduler's
 * structural audit recounts every reference to every tag, so the
 * holder reports the tags it names.
 */
class TagHolder
{
  public:
    /** Call @p fn once per reference held; a tag named twice is
     *  reported twice. */
    virtual void forEachTagRef(const std::function<void(Tag)> &fn) const = 0;

  protected:
    ~TagHolder() = default;
};

} // namespace mop::sched

#endif // MOP_SCHED_TAG_POOL_HH
