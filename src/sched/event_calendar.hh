/**
 * @file
 * Pooled calendar queue for time-indexed scheduler events.
 *
 * Replaces the std::array<std::vector<T>, kRing> rings: instead of one
 * heap vector per future cycle (each cleared every tick), every event
 * lives in a single free-listed arena and each calendar slot chains
 * its events through an intrusive singly-linked list. Pushing is one
 * pool write plus a tail-pointer update; draining walks the chain in
 * push (FIFO) order — the order the per-slot vectors preserved, which
 * byte-identical replay depends on. The pool never shrinks, so
 * steady-state operation allocates nothing.
 *
 * nextAfter() feeds the event-driven cycle skipper: a conservative
 * lower bound on the next occupied cycle, maintained as the minimum
 * fire cycle ever pushed and lazily re-scanned across the slot heads
 * once it falls behind the current cycle.
 */

#ifndef MOP_SCHED_EVENT_CALENDAR_HH
#define MOP_SCHED_EVENT_CALENDAR_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sched/types.hh"

namespace mop::sched
{

template <typename T, size_t kSlots>
class EventCalendar
{
  public:
    EventCalendar()
    {
        head_.fill(-1);
        tail_.fill(-1);
    }

    bool empty() const { return pending_ == 0; }
    size_t pending() const { return pending_; }
    size_t poolSize() const { return pool_.size(); }

    /** Queue @p ev to fire at cycle @p fire. Returns the node id; it
     *  stays stable (and at() valid) until the event drains. Fire
     *  cycles alias modulo kSlots, exactly like the rings replaced:
     *  callers must keep every live event within kSlots cycles. */
    int
    push(Cycle fire, const T &ev)
    {
        int id = free_;
        if (id >= 0) {
            free_ = pool_[size_t(id)].next;
            pool_[size_t(id)].ev = ev;
        } else {
            id = int(pool_.size());
            pool_.push_back(Node{ev, -1});
        }
        pool_[size_t(id)].next = -1;
        size_t s = fire % kSlots;
        if (tail_[s] < 0)
            head_[s] = id;
        else
            pool_[size_t(tail_[s])].next = id;
        tail_[s] = id;
        ++pending_;
        if (fire < hint_)
            hint_ = fire;
        return id;
    }

    /** Payload of a live (pushed, not yet drained) node. */
    T &at(int id) { return pool_[size_t(id)].ev; }
    const T &at(int id) const { return pool_[size_t(id)].ev; }

    /**
     * Deliver every event queued for cycle @p now in push order as
     * fn(event, node_id). Each node is copied out and recycled before
     * its callback runs, so the callback is free to push new events
     * (which must fire strictly after @p now).
     */
    template <typename Fn>
    void
    drain(Cycle now, Fn &&fn)
    {
        size_t s = now % kSlots;
        int id = head_[s];
        if (id < 0)
            return;
        head_[s] = -1;
        tail_[s] = -1;
        while (id >= 0) {
            T ev = pool_[size_t(id)].ev;
            int next = pool_[size_t(id)].next;
            pool_[size_t(id)].next = free_;
            free_ = id;
            --pending_;
            fn(ev, id);
            id = next;
        }
    }

    /** Visit every queued event (audits; no particular order). */
    template <typename Fn>
    void
    forEachPending(Fn &&fn) const
    {
        for (int head : head_) {
            for (int id = head; id >= 0; id = pool_[size_t(id)].next)
                fn(pool_[size_t(id)].ev);
        }
    }

    /**
     * Earliest cycle > @p now at which an event could fire, or
     * kNoCycle when the calendar is empty. A lower bound, not an
     * exact minimum: the cached hint is re-scanned over the slot
     * heads only once it falls behind @p now. A skipper that lands
     * on a bound with no event merely executes one empty cycle.
     */
    Cycle
    nextAfter(Cycle now)
    {
        if (pending_ == 0)
            return kNoCycle;
        if (hint_ > now)
            return hint_;
        for (Cycle d = 1; d <= Cycle(kSlots); ++d) {
            if (head_[(now + d) % kSlots] >= 0) {
                hint_ = now + d;
                return hint_;
            }
        }
        return kNoCycle;  // unreachable while pending_ > 0
    }

  private:
    struct Node
    {
        T ev;
        int next = -1;
    };

    std::vector<Node> pool_;
    std::array<int, kSlots> head_;
    std::array<int, kSlots> tail_;
    int free_ = -1;
    size_t pending_ = 0;
    Cycle hint_ = kNoCycle;
};

} // namespace mop::sched

#endif // MOP_SCHED_EVENT_CALENDAR_HH
