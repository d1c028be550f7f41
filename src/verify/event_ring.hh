/**
 * @file
 * Fixed-size ring buffer of recent scheduler events.
 *
 * The scheduler and core record one compact SchedEvent per interesting
 * action (insert, issue, wakeup delivery, recall, replay, collision,
 * injected fault, ...). When a run dies with a DeadlockError or an
 * integrity violation, the last N events are dumped alongside the
 * pipeline snapshot, turning "the watchdog fired at cycle 731204" into
 * an actual story of what the scheduler was doing just before.
 *
 * Recording is header-only and allocation-free after construction, so
 * it is cheap enough to leave enabled whenever diagnostics are wanted.
 */

#ifndef MOP_VERIFY_EVENT_RING_HH
#define MOP_VERIFY_EVENT_RING_HH

#include <bit>
#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

namespace mop::verify
{

struct SchedEvent
{
    enum class Kind : uint8_t
    {
        Insert,     ///< µop inserted into the issue queue
        Append,     ///< µop appended as a MOP tail
        Issue,      ///< entry won select and issued
        Deliver,    ///< wakeup tag broadcast delivered
        Recall,     ///< tag recalled (mis-speculation / repair)
        Replay,     ///< entry invalidated and re-dispatched
        Collision,  ///< select-free collision / grant lost
        Squash,     ///< entries squashed (pipeline flush)
        Inject,     ///< fault injector perturbed this cycle
    };

    uint64_t cycle = 0;
    Kind kind = Kind::Insert;
    uint64_t seq = 0;        ///< µop sequence number (0 if n/a)
    int32_t tag = -1;        ///< wakeup tag involved (-1 if n/a)
    int32_t entry = -1;      ///< issue-queue entry index (-1 if n/a)
    const char *note = "";   ///< static annotation (never owned)
};

inline const char *
schedEventKindName(SchedEvent::Kind k)
{
    switch (k) {
      case SchedEvent::Kind::Insert: return "insert";
      case SchedEvent::Kind::Append: return "append";
      case SchedEvent::Kind::Issue: return "issue";
      case SchedEvent::Kind::Deliver: return "deliver";
      case SchedEvent::Kind::Recall: return "recall";
      case SchedEvent::Kind::Replay: return "replay";
      case SchedEvent::Kind::Collision: return "collision";
      case SchedEvent::Kind::Squash: return "squash";
      case SchedEvent::Kind::Inject: return "inject";
    }
    return "?";
}

class EventRing
{
  public:
    /** @throws std::invalid_argument unless @p capacity is a power of
     *  two, so push() can wrap with a mask. */
    explicit EventRing(size_t capacity = 256)
        : buf_(checkedCapacity(capacity)), mask_(capacity - 1)
    {
    }

    void
    push(const SchedEvent &e)
    {
        buf_[head_] = e;
        head_ = (head_ + 1) & mask_;
        if (size_ < buf_.size())
            ++size_;
    }

    void
    push(uint64_t cycle, SchedEvent::Kind kind, uint64_t seq = 0,
         int32_t tag = -1, int32_t entry = -1, const char *note = "")
    {
        push(SchedEvent{cycle, kind, seq, tag, entry, note});
    }

    size_t size() const { return size_; }
    size_t capacity() const { return buf_.size(); }

    /** Retained event @p i, oldest first (i < size()). */
    const SchedEvent &
    at(size_t i) const
    {
        return buf_[(head_ + buf_.size() - size_ + i) & mask_];
    }

    /** Oldest-first dump of the retained events. */
    void
    dump(std::ostream &os) const
    {
        os << "last " << size_ << " scheduler events (oldest first):\n";
        for (size_t i = 0; i < size_; ++i) {
            const SchedEvent &e = at(i);
            os << "  cycle " << e.cycle << "  "
               << schedEventKindName(e.kind);
            if (e.seq)
                os << "  seq=" << e.seq;
            if (e.tag >= 0)
                os << "  tag=" << e.tag;
            if (e.entry >= 0)
                os << "  entry=" << e.entry;
            if (e.note && *e.note)
                os << "  (" << e.note << ")";
            os << "\n";
        }
    }

  private:
    static size_t
    checkedCapacity(size_t capacity)
    {
        if (!std::has_single_bit(capacity))
            throw std::invalid_argument(
                "EventRing capacity must be a power of two, got " +
                std::to_string(capacity));
        return capacity;
    }

    std::vector<SchedEvent> buf_;
    size_t mask_;
    size_t head_ = 0;
    size_t size_ = 0;
};

} // namespace mop::verify

#endif // MOP_VERIFY_EVENT_RING_HH
