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
 *
 * The ring can also echo one tag's events as they are pushed (mopsim's
 * MOP_TRACE_TAG), in the same line format as dump(): following one tag
 * through its lives needs no second record of the scheduler's events.
 */

#ifndef MOP_VERIFY_EVENT_RING_HH
#define MOP_VERIFY_EVENT_RING_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <ostream>
#include <sstream>
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
        Bcast,         ///< broadcast scheduled (cycle = when it fires)
        BcastCancel,   ///< scheduled broadcast cancelled before firing
        ClearPending,  ///< pending MOP head's tail never came
        Free,          ///< issue-queue entry freed
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
      case SchedEvent::Kind::Bcast: return "bcast";
      case SchedEvent::Kind::BcastCancel: return "bcast-cancel";
      case SchedEvent::Kind::ClearPending: return "clear-pending";
      case SchedEvent::Kind::Free: return "free";
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
        // The echo reads the stored slot, not @p e, so an event built
        // in the call is written straight into the ring.
        SchedEvent &slot = buf_[pushed_ & mask_];
        slot = e;
        ++pushed_;
        if (slot.tag == echoTag_) [[unlikely]]
            echo(slot);
    }

    void
    push(uint64_t cycle, SchedEvent::Kind kind, uint64_t seq = 0,
         int32_t tag = -1, int32_t entry = -1, const char *note = "")
    {
        push(SchedEvent{cycle, kind, seq, tag, entry, note});
    }

    size_t size() const { return std::min<uint64_t>(pushed_, buf_.size()); }
    size_t capacity() const { return buf_.size(); }

    /** Retained event @p i, oldest first (i < size()). */
    const SchedEvent &
    at(size_t i) const
    {
        return buf_[(pushed_ - size() + i) & mask_];
    }

    /** Oldest-first dump of the retained events. */
    void
    dump(std::ostream &os) const
    {
        os << "last " << size() << " scheduler events (oldest first):\n";
        for (size_t i = 0; i < size(); ++i)
            writeLine(os, at(i));
    }

    /** From now on, write every pushed event whose tag is @p tag
     *  (>= 0) to @p os as it arrives, one dump() line each; a null
     *  @p os turns the echo off. @p os is not owned. */
    void
    echoTag(int32_t tag, std::ostream *os)
    {
        echo_ = os;
        echoTag_ = os ? tag : kNoEcho;
    }

    /** One event in dump()'s line format. */
    static void
    writeLine(std::ostream &os, const SchedEvent &e)
    {
        os << "  cycle " << e.cycle << "  " << schedEventKindName(e.kind);
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

  private:
    /** No event carries this tag (kNoTag is -1). */
    static constexpr int32_t kNoEcho = std::numeric_limits<int32_t>::min();

    /** Off the push path: one write per line, so an unbuffered stream
     *  such as std::cerr gets whole lines. */
    [[gnu::cold, gnu::noinline]] void
    echo(const SchedEvent &e) const
    {
        std::ostringstream line;
        writeLine(line, e);
        *echo_ << line.str();
    }

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
    uint64_t pushed_ = 0;  ///< events ever pushed; the next slot is & mask_
    int32_t echoTag_ = kNoEcho;
    std::ostream *echo_ = nullptr;  ///< not owned
};

} // namespace mop::verify

#endif // MOP_VERIFY_EVENT_RING_HH
