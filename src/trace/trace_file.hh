/**
 * @file
 * Binary trace recording and replay.
 *
 * Records a micro-op stream to a compact binary file and replays it as
 * a TraceSource. Useful for pinning down a workload exactly (e.g.
 * sharing a regression trace) or decoupling slow trace generation from
 * timing runs, like SimpleScalar's EIO traces.
 *
 * Format: 16-byte header ("MOPTRACE", u32 version, u32 reserved)
 * followed by fixed 32-byte records.
 */

#ifndef MOP_TRACE_TRACE_FILE_HH
#define MOP_TRACE_TRACE_FILE_HH

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "trace/source.hh"

namespace mop::trace
{

/** Writes micro-ops to a binary trace file. */
class TraceWriter
{
  public:
    /** @throws std::runtime_error if the file cannot be created. */
    explicit TraceWriter(const std::string &path);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    void write(const isa::MicroOp &u);
    uint64_t written() const { return count_; }
    /** Flush and close; further writes are invalid. */
    void close();

  private:
    FILE *f_ = nullptr;
    uint64_t count_ = 0;
};

/** Replays a binary trace file as a TraceSource. */
class FileSource : public TraceSource
{
  public:
    /** @throws std::runtime_error on open failure or bad header. */
    explicit FileSource(const std::string &path);
    ~FileSource() override;

    FileSource(const FileSource &) = delete;
    FileSource &operator=(const FileSource &) = delete;

    bool next(isa::MicroOp &out) override;
    void reset() override;

  private:
    FILE *f_ = nullptr;
    uint64_t seq_ = 0;
};

/** Record up to @p max_uops micro-ops of @p src into @p path.
 *  @return the number of micro-ops written. */
uint64_t recordTrace(TraceSource &src, const std::string &path,
                     uint64_t max_uops);

/**
 * One cycle-event record exported by the observability layer
 * (obs/trace_export.hh). Uop events describe a committed micro-op's
 * full pipeline lifecycle; Counter events repurpose the v1 cycle
 * fields as periodic per-structure occupancy samples.
 *
 * Binary form: 16-byte header ("MOPEVTRC", u32 version, u32 reserved)
 * followed by fixed-size records. Version 1 wrote 64-byte records
 * (kind/op + seq/pc + the five v1 cycle fields); version 2 appends
 * the rest of the lifecycle (fetch / queue-ready / wakeup-ready
 * timestamps), the dependence edges and the MOP-pairing id in
 * 112-byte records. Version 3 keeps the v2 record layout unchanged
 * and merely reserves flag bit 7 (kFlagWrongPath) for squashed
 * wrong-path rows; it is stamped only when wrong-path execution is
 * enabled, so wrong-path-off traces stay byte-identical v2 files.
 * The reader accepts all three versions; v1 records load with the
 * v2-only fields at their documented defaults.
 */
struct CycleEvent
{
    enum class Kind : uint8_t
    {
        Uop,      ///< committed micro-op lifecycle
        Counter,  ///< occupancy sample (see field comments)
    };

    /** "No producer / not grouped" marker for dep[] and mopId. */
    static constexpr uint64_t kNone = ~0ULL;

    // Lifecycle flag bits (Uop only; v2 files, 0 on v1 reads).
    static constexpr uint8_t kFlagFirstUop = 1u << 0;  ///< 1st µop of inst
    static constexpr uint8_t kFlagGrouped = 1u << 1;   ///< inside a MOP
    static constexpr uint8_t kFlagMopHead = 1u << 2;   ///< MOP head op
    static constexpr uint8_t kFlagReplayed = 1u << 3;  ///< replayed >= once
    static constexpr uint8_t kFlagLoad = 1u << 4;
    static constexpr uint8_t kFlagDl1Miss = 1u << 5;   ///< load missed DL1
    static constexpr uint8_t kFlagMispredict = 1u << 6; ///< fetch redirect
    /** Squashed wrong-path µop (v3): the row never committed; its
     *  commit field records the squash cycle. Mutually exclusive
     *  with kFlagMispredict — only the resolving right-path branch
     *  carries that. */
    static constexpr uint8_t kFlagWrongPath = 1u << 7;

    Kind kind = Kind::Uop;
    uint8_t op = 0;          ///< isa::OpClass (Uop only)
    uint8_t flags = 0;       ///< kFlag* bits (Uop only, v2)
    uint64_t seq = 0;        ///< dynamic µop id
    uint64_t pc = 0;
    uint64_t insert = 0;     ///< Counter: sample cycle
    uint64_t issue = 0;      ///< Counter: issue-queue occupancy
    uint64_t execStart = 0;  ///< Counter: ROB occupancy
    uint64_t complete = 0;   ///< Counter: frontend occupancy
    uint64_t commit = 0;     ///< Counter: pending MOP heads

    // --- v2 lifecycle extension (Uop only) ---------------------------
    uint64_t fetch = 0;       ///< fetch cycle (v1 reads: == insert)
    uint64_t queueReady = 0;  ///< eligible for queue insert (v1: insert)
    uint64_t ready = 0;       ///< last became fully ready (v1: == issue)
    /** Producing dynamic ids of the true register sources (kNone when
     *  absent or too old to resolve). */
    std::array<uint64_t, 2> dep = {kNone, kNone};
    /** MOP-pairing id: the group head's dynamic id (kNone: ungrouped). */
    uint64_t mopId = kNone;

    bool operator==(const CycleEvent &) const = default;
};

/** Writes cycle events to a compact binary file. */
class EventTraceWriter
{
  public:
    /** Opens @p path and stamps @p version (2 by default; 3 when the
     *  producing run had wrong-path execution enabled — same record
     *  layout, bit 7 of flags reserved).
     *  @throws std::runtime_error if the file cannot be created or
     *  @p version is not a writable version. */
    explicit EventTraceWriter(const std::string &path,
                              uint32_t version = 2);

    /** Releases the file if close() was not called, reporting no
     *  error: the final flush's result reaches callers only through
     *  close(). */
    ~EventTraceWriter();

    EventTraceWriter(const EventTraceWriter &) = delete;
    EventTraceWriter &operator=(const EventTraceWriter &) = delete;

    /** Write one record (writeInPlace on a copy of @p ev).
     *  @throws std::runtime_error if the write fails. */
    void write(const CycleEvent &ev);
    /**
     * Write @p n records with a single fwrite, using @p evs itself as
     * the pack buffer: each event is overwritten by its on-disk record
     * (same size), so the array's contents are unspecified afterwards.
     * @throws std::runtime_error if the write fails.
     */
    void writeInPlace(CycleEvent *evs, size_t n);
    uint64_t written() const { return count_; }
    /** Flush and close; further writes are invalid. Idempotent.
     *  @throws std::runtime_error if any buffered byte failed to reach
     *  the file (the file is released either way). */
    void close();

  private:
    FILE *f_ = nullptr;
    uint64_t count_ = 0;
};

/** Reads a binary cycle-event trace back, record by record. Accepts
 *  all format versions: v2/v3 files load in full (v3 shares the v2
 *  record layout), v1 files load with the lifecycle-extension
 *  fields at their documented defaults. */
class EventTraceReader
{
  public:
    /** @throws std::runtime_error on open failure, bad header, or an
     *  unsupported format version. */
    explicit EventTraceReader(const std::string &path);
    ~EventTraceReader();

    EventTraceReader(const EventTraceReader &) = delete;
    EventTraceReader &operator=(const EventTraceReader &) = delete;

    /** @return false at end of file; throws on a truncated record. */
    bool next(CycleEvent &out);

    /** Format version declared by the file header (1, 2 or 3). */
    uint32_t version() const { return version_; }

  private:
    FILE *f_ = nullptr;
    uint32_t version_ = 0;
};

/** Convenience: read a whole binary cycle-event trace into memory. */
std::vector<CycleEvent> readEventTrace(const std::string &path);

} // namespace mop::trace

#endif // MOP_TRACE_TRACE_FILE_HH
