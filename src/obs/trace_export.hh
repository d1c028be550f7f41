/**
 * @file
 * Cycle-event trace export.
 *
 * Buffers trace::CycleEvent records in a fixed ring and flushes them
 * to the compact binary MOPEVTRC form of trace_file (EventTraceWriter),
 * whatever the output file is called. `moptrace json` turns such a
 * file into a Chrome trace-event view offline.
 *
 * The exporter only exists when a trace was requested, so the
 * zero-trace simulation path pays a single null-pointer branch.
 *
 * Writing happens off the simulating thread: each full ring goes to
 * one writer thread, started with the first full ring and joined by
 * close() (or the destructor), which writes it while the caller
 * fills a second ring. The caller never waits for the writer:
 * a ring that fills while the writer still holds the previous one is
 * written by the caller itself. Every ring has a fixed place in the
 * file, so the bytes do not depend on which thread wrote it. A sink
 * failure on that thread surfaces once, as "trace <path>: ..." from
 * the next push() that fills a ring or from close().
 */

#ifndef MOP_OBS_TRACE_EXPORT_HH
#define MOP_OBS_TRACE_EXPORT_HH

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "trace/trace_file.hh"

namespace mop::obs
{

class TraceExporter
{
  public:
    /** Stamps @p version into the MOPEVTRC header.
     *  @throws std::runtime_error if @p path cannot be created. */
    explicit TraceExporter(const std::string &path,
                           uint32_t version = 2);
    /** Closes the sink if close() was not called, joining the writer
     *  thread. Never throws: a failure at that point is printed to
     *  stderr instead. */
    ~TraceExporter();

    TraceExporter(const TraceExporter &) = delete;
    TraceExporter &operator=(const TraceExporter &) = delete;

    /** Queue an event; a full ring goes to the writer thread, or is
     *  written here if the writer still holds the previous one.
     *  @throws std::runtime_error naming the path if the sink failed
     *  on this or an earlier ring; the exporter is then closed, with
     *  its buffered events lost. */
    void push(const trace::CycleEvent &ev);

    /** Write the rest and close the file, after the writer thread has
     *  finished and been joined. Idempotent, also after a failure;
     *  further pushes are invalid.
     *  @throws std::runtime_error naming the path if any event failed
     *  to reach the file (reported once). */
    void close();

    /** Events handed to the sink so far. */
    uint64_t emitted() const { return emitted_; }

  private:
    static constexpr size_t kRingCap = 4096;

    /** Give the full ring to the writer thread (starting it on first
     *  use), or write it here if the writer is busy; throws this or an
     *  earlier ring's failure. */
    void handOff();
    /** The writer thread; @p fillerCpu is the CPU of the thread that
     *  started it (see avoidCpu in the .cc). */
    void writerLoop(int fillerCpu);
    /** Join the writer thread, if any; returns its failure ("" if
     *  none). */
    std::string stopWriter();
    /** Write @p evs as the records from @p first on; returns the
     *  failure, "" if none. The writer thread calls it for writing_,
     *  the caller for ring_. */
    std::string writeRing(const std::vector<trace::CycleEvent> &evs,
                          uint64_t first);
    /** Join the writer, release the file without further error
     *  checks, mark the exporter closed and throw @p what. */
    [[noreturn]] void fail(const std::string &what);

    std::string path_;
    bool closed_ = false;
    std::unique_ptr<trace::EventTraceWriter> bin_;
    std::vector<trace::CycleEvent> ring_;  ///< filled by push()
    uint64_t emitted_ = 0;

    // Writer thread. It owns writing_ and writingFirst_ while busy_ is
    // set; the flags and error_ are guarded by mu_. Both threads write
    // the file, each at its own records' offsets.
    std::mutex mu_;
    std::condition_variable cv_;
    std::vector<trace::CycleEvent> writing_;
    uint64_t writingFirst_ = 0;  ///< record index of writing_[0]
    bool busy_ = false;
    bool stop_ = false;
    std::string error_;
    std::thread writer_;
};

} // namespace mop::obs

#endif // MOP_OBS_TRACE_EXPORT_HH
