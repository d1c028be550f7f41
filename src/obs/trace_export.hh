/**
 * @file
 * Cycle-event trace export.
 *
 * Buffers trace::CycleEvent records in a fixed ring and flushes them
 * to one of two sinks chosen by the output path's extension:
 *
 *  - `.json`: Chrome trace-event format ("X" duration events for
 *    committed micro-ops, "C" counter events for occupancy samples),
 *    loadable in chrome://tracing or Perfetto. Timestamps are cycles.
 *  - anything else: the compact binary form of trace_file
 *    (EventTraceWriter), round-trippable via readEventTrace().
 *
 * The exporter only exists when a trace was requested, so the
 * zero-trace simulation path pays a single null-pointer branch.
 */

#ifndef MOP_OBS_TRACE_EXPORT_HH
#define MOP_OBS_TRACE_EXPORT_HH

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace_file.hh"

namespace mop::obs
{

class TraceExporter
{
  public:
    /** Binary sinks stamp @p version into the MOPEVTRC header (JSON
     *  output ignores it).
     *  @throws std::runtime_error if @p path cannot be created. */
    explicit TraceExporter(const std::string &path,
                           uint32_t version = 2);
    /** Closes the sink if close() was not called. Never throws: a
     *  failure at that point is printed to stderr instead. */
    ~TraceExporter();

    TraceExporter(const TraceExporter &) = delete;
    TraceExporter &operator=(const TraceExporter &) = delete;

    /** Queue an event; flushes the ring to the sink when full.
     *  @throws std::runtime_error naming the path if the sink fails;
     *  the exporter is then closed, with its buffered events lost. */
    void push(const trace::CycleEvent &ev);

    /** Flush buffered events and finalize the sink (JSON footer).
     *  Idempotent, also after a failure; further pushes are invalid.
     *  @throws std::runtime_error naming the path if any event or the
     *  footer failed to reach the file (reported once). */
    void close();

    uint64_t emitted() const { return emitted_; }
    bool isJson() const { return json_; }

  private:
    static constexpr size_t kRingCap = 4096;

    void flush();
    void writeJson(const trace::CycleEvent &ev);
    /** Release the sinks without further error checks, mark the
     *  exporter closed and throw the failure of @p what. */
    [[noreturn]] void fail(const char *what);

    std::string path_;
    bool json_;
    bool closed_ = false;
    bool firstJsonEvent_ = true;
    FILE *jsonFile_ = nullptr;
    std::unique_ptr<trace::EventTraceWriter> bin_;
    std::vector<trace::CycleEvent> ring_;
    uint64_t emitted_ = 0;
};

} // namespace mop::obs

#endif // MOP_OBS_TRACE_EXPORT_HH
