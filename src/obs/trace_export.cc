#include "obs/trace_export.hh"

#include <inttypes.h>

#include <stdexcept>
#include <utility>

#include "isa/uop.hh"

namespace mop::obs
{

namespace
{

bool
hasJsonExtension(const std::string &path)
{
    const std::string ext = ".json";
    return path.size() >= ext.size() &&
           path.compare(path.size() - ext.size(), ext.size(), ext) == 0;
}

} // namespace

TraceExporter::TraceExporter(const std::string &path, uint32_t version)
    : path_(path), json_(hasJsonExtension(path))
{
    ring_.reserve(kRingCap);
    if (json_) {
        jsonFile_ = std::fopen(path.c_str(), "w");
        if (!jsonFile_)
            throw std::runtime_error("cannot create trace: " + path);
        std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", jsonFile_);
    } else {
        bin_ = std::make_unique<trace::EventTraceWriter>(path, version);
    }
}

TraceExporter::~TraceExporter()
{
    try {
        close();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
    }
}

void
TraceExporter::push(const trace::CycleEvent &ev)
{
    ring_.push_back(ev);
    if (ring_.size() >= kRingCap)
        flush();
}

void
TraceExporter::flush()
{
    if (json_) {
        for (const auto &ev : ring_)
            writeJson(ev);
        if (std::ferror(jsonFile_))
            fail("write failed");
    } else {
        try {
            bin_->writeInPlace(ring_.data(), ring_.size());
        } catch (const std::exception &e) {
            fail(e.what());
        }
    }
    emitted_ += ring_.size();
    ring_.clear();
}

void
TraceExporter::fail(const char *what)
{
    closed_ = true;
    ring_.clear();
    if (jsonFile_) {
        std::fclose(jsonFile_);
        jsonFile_ = nullptr;
    }
    bin_.reset();
    throw std::runtime_error("trace " + path_ + ": " + what);
}

void
TraceExporter::writeJson(const trace::CycleEvent &ev)
{
    if (!firstJsonEvent_)
        std::fputc(',', jsonFile_);
    firstJsonEvent_ = false;
    if (ev.kind == trace::CycleEvent::Kind::Counter) {
        std::fprintf(jsonFile_,
                     "\n{\"name\":\"occupancy\",\"ph\":\"C\",\"pid\":0,"
                     "\"ts\":%" PRIu64 ",\"args\":{\"iq\":%" PRIu64
                     ",\"rob\":%" PRIu64 ",\"frontend\":%" PRIu64
                     ",\"mopPending\":%" PRIu64 "}}",
                     ev.insert, ev.issue, ev.execStart, ev.complete,
                     ev.commit);
        return;
    }
    // One "X" slice per committed µop spanning fetch -> commit, on a
    // lane derived from its dynamic id so concurrent µops stack.
    uint64_t dur = ev.commit >= ev.fetch ? ev.commit - ev.fetch : 0;
    std::fprintf(jsonFile_,
                 "\n{\"name\":\"%s\",\"cat\":\"uop\",\"ph\":\"X\","
                 "\"pid\":0,\"tid\":%u,\"ts\":%" PRIu64 ",\"dur\":%" PRIu64
                 ",\"args\":{\"seq\":%" PRIu64 ",\"pc\":%" PRIu64
                 ",\"insert\":%" PRIu64 ",\"ready\":%" PRIu64
                 ",\"issue\":%" PRIu64 ",\"execStart\":%" PRIu64
                 ",\"complete\":%" PRIu64 ",\"flags\":%u}}",
                 isa::opClassName(isa::OpClass(ev.op)),
                 unsigned(ev.seq % 16), ev.fetch, dur, ev.seq, ev.pc,
                 ev.insert, ev.ready, ev.issue, ev.execStart, ev.complete,
                 unsigned(ev.flags));
}

void
TraceExporter::close()
{
    if (closed_)
        return;
    flush();
    closed_ = true;
    if (json_) {
        std::fputs("\n]}\n", jsonFile_);
        const bool failed = std::ferror(jsonFile_) != 0;
        if (std::fclose(std::exchange(jsonFile_, nullptr)) != 0 || failed)
            fail("write failed");
    } else {
        try {
            bin_->close();
        } catch (const std::exception &e) {
            fail(e.what());
        }
    }
}

} // namespace mop::obs
