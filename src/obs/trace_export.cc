#include "obs/trace_export.hh"

#include <sched.h>

#include <cstdio>
#include <stdexcept>
#include <utility>

namespace mop::obs
{

namespace
{

/** Keep the calling thread off @p cpu when another CPU is allowed.
 *  Woken by the thread filling the rings, the writer can otherwise be
 *  placed on that thread's busy CPU and stay there (seen on VMs whose
 *  idle vCPUs look busy to the scheduler), so the two time-slice one
 *  CPU instead of overlapping. */
void
avoidCpu(int cpu)
{
    cpu_set_t set;
    if (cpu < 0 || sched_getaffinity(0, sizeof set, &set) != 0 ||
        !CPU_ISSET(cpu, &set) || CPU_COUNT(&set) < 2)
        return;
    CPU_CLR(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
}

} // namespace

TraceExporter::TraceExporter(const std::string &path, uint32_t version)
    : path_(path),
      bin_(std::make_unique<trace::EventTraceWriter>(path, version))
{
    ring_.reserve(kRingCap);
    writing_.reserve(kRingCap);
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
        handOff();
}

void
TraceExporter::handOff()
{
    if (closed_) {  // pushed after close(): nothing takes the ring
        ring_.clear();
        return;
    }
    if (!writer_.joinable())
        writer_ = std::thread(&TraceExporter::writerLoop, this,
                              sched_getcpu());
    const size_t n = ring_.size();
    std::string err;
    bool handed = false;
    {
        std::lock_guard<std::mutex> lk(mu_);
        err = error_;
        if (err.empty() && !busy_) {
            writing_.swap(ring_);
            writingFirst_ = emitted_;
            busy_ = handed = true;
        }
    }
    if (handed) {
        cv_.notify_one();
    } else {
        // The writer still holds the previous ring. Waiting for it
        // would put its wake-up and its time slices on this thread, and
        // on a shared host those stretch to tens of milliseconds.
        if (err.empty())
            err = writeRing(ring_, emitted_);
        if (!err.empty())
            fail(err);
    }
    emitted_ += n;
    ring_.clear();
}

void
TraceExporter::writerLoop(int fillerCpu)
{
    avoidCpu(fillerCpu);
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        cv_.wait(lk, [this] { return busy_ || stop_; });
        if (!busy_)
            return;
        lk.unlock();
        std::string err = writeRing(writing_, writingFirst_);
        writing_.clear();
        lk.lock();
        if (error_.empty())
            error_ = std::move(err);
        busy_ = false;
    }
}

std::string
TraceExporter::stopWriter()
{
    if (!writer_.joinable())
        return "";
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    writer_.join();
    return std::exchange(error_, "");
}

std::string
TraceExporter::writeRing(const std::vector<trace::CycleEvent> &evs,
                         uint64_t first)
{
    try {
        bin_->write(evs.data(), evs.size(), first);
        return "";
    } catch (const std::exception &e) {
        return e.what();
    }
}

void
TraceExporter::fail(const std::string &what)
{
    stopWriter();
    closed_ = true;
    ring_.clear();
    bin_.reset();
    throw std::runtime_error("trace " + path_ + ": " + what);
}

void
TraceExporter::close()
{
    if (closed_)
        return;
    std::string err = stopWriter();
    if (err.empty())
        err = writeRing(ring_, emitted_);
    if (!err.empty())
        fail(err);
    emitted_ += ring_.size();
    ring_.clear();
    closed_ = true;
    try {
        bin_->close();
    } catch (const std::exception &e) {
        fail(e.what());
    }
}

} // namespace mop::obs
