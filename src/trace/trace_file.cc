#include "trace/trace_file.hh"

#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace mop::trace
{

namespace
{

constexpr char kEventMagic[8] = {'M', 'O', 'P', 'E', 'V', 'T', 'R', 'C'};
constexpr uint32_t kEventVersionV1 = 1;
constexpr uint32_t kEventVersion = 2;
/** v3 = the v2 record layout with flag bit 7 (kFlagWrongPath)
 *  reserved; stamped only by wrong-path-enabled runs. */
constexpr uint32_t kEventVersionV3 = 3;

/** On-disk v1 cycle-event record, 64 bytes, little-endian host
 *  assumed. Still readable: v1 files predate the lifecycle
 *  extension. */
struct EventRecordV1
{
    uint8_t kind;
    uint8_t op;
    uint8_t pad[6];
    uint64_t seq;
    uint64_t pc;
    uint64_t insert;
    uint64_t issue;
    uint64_t execStart;
    uint64_t complete;
    uint64_t commit;
};
static_assert(sizeof(EventRecordV1) == 64,
              "v1 event record must be 64 bytes");

/** Magic, version word and reserved word: record i starts at
 *  kHeaderBytes + i * sizeof(CycleEvent). */
constexpr size_t kHeaderBytes = sizeof(kEventMagic) + 2 * sizeof(uint32_t);

// A v2/v3 record is a CycleEvent, byte for byte: the writer writes the
// caller's events as they are, and the reader reads into its output.
static_assert(sizeof(CycleEvent) == 112, "v2 event record must be 112 bytes");
static_assert(std::is_trivially_copyable_v<CycleEvent> &&
                  std::is_standard_layout_v<CycleEvent>,
              "a cycle event must be readable and writable as bytes");
static_assert(std::has_unique_object_representations_v<CycleEvent>,
              "every byte of a record must belong to a field");
static_assert(offsetof(CycleEvent, seq) == 8 &&
                  offsetof(CycleEvent, fetch) == 64 &&
                  offsetof(CycleEvent, dep) == 88 &&
                  offsetof(CycleEvent, mopId) == 104,
              "v2 record fields moved");

CycleEvent
fromRecordV1(const EventRecordV1 &r)
{
    CycleEvent ev;
    ev.kind = CycleEvent::Kind(r.kind);
    ev.op = r.op;
    ev.seq = r.seq;
    ev.pc = r.pc;
    ev.insert = r.insert;
    ev.issue = r.issue;
    ev.execStart = r.execStart;
    ev.complete = r.complete;
    ev.commit = r.commit;
    // v1 records carry no lifecycle extension: fall back to the
    // nearest recorded event so downstream passes see a consistent
    // (if coarse) fetch <= queueReady <= insert <= ready <= issue
    // ordering, and no dep/MOP information.
    ev.fetch = r.insert;
    ev.queueReady = r.insert;
    ev.ready = r.issue;
    return ev;
}

} // namespace

EventTraceWriter::EventTraceWriter(const std::string &path,
                                   uint32_t version)
{
    if (version != kEventVersion && version != kEventVersionV3)
        throw std::runtime_error("unwritable event trace version " +
                                 std::to_string(version));
    f_ = std::fopen(path.c_str(), "wb");
    if (!f_)
        throw std::runtime_error("cannot create event trace: " + path);
    uint32_t reserved = 0;
    std::fwrite(kEventMagic, 1, sizeof(kEventMagic), f_);
    std::fwrite(&version, sizeof(version), 1, f_);
    std::fwrite(&reserved, sizeof(reserved), 1, f_);
    // Out at once, so write() never races the stdio buffer; a
    // failure stays on the stream for close() to report.
    std::fflush(f_);
}

EventTraceWriter::~EventTraceWriter()
{
    if (f_)
        std::fclose(f_);
}

void
EventTraceWriter::write(const CycleEvent *evs, size_t n, uint64_t first)
{
    const char *p = reinterpret_cast<const char *>(evs);
    size_t left = n * sizeof(CycleEvent);
    off_t at = off_t(kHeaderBytes + first * sizeof(CycleEvent));
    const int fd = fileno(f_);
    while (left > 0) {
        const ssize_t w = ::pwrite(fd, p, left, at);
        if (w < 0 && errno == EINTR)
            continue;
        if (w <= 0)
            throw std::runtime_error("event trace write failed");
        p += w;
        left -= size_t(w);
        at += off_t(w);
    }
}

void
EventTraceWriter::close()
{
    if (!f_)
        return;
    FILE *f = std::exchange(f_, nullptr);
    const bool failed = std::ferror(f) != 0;
    if (std::fclose(f) != 0 || failed)
        throw std::runtime_error("event trace write failed");
}

EventTraceReader::EventTraceReader(const std::string &path) : path_(path)
{
    f_ = std::fopen(path.c_str(), "rb");
    if (!f_)
        throw std::runtime_error("cannot open event trace: " + path);
    char magic[8];
    uint32_t version = 0, reserved = 0;
    if (std::fread(magic, 1, 8, f_) != 8 ||
        std::memcmp(magic, kEventMagic, 8) != 0 ||
        std::fread(&version, sizeof(version), 1, f_) != 1 ||
        std::fread(&reserved, sizeof(reserved), 1, f_) != 1) {
        std::fclose(f_);
        f_ = nullptr;
        throw std::runtime_error("bad event trace header: " + path);
    }
    if (version != kEventVersionV1 && version != kEventVersion &&
        version != kEventVersionV3) {
        std::fclose(f_);
        f_ = nullptr;
        throw std::runtime_error(
            "unsupported event trace version " + std::to_string(version) +
            " (reader supports 1-" + std::to_string(kEventVersionV3) +
            "): " + path);
    }
    version_ = version;
}

EventTraceReader::~EventTraceReader()
{
    if (f_)
        std::fclose(f_);
}

bool
EventTraceReader::next(CycleEvent &out)
{
    const bool v1 = version_ == kEventVersionV1;
    EventRecordV1 r1;
    void *rec = v1 ? static_cast<void *>(&r1) : static_cast<void *>(&out);
    const size_t want = v1 ? sizeof(r1) : sizeof(out);
    const size_t n = std::fread(rec, 1, want, f_);
    if (n == 0)
        return false;
    auto bad = [&](const std::string &what) {
        return std::runtime_error("event trace " + path_ + ": record " +
                                  std::to_string(index_) + ": " + what);
    };
    if (n < want)
        throw bad("truncated: got " + std::to_string(n) +
                  " bytes, expected " + std::to_string(want));
    if (v1)
        out = fromRecordV1(r1);
    if (out.kind != CycleEvent::Kind::Uop &&
        out.kind != CycleEvent::Kind::Counter)
        throw bad("kind " + std::to_string(unsigned(out.kind)) +
                  " is neither uop (0) nor counter (1)");
    if (!v1 && out.reserved != decltype(out.reserved){})
        throw bad("nonzero reserved byte");
    ++index_;
    return true;
}

std::vector<CycleEvent>
readEventTrace(const std::string &path, uint32_t *version)
{
    EventTraceReader rd(path);
    if (version)
        *version = rd.version();
    std::vector<CycleEvent> events;
    CycleEvent ev;
    while (rd.next(ev))
        events.push_back(ev);
    return events;
}

} // namespace mop::trace
