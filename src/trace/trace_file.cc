#include "trace/trace_file.hh"

#include <unistd.h>

#include <cerrno>
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

/** On-disk v2 cycle-event record, 112 bytes: the v1 prefix plus the
 *  full lifecycle (fetch/queue-ready/wakeup-ready), dependence edges
 *  and MOP-pairing id. */
struct EventRecord
{
    uint8_t kind;
    uint8_t op;
    uint8_t flags;
    uint8_t pad[5];
    uint64_t seq;
    uint64_t pc;
    uint64_t insert;
    uint64_t issue;
    uint64_t execStart;
    uint64_t complete;
    uint64_t commit;
    uint64_t fetch;
    uint64_t queueReady;
    uint64_t ready;
    uint64_t dep0;
    uint64_t dep1;
    uint64_t mopId;
};
static_assert(sizeof(EventRecord) == 112,
              "v2 event record must be 112 bytes");

/** Magic, version word and reserved word: record i starts at
 *  kHeaderBytes + i * sizeof(EventRecord). */
constexpr size_t kHeaderBytes = sizeof(kEventMagic) + 2 * sizeof(uint32_t);

// EventTraceWriter::writeInPlace packs each record over its source.
static_assert(sizeof(CycleEvent) == sizeof(EventRecord) &&
                  std::is_trivially_copyable_v<CycleEvent>,
              "a cycle event must be reusable as its on-disk record");

EventRecord
packEvent(const CycleEvent &ev)
{
    EventRecord r{};
    r.kind = uint8_t(ev.kind);
    r.op = ev.op;
    r.flags = ev.flags;
    r.seq = ev.seq;
    r.pc = ev.pc;
    r.insert = ev.insert;
    r.issue = ev.issue;
    r.execStart = ev.execStart;
    r.complete = ev.complete;
    r.commit = ev.commit;
    r.fetch = ev.fetch;
    r.queueReady = ev.queueReady;
    r.ready = ev.ready;
    r.dep0 = ev.dep[0];
    r.dep1 = ev.dep[1];
    r.mopId = ev.mopId;
    return r;
}

/** Overwrite each of @p evs with its on-disk record. */
void
packInPlace(CycleEvent *evs, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        const EventRecord r = packEvent(evs[i]);
        std::memcpy(static_cast<void *>(&evs[i]), &r, sizeof(r));
    }
}

CycleEvent
unpackEvent(const EventRecord &r)
{
    CycleEvent ev;
    ev.kind = CycleEvent::Kind(r.kind);
    ev.op = r.op;
    ev.flags = r.flags;
    ev.seq = r.seq;
    ev.pc = r.pc;
    ev.insert = r.insert;
    ev.issue = r.issue;
    ev.execStart = r.execStart;
    ev.complete = r.complete;
    ev.commit = r.commit;
    ev.fetch = r.fetch;
    ev.queueReady = r.queueReady;
    ev.ready = r.ready;
    ev.dep = {r.dep0, r.dep1};
    ev.mopId = r.mopId;
    return ev;
}

CycleEvent
unpackEventV1(const EventRecordV1 &r)
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
    // Out at once, so writeInPlaceAt never races the stdio buffer; a
    // failure stays on the stream for close() to report.
    std::fflush(f_);
}

EventTraceWriter::~EventTraceWriter()
{
    if (f_)
        std::fclose(f_);
}

void
EventTraceWriter::write(const CycleEvent &ev)
{
    CycleEvent one = ev;
    writeInPlace(&one, 1);
}

void
EventTraceWriter::writeInPlace(CycleEvent *evs, size_t n)
{
    packInPlace(evs, n);
    if (std::fwrite(evs, sizeof(EventRecord), n, f_) != n)
        throw std::runtime_error("event trace write failed");
    count_ += n;
}

void
EventTraceWriter::writeInPlaceAt(CycleEvent *evs, size_t n, uint64_t first)
{
    packInPlace(evs, n);
    const char *p = reinterpret_cast<const char *>(evs);
    size_t left = n * sizeof(EventRecord);
    off_t at = off_t(kHeaderBytes + first * sizeof(EventRecord));
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

EventTraceReader::EventTraceReader(const std::string &path)
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
    if (version_ == kEventVersionV1) {
        EventRecordV1 r;
        size_t n = std::fread(&r, 1, sizeof(r), f_);
        if (n == 0)
            return false;
        if (n < sizeof(r)) {
            throw std::runtime_error(
                "truncated v1 event record: got " + std::to_string(n) +
                " bytes, expected " + std::to_string(sizeof(r)));
        }
        out = unpackEventV1(r);
        return true;
    }
    EventRecord r;
    size_t n = std::fread(&r, 1, sizeof(r), f_);
    if (n == 0)
        return false;
    if (n < sizeof(r)) {
        throw std::runtime_error(
            "truncated event record: got " + std::to_string(n) +
            " bytes, expected " + std::to_string(sizeof(r)));
    }
    out = unpackEvent(r);
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
