#include "trace/trace_file.hh"

#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace mop::trace
{

namespace
{

constexpr char kMagic[8] = {'M', 'O', 'P', 'T', 'R', 'A', 'C', 'E'};
constexpr uint32_t kVersion = 1;

/** On-disk record, 32 bytes, little-endian host assumed. */
struct Record
{
    uint64_t pc;
    uint64_t memAddr;
    uint64_t target;
    uint8_t op;
    int8_t dst;
    int8_t src0;
    int8_t src1;
    uint8_t flags;  // bit0 taken, bit1 firstUop
    uint8_t pad[3];
};
static_assert(sizeof(Record) == 32, "trace record must be 32 bytes");

Record
pack(const isa::MicroOp &u)
{
    Record r{};
    r.pc = u.pc;
    r.memAddr = u.memAddr;
    r.target = u.target;
    r.op = uint8_t(u.op);
    r.dst = int8_t(u.dst);
    r.src0 = int8_t(u.src[0]);
    r.src1 = int8_t(u.src[1]);
    r.flags = uint8_t(u.taken) | uint8_t(u.firstUop) << 1;
    return r;
}

isa::MicroOp
unpack(const Record &r, uint64_t seq)
{
    isa::MicroOp u;
    u.seq = seq;
    u.pc = r.pc;
    u.memAddr = r.memAddr;
    u.target = r.target;
    u.op = isa::OpClass(r.op);
    u.dst = r.dst;
    u.src = {r.src0, r.src1};
    u.taken = r.flags & 1;
    u.firstUop = (r.flags >> 1) & 1;
    return u;
}

} // namespace

TraceWriter::TraceWriter(const std::string &path)
{
    f_ = std::fopen(path.c_str(), "wb");
    if (!f_)
        throw std::runtime_error("cannot create trace file: " + path);
    uint32_t version = kVersion, reserved = 0;
    std::fwrite(kMagic, 1, sizeof(kMagic), f_);
    std::fwrite(&version, sizeof(version), 1, f_);
    std::fwrite(&reserved, sizeof(reserved), 1, f_);
}

TraceWriter::~TraceWriter()
{
    close();
}

void
TraceWriter::write(const isa::MicroOp &u)
{
    Record r = pack(u);
    if (std::fwrite(&r, sizeof(r), 1, f_) != 1)
        throw std::runtime_error("trace write failed");
    ++count_;
}

void
TraceWriter::close()
{
    if (f_) {
        std::fclose(f_);
        f_ = nullptr;
    }
}

FileSource::FileSource(const std::string &path)
{
    f_ = std::fopen(path.c_str(), "rb");
    if (!f_)
        throw std::runtime_error("cannot open trace file: " + path);
    char magic[8];
    uint32_t version = 0, reserved = 0;
    if (std::fread(magic, 1, 8, f_) != 8 ||
        std::memcmp(magic, kMagic, 8) != 0 ||
        std::fread(&version, sizeof(version), 1, f_) != 1 ||
        std::fread(&reserved, sizeof(reserved), 1, f_) != 1 ||
        version != kVersion) {
        std::fclose(f_);
        f_ = nullptr;
        throw std::runtime_error("bad trace file header: " + path);
    }
}

FileSource::~FileSource()
{
    if (f_)
        std::fclose(f_);
}

bool
FileSource::next(isa::MicroOp &out)
{
    Record r;
    size_t n = std::fread(&r, 1, sizeof(r), f_);
    if (n == 0)
        return false;
    if (n < sizeof(r)) {
        throw std::runtime_error(
            "truncated trace record: got " + std::to_string(n) +
            " bytes, expected " + std::to_string(sizeof(r)));
    }
    out = unpack(r, seq_++);
    return true;
}

void
FileSource::reset()
{
    std::fseek(f_, 16, SEEK_SET);
    seq_ = 0;
}

uint64_t
recordTrace(TraceSource &src, const std::string &path, uint64_t max_uops)
{
    TraceWriter w(path);
    isa::MicroOp u;
    while (w.written() < max_uops && src.next(u))
        w.write(u);
    uint64_t n = w.written();
    w.close();
    return n;
}

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
    for (size_t i = 0; i < n; ++i) {
        const EventRecord r = packEvent(evs[i]);
        std::memcpy(static_cast<void *>(&evs[i]), &r, sizeof(r));
    }
    if (std::fwrite(evs, sizeof(EventRecord), n, f_) != n)
        throw std::runtime_error("event trace write failed");
    count_ += n;
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
readEventTrace(const std::string &path)
{
    EventTraceReader rd(path);
    std::vector<CycleEvent> events;
    CycleEvent ev;
    while (rd.next(ev))
        events.push_back(ev);
    return events;
}

} // namespace mop::trace
