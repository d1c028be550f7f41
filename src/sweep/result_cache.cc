#include "sweep/result_cache.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

namespace mop::sweep
{

namespace
{

uint64_t
doubleBits(double v)
{
    uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

double
bitsDouble(uint64_t b)
{
    double v;
    std::memcpy(&v, &b, sizeof(v));
    return v;
}

/** Read a whole file as bytes; false if it does not open. */
bool
slurp(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

/** Parse one strictly-formatted "key value" line (full token match). */
bool
parseFieldLine(const std::string &line, std::string &key, uint64_t &val)
{
    size_t sp = line.find(' ');
    if (sp == std::string::npos || sp == 0 || sp + 1 >= line.size())
        return false;
    key = line.substr(0, sp);
    const std::string digits = line.substr(sp + 1);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(digits.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0')
        return false;
    val = uint64_t(v);
    return true;
}

} // namespace

uint32_t
crc32c(const void *data, size_t n, uint32_t crc)
{
    // Table-driven reflected CRC-32C (Castagnoli, poly 0x82F63B78).
    static const std::array<uint32_t, 256> table = [] {
        std::array<uint32_t, 256> t{};
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    const auto *p = static_cast<const unsigned char *>(data);
    crc = ~crc;
    for (size_t i = 0; i < n; ++i)
        crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
    return ~crc;
}

void
CacheRecord::addF64(const std::string &k, double v)
{
    add(k, doubleBits(v));
}

bool
CacheRecord::get(const std::string &k, uint64_t &out) const
{
    for (const auto &[key, val] : fields) {
        if (key == k) {
            out = val;
            return true;
        }
    }
    return false;
}

bool
CacheRecord::getF64(const std::string &k, double &out) const
{
    uint64_t b;
    if (!get(k, b))
        return false;
    out = bitsDouble(b);
    return true;
}

std::string
encodeRecordV2(const CacheRecord &rec)
{
    std::ostringstream body;
    body << "mopres 2\n";
    for (const auto &[key, val] : rec.fields)
        body << key << " " << val << "\n";
    std::string s = body.str();
    char crcLine[24];
    std::snprintf(crcLine, sizeof crcLine, "crc %08x\n",
                  crc32c(s.data(), s.size()));
    s += crcLine;
    return s;
}

RecordStatus
decodeRecord(const std::string &bytes, CacheRecord &out)
{
    size_t eol = bytes.find('\n');
    if (eol == std::string::npos)
        return RecordStatus::Corrupt;
    if (bytes.compare(0, eol, "mopres 2") != 0)
        return RecordStatus::Corrupt;

    // The file must end "crc <8-hex>\n"; the CRC covers every byte
    // before that line. Any truncation loses the trailer and fails
    // here; any bit flip fails the CRC compare.
    if (bytes.empty() || bytes.back() != '\n')
        return RecordStatus::Corrupt;
    size_t trailerStart = bytes.rfind("crc ", bytes.size() - 1);
    if (trailerStart == std::string::npos ||
        (trailerStart != 0 && bytes[trailerStart - 1] != '\n'))
        return RecordStatus::Corrupt;
    const std::string trailer =
        bytes.substr(trailerStart, bytes.size() - trailerStart);
    if (trailer.size() != 13)  // "crc " + 8 hex + "\n"
        return RecordStatus::Corrupt;
    // Strict lowercase hex (the only form the encoder emits): a
    // case-insensitive parse would silently accept some trailer bit
    // flips as the same value.
    uint32_t stored = 0;
    for (size_t i = 4; i < 12; ++i) {
        char c = trailer[i];
        if (c >= '0' && c <= '9')
            stored = (stored << 4) | uint32_t(c - '0');
        else if (c >= 'a' && c <= 'f')
            stored = (stored << 4) | uint32_t(c - 'a' + 10);
        else
            return RecordStatus::Corrupt;
    }
    if (crc32c(bytes.data(), trailerStart) != stored)
        return RecordStatus::Corrupt;

    // Payload verified; field lines are parsed strictly.
    CacheRecord rec;
    size_t pos = eol + 1;
    while (pos < trailerStart) {
        size_t lineEnd = bytes.find('\n', pos);
        if (lineEnd == std::string::npos || lineEnd >= trailerStart)
            return RecordStatus::Corrupt;
        std::string key;
        uint64_t val;
        if (!parseFieldLine(bytes.substr(pos, lineEnd - pos), key, val))
            return RecordStatus::Corrupt;
        rec.add(key, val);
        pos = lineEnd + 1;
    }
    if (rec.fields.empty())
        return RecordStatus::Corrupt;
    out = std::move(rec);
    return RecordStatus::Ok;
}

CacheRecord
packSimResult(const pipeline::SimResult &r)
{
    CacheRecord rec;
    rec.add("cycles", r.cycles);
    rec.add("insts", r.insts);
    rec.add("uops", r.uops);
    rec.addF64("ipc", r.ipc);
    for (size_t i = 0; i < r.groupCounts.size(); ++i)
        rec.add("group" + std::to_string(i), r.groupCounts[i]);
    rec.add("iqEntriesInserted", r.iqEntriesInserted);
    rec.add("uopsInserted", r.uopsInserted);
    rec.add("replays", r.replays);
    rec.add("mispredicts", r.mispredicts);
    rec.add("filterDeletions", r.filterDeletions);
    rec.addF64("avgIqOccupancy", r.avgIqOccupancy);
    // Stall attribution exists only for observability runs; plain runs
    // keep the exact field set (and bytes) they had before it existed.
    if (r.stallWidth > 0) {
        rec.add("stallWidth", r.stallWidth);
        for (size_t i = 0; i < r.stallSlots.size(); ++i)
            rec.add("stall" + std::to_string(i), r.stallSlots[i]);
    }
    return rec;
}

bool
unpackSimResult(const CacheRecord &rec, pipeline::SimResult &out)
{
    pipeline::SimResult r;
    bool ok = rec.get("cycles", r.cycles) && rec.get("insts", r.insts) &&
              rec.get("uops", r.uops) && rec.getF64("ipc", r.ipc) &&
              rec.get("iqEntriesInserted", r.iqEntriesInserted) &&
              rec.get("uopsInserted", r.uopsInserted) &&
              rec.get("replays", r.replays) &&
              rec.get("mispredicts", r.mispredicts) &&
              rec.get("filterDeletions", r.filterDeletions) &&
              rec.getF64("avgIqOccupancy", r.avgIqOccupancy);
    for (size_t i = 0; ok && i < r.groupCounts.size(); ++i)
        ok = rec.get("group" + std::to_string(i), r.groupCounts[i]);
    // Optional stall block: absent in records written before the
    // observability layer (and in all non-observability runs).
    uint64_t sw = 0;
    if (ok && rec.get("stallWidth", sw) && sw > 0) {
        r.stallWidth = uint32_t(sw);
        // Causes appended after a record was written (e.g. the
        // wrong-path slot) are absent from older records; they charged
        // zero slots then, so a missing *suffix* reads back as zero.
        // Records are whole-file checksummed, so a hole can only mean
        // schema evolution, never corruption.
        for (size_t i = 0; ok && i < r.stallSlots.size(); ++i) {
            if (!rec.get("stall" + std::to_string(i), r.stallSlots[i]))
                break;
        }
    }
    if (ok)
        out = r;
    return ok;
}

CacheRecord
packDistance(const analysis::DistanceResult &r)
{
    CacheRecord rec;
    rec.add("totalInsts", r.totalInsts);
    rec.add("valueGenCands", r.valueGenCands);
    rec.add("dist1to3", r.dist1to3);
    rec.add("dist4to7", r.dist4to7);
    rec.add("dist8plus", r.dist8plus);
    rec.add("notCandidate", r.notCandidate);
    rec.add("dead", r.dead);
    return rec;
}

bool
unpackDistance(const CacheRecord &rec, analysis::DistanceResult &out)
{
    analysis::DistanceResult r;
    bool ok = rec.get("totalInsts", r.totalInsts) &&
              rec.get("valueGenCands", r.valueGenCands) &&
              rec.get("dist1to3", r.dist1to3) &&
              rec.get("dist4to7", r.dist4to7) &&
              rec.get("dist8plus", r.dist8plus) &&
              rec.get("notCandidate", r.notCandidate) &&
              rec.get("dead", r.dead);
    if (ok)
        out = r;
    return ok;
}

CacheRecord
packGrouping(const analysis::GroupingResult &r)
{
    CacheRecord rec;
    rec.add("totalInsts", r.totalInsts);
    rec.add("notCandidate", r.notCandidate);
    rec.add("candNotGrouped", r.candNotGrouped);
    rec.add("groupedNonValueGen", r.groupedNonValueGen);
    rec.add("groupedValueGen", r.groupedValueGen);
    rec.add("groups", r.groups);
    return rec;
}

bool
unpackGrouping(const CacheRecord &rec, analysis::GroupingResult &out)
{
    analysis::GroupingResult r;
    bool ok = rec.get("totalInsts", r.totalInsts) &&
              rec.get("notCandidate", r.notCandidate) &&
              rec.get("candNotGrouped", r.candNotGrouped) &&
              rec.get("groupedNonValueGen", r.groupedNonValueGen) &&
              rec.get("groupedValueGen", r.groupedValueGen) &&
              rec.get("groups", r.groups);
    if (ok)
        out = r;
    return ok;
}

std::string
ResultCache::defaultDir()
{
    if (const char *e = std::getenv("MOP_CACHE_DIR"); e && *e)
        return e;
    if (const char *e = std::getenv("XDG_CACHE_HOME"); e && *e)
        return std::string(e) + "/mopsim";
    if (const char *e = std::getenv("HOME"); e && *e)
        return std::string(e) + "/.cache/mopsim";
    return ".mopsim-cache";
}

std::string
ResultCache::path(const Fingerprint &fp) const
{
    return dir_ + "/" + fp.hex() + ".res";
}

void
ResultCache::quarantine(const std::string &file) const
{
    ++corrupt_;
    if (!loggedCorrupt_.exchange(true))
        std::cerr << "[cache] corrupt record quarantined: " << file
                  << " (further corruption counted silently)\n";
    std::error_code ec;
    std::filesystem::create_directories(quarantineDir(), ec);
    if (!ec) {
        std::filesystem::rename(
            file,
            quarantineDir() + "/" +
                std::filesystem::path(file).filename().string(),
            ec);
    }
    if (ec)
        std::filesystem::remove(file, ec);  // never reload known damage
}

bool
ResultCache::load(const Fingerprint &fp, CacheRecord &out) const
{
    if (!enabled())
        return false;
    const std::string file = path(fp);
    std::string bytes;
    if (!slurp(file, bytes)) {
        ++misses_;
        return false;
    }
    CacheRecord rec;
    if (decodeRecord(bytes, rec) != RecordStatus::Ok) {
        quarantine(file);
        return false;
    }
    // Bump atime so LRU eviction tracks use even on relatime mounts
    // (mtime untouched: it dates the computation).
    struct timespec times[2];
    times[0].tv_nsec = UTIME_NOW;
    times[1].tv_nsec = UTIME_OMIT;
    ::utimensat(AT_FDCWD, file.c_str(), times, 0);
    out = std::move(rec);
    ++hits_;
    return true;
}

void
ResultCache::store(const Fingerprint &fp, const CacheRecord &rec) const
{
    if (!enabled())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        return;  // unwritable cache degrades to a miss, never an error
    // Unique temp name per writer, then an atomic rename into place.
    // The stream is closed and checked before the rename: a flush that
    // fails at close (disk full, file-size limit) must not install an
    // empty record. Any failure removes the temp file, so a failed
    // store is a plain miss next time.
    const std::string dest = path(fp);
    std::ostringstream name;
    name << dest << ".tmp." << ::getpid() << "."
         << std::this_thread::get_id();
    const std::string tmp = name.str();
    std::ofstream outf(tmp, std::ios::trunc | std::ios::binary);
    const std::string bytes = encodeRecordV2(rec);
    outf.write(bytes.data(), std::streamsize(bytes.size()));
    outf.close();
    if (outf)
        std::filesystem::rename(tmp, dest, ec);
    if (!outf || ec)
        std::filesystem::remove(tmp, ec);
}

CacheVerifyStats
ResultCache::verify() const
{
    CacheVerifyStats stats;
    if (!enabled())
        return stats;
    std::error_code ec;
    std::vector<std::string> files;
    for (std::filesystem::directory_iterator
             it(dir_, std::filesystem::directory_options::skip_permission_denied,
                ec),
         end;
         !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file(ec) && it->path().extension() == ".res")
            files.push_back(it->path().string());
    }
    std::sort(files.begin(), files.end());
    for (const std::string &file : files) {
        ++stats.checked;
        std::string bytes;
        CacheRecord rec;
        if (!slurp(file, bytes)) {
            continue;  // raced with eviction/another verifier
        }
        if (decodeRecord(bytes, rec) == RecordStatus::Ok) {
            ++stats.ok;
        } else {
            quarantine(file);
            ++stats.corrupt;
        }
    }
    for (const std::string &file : files) {
        std::error_code sec;
        auto sz = std::filesystem::file_size(file, sec);
        if (!sec)
            stats.bytes += sz;
    }
    return stats;
}

uint64_t
ResultCache::evictToBudget(uint64_t max_bytes) const
{
    if (!enabled() || max_bytes == 0)
        return 0;
    struct Entry
    {
        int64_t atimeSec;
        int64_t atimeNsec;
        std::string file;
        uint64_t size;
    };
    std::vector<Entry> entries;
    uint64_t total = 0;
    std::error_code ec;
    for (std::filesystem::directory_iterator
             it(dir_, std::filesystem::directory_options::skip_permission_denied,
                ec),
         end;
         !ec && it != end; it.increment(ec)) {
        if (!it->is_regular_file(ec) || it->path().extension() != ".res")
            continue;
        struct stat st;
        if (::stat(it->path().c_str(), &st) != 0)
            continue;
        entries.push_back({int64_t(st.st_atim.tv_sec),
                           int64_t(st.st_atim.tv_nsec),
                           it->path().string(), uint64_t(st.st_size)});
        total += uint64_t(st.st_size);
    }
    if (total <= max_bytes)
        return 0;
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.atimeSec != b.atimeSec)
                      return a.atimeSec < b.atimeSec;
                  if (a.atimeNsec != b.atimeNsec)
                      return a.atimeNsec < b.atimeNsec;
                  return a.file < b.file;  // deterministic tie-break
              });
    uint64_t evicted = 0;
    for (const Entry &e : entries) {
        if (total <= max_bytes)
            break;
        std::error_code rec_ec;
        if (std::filesystem::remove(e.file, rec_ec) && !rec_ec) {
            total -= e.size;
            ++evicted;
        }
    }
    evictions_ += evicted;
    return evicted;
}

} // namespace mop::sweep
