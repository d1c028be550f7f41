/**
 * @file
 * Persistent on-disk result cache shared by every harness.
 *
 * Layout: one text file per fingerprint, `<dir>/<32-hex>.res`, holding
 * a magic line (`mopres 2`) followed by `key value` pairs and a
 * trailing `crc <8-hex>` line (CRC-32C of every byte before it). All
 * values are unsigned 64-bit decimals; doubles are stored as their
 * IEEE-754 bit patterns so a load reproduces the computed value bit
 * for bit (byte-identical tables are an acceptance criterion, so
 * "%.17g" round-tripping is not good enough).
 *
 * Integrity: the CRC makes truncation, short writes and bit flips
 * *detectable* — a damaged record is counted as corrupt (distinct from
 * a plain miss), moved to `<dir>/quarantine/` for post-mortem, and the
 * job is recomputed. A record without a verified CRC -- including one
 * in the retired pre-CRC `mopres 1` form -- is corrupt: nothing
 * unvalidated drives a figure. verify() runs the same check
 * over the whole directory; evictToBudget() applies an atime-LRU size
 * budget (successful loads bump atime so the policy tracks real use).
 *
 * Invalidation is entirely key-side: the fingerprint already folds in
 * the simulator version, the workload profile and every config field,
 * so a stale entry is simply never looked up again. Unknown keys in a
 * record are ignored (forward compatibility); a missing expected key
 * makes unpack report a miss.
 *
 * Concurrency: writes go to a unique temp file in the same directory
 * and are renamed into place, so concurrent harnesses (threads or
 * processes) computing the same entry race benignly; eviction unlinks
 * whole files and never sees a partial write for the same reason. The
 * directory resolves from, in order: an explicit --cache-dir,
 * $MOP_CACHE_DIR, $XDG_CACHE_HOME/mopsim, $HOME/.cache/mopsim.
 */

#ifndef MOP_SWEEP_RESULT_CACHE_HH
#define MOP_SWEEP_RESULT_CACHE_HH

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "analysis/characterize.hh"
#include "pipeline/ooo_core.hh"
#include "sweep/fingerprint.hh"

namespace mop::sweep
{

/**
 * CRC-32C (Castagnoli) over @p n bytes, continuing from @p crc.
 * Standard reflected polynomial 0x82F63B78; crc32c("123456789") ==
 * 0xE3069283. Every cache record carries one over its bytes.
 */
uint32_t crc32c(const void *data, size_t n, uint32_t crc = 0);

/** A flat, ordered key->u64 record: the cache's unit of storage. */
struct CacheRecord
{
    std::vector<std::pair<std::string, uint64_t>> fields;

    void add(const std::string &k, uint64_t v) { fields.emplace_back(k, v); }
    void addF64(const std::string &k, double v);

    /** Fetch @p k into @p out; false if absent. */
    bool get(const std::string &k, uint64_t &out) const;
    bool getF64(const std::string &k, double &out) const;
};

/** Serialize @p rec as the exact bytes of a v2 cache file (magic,
 *  fields, trailing CRC line). Exposed for tests. */
std::string encodeRecordV2(const CacheRecord &rec);

/** What parsing one record's bytes concluded. */
enum class RecordStatus : uint8_t
{
    Ok,        ///< v2, CRC verified
    Corrupt,   ///< damaged: bad magic/parse/truncation/CRC mismatch
};

/** Parse the full file @p bytes into @p out. Never partially fills
 *  @p out on Corrupt. Exposed for tests. */
RecordStatus decodeRecord(const std::string &bytes, CacheRecord &out);

// SimResult / characterization results <-> record. unpack() returns
// false (leaving @p out default) when a required field is missing.
CacheRecord packSimResult(const pipeline::SimResult &r);
bool unpackSimResult(const CacheRecord &rec, pipeline::SimResult &out);
CacheRecord packDistance(const analysis::DistanceResult &r);
bool unpackDistance(const CacheRecord &rec, analysis::DistanceResult &out);
CacheRecord packGrouping(const analysis::GroupingResult &r);
bool unpackGrouping(const CacheRecord &rec, analysis::GroupingResult &out);

/** verify() summary: every record checked, damage quarantined. */
struct CacheVerifyStats
{
    uint64_t checked = 0;   ///< .res files examined
    uint64_t ok = 0;        ///< v2, CRC verified
    uint64_t corrupt = 0;   ///< quarantined
    uint64_t bytes = 0;     ///< directory size after the pass
};

class ResultCache
{
  public:
    /** Disabled cache: load always misses, store is a no-op. */
    ResultCache() = default;

    /** Cache rooted at @p dir (created on first store). Empty @p dir
     *  constructs a disabled cache. */
    explicit ResultCache(std::string dir) : dir_(std::move(dir)) {}

    /** Resolve the default directory from the environment (see file
     *  comment). Never empty. */
    static std::string defaultDir();

    bool enabled() const { return !dir_.empty(); }
    const std::string &dir() const { return dir_; }

    /** Where damaged records are moved for post-mortem. */
    std::string quarantineDir() const { return dir_ + "/quarantine"; }

    /**
     * Load the record for @p fp. Returns false on a plain miss *and*
     * on a corrupt record; the two are distinguished by the counters,
     * and a corrupt file is moved to quarantineDir() (first offender
     * logged to stderr once per cache).
     */
    bool load(const Fingerprint &fp, CacheRecord &out) const;
    void store(const Fingerprint &fp, const CacheRecord &rec) const;

    /** Re-check every record in the directory (the --cache-verify
     *  pass): corrupt ones are quarantined. */
    CacheVerifyStats verify() const;

    /**
     * Delete least-recently-used records (atime, then name as the
     * deterministic tie-break) until the directory's .res payload is
     * within @p max_bytes. Returns the number of records evicted.
     * @p max_bytes of 0 means no budget (no-op).
     */
    uint64_t evictToBudget(uint64_t max_bytes) const;

    uint64_t hits() const { return hits_.load(); }
    uint64_t misses() const { return misses_.load(); }
    /** Records detected as damaged (counted separately from misses). */
    uint64_t corrupt() const { return corrupt_.load(); }
    uint64_t evictions() const { return evictions_.load(); }

  private:
    std::string path(const Fingerprint &fp) const;
    /** Move a damaged record aside, count it, log the first path. */
    void quarantine(const std::string &file) const;

    std::string dir_;
    mutable std::atomic<uint64_t> hits_{0};
    mutable std::atomic<uint64_t> misses_{0};
    mutable std::atomic<uint64_t> corrupt_{0};
    mutable std::atomic<uint64_t> evictions_{0};
    mutable std::atomic<bool> loggedCorrupt_{false};
};

} // namespace mop::sweep

#endif // MOP_SWEEP_RESULT_CACHE_HH
