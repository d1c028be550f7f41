/**
 * @file
 * Lightweight simulation-statistics package.
 *
 * Provides named scalar counters, averages, distributions/histograms and
 * derived formulas, grouped hierarchically. Modeled loosely on the gem5
 * stats package but intentionally small: every pipeline model in this
 * repository registers its counters in a StatGroup so that harness
 * binaries can dump a uniform text or CSV report.
 */

#ifndef MOP_STATS_STATS_HH
#define MOP_STATS_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace mop::stats
{

/** A named scalar counter (64-bit unsigned, saturating on decrement). */
class Counter
{
  public:
    Counter() = default;

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(uint64_t n) { value_ += n; return *this; }
    void reset() { value_ = 0; }

    uint64_t value() const { return value_; }
    operator uint64_t() const { return value_; }

  private:
    uint64_t value_ = 0;
};

/** Running mean/min/max over samples (e.g. occupancy per cycle). */
class Average
{
  public:
    void
    sample(double v)
    {
        sum_ += v;
        count_ += 1;
        if (count_ == 1 || v < min_) min_ = v;
        if (count_ == 1 || v > max_) max_ = v;
    }

    /**
     * Record @p v as @p n identical samples in one shot. For integral
     * v with sums below 2^53 every addition is exact, so this is
     * bit-identical to calling sample(v) n times — the contract the
     * event-driven cycle skipper relies on when it accounts for a
     * region of idle cycles at once.
     */
    void
    sample(double v, uint64_t n)
    {
        if (n == 0)
            return;
        sum_ += v * double(n);
        bool first = count_ == 0;
        count_ += n;
        if (first || v < min_) min_ = v;
        if (first || v > max_) max_ = v;
    }

    void reset() { sum_ = 0; count_ = 0; min_ = 0; max_ = 0; }

    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return min_; }
    double max() const { return max_; }
    uint64_t count() const { return count_; }

  private:
    double sum_ = 0;
    uint64_t count_ = 0;
    double min_ = 0;
    double max_ = 0;
};

/**
 * Fixed-bucket histogram over the range [lo, hi) with a configurable
 * number of buckets plus an overflow bucket. Used for dependence-edge
 * distance and issue-delay characterizations.
 */
class Histogram
{
  public:
    Histogram() : Histogram(0, 1, 1) {}

    Histogram(int64_t lo, int64_t hi, size_t buckets);

    void sample(int64_t v, uint64_t weight = 1);
    void reset();

    uint64_t total() const { return total_; }
    uint64_t overflow() const { return overflow_; }
    uint64_t underflow() const { return underflow_; }
    uint64_t bucketCount(size_t i) const { return counts_.at(i); }
    size_t numBuckets() const { return counts_.size(); }

    /** Sum of counts for samples in [a, b] (inclusive, clamped). */
    uint64_t countInRange(int64_t a, int64_t b) const;

    double mean() const { return total_ ? sum_ / double(total_) : 0.0; }

    /**
     * Smallest bucket lower bound whose cumulative count reaches
     * fraction @p p (clamped to [0, 1]) of all samples; resolution is
     * the bucket size. Underflow counts toward lo, overflow toward
     * hi. Edge semantics: p <= 0 is the minimum observed sample's
     * bucket, p >= 1 the maximum's (hi when samples overflowed); an
     * empty histogram returns lo.
     */
    int64_t percentile(double p) const;

  private:
    int64_t lo_;
    int64_t hi_;
    int64_t bucketSize_;
    /** log2(bucketSize_) when it is a power of two, else -1: sample()
     *  then shifts instead of dividing. */
    int bucketShift_ = -1;
    std::vector<uint64_t> counts_;
    uint64_t underflow_ = 0;
    uint64_t overflow_ = 0;
    uint64_t total_ = 0;
    double sum_ = 0;
};

/**
 * A group of named statistics that can render itself as a report.
 * Groups may nest; names are dotted paths when printed.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    void addCounter(const std::string &name, const Counter *c,
                    const std::string &desc = "");
    void addAverage(const std::string &name, const Average *a,
                    const std::string &desc = "");
    /** Registers <name>.mean / .p50 / .p95 / .samples entries. */
    void addHistogram(const std::string &name, const Histogram *h,
                      const std::string &desc = "");
    /** A derived value computed at dump time (ratios, IPC, ...). */
    void addFormula(const std::string &name, std::function<double()> f,
                    const std::string &desc = "");
    void addChild(const StatGroup *g);

    const std::string &name() const { return name_; }

    /** Human-readable aligned table, one stat per line. */
    void print(std::ostream &os, const std::string &prefix = "") const;
    /** Machine-readable "path,value" lines. */
    void printCsv(std::ostream &os, const std::string &prefix = "") const;

  private:
    struct Entry
    {
        std::string name;
        std::string desc;
        std::function<double()> eval;
        bool integral;
    };

    std::string name_;
    std::vector<Entry> entries_;
    std::vector<const StatGroup *> children_;
};

/**
 * Round @p counts to percentages of their sum that add up to exactly
 * 100 at @p decimals digits (largest-remainder / Hamilton method:
 * floor every quota, then hand the leftover units to the largest
 * fractional remainders, lowest index first on ties). Independent
 * rounding can print columns summing to 99.99 or 100.01; these always
 * sum to 100.00. All-zero input returns all zeros.
 */
std::vector<double> largestRemainderPercents(
    const std::vector<uint64_t> &counts, int decimals = 2);

} // namespace mop::stats

#endif // MOP_STATS_STATS_HH
