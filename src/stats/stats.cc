#include "stats/stats.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <numeric>
#include <stdexcept>

namespace mop::stats
{

Histogram::Histogram(int64_t lo, int64_t hi, size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0)
{
    if (hi <= lo || buckets == 0) {
        throw std::invalid_argument(
            "Histogram: need hi > lo and buckets > 0");
    }
    bucketSize_ = (hi - lo + int64_t(buckets) - 1) / int64_t(buckets);
    if (bucketSize_ <= 0)
        bucketSize_ = 1;
}

void
Histogram::sample(int64_t v, uint64_t weight)
{
    total_ += weight;
    sum_ += double(v) * double(weight);
    if (v < lo_) {
        underflow_ += weight;
    } else if (v >= hi_) {
        overflow_ += weight;
    } else {
        counts_[size_t((v - lo_) / bucketSize_)] += weight;
    }
}

void
Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    underflow_ = overflow_ = total_ = 0;
    sum_ = 0;
}

uint64_t
Histogram::countInRange(int64_t a, int64_t b) const
{
    // Only exact when [a, b] aligns to bucket boundaries; callers that
    // need per-value precision should use bucket size 1.
    uint64_t n = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
        int64_t b_lo = lo_ + int64_t(i) * bucketSize_;
        int64_t b_hi = b_lo + bucketSize_ - 1;
        if (b_lo >= a && b_hi <= b)
            n += counts_[i];
    }
    if (a <= lo_ - 1)
        n += underflow_;
    return n;
}

int64_t
Histogram::percentile(double p) const
{
    if (total_ == 0)
        return lo_;
    // Rank of the requested sample, 1-based: the smallest observed
    // value whose cumulative count covers p of the distribution.
    // ceil() (rather than truncation) makes p0 the minimum observed
    // sample and p100 the maximum, with interior percentiles rounding
    // up to the next held sample instead of down past it.
    uint64_t want =
        uint64_t(std::ceil(double(total_) * std::clamp(p, 0.0, 1.0)));
    if (want == 0)
        want = 1;  // p0: minimum observed sample
    if (want > total_)
        want = total_;
    uint64_t seen = underflow_;
    if (seen >= want)
        return lo_;
    for (size_t i = 0; i < counts_.size(); ++i) {
        seen += counts_[i];
        if (seen >= want)
            return lo_ + int64_t(i) * bucketSize_;
    }
    return hi_;  // rank falls in the overflow bucket
}

void
StatGroup::addCounter(const std::string &name, const Counter *c,
                      const std::string &desc)
{
    entries_.push_back({name, desc,
                        [c]() { return double(c->value()); }, true});
}

void
StatGroup::addAverage(const std::string &name, const Average *a,
                      const std::string &desc)
{
    entries_.push_back({name, desc, [a]() { return a->mean(); }, false});
}

void
StatGroup::addHistogram(const std::string &name, const Histogram *h,
                        const std::string &desc)
{
    entries_.push_back({name + ".mean", desc,
                        [h]() { return h->mean(); }, false});
    entries_.push_back({name + ".p50", "",
                        [h]() { return double(h->percentile(0.50)); },
                        true});
    entries_.push_back({name + ".p95", "",
                        [h]() { return double(h->percentile(0.95)); },
                        true});
    entries_.push_back({name + ".samples", "",
                        [h]() { return double(h->total()); }, true});
}

void
StatGroup::addFormula(const std::string &name, std::function<double()> f,
                      const std::string &desc)
{
    entries_.push_back({name, desc, std::move(f), false});
}

void
StatGroup::addChild(const StatGroup *g)
{
    children_.push_back(g);
}

void
StatGroup::print(std::ostream &os, const std::string &prefix) const
{
    std::string path = prefix.empty() ? name_ : prefix + "." + name_;
    for (const auto &e : entries_) {
        os << std::left << std::setw(44) << (path + "." + e.name) << " ";
        if (e.integral) {
            os << std::right << std::setw(14) << uint64_t(e.eval());
        } else {
            os << std::right << std::setw(14) << std::fixed
               << std::setprecision(4) << e.eval();
        }
        if (!e.desc.empty())
            os << "   # " << e.desc;
        os << "\n";
    }
    for (const auto *c : children_)
        c->print(os, path);
}

void
StatGroup::printCsv(std::ostream &os, const std::string &prefix) const
{
    std::string path = prefix.empty() ? name_ : prefix + "." + name_;
    for (const auto &e : entries_)
        os << path << "." << e.name << "," << e.eval() << "\n";
    for (const auto *c : children_)
        c->printCsv(os, path);
}

std::vector<double>
largestRemainderPercents(const std::vector<uint64_t> &counts, int decimals)
{
    std::vector<double> out(counts.size(), 0.0);
    uint64_t total = std::accumulate(counts.begin(), counts.end(),
                                     uint64_t(0));
    if (total == 0 || counts.empty())
        return out;

    decimals = std::clamp(decimals, 0, 6);
    uint64_t scale = 1;
    for (int d = 0; d < decimals; ++d)
        scale *= 10;
    const uint64_t units = 100 * scale;  // whole pie in output units

    // Integer quotas: floor(counts[i] * units / total) never loses
    // precision (128-bit intermediate), remainders order the leftover.
    std::vector<uint64_t> quota(counts.size());
    std::vector<unsigned __int128> rem(counts.size());
    unsigned __int128 assigned = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
        unsigned __int128 num =
            (unsigned __int128)counts[i] * (unsigned __int128)units;
        quota[i] = uint64_t(num / total);
        rem[i] = num % total;
        assigned += quota[i];
    }
    uint64_t leftover = units - uint64_t(assigned);

    std::vector<size_t> order(counts.size());
    std::iota(order.begin(), order.end(), size_t(0));
    std::stable_sort(order.begin(), order.end(),
                     [&rem](size_t a, size_t b) { return rem[a] > rem[b]; });
    for (uint64_t k = 0; k < leftover; ++k)
        ++quota[order[k % order.size()]];

    for (size_t i = 0; i < counts.size(); ++i)
        out[i] = double(quota[i]) / double(scale);
    return out;
}

} // namespace mop::stats
