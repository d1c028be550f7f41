/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "stats/stats.hh"
#include "stats/table.hh"

namespace
{

using namespace mop::stats;

TEST(Counter, IncrementAndAdd)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 41;
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(AverageStat, MeanMinMax)
{
    Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(1);
    a.sample(3);
    a.sample(8);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 8.0);
    EXPECT_EQ(a.count(), 3u);
}

TEST(AverageStat, NegativeValues)
{
    Average a;
    a.sample(-5);
    a.sample(5);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), -5.0);
}

TEST(HistogramStat, BucketsAndOverflow)
{
    Histogram h(0, 10, 5);  // buckets of 2
    for (int v = 0; v < 10; ++v)
        h.sample(v);
    h.sample(100);
    h.sample(-1);
    EXPECT_EQ(h.total(), 12u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.bucketCount(0), 2u);  // 0,1
    EXPECT_EQ(h.bucketCount(4), 2u);  // 8,9
}

TEST(HistogramStat, ShiftAndDivideBucketingAgree)
{
    // Power-of-two bucket sizes (1, 2, 8) take sample()'s shift path,
    // the others (3, 5) its division: both must put every sample where
    // floor((v - lo) / size) says, including across a negative lo and
    // at the top edge (hi - 1 is the last bucket, hi overflows).
    for (int64_t size : {1, 2, 3, 5, 8}) {
        const int64_t lo = -7;
        const size_t buckets = 6;
        const int64_t hi = lo + size * int64_t(buckets);
        Histogram h(lo, hi, buckets);
        std::vector<uint64_t> want(buckets, 0);
        uint64_t under = 0, over = 0, total = 0;
        double sum = 0;
        for (int64_t v = lo - 3; v <= hi + 3; ++v) {
            const uint64_t w = uint64_t(v - lo + 4);  // distinct weights
            h.sample(v, w);
            total += w;
            sum += double(v) * double(w);
            if (v < lo)
                under += w;
            else if (v >= hi)
                over += w;
            else
                want[size_t((v - lo) / size)] += w;
        }
        ASSERT_EQ(h.numBuckets(), buckets);
        for (size_t b = 0; b < buckets; ++b)
            EXPECT_EQ(h.bucketCount(b), want[b])
                << "size " << size << " bucket " << b;
        EXPECT_EQ(h.underflow(), under) << "size " << size;
        EXPECT_EQ(h.overflow(), over) << "size " << size;
        EXPECT_EQ(h.total(), total) << "size " << size;
        EXPECT_DOUBLE_EQ(h.mean(), sum / double(total)) << "size " << size;

        Histogram edge(lo, hi, buckets);
        edge.sample(hi - 1);
        edge.sample(hi);
        EXPECT_EQ(edge.bucketCount(buckets - 1), 1u) << "size " << size;
        EXPECT_EQ(edge.overflow(), 1u) << "size " << size;
    }
}

TEST(HistogramStat, CountInRange)
{
    Histogram h(0, 16, 16);  // unit buckets
    for (int v = 1; v <= 8; ++v)
        h.sample(v, 2);
    EXPECT_EQ(h.countInRange(1, 3), 6u);
    EXPECT_EQ(h.countInRange(4, 7), 8u);
}

TEST(HistogramStat, WeightedMean)
{
    Histogram h(0, 100, 10);
    h.sample(10, 3);
    h.sample(50, 1);
    EXPECT_DOUBLE_EQ(h.mean(), (30.0 + 50.0) / 4.0);
}

TEST(HistogramStat, PercentileBoundaries)
{
    Histogram h(0, 100, 100);  // unit buckets
    for (int v = 10; v < 20; ++v)
        h.sample(v);
    // p0 is the minimum observed sample, p100 the maximum.
    EXPECT_EQ(h.percentile(0.0), 10);
    EXPECT_EQ(h.percentile(1.0), 19);
    // Interior percentiles round up to the next held sample: with 10
    // samples, p50 is the 5th (value 14), p95 the 10th (value 19).
    EXPECT_EQ(h.percentile(0.5), 14);
    EXPECT_EQ(h.percentile(0.95), 19);
    // Out-of-range p clamps rather than walking off the histogram.
    EXPECT_EQ(h.percentile(-3.0), 10);
    EXPECT_EQ(h.percentile(7.0), 19);
}

TEST(HistogramStat, PercentileEmptyAndOverflow)
{
    Histogram empty(0, 10, 5);
    // Documented: an empty histogram reads as lo at every p.
    EXPECT_EQ(empty.percentile(0.0), 0);
    EXPECT_EQ(empty.percentile(0.5), 0);
    EXPECT_EQ(empty.percentile(1.0), 0);

    Histogram h(0, 10, 5);
    h.sample(-4);   // underflow counts toward lo
    h.sample(3);
    h.sample(99);   // overflow counts toward hi
    EXPECT_EQ(h.percentile(0.0), 0);
    EXPECT_EQ(h.percentile(0.5), 2);   // bucket [2,4) lower bound
    EXPECT_EQ(h.percentile(1.0), 10);  // overflow resolves to hi
}

TEST(HistogramStat, PercentileSingleSample)
{
    Histogram h(0, 10, 10);
    h.sample(7);
    for (double p : {0.0, 0.25, 0.5, 0.99, 1.0})
        EXPECT_EQ(h.percentile(p), 7) << "p=" << p;
}

TEST(LargestRemainder, SumsToExactly100)
{
    // Classic case independent rounding gets wrong: thirds.
    std::vector<double> pct =
        largestRemainderPercents({1, 1, 1}, 2);
    double sum = pct[0] + pct[1] + pct[2];
    EXPECT_NEAR(sum, 100.0, 1e-9);
    // 33.34 + 33.33 + 33.33, extra unit to the lowest index on a tie.
    EXPECT_NEAR(pct[0], 33.34, 1e-9);
    EXPECT_NEAR(pct[1], 33.33, 1e-9);
    EXPECT_NEAR(pct[2], 33.33, 1e-9);
}

TEST(LargestRemainder, HandsLeftoverToLargestRemainders)
{
    // 7/8, 1/8 at one decimal: 87.5 + 12.5 needs no correction...
    std::vector<double> pct = largestRemainderPercents({7, 1}, 1);
    EXPECT_NEAR(pct[0], 87.5, 1e-9);
    EXPECT_NEAR(pct[1], 12.5, 1e-9);
    // ...but 1/6, 5/6 does: 16.7 + 83.3, not 16.6 + 83.3 (99.9).
    pct = largestRemainderPercents({1, 5}, 1);
    EXPECT_NEAR(pct[0] + pct[1], 100.0, 1e-9);
    EXPECT_NEAR(pct[0], 16.7, 1e-9);
    EXPECT_NEAR(pct[1], 83.3, 1e-9);
}

TEST(LargestRemainder, ZeroTotalAndEmpty)
{
    std::vector<double> pct = largestRemainderPercents({0, 0, 0}, 2);
    for (double p : pct)
        EXPECT_EQ(p, 0.0);
    EXPECT_TRUE(largestRemainderPercents({}, 2).empty());
}

TEST(LargestRemainder, LargeCountsNoOverflow)
{
    // Counts near 2^40 scaled by 10^4 would overflow 64-bit math.
    uint64_t big = uint64_t(1) << 40;
    std::vector<double> pct =
        largestRemainderPercents({big, big, big, big}, 2);
    EXPECT_NEAR(pct[0] + pct[1] + pct[2] + pct[3], 100.0, 1e-9);
    EXPECT_NEAR(pct[0], 25.0, 1e-9);
}

TEST(HistogramStat, RejectsDegenerateShape)
{
    // These used to be assert()s, stripped from release builds; a bad
    // shape must fail loudly in every build.
    EXPECT_THROW(Histogram(10, 10, 4), std::invalid_argument);
    EXPECT_THROW(Histogram(10, 5, 4), std::invalid_argument);
    EXPECT_THROW(Histogram(0, 10, 0), std::invalid_argument);
}

TEST(StatGroupTest, PrintContainsEntries)
{
    Counter c;
    c += 7;
    Average a;
    a.sample(2.5);
    StatGroup g("core");
    g.addCounter("commits", &c, "committed");
    g.addAverage("occ", &a);
    g.addFormula("double", [&] { return double(c.value()) * 2; });

    std::ostringstream os;
    g.print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("core.commits"), std::string::npos);
    EXPECT_NE(s.find("7"), std::string::npos);
    EXPECT_NE(s.find("core.occ"), std::string::npos);
    EXPECT_NE(s.find("14.0"), std::string::npos);
}

TEST(StatGroupTest, NestedChildren)
{
    Counter c;
    StatGroup parent("sim");
    StatGroup child("sched");
    child.addCounter("issued", &c);
    parent.addChild(&child);
    std::ostringstream os;
    parent.print(os);
    EXPECT_NE(os.str().find("sim.sched.issued"), std::string::npos);
}

TEST(StatGroupTest, CsvFormat)
{
    Counter c;
    c += 3;
    StatGroup g("x");
    g.addCounter("n", &c);
    std::ostringstream os;
    g.printCsv(os);
    EXPECT_EQ(os.str(), "x.n,3\n");
}

TEST(TableTest, AlignedOutput)
{
    Table t("Demo");
    t.setColumns({"bench", "ipc"});
    t.addRow({"gzip", Table::fmt(1.234)});
    t.addRow({"mcf", Table::pct(0.5)});
    std::ostringstream os;
    t.print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("Demo"), std::string::npos);
    EXPECT_NE(s.find("1.234"), std::string::npos);
    EXPECT_NE(s.find("50.0%"), std::string::npos);
}

} // namespace
