/**
 * @file
 * Tests of the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/random.hh"

namespace vsv
{
namespace
{

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(RngTest, NextBoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t v = rng.nextBounded(13);
        EXPECT_LT(v, 13u);
    }
}

TEST(RngTest, NextBoundedCoversRange)
{
    Rng rng(11);
    std::vector<int> counts(8, 0);
    for (int i = 0; i < 8000; ++i)
        ++counts[rng.nextBounded(8)];
    for (int c : counts)
        EXPECT_GT(c, 800);  // uniform would be 1000 each
}

TEST(RngTest, NextDoubleInUnitInterval)
{
    Rng rng(3);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, ChanceExtremes)
{
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(RngTest, ChanceMatchesProbability)
{
    Rng rng(9);
    int hits = 0;
    for (int i = 0; i < 100000; ++i) {
        if (rng.chance(0.3))
            ++hits;
    }
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(RngTest, GeometricMeanMatches)
{
    Rng rng(13);
    // Mean of geometric (failures before success) with p is (1-p)/p.
    const double p = 0.25;
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.nextGeometric(p));
    EXPECT_NEAR(sum / n, (1.0 - p) / p, 0.1);
}

TEST(RngTest, GeometricWithPOneIsZero)
{
    Rng rng(17);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.nextGeometric(1.0), 0u);
}

TEST(RngTest, PrecomputedRangeDrawsLikeNextBounded)
{
    // Includes a bound just above 2^63, where about half of all raw
    // draws are rejected.
    for (const std::uint64_t bound :
         {1ULL, 2ULL, 13ULL, 1000003ULL, (1ULL << 63) + 12345}) {
        Rng a(5), b(5);
        const BoundedRange range(bound);
        for (int i = 0; i < 2000; ++i)
            ASSERT_EQ(a.nextBounded(bound), b.nextBounded(range)) << bound;
        EXPECT_EQ(a.next(), b.next());  // same number of raw draws
    }
}

TEST(RngDeathTest, ZeroRangeFailsOnlyWhenDrawn)
{
    const BoundedRange zero(0);  // constructing it is fine
    Rng rng(3);
    EXPECT_DEATH(rng.nextBounded(zero), "zero bound");
}

TEST(RngTest, GeometricLogDrawsLikeNextGeometric)
{
    for (const double p : {0.9, 0.25, 1.0 / 3.0, 1.0 / 28.0}) {
        Rng a(11), b(11);
        const double log_q = std::log1p(-p);
        for (int i = 0; i < 2000; ++i)
            ASSERT_EQ(a.nextGeometric(p), b.nextGeometricLog(log_q)) << p;
    }
}

} // namespace
} // namespace vsv
