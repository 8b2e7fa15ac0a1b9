#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace tbwf {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  util::Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  util::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, BelowStaysInRange) {
  util::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  util::Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusive) {
  util::Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01InUnitInterval) {
  util::Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceRoughlyCalibrated) {
  util::Rng rng(17);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
  util::Rng a(19);
  util::Rng child = a.split();
  // The child should not replay the parent's sequence.
  util::Rng b(19);
  b.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (child.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Histogram, EmptyIsSafe) {
  util::Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, BasicStats) {
  util::Histogram h;
  for (std::uint64_t v : {1, 2, 3, 4, 5}) h.add(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 5u);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
  EXPECT_EQ(h.p50(), 3u);
}

TEST(Histogram, QuantileEdges) {
  util::Histogram h;
  for (std::uint64_t v = 0; v < 100; ++v) h.add(v);
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(1.0), 99u);
  EXPECT_EQ(h.quantile(0.99), 98u);
}

TEST(Histogram, MergeCombinesSamples) {
  util::Histogram a, b;
  a.add(1);
  a.add(2);
  b.add(10);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.max(), 10u);
}

TEST(Histogram, StddevOfConstantIsZero) {
  util::Histogram h;
  for (int i = 0; i < 10; ++i) h.add(7);
  EXPECT_DOUBLE_EQ(h.stddev(), 0.0);
}

TEST(Counters, IncrementAndRead) {
  util::Counters c;
  EXPECT_EQ(c.get("x"), 0u);
  c.inc("x");
  c.inc("x", 4);
  EXPECT_EQ(c.get("x"), 5u);
}

TEST(JainFairness, PerfectlyFair) {
  EXPECT_DOUBLE_EQ(util::jain_fairness({5, 5, 5, 5}), 1.0);
}

TEST(JainFairness, Monopoly) {
  EXPECT_NEAR(util::jain_fairness({100, 0, 0, 0}), 0.25, 1e-9);
}

TEST(JainFairness, EmptyAndZeroAreFair) {
  EXPECT_DOUBLE_EQ(util::jain_fairness({}), 1.0);
  EXPECT_DOUBLE_EQ(util::jain_fairness({0, 0}), 1.0);
}

}  // namespace
}  // namespace tbwf
