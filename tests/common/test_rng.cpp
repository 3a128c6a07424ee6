#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace deepbat {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, GoldenStream) {
  // The first draws of every distribution for two seeds, pinned: a change
  // to the generator or a helper's arithmetic shows here, where two equal
  // streams (SameSeedSameStream) cannot see it. Doubles are exact.
  struct Golden {
    std::uint64_t seed;
    std::uint64_t u64[3];
    double uniform[3];
    std::int64_t uniform_int[3];  // over [-5, 1000]
    double normal[3];
    double exponential[3];  // rate 2.5
  };
  const Golden golden[] = {
      {42,
       {0x15780b2e0c2ec716ULL, 0x6104d9866d113a7eULL, 0xae17533239e499a1ULL},
       {0x1.d9715a8e0766cp-1, 0x1.fbcdb8ffc5d8bp-1, 0x1.8a1b4a6202f2ap-1},
       {47, 820, 801},
       {-0x1.b5ca7052fb8a9p-2, -0x1.e46ac1b10dc5bp-1, 0x1.fb43e2877b956p-2},
       {0x1.d0e8cc2d2c266p-2, 0x1.173e08fe53885p-3, 0x1.ab357fd74157ep-5}},
      {20261018,
       {0xafcc5862d26d5474ULL, 0xa779bd079c146fa1ULL, 0x71fb0f3cae84e308ULL},
       {0x1.621fb387066d2p-2, 0x1.9bca5d5c0b1d8p-4, 0x1.b19c6ccabb419p-1},
       {787, 174, 357},
       {-0x1.cfd060190813cp-4, -0x1.d2d57673cdb54p-1, -0x1.e520956184188p+0},
       {0x1.8eb641715d064p-6, 0x1.28db8ce384fb6p-4, 0x1.46b34df469b07p-2}},
  };
  for (const Golden& g : golden) {
    SCOPED_TRACE(g.seed);
    Rng rng(g.seed);
    for (const std::uint64_t x : g.u64) EXPECT_EQ(rng.next_u64(), x);
    for (const double x : g.uniform) EXPECT_EQ(rng.uniform(), x);
    for (const std::int64_t x : g.uniform_int) {
      EXPECT_EQ(rng.uniform_int(-5, 1000), x);
    }
    for (const double x : g.normal) EXPECT_EQ(rng.normal(), x);
    for (const double x : g.exponential) EXPECT_EQ(rng.exponential(2.5), x);
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int diff = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.next_u64() != b.next_u64()) ++diff;
  }
  EXPECT_GT(diff, 28);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(8);
  double s = 0.0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) s += rng.uniform();
  EXPECT_NEAR(s / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo = saw_lo || v == 3;
    saw_hi = saw_hi || v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntEmptyRangeThrows) {
  Rng rng(10);
  EXPECT_THROW(rng.uniform_int(5, 4), Error);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(12);
  const double rate = 4.0;
  double s = 0.0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) s += rng.exponential(rate);
  EXPECT_NEAR(s / n, 1.0 / rate, 0.01);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  Rng rng(13);
  EXPECT_THROW(rng.exponential(0.0), Error);
  EXPECT_THROW(rng.exponential(-1.0), Error);
}

TEST(Rng, PoissonSmallAndLargeMeans) {
  Rng rng(14);
  for (double mean : {0.5, 5.0, 80.0}) {
    double s = 0.0;
    constexpr int n = 50000;
    for (int i = 0; i < n; ++i) {
      s += static_cast<double>(rng.poisson(mean));
    }
    EXPECT_NEAR(s / n, mean, std::max(0.05, mean * 0.03)) << "mean=" << mean;
  }
  EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(15);
  std::vector<double> w{1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  constexpr int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, CategoricalRejectsDegenerateInputs) {
  Rng rng(16);
  EXPECT_THROW(rng.categorical({}), Error);
  EXPECT_THROW(rng.categorical({0.0, 0.0}), Error);
  EXPECT_THROW(rng.categorical({1.0, -1.0}), Error);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(17);
  auto p = rng.permutation(100);
  std::sort(p.begin(), p.end());
  for (std::size_t i = 0; i < p.size(); ++i) EXPECT_EQ(p[i], i);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(18);
  Rng child = parent.split();
  // Child stream should not reproduce the parent stream.
  Rng parent2(18);
  parent2.split();
  int same = 0;
  for (int i = 0; i < 32; ++i) {
    if (child.next_u64() == parent.next_u64()) ++same;
  }
  EXPECT_LT(same, 4);
}

}  // namespace
}  // namespace deepbat
