// Property-based tests across trace families and seeds.
#include <gtest/gtest.h>

#include <ostream>
#include <tuple>

#include "common/stats.hpp"
#include "workload/map_process.hpp"
#include "workload/synth.hpp"

namespace deepbat::workload {
namespace {

class TracePartition
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
 protected:
  Trace make() const {
    const auto& [family, seed] = GetParam();
    if (family == "azure") return azure_like({.hours = 0.2}, seed);
    if (family == "twitter") return twitter_like({.hours = 0.2}, seed);
    if (family == "alibaba") return alibaba_like({.hours = 1.0}, seed);
    return synthetic_map({.hours = 0.5}, seed);
  }
};

TEST_P(TracePartition, SlicePartitionCoversWholeTrace) {
  const Trace t = make();
  ASSERT_GT(t.size(), 10u);
  const double mid = t.start_time() + t.duration() / 2.0;
  const Trace a = t.slice(t.start_time(), mid);
  const Trace b = t.slice(mid, t.end_time() + 1.0);
  EXPECT_EQ(a.size() + b.size(), t.size());
  Trace merged = a;
  merged.append(b);
  for (std::size_t i = 0; i < t.size(); i += 101) {
    EXPECT_DOUBLE_EQ(merged[i], t[i]);
  }
}

TEST_P(TracePartition, WindowBeforeMatchesTailOfInterarrivals) {
  const Trace t = make();
  ASSERT_GT(t.size(), 40u);
  const auto gaps = t.interarrivals();
  const auto w = t.window_before(t.end_time() + 1.0, 16, 0.0);
  ASSERT_EQ(w.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(w[i], gaps[gaps.size() - 16 + i]);
  }
}

TEST_P(TracePartition, RateHistogramTotalsArrivals) {
  const Trace t = make();
  const auto h = t.rate_histogram(30.0);
  std::size_t total = 0;
  for (std::size_t c : h) total += c;
  EXPECT_EQ(total, t.size());
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndSeeds, TracePartition,
    ::testing::Combine(::testing::Values("azure", "twitter", "alibaba",
                                         "synthetic"),
                       ::testing::Values(1UL, 2UL)));

struct MmppSpec {
  double rate1;
  double rate2;
  double r12;
  double r21;
};

// Names each case by its rates: without a printer gtest hex-dumps the
// struct into the test name.
void PrintTo(const MmppSpec& s, std::ostream* os) {
  *os << "mmpp2(" << s.rate1 << ", " << s.rate2 << ", " << s.r12 << ", "
      << s.r21 << ")";
}

class MapMomentProperties : public ::testing::TestWithParam<MmppSpec> {};

TEST_P(MapMomentProperties, AnalyticMomentsMatchLongSimulation) {
  const auto s = GetParam();
  const Map m = Map::mmpp2(s.rate1, s.rate2, s.r12, s.r21);
  Rng rng(42);
  const auto gaps = m.sample_arrivals(120000, rng).interarrivals();
  EXPECT_NEAR(mean(gaps), m.interarrival_mean(),
              0.03 * m.interarrival_mean());
  EXPECT_NEAR(scv(gaps), m.interarrival_scv(), 0.12 * m.interarrival_scv());
  EXPECT_NEAR(autocorrelation(gaps, 1), m.interarrival_autocorrelation(1),
              0.05);
  EXPECT_NEAR(autocorrelation(gaps, 5), m.interarrival_autocorrelation(5),
              0.05);
}

TEST_P(MapMomentProperties, RatesAndProbabilitiesConsistent) {
  const auto s = GetParam();
  const Map m = Map::mmpp2(s.rate1, s.rate2, s.r12, s.r21);
  // lambda = pi1 r1 + pi2 r2; also 1 / E[X] must equal lambda.
  const auto pi = m.phase_stationary();
  const double lam = pi[0] * s.rate1 + pi[1] * s.rate2;
  EXPECT_NEAR(m.arrival_rate(), lam, 1e-9 * lam);
  EXPECT_NEAR(1.0 / m.interarrival_mean(), lam, 1e-6 * lam);
  const auto pia = m.arrival_phase_stationary();
  EXPECT_NEAR(pia[0] + pia[1], 1.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Specs, MapMomentProperties,
                         ::testing::Values(MmppSpec{10.0, 1.0, 0.05, 0.05},
                                           MmppSpec{100.0, 20.0, 0.5, 1.0},
                                           MmppSpec{30.0, 30.0, 2.0, 2.0},
                                           MmppSpec{250.0, 5.0, 0.2, 1.0}));

}  // namespace
}  // namespace deepbat::workload
