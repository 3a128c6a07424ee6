// Property-based tests of the BATCH analytic engine: invariants over a
// sweep of MAP shapes and configurations.
#include <gtest/gtest.h>

#include <ostream>
#include <tuple>

#include "batchlib/analytic.hpp"
#include "sim/batch_sim.hpp"

namespace deepbat::batchlib {
namespace {

const lambda::LambdaModel& model() {
  static lambda::LambdaModel m;
  return m;
}

struct MapSpec {
  double rate1;
  double rate2;
  double r12;
  double r21;
};

// Names each case by its rates: without a printer gtest hex-dumps the
// struct into the test name.
void PrintTo(const MapSpec& s, std::ostream* os) {
  *os << "mmpp2(" << s.rate1 << ", " << s.rate2 << ", " << s.r12 << ", "
      << s.r21 << ")";
}

using Param = std::tuple<MapSpec, std::int64_t /*B*/, double /*T*/>;

class AnalyticInvariants : public ::testing::TestWithParam<Param> {};

TEST_P(AnalyticInvariants, EvaluationIsPhysical) {
  const auto [spec, b, t] = GetParam();
  const workload::Map map =
      workload::Map::mmpp2(spec.rate1, spec.rate2, spec.r12, spec.r21);
  AnalyticOptions opts;
  opts.grid_points = 96;
  opts.bisection_iterations = 30;
  const BatchAnalyticModel am(map, model(), opts);
  const lambda::Config cfg{2048, b, t};
  const auto eval = am.evaluate(cfg, 0.95, 0.1);

  // Probabilities and expectations in range.
  EXPECT_GE(eval.p_full_batch, -1e-9);
  EXPECT_LE(eval.p_full_batch, 1.0 + 1e-9);
  EXPECT_GE(eval.expected_batch_size, 1.0 - 1e-6);
  EXPECT_LE(eval.expected_batch_size, static_cast<double>(b) + 1e-6);

  // Latency percentile within the physical envelope.
  const double s1 = model().service_time(cfg.memory_mb, 1);
  const double sB = model().service_time(cfg.memory_mb, b);
  EXPECT_GE(eval.latency_percentile, s1 - 1e-6);
  EXPECT_LE(eval.latency_percentile, t + std::max(s1, sB) + 1e-6);

  // Cost per request bounded by the single-request invocation cost above
  // and the perfectly-amortized full batch below.
  const double cost_hi = model().invocation_cost(cfg.memory_mb, s1);
  const double cost_lo =
      model().invocation_cost(cfg.memory_mb, sB) / static_cast<double>(b);
  EXPECT_LE(eval.cost_per_request, cost_hi + 1e-12);
  EXPECT_GE(eval.cost_per_request, cost_lo - 1e-12);

  // CDF sanity at the reported percentile: F(p95) ~ 0.95.
  if (b >= 2 && t > 0.0) {
    const double at = am.latency_cdf(cfg, eval.latency_percentile + 1e-6);
    EXPECT_NEAR(at, 0.95, 0.03);
  }
}

TEST_P(AnalyticInvariants, MatchesMonteCarloPercentile) {
  const auto [spec, b, t] = GetParam();
  const workload::Map map =
      workload::Map::mmpp2(spec.rate1, spec.rate2, spec.r12, spec.r21);
  AnalyticOptions opts;
  opts.grid_points = 128;
  const BatchAnalyticModel am(map, model(), opts);
  const lambda::Config cfg{2048, b, t};
  const auto eval = am.evaluate(cfg, 0.95, 0.1);

  Rng rng(99);
  const workload::Trace trace = map.sample_arrivals(80000, rng);
  const sim::SimResult mc = sim::simulate_trace(trace.times(), cfg, model());
  const double sim_p95 = mc.latency_quantile(0.95).value();
  EXPECT_NEAR(eval.latency_percentile, sim_p95,
              0.18 * sim_p95 + 0.006)
      << "MAP " << spec.rate1 << "/" << spec.rate2 << " cfg "
      << cfg.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    MapAndConfigSweep, AnalyticInvariants,
    ::testing::Values(
        Param{{60.0, 6.0, 0.1, 0.1}, 4, 0.05},
        Param{{60.0, 6.0, 0.1, 0.1}, 16, 0.2},
        Param{{120.0, 30.0, 0.5, 0.5}, 8, 0.1},
        Param{{120.0, 30.0, 0.5, 0.5}, 32, 0.05},
        Param{{40.0, 40.0, 1.0, 1.0}, 8, 0.1},    // effectively Poisson
        Param{{300.0, 10.0, 0.05, 0.2}, 16, 0.1},  // strongly bursty
        Param{{20.0, 2.0, 0.2, 0.4}, 2, 0.5},
        Param{{500.0, 100.0, 1.0, 1.0}, 64, 0.05}));

}  // namespace
}  // namespace deepbat::batchlib
