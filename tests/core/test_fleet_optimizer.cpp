// Fleet-level multi-SLO optimizer (DESIGN.md §13): analytic evaluation,
// greedy SLO-sorted grouping, trace superposition, latency attribution back
// to group members, and the runtime's group metadata / parse-boundary
// validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "core/fleet_optimizer.hpp"
#include "lambda/backend.hpp"
#include "sim/platform.hpp"
#include "sim/runtime.hpp"
#include "workload/synth.hpp"
#include "workload/trace.hpp"

namespace deepbat::core {
namespace {

using lambda::BackendKind;
using lambda::Config;
using lambda::CpuLambdaBackend;
using lambda::GpuServerlessBackend;
using lambda::LambdaModel;
using workload::Trace;

struct Fixture {
  LambdaModel model;
  CpuLambdaBackend cpu{model};
  GpuServerlessBackend gpu;
};

// ------------------------------------------------------- expected_fill ----

TEST(FleetOptimizerTest, ExpectedFillIsOnePlusRateTimesTimeoutClamped) {
  const Config cfg{.memory_mb = 1024, .batch_size = 8, .timeout_s = 0.1};
  EXPECT_DOUBLE_EQ(FleetOptimizer::expected_fill(10.0, cfg), 2.0);
  EXPECT_DOUBLE_EQ(FleetOptimizer::expected_fill(0.0, cfg), 1.0);
  // Clamped above by B...
  EXPECT_DOUBLE_EQ(FleetOptimizer::expected_fill(1000.0, cfg), 8.0);
  // ...and T = 0 never waits, so the fill is exactly 1.
  const Config no_wait{.memory_mb = 1024, .batch_size = 8, .timeout_s = 0.0};
  EXPECT_DOUBLE_EQ(FleetOptimizer::expected_fill(50.0, no_wait), 1.0);
}

// ------------------------------------------------------------ evaluate ----

TEST(FleetOptimizerTest, EvaluatePicksCpuForLightTrafficGpuForHotTight) {
  Fixture fx;
  FleetOptimizer opt(fx.cpu, &fx.gpu);

  // Light, loose traffic: the CPU tier's cheap GB-seconds win.
  const auto light = opt.evaluate(2.0, 0.5);
  EXPECT_TRUE(light.feasible);
  EXPECT_EQ(light.backend, BackendKind::kCpuLambda);

  // Hot, tight traffic: only deep GPU batches amortize under the SLO.
  const auto hot = opt.evaluate(150.0, 0.06);
  EXPECT_TRUE(hot.feasible);
  EXPECT_EQ(hot.backend, BackendKind::kGpuServerless);
  EXPECT_LT(hot.cost_per_request, opt.evaluate(150.0, 0.06).cost_per_request +
                                      1e-18);  // deterministic
  // The winning latency bound honours the safety margin.
  EXPECT_LE(hot.latency_bound_s, 0.06 * (1.0 - opt.options().safety_margin));
}

TEST(FleetOptimizerTest, EvaluateRespectsTierToggles) {
  Fixture fx;
  FleetOptimizerOptions cpu_only;
  cpu_only.allow_gpu = false;
  FleetOptimizer opt_cpu(fx.cpu, &fx.gpu, cpu_only);
  EXPECT_EQ(opt_cpu.evaluate(150.0, 0.06).backend, BackendKind::kCpuLambda);

  FleetOptimizerOptions gpu_only;
  gpu_only.allow_cpu = false;
  FleetOptimizer opt_gpu(fx.cpu, &fx.gpu, gpu_only);
  EXPECT_EQ(opt_gpu.evaluate(2.0, 0.5).backend, BackendKind::kGpuServerless);

  // No GPU backend given: the GPU tier silently drops out of evaluate.
  FleetOptimizer opt_no_gpu(fx.cpu, nullptr);
  EXPECT_EQ(opt_no_gpu.evaluate(150.0, 0.06).backend,
            BackendKind::kCpuLambda);
}

TEST(FleetOptimizerTest, EvaluateImpossibleSloFallsBackInfeasible) {
  Fixture fx;
  FleetOptimizer opt(fx.cpu, &fx.gpu);
  // 1 ms SLO is below every tier's fixed overhead: infeasible, but the
  // evaluation still returns the fastest fallback rather than garbage.
  const auto eval = opt.evaluate(10.0, 0.001);
  EXPECT_FALSE(eval.feasible);
  EXPECT_GT(eval.latency_bound_s, 0.001);
  EXPECT_GT(eval.cost_per_request, 0.0);
}

// -------------------------------------------------------- merge_traces ----

TEST(MergeTracesTest, StableKWayMergeKeepsTiesInInputOrder) {
  const Trace a(std::vector<double>{0.0, 1.0, 2.0});
  const Trace b(std::vector<double>{0.5, 1.0, 3.0});
  const Trace c(std::vector<double>{1.0});
  const Trace* ptrs[] = {&a, &b, &c};
  const Trace merged = workload::merge_traces(ptrs);
  ASSERT_EQ(merged.size(), 7u);
  const std::vector<double> expected = {0.0, 0.5, 1.0, 1.0, 1.0, 2.0, 3.0};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(merged[i], expected[i]) << "i=" << i;
  }
  // Determinism: merging again yields the identical stream.
  const Trace again = workload::merge_traces(ptrs);
  ASSERT_EQ(again.size(), merged.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(again[i], merged[i]);
  }
}

// ---------------------------------------------------------------- plan ----

std::vector<FleetTenant> make_fleet(const std::vector<Trace>& traces,
                                    const std::vector<double>& slos) {
  std::vector<FleetTenant> fleet;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    FleetTenant t;
    // Built by appending: GCC 12 flags both `"t" + to_string` and a
    // `name = "t"` assignment with a false -Wrestrict (GCC bug 105329).
    t.name.push_back('t');
    t.name += std::to_string(i);
    t.trace = &traces[i];
    t.slo_s = slos[i];
    fleet.push_back(t);
  }
  return fleet;
}

TEST(FleetOptimizerTest, PlanGroupsCoverEveryTenantExactlyOnce) {
  Fixture fx;
  std::vector<Trace> traces;
  for (int i = 0; i < 4; ++i) {
    traces.push_back(
        workload::twitter_like({.hours = 0.02, .base_rate = 8.0}, 100 + i));
  }
  const auto fleet = make_fleet(traces, {0.06, 0.5, 0.06, 0.5});
  FleetOptimizer opt(fx.cpu, &fx.gpu);
  const FleetPlan plan = opt.plan(fleet);

  ASSERT_EQ(plan.group_of.size(), fleet.size());
  std::size_t members = 0;
  for (std::size_t g = 0; g < plan.groups.size(); ++g) {
    const GroupPlan& group = plan.groups[g];
    ASSERT_FALSE(group.tenants.empty());
    members += group.tenants.size();
    double strictest = 1e9;
    std::size_t merged_size = 0;
    for (std::size_t idx : group.tenants) {
      EXPECT_EQ(plan.group_of[idx], static_cast<std::int64_t>(g));
      strictest = std::min(strictest, fleet[idx].slo_s);
      merged_size += fleet[idx].trace->size();
    }
    // Group contract = strictest member SLO; merged trace = superposition.
    EXPECT_DOUBLE_EQ(group.slo_s, strictest);
    EXPECT_EQ(group.merged_trace.size(), merged_size);
    EXPECT_TRUE(group.feasible);
  }
  EXPECT_EQ(members, fleet.size());
  // Greedy runs over tenants sorted by SLO ascending, so group contracts
  // are non-decreasing in group order.
  for (std::size_t g = 1; g < plan.groups.size(); ++g) {
    EXPECT_GE(plan.groups[g].slo_s, plan.groups[g - 1].slo_s);
  }
}

TEST(FleetOptimizerTest, MaxGroupsCapForcesMerges) {
  Fixture fx;
  std::vector<Trace> traces;
  for (int i = 0; i < 5; ++i) {
    traces.push_back(
        workload::twitter_like({.hours = 0.02, .base_rate = 6.0}, 200 + i));
  }
  const auto fleet = make_fleet(traces, {0.05, 0.1, 0.2, 0.4, 0.8});
  FleetOptimizerOptions options;
  options.max_groups = 1;
  FleetOptimizer opt(fx.cpu, &fx.gpu, options);
  const FleetPlan plan = opt.plan(fleet);
  ASSERT_EQ(plan.groups.size(), 1u);
  EXPECT_EQ(plan.groups[0].tenants.size(), 5u);
  // One group serving everyone must honour the strictest contract.
  EXPECT_DOUBLE_EQ(plan.groups[0].slo_s, 0.05);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    EXPECT_EQ(plan.group_of[i], 0);
  }
}

// ------------------------------------------------ split_group_latencies ---

TEST(FleetOptimizerTest, SplitGroupLatenciesAttributesEveryRequest) {
  Fixture fx;
  std::vector<Trace> traces = {
      workload::twitter_like({.hours = 0.02, .base_rate = 10.0}, 7),
      workload::twitter_like({.hours = 0.02, .base_rate = 4.0}, 8),
  };
  const auto fleet = make_fleet(traces, {0.1, 0.3});

  GroupPlan group;
  group.tenants = {0, 1};
  group.backend = BackendKind::kCpuLambda;
  group.config = {.memory_mb = 2048, .batch_size = 4, .timeout_s = 0.05};
  const Trace* ptrs[] = {&traces[0], &traces[1]};
  group.merged_trace = workload::merge_traces(ptrs);

  sim::FixedController controller(group.config);
  const sim::PlatformRun run = sim::run_platform(
      group.merged_trace, controller, fx.cpu, group.config, {});

  const auto split = split_group_latencies(group, fleet, run.result);
  ASSERT_EQ(split.size(), 2u);
  EXPECT_EQ(split[0].size(), traces[0].size());
  EXPECT_EQ(split[1].size(), traces[1].size());

  // The attributed latencies are a exact repartition of the group replay's.
  std::vector<double> all;
  for (const auto& member : split) {
    all.insert(all.end(), member.begin(), member.end());
  }
  std::vector<double> expected = run.result.latencies();
  for (double arrival : run.result.dropped_arrivals) {
    (void)arrival;
    expected.push_back(std::numeric_limits<double>::infinity());
  }
  std::sort(all.begin(), all.end());
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(all.size(), expected.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], expected[i]);
  }
}

// ------------------------------------ runtime group metadata + validation --

TEST(FleetRuntimeTest, GroupMetadataAndBackendCountersSurface) {
  Fixture fx;
  const Trace cpu_trace =
      workload::twitter_like({.hours = 0.01, .base_rate = 6.0}, 31);
  const Trace gpu_trace =
      workload::twitter_like({.hours = 0.01, .base_rate = 6.0}, 32);

  sim::FixedController cpu_ctl({.memory_mb = 2048, .batch_size = 2,
                                .timeout_s = 0.05});
  sim::FixedController gpu_ctl({.memory_mb = 50, .batch_size = 8,
                                .timeout_s = 0.02});

  sim::Runtime runtime;
  sim::TenantSpec a;
  a.name = "grp0-cpu";
  a.trace = &cpu_trace;
  a.controller = &cpu_ctl;
  a.backend = &fx.cpu;
  a.group_id = 0;
  a.initial_config = {.memory_mb = 2048, .batch_size = 2, .timeout_s = 0.05};
  runtime.add_tenant(a);

  sim::TenantSpec b;
  b.name = "grp1-gpu";
  b.trace = &gpu_trace;
  b.controller = &gpu_ctl;
  b.backend = &fx.gpu;
  b.group_id = 1;
  b.initial_config = {.memory_mb = 50, .batch_size = 8, .timeout_s = 0.02};
  runtime.add_tenant(b);

  const auto runs = runtime.run();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].group_id, 0);
  EXPECT_EQ(runs[0].backend, "cpu-lambda");
  EXPECT_EQ(runs[1].group_id, 1);
  EXPECT_EQ(runs[1].backend, "gpu-serverless");

  const sim::RuntimeStats& stats = runtime.stats();
  EXPECT_EQ(stats.fleet_groups, 2u);
  EXPECT_EQ(stats.cpu_invocations, runs[0].result.invocations);
  EXPECT_EQ(stats.gpu_invocations, runs[1].result.invocations);
  EXPECT_GT(stats.cpu_invocations, 0u);
  EXPECT_GT(stats.gpu_invocations, 0u);
}

TEST(FleetRuntimeTest, AddTenantValidatesConfigAtTheParseBoundary) {
  Fixture fx;
  const Trace trace =
      workload::twitter_like({.hours = 0.01, .base_rate = 5.0}, 41);
  sim::FixedController ctl({.memory_mb = 1024, .batch_size = 1,
                            .timeout_s = 0.1});

  // A CPU-scale capacity on the GPU tier must fail at add_tenant, not
  // somewhere inside the replay.
  sim::Runtime r1;
  sim::TenantSpec bad_gpu;
  bad_gpu.name = "bad-gpu";
  bad_gpu.trace = &trace;
  bad_gpu.controller = &ctl;
  bad_gpu.backend = &fx.gpu;
  bad_gpu.initial_config = {.memory_mb = 1024, .batch_size = 1,
                            .timeout_s = 0.1};
  EXPECT_THROW(r1.add_tenant(bad_gpu), Error);

  // The legacy model path validates too (batch size 0).
  sim::Runtime r2;
  sim::TenantSpec bad_cpu;
  bad_cpu.name = "bad-cpu";
  bad_cpu.trace = &trace;
  bad_cpu.controller = &ctl;
  bad_cpu.model = &fx.model;
  bad_cpu.initial_config = {.memory_mb = 1024, .batch_size = 0,
                            .timeout_s = 0.1};
  EXPECT_THROW(r2.add_tenant(bad_cpu), Error);

  // Neither a model nor a backend is an error.
  sim::Runtime r3;
  sim::TenantSpec orphan;
  orphan.name = "orphan";
  orphan.trace = &trace;
  orphan.controller = &ctl;
  EXPECT_THROW(r3.add_tenant(orphan), Error);
}

}  // namespace
}  // namespace deepbat::core
