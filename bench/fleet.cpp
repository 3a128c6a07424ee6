// Fleet bench — heterogeneous grouped provisioning vs per-tenant CPU-only
// DeepBAT (DESIGN.md §13). A fleet of N tenants with mixed SLOs is replayed
// twice:
//
//   (a) solo     — every tenant provisioned in isolation by its own
//                  DeepBAT controller on the CPU-Lambda backend (the
//                  paper's per-application deployment);
//   (b) grouped  — core::FleetOptimizer partitions the fleet into function
//                  groups, picks a per-group (backend, M, B, T) across the
//                  CPU and GPU tiers, and each group replays as ONE merged
//                  stream under a FixedController on its backend.
//
// Gates (exit 1 on any failure):
//   * aggregate $/1k-requests: grouped must beat solo;
//   * SLO attainment (per-tenant latency percentile vs its own SLO):
//     grouped must attain at least as many tenants as solo;
//   * shard invariance: the grouped replay is bit-identical at {1, 2, 5}
//     shards;
//   * determinism: a second grouped replay is bit-identical to the first;
//   * backend parity: a replay through CpuLambdaBackend is bit-identical
//     to the legacy LambdaModel path.
//
// Always writes BENCH_fleet.json; --json adds the standard table report.
//
// Flags: --fleet N, --groups K (0 = unlimited), --backend auto|cpu|gpu,
//        --hours H, --interval S, --shards N, --json PATH, --metrics PATH.
#include <cmath>
#include <cstdio>
#include <sstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/fileio.hpp"
#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/fleet_optimizer.hpp"
#include "workload/synth.hpp"

using namespace deepbat;

namespace {

// Mixed-SLO fleet template: tight interactive tenants (hot, GPU-amortizable
// aggregate traffic) ride with loose batch ones. Rates are per-tenant mean
// req/s (twitter_like base rates).
constexpr double kSlos[] = {0.06, 0.10, 0.25, 0.60};
constexpr double kRates[] = {50.0, 12.0, 8.0, 5.0};

bool runs_bit_identical(const std::vector<sim::PlatformRun>& a,
                        const std::vector<sim::PlatformRun>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const sim::SimResult& x = a[i].result;
    const sim::SimResult& y = b[i].result;
    if (x.requests.size() != y.requests.size() ||
        x.invocations != y.invocations || x.total_cost != y.total_cost ||
        x.dropped != y.dropped || a[i].group_id != b[i].group_id ||
        a[i].backend != b[i].backend ||
        a[i].decisions.size() != b[i].decisions.size()) {
      return false;
    }
    for (std::size_t k = 0; k < x.requests.size(); ++k) {
      const sim::RequestRecord& r = x.requests[k];
      const sim::RequestRecord& s = y.requests[k];
      if (r.arrival != s.arrival || r.dispatch != s.dispatch ||
          r.completion != s.completion || r.batch_actual != s.batch_actual ||
          r.cost_share != s.cost_share) {
        return false;
      }
    }
  }
  return true;
}

struct GroupReplaySetup {
  std::vector<std::unique_ptr<sim::FixedController>> controllers;
  const lambda::CpuLambdaBackend* cpu = nullptr;
  const lambda::GpuServerlessBackend* gpu = nullptr;
};

std::vector<sim::PlatformRun> replay_groups(const core::FleetPlan& plan,
                                            GroupReplaySetup& setup,
                                            double interval_s,
                                            std::size_t shards) {
  sim::Runtime runtime(nullptr, sim::RuntimeOptions{.shards = shards});
  setup.controllers.clear();
  for (std::size_t g = 0; g < plan.groups.size(); ++g) {
    const core::GroupPlan& group = plan.groups[g];
    setup.controllers.push_back(
        std::make_unique<sim::FixedController>(group.config));
    sim::TenantSpec spec;
    spec.name = "group" + std::to_string(g);
    spec.trace = &group.merged_trace;
    spec.controller = setup.controllers.back().get();
    spec.backend =
        group.backend == lambda::BackendKind::kGpuServerless
            ? static_cast<const lambda::Backend*>(setup.gpu)
            : static_cast<const lambda::Backend*>(setup.cpu);
    spec.group_id = static_cast<std::int64_t>(g);
    spec.initial_config = group.config;
    spec.options.control_interval_s = interval_s;
    runtime.add_tenant(std::move(spec));
  }
  return runtime.run();
}

}  // namespace

int main(int argc, char** argv) {
  // Parsed with defaults, then validated; a bad flag prints usage and
  // exits 2 like every other replay bench (bench_common.cpp).
  std::size_t fleet_n = 8;
  std::size_t max_groups = 0;
  std::string backend_mode = "auto";
  double hours = 0.5;
  double interval_s = 30.0;
  std::size_t shards = 1;
  std::string json_path, metrics_path;
  try {
    const CliFlags flags(argc, argv);
    flags.check_known({"fleet", "groups", "backend", "hours", "interval",
                       "shards", "json", "metrics"});
    const std::int64_t fleet_arg = flags.get_int("fleet", 8);
    DEEPBAT_CHECK(fleet_arg >= 1, "fleet: --fleet must be at least 1");
    fleet_n = static_cast<std::size_t>(fleet_arg);
    const std::int64_t groups_arg = flags.get_int("groups", 0);
    DEEPBAT_CHECK(groups_arg >= 0, "fleet: --groups must be >= 0 (0 = no cap)");
    max_groups = static_cast<std::size_t>(groups_arg);
    backend_mode = flags.get("backend", "auto");
    DEEPBAT_CHECK(backend_mode == "auto" || backend_mode == "cpu" ||
                      backend_mode == "gpu",
                  "fleet: --backend must be auto|cpu|gpu");
    hours = flags.get_double("hours", 0.5);
    DEEPBAT_CHECK(hours >= 0.1, "fleet: --hours must be at least 0.1");
    interval_s = flags.get_double("interval", 30.0);
    DEEPBAT_CHECK(interval_s > 0.0, "fleet: --interval must be positive");
    const std::int64_t shards_arg = flags.get_int("shards", 1);
    DEEPBAT_CHECK(shards_arg >= 1, "fleet: --shards must be at least 1");
    shards = static_cast<std::size_t>(shards_arg);
    json_path = flags.get("json", "");
    metrics_path = flags.get("metrics", "");
  } catch (const Error& e) {
    std::fprintf(stderr,
                 "%s\nusage: %s [--fleet N] [--groups K] "
                 "[--backend auto|cpu|gpu] [--hours H] [--interval S] "
                 "[--shards N] [--json PATH] [--metrics PATH]\n",
                 e.what(), argc > 0 ? argv[0] : "fleet");
    return 2;
  }

  bench::preamble("Heterogeneous fleet — grouped multi-SLO provisioning",
                  "per-tenant CPU DeepBAT vs FleetOptimizer groups over "
                  "CPU + GPU serverless backends");
  bench::Fixture fx;
  core::Surrogate& surrogate = fx.pretrained();
  const double gamma = fx.pretrained_gamma();

  // --- the fleet: N tenants, mixed SLOs, mixed rates ----------------------
  std::vector<workload::Trace> traces;
  std::vector<core::FleetTenant> fleet;
  traces.reserve(fleet_n);
  for (std::size_t i = 0; i < fleet_n; ++i) {
    workload::TwitterLikeParams params;
    params.hours = hours;
    params.base_rate = kRates[i % 4];
    traces.push_back(workload::twitter_like(params, 9000 + i));
  }
  for (std::size_t i = 0; i < fleet_n; ++i) {
    core::FleetTenant tenant;
    // Appended, not operator+: GCC 12 flags "t" + to_string with a false
    // -Wrestrict positive (PR105329).
    tenant.name = "t";
    tenant.name += std::to_string(i);
    tenant.trace = &traces[i];
    tenant.slo_s = kSlos[i % 4];
    tenant.slo_percentile = 0.95;
    fleet.push_back(std::move(tenant));
  }
  std::printf("[fleet] %zu tenants, %.2f h, SLOs cycling {60, 100, 250, "
              "600} ms\n",
              fleet_n, hours);

  // --- (a) solo: per-tenant CPU-only DeepBAT ------------------------------
  std::vector<std::unique_ptr<core::DeepBatController>> solo_ctls;
  core::SurrogateBatchEncoder encoder(surrogate);
  sim::Runtime solo_runtime(&encoder,
                            sim::RuntimeOptions{.shards = shards});
  for (std::size_t i = 0; i < fleet_n; ++i) {
    solo_ctls.push_back(std::make_unique<core::DeepBatController>(
        surrogate, fx.controller_options(fleet[i].slo_s, gamma)));
    sim::TenantSpec spec;
    spec.name = fleet[i].name;
    spec.trace = &traces[i];
    spec.controller = solo_ctls[i].get();
    spec.model = &fx.model();
    spec.initial_config = {1024, 1, 0.0};
    spec.options.control_interval_s = interval_s;
    solo_runtime.add_tenant(std::move(spec));
  }
  const auto solo_runs = solo_runtime.run();
  double solo_cost = 0.0;
  std::size_t solo_served = 0;
  std::size_t solo_attained = 0;
  std::vector<double> solo_p95(fleet_n, 0.0);
  for (std::size_t i = 0; i < fleet_n; ++i) {
    solo_cost += solo_runs[i].result.total_cost;
    solo_served += solo_runs[i].result.served();
    const auto lat = solo_runs[i].result.latencies();
    solo_p95[i] = lat.empty() ? 0.0 : quantile(lat, fleet[i].slo_percentile);
    if (solo_p95[i] <= fleet[i].slo_s) ++solo_attained;
  }
  const double solo_per_1k =
      solo_served > 0 ? 1e3 * solo_cost / solo_served : 0.0;
  std::printf("[solo] $%.6f per 1k requests, %zu/%zu tenants attained\n",
              solo_per_1k, solo_attained, fleet_n);

  // --- (b) grouped: FleetOptimizer over heterogeneous backends ------------
  const lambda::CpuLambdaBackend cpu_backend(fx.model());
  const lambda::GpuServerlessBackend gpu_backend;
  core::FleetOptimizerOptions fopts;
  fopts.max_groups = max_groups;
  fopts.allow_gpu = backend_mode != "cpu";
  fopts.allow_cpu = backend_mode != "gpu";
  core::FleetOptimizer optimizer(
      cpu_backend, backend_mode == "cpu" ? nullptr : &gpu_backend, fopts);
  optimizer.attach_surrogate(&surrogate);
  const core::FleetPlan plan = optimizer.plan(fleet);

  Table groups_table({"group", "members", "backend", "config", "rate_rps",
                      "fill", "pred_usd_per_req", "latency_bound_s"});
  for (std::size_t g = 0; g < plan.groups.size(); ++g) {
    const core::GroupPlan& group = plan.groups[g];
    std::string members;
    for (const std::size_t t : group.tenants) {
      members += (members.empty() ? "" : "+") + fleet[t].name;
    }
    groups_table.add_row(
        {std::to_string(g), members, lambda::to_string(group.backend),
         group.config.to_string(), fmt(group.rate, 1),
         fmt(group.expected_fill, 2),
         fmt(group.predicted_cost_per_request, 8),
         fmt(group.predicted_latency_bound_s, 4)});
  }
  groups_table.print(std::cout);

  GroupReplaySetup setup;
  setup.cpu = &cpu_backend;
  setup.gpu = &gpu_backend;
  const auto grouped_runs = replay_groups(plan, setup, interval_s, shards);

  double grouped_cost = 0.0;
  std::size_t grouped_served = 0;
  std::size_t grouped_attained = 0;
  std::vector<double> grouped_p95(fleet_n, 0.0);
  for (std::size_t g = 0; g < plan.groups.size(); ++g) {
    const core::GroupPlan& group = plan.groups[g];
    grouped_cost += grouped_runs[g].result.total_cost;
    grouped_served += grouped_runs[g].result.served();
    const auto per_tenant =
        core::split_group_latencies(group, fleet, grouped_runs[g].result);
    for (std::size_t m = 0; m < group.tenants.size(); ++m) {
      const std::size_t t = group.tenants[m];
      grouped_p95[t] = per_tenant[m].empty()
                           ? 0.0
                           : quantile(per_tenant[m], fleet[t].slo_percentile);
      if (grouped_p95[t] <= fleet[t].slo_s) ++grouped_attained;
    }
  }
  const double grouped_per_1k =
      grouped_served > 0 ? 1e3 * grouped_cost / grouped_served : 0.0;
  std::printf("[grouped] %zu groups, $%.6f per 1k requests, %zu/%zu tenants "
              "attained\n",
              plan.groups.size(), grouped_per_1k, grouped_attained, fleet_n);

  Table tenants_table({"tenant", "slo_s", "group", "backend", "solo_p95_s",
                       "grouped_p95_s", "solo_ok", "grouped_ok"});
  for (std::size_t i = 0; i < fleet_n; ++i) {
    const auto g = static_cast<std::size_t>(plan.group_of[i]);
    tenants_table.add_row(
        {fleet[i].name, fmt(fleet[i].slo_s, 2), std::to_string(g),
         lambda::to_string(plan.groups[g].backend), fmt(solo_p95[i], 4),
         fmt(grouped_p95[i], 4),
         solo_p95[i] <= fleet[i].slo_s ? "yes" : "NO",
         grouped_p95[i] <= fleet[i].slo_s ? "yes" : "NO"});
  }
  tenants_table.print(std::cout);

  // --- gates ---------------------------------------------------------------
  const bool cost_gate = grouped_per_1k < solo_per_1k;
  const bool slo_gate = grouped_attained >= solo_attained;

  // Shard invariance with groups enabled: {1, 2, 5} must be bit-identical.
  bool shard_invariant = true;
  std::vector<sim::PlatformRun> one_shard;
  for (const std::size_t s : {std::size_t{1}, std::size_t{2},
                              std::size_t{5}}) {
    GroupReplaySetup sweep;
    sweep.cpu = &cpu_backend;
    sweep.gpu = &gpu_backend;
    auto runs = replay_groups(plan, sweep, interval_s, s);
    if (s == 1) {
      one_shard = std::move(runs);
    } else if (!runs_bit_identical(one_shard, runs)) {
      shard_invariant = false;
      std::printf("[gate] DIVERGENCE with groups at %zu shards\n", s);
    }
  }

  // Determinism: a second identical grouped replay must be bit-stable.
  bool deterministic;
  {
    GroupReplaySetup again;
    again.cpu = &cpu_backend;
    again.gpu = &gpu_backend;
    deterministic = runs_bit_identical(
        grouped_runs, replay_groups(plan, again, interval_s, shards));
  }

  // Backend parity: the CpuLambdaBackend wrapper must replay byte-stable
  // with the legacy LambdaModel path (golden contract of the refactor).
  bool parity;
  {
    sim::FixedController fc_model({2048, 4, 0.05});
    sim::FixedController fc_backend({2048, 4, 0.05});
    sim::PlatformOptions popts;
    popts.control_interval_s = interval_s;
    popts.cold_start_seed = 17;
    const auto via_model =
        sim::run_platform(traces[0], fc_model, fx.model(), {2048, 4, 0.05},
                          popts);
    const auto via_backend =
        sim::run_platform(traces[0], fc_backend, cpu_backend, {2048, 4, 0.05},
                          popts);
    parity = runs_bit_identical({via_model}, {via_backend});
  }

  Table gates({"gate", "result"});
  gates.add_row({"grouped_cheaper_per_1k", cost_gate ? "yes" : "NO"});
  gates.add_row({"slo_attainment_no_worse", slo_gate ? "yes" : "NO"});
  gates.add_row({"shard_invariant_1_2_5", shard_invariant ? "yes" : "NO"});
  gates.add_row({"deterministic_replay", deterministic ? "yes" : "NO"});
  gates.add_row({"cpu_backend_parity", parity ? "yes" : "NO"});
  gates.print(std::cout);

  std::size_t gpu_groups = 0;
  for (const core::GroupPlan& g : plan.groups) {
    if (g.backend == lambda::BackendKind::kGpuServerless) ++gpu_groups;
  }

  {
    std::ostringstream out;
    out << "{\n  \"bench\": \"fleet\",\n  \"tenants\": " << fleet_n
        << ",\n  \"hours\": " << hours
        << ",\n  \"groups\": " << plan.groups.size()
        << ",\n  \"gpu_groups\": " << gpu_groups
        << ",\n  \"solo_usd_per_1k\": " << solo_per_1k
        << ",\n  \"grouped_usd_per_1k\": " << grouped_per_1k
        << ",\n  \"savings_pct\": "
        << (solo_per_1k > 0.0
                ? 100.0 * (1.0 - grouped_per_1k / solo_per_1k)
                : 0.0)
        << ",\n  \"solo_attained\": " << solo_attained
        << ",\n  \"grouped_attained\": " << grouped_attained
        << ",\n  \"shard_invariant\": "
        << (shard_invariant ? "true" : "false")
        << ",\n  \"deterministic\": " << (deterministic ? "true" : "false")
        << ",\n  \"cpu_backend_parity\": " << (parity ? "true" : "false")
        << "\n}\n";
    write_file_atomic("BENCH_fleet.json", out.str());
  }
  std::printf("[fleet] wrote BENCH_fleet.json (savings %.1f%%)\n",
              solo_per_1k > 0.0
                  ? 100.0 * (1.0 - grouped_per_1k / solo_per_1k)
                  : 0.0);

  bench::JsonReport report("fleet");
  report.add("groups", groups_table);
  report.add("tenants", tenants_table);
  report.add("gates", gates);
  report.add_scalar("solo_usd_per_1k", solo_per_1k);
  report.add_scalar("grouped_usd_per_1k", grouped_per_1k);
  report.write(json_path);
  bench::write_metrics_snapshot(metrics_path);

  const bool ok =
      cost_gate && slo_gate && shard_invariant && deterministic && parity;
  if (!ok) std::printf("[fleet] GATE FAILURE\n");
  return ok ? 0 : 1;
}
