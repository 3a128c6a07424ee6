#include "core/fleet_optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>

#include "common/error.hpp"

namespace deepbat::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Aggregate rate of a merged stream. mean_rate() needs >= 2 arrivals;
/// degenerate streams plan as (near) idle.
double trace_rate(const workload::Trace& trace) { return trace.mean_rate(); }

}  // namespace

FleetOptimizer::FleetOptimizer(const lambda::CpuLambdaBackend& cpu,
                               const lambda::GpuServerlessBackend* gpu,
                               FleetOptimizerOptions options)
    : cpu_(&cpu), gpu_(gpu), options_(options) {
  DEEPBAT_CHECK(options_.safety_margin >= 0.0 && options_.safety_margin < 1.0,
                "FleetOptimizer: safety_margin out of [0, 1)");
  DEEPBAT_CHECK(options_.allow_cpu ||
                    (options_.allow_gpu && gpu_ != nullptr),
                "FleetOptimizer: no backend tier enabled");
}

double FleetOptimizer::expected_fill(double rate,
                                     const lambda::Config& config) {
  const double fill = 1.0 + std::max(rate, 0.0) * config.timeout_s;
  return std::clamp(fill, 1.0, static_cast<double>(config.batch_size));
}

FleetOptimizer::Evaluation FleetOptimizer::evaluate_backend(
    const lambda::Backend& backend, double rate, double slo_s) const {
  const double budget = slo_s * (1.0 - options_.safety_margin);
  Evaluation best;
  best.backend = backend.capabilities().kind;
  best.cost_per_request = kInf;
  best.latency_bound_s = kInf;
  // Infeasible fallback: serve as fast as possible (mirrors select_config).
  Evaluation fastest = best;
  for (const lambda::Config& cfg : backend.config_grid().enumerate()) {
    const double bound =
        cfg.timeout_s + backend.service_time(cfg, cfg.batch_size);
    const double fill = expected_fill(rate, cfg);
    const auto fill_batch = static_cast<std::int64_t>(
        std::clamp<std::int64_t>(std::llround(fill), 1, cfg.batch_size));
    const double cost =
        backend.invocation_cost(cfg, backend.service_time(cfg, fill_batch)) /
        fill;
    if (bound < fastest.latency_bound_s) {
      fastest.config = cfg;
      fastest.cost_per_request = cost;
      fastest.latency_bound_s = bound;
      fastest.expected_fill = fill;
    }
    if (bound > budget) continue;
    if (cost < best.cost_per_request) {
      best.config = cfg;
      best.cost_per_request = cost;
      best.latency_bound_s = bound;
      best.expected_fill = fill;
      best.feasible = true;
    }
  }
  return best.feasible ? best : fastest;
}

FleetOptimizer::Evaluation FleetOptimizer::evaluate(double rate,
                                                    double slo_s) const {
  const bool use_gpu = gpu_ != nullptr && options_.allow_gpu;
  if (!options_.allow_cpu) return evaluate_backend(*gpu_, rate, slo_s);
  Evaluation best = evaluate_backend(*cpu_, rate, slo_s);
  if (use_gpu) {
    const Evaluation gpu = evaluate_backend(*gpu_, rate, slo_s);
    // Feasibility first, cost second; CPU wins ties (cheaper to be wrong on
    // the commodity tier).
    const bool gpu_wins =
        (gpu.feasible && !best.feasible) ||
        (gpu.feasible == best.feasible &&
         gpu.cost_per_request < best.cost_per_request);
    if (gpu_wins) best = gpu;
  }
  return best;
}

FleetPlan FleetOptimizer::plan(std::span<const FleetTenant> fleet) const {
  FleetPlan out;
  out.group_of.assign(fleet.size(), -1);
  if (fleet.empty()) return out;
  for (const FleetTenant& t : fleet) {
    DEEPBAT_CHECK(t.trace != nullptr, "FleetOptimizer: tenant trace is null");
    DEEPBAT_CHECK(t.slo_s > 0.0, "FleetOptimizer: tenant SLO must be > 0");
  }

  // Strictest SLO first (HarmonyBatch's merge order): a group's contract is
  // its strictest member, so growing a group only ever relaxes nothing —
  // later (looser) tenants join a group whose bound they trivially meet.
  std::vector<std::size_t> order(fleet.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return fleet[a].slo_s < fleet[b].slo_s;
                   });

  struct Open {
    std::vector<std::size_t> members;
    workload::Trace merged;
    double slo_s = 0.0;
    Evaluation eval;
  };
  auto merge_with = [](const workload::Trace& a, const workload::Trace& b) {
    const workload::Trace* parts[] = {&a, &b};
    return workload::merge_traces(parts);
  };

  std::vector<Open> groups;
  Open current;
  current.members = {order[0]};
  current.merged = *fleet[order[0]].trace;
  current.slo_s = fleet[order[0]].slo_s;
  current.eval = evaluate(trace_rate(current.merged), current.slo_s);

  for (std::size_t k = 1; k < fleet.size(); ++k) {
    const std::size_t t = order[k];
    const FleetTenant& tenant = fleet[t];
    workload::Trace merged = merge_with(current.merged, *tenant.trace);
    // Sorted order: the group's contract (strictest SLO) never changes.
    const Evaluation merged_eval =
        evaluate(trace_rate(merged), current.slo_s);
    const Evaluation solo_eval =
        evaluate(trace_rate(*tenant.trace), tenant.slo_s);
    // The cap binds when closing `current` would leave no group for the
    // remaining tenants: everything left is force-merged into it.
    const bool must_merge =
        options_.max_groups > 0 && groups.size() + 1 >= options_.max_groups;
    // Keep the merge when it is predicted cheaper in $/s than provisioning
    // the parts apart (both sides feasible), i.e. the HarmonyBatch merge
    // criterion on the analytic cost model.
    const double merged_usd_s =
        merged_eval.cost_per_request * trace_rate(merged);
    const double split_usd_s =
        current.eval.cost_per_request * trace_rate(current.merged) +
        solo_eval.cost_per_request * trace_rate(*tenant.trace);
    const bool merge_wins = merged_eval.feasible && current.eval.feasible &&
                            solo_eval.feasible && merged_usd_s <= split_usd_s;
    if (must_merge || merge_wins) {
      current.members.push_back(t);
      current.merged = std::move(merged);
      current.eval = merged_eval;
    } else {
      groups.push_back(std::move(current));
      current = Open{};
      current.members = {t};
      current.merged = *tenant.trace;
      current.slo_s = tenant.slo_s;
      current.eval = solo_eval;
    }
  }
  groups.push_back(std::move(current));

  out.groups.reserve(groups.size());
  double usd_per_s = 0.0;
  double total_rate = 0.0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    Open& open = groups[g];
    GroupPlan plan;
    plan.tenants = std::move(open.members);
    plan.backend = open.eval.backend;
    plan.config = open.eval.config;
    plan.slo_s = open.slo_s;
    plan.rate = trace_rate(open.merged);
    plan.expected_fill = open.eval.expected_fill;
    plan.predicted_cost_per_request = open.eval.cost_per_request;
    plan.predicted_latency_bound_s = open.eval.latency_bound_s;
    plan.feasible = open.eval.feasible;
    plan.merged_trace = std::move(open.merged);
    for (const std::size_t t : plan.tenants) {
      out.group_of[t] = static_cast<std::int64_t>(g);
    }
    usd_per_s += plan.predicted_cost_per_request * plan.rate;
    total_rate += plan.rate;
    out.groups.push_back(std::move(plan));
  }
  if (surrogate_ != nullptr) refine_with_surrogate(out);
  usd_per_s = 0.0;
  for (const GroupPlan& g : out.groups) {
    usd_per_s += g.predicted_cost_per_request * g.rate;
  }
  out.predicted_cost_per_request =
      total_rate > 0.0 ? usd_per_s / total_rate : 0.0;
  return out;
}

void FleetOptimizer::refine_with_surrogate(FleetPlan& plan) const {
  // CPU groups only: the surrogate (and its feature standardizer) is fit to
  // the CPU grid — see the header.
  std::vector<std::size_t> cpu_groups;
  for (std::size_t g = 0; g < plan.groups.size(); ++g) {
    if (plan.groups[g].backend == lambda::BackendKind::kCpuLambda &&
        !plan.groups[g].merged_trace.empty()) {
      cpu_groups.push_back(g);
    }
  }
  if (cpu_groups.empty()) return;

  const std::vector<lambda::Config> configs = cpu_->config_grid().enumerate();
  const auto l =
      static_cast<std::size_t>(surrogate_->config().sequence_length);
  WindowParser parser(l, options_.pad_gap_s);

  // One batched encode + ONE fused GridScoringCache pass for every CPU
  // group (rows = groups) — the same path the multi-tenant runtime's
  // batched scorer uses, so fleet planning rides the fused kernels.
  std::vector<float> windows;
  windows.reserve(cpu_groups.size() * l);
  for (const std::size_t g : cpu_groups) {
    const workload::Trace& trace = plan.groups[g].merged_trace;
    const std::span<const float> w = parser.parse(trace, trace.end_time());
    windows.insert(windows.end(), w.begin(), w.end());
  }
  SurrogateBatchEncoder encoder(*surrogate_);
  std::vector<float> e1(cpu_groups.size() * encoder.encoding_dim());
  encoder.encode(windows, cpu_groups.size(), e1);
  SurrogateBatchScorer scorer(*surrogate_, configs);
  std::vector<float> raw(cpu_groups.size() * scorer.grid_size() *
                         scorer.target_dim());
  scorer.score(e1, cpu_groups.size(), raw);

  for (std::size_t row = 0; row < cpu_groups.size(); ++row) {
    GroupPlan& group = plan.groups[cpu_groups[row]];
    const double budget = group.slo_s * (1.0 - options_.safety_margin);
    const float* preds =
        raw.data() + row * scorer.grid_size() * scorer.target_dim();
    // Intersect: analytically feasible AND surrogate-predicted feasible;
    // argmin on the analytic cost keeps CPU and GPU tiers comparable.
    double best_cost = kInf;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const lambda::Config& cfg = configs[i];
      const double bound =
          cfg.timeout_s + cpu_->service_time(cfg, cfg.batch_size);
      if (bound > budget) continue;
      const double predicted_slo_latency =
          static_cast<double>(preds[i * kTargetDim + 1 + kSloPercentileIndex]);
      if (!(predicted_slo_latency <= budget)) continue;
      const double fill = expected_fill(group.rate, cfg);
      const auto fill_batch = static_cast<std::int64_t>(
          std::clamp<std::int64_t>(std::llround(fill), 1, cfg.batch_size));
      const double cost =
          cpu_->invocation_cost(cfg, cpu_->service_time(cfg, fill_batch)) /
          fill;
      if (cost < best_cost) {
        best_cost = cost;
        group.config = cfg;
        group.expected_fill = fill;
        group.predicted_cost_per_request = cost;
        group.predicted_latency_bound_s = bound;
        group.feasible = true;
      }
    }
    // Empty intersection: keep the analytic choice — the surrogate vetoes
    // nothing it cannot improve on.
  }
}

std::vector<std::vector<double>> split_group_latencies(
    const GroupPlan& group, std::span<const FleetTenant> fleet,
    const sim::SimResult& result) {
  std::map<double, std::vector<double>> by_arrival;
  for (const sim::RequestRecord& rec : result.requests) {
    by_arrival[rec.arrival].push_back(rec.latency());
  }
  for (const double t : result.dropped_arrivals) {
    by_arrival[t].push_back(std::numeric_limits<double>::infinity());
  }
  std::vector<std::vector<double>> out;
  out.reserve(group.tenants.size());
  for (const std::size_t t : group.tenants) {
    const workload::Trace& trace = *fleet[t].trace;
    std::vector<double> latencies;
    latencies.reserve(trace.size());
    for (const double arrival : trace.times()) {
      auto it = by_arrival.find(arrival);
      DEEPBAT_CHECK(it != by_arrival.end() && !it->second.empty(),
                    "split_group_latencies: arrival not found in the merged "
                    "replay — was this SimResult produced from the group's "
                    "merged_trace?");
      latencies.push_back(it->second.back());
      it->second.pop_back();
    }
    out.push_back(std::move(latencies));
  }
  return out;
}

}  // namespace deepbat::core
