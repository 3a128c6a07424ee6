#pragma once
// Fleet-level multi-SLO optimizer over heterogeneous backends
// (DESIGN.md §13). DeepBAT provisions each application in isolation on
// CPU-Lambda; HarmonyBatch (arXiv:2405.05633) shows the fleet-level cost
// optimum instead PARTITIONS applications into function groups and serves
// each group on the cheapest feasible tier — CPU functions for light or
// loose-SLO traffic, fractional-GPU functions (HAS-GPU, arXiv:2505.01968)
// for aggregated tight-SLO traffic whose batches amortize the higher
// per-second price.
//
// The optimizer is deterministic and purely analytic at its core:
//
//   * Tenants are sorted by SLO ascending (strictest first) and merged
//     greedily — a merge is kept when the merged group's best provisioning
//     is predicted cheaper ($/s) than the two parts provisioned apart.
//   * A group's candidate (backend, M, B, T) is feasible when the
//     WORST-CASE latency bound T + s(cfg, B) meets the group's strictest
//     SLO tightened by a safety margin. The bound is exact for this
//     simulator: a request waits at most T, and service time is monotone
//     in the actual batch size (<= B).
//   * Cost uses the analytic expected batch fill n = min(B, 1 + lambda*T)
//     (lambda = the group's aggregate arrival rate): cost/request =
//     invocation_cost(cfg, s(cfg, round(n))) / n.
//
// When a trained surrogate is attached, CPU-tier candidates are ALSO
// scored through the existing fused GridScoringCache path (one
// predict_grid_from_e1_batch pass, rows = groups) and the group's CPU
// choice must additionally be surrogate-predicted feasible — the fleet
// optimizer then provisions against the same model the per-tenant DeepBAT
// controller trusts online. GPU-tier candidates stay analytic: the
// surrogate is trained on CPU observations and its feature standardizer is
// fit to the CPU grid, so scoring SM% configs through it would be garbage.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/decision_engine.hpp"
#include "lambda/backend.hpp"
#include "workload/trace.hpp"

namespace deepbat::core {

/// One application in the fleet: its trace and its own SLO contract.
struct FleetTenant {
  std::string name;
  const workload::Trace* trace = nullptr;
  double slo_s = 0.1;
  /// Latency percentile the SLO is judged at (attainment reporting).
  double slo_percentile = 0.95;
};

/// One function group of the fleet plan: the members, the serving backend,
/// the chosen configuration, and the predictions it was chosen on.
struct GroupPlan {
  std::vector<std::size_t> tenants;  // indices into the planned fleet
  lambda::BackendKind backend = lambda::BackendKind::kCpuLambda;
  lambda::Config config;
  double slo_s = 0.0;          // strictest member SLO (the group contract)
  double rate = 0.0;           // aggregate arrival rate (req/s)
  double expected_fill = 1.0;  // analytic n = min(B, 1 + rate * T)
  double predicted_cost_per_request = 0.0;
  /// Worst-case request latency T + s(cfg, B) the feasibility test bounded.
  double predicted_latency_bound_s = 0.0;
  bool feasible = false;  // false only when a forced merge had no headroom
  /// Superposed arrival stream of the members (deterministic k-way merge).
  workload::Trace merged_trace;
};

struct FleetPlan {
  std::vector<GroupPlan> groups;
  /// Tenant index -> group id (position in `groups`).
  std::vector<std::int64_t> group_of;
  /// Rate-weighted aggregate predicted cost per request across groups.
  double predicted_cost_per_request = 0.0;
};

struct FleetOptimizerOptions {
  /// Hard cap on the number of function groups (0 = unlimited). When the
  /// cap binds, trailing tenants are force-merged into the last group.
  std::size_t max_groups = 0;
  /// Feasibility tightening: latency bound <= slo * (1 - safety_margin).
  double safety_margin = 0.1;
  /// Permit the GPU tier (requires a gpu backend at construction).
  bool allow_gpu = true;
  /// Permit the CPU tier. Disabling both is an error; disabling CPU
  /// requires a gpu backend (`--backend gpu` benches).
  bool allow_cpu = true;
  /// Pad gap for surrogate window parsing (DecisionEngineOptions::pad_gap_s).
  double pad_gap_s = 10.0;
};

class FleetOptimizer {
 public:
  /// Borrows both backends; `gpu` may be null (CPU-only fleet). The caller
  /// keeps them alive for the optimizer's lifetime.
  FleetOptimizer(const lambda::CpuLambdaBackend& cpu,
                 const lambda::GpuServerlessBackend* gpu,
                 FleetOptimizerOptions options = {});

  /// Attach a trained surrogate: plan() then refines every CPU group's
  /// configuration through one fused GridScoringCache scoring pass (rows =
  /// groups) and requires surrogate-predicted feasibility on top of the
  /// analytic bound. Borrowed; null detaches.
  void attach_surrogate(const Surrogate* surrogate) { surrogate_ = surrogate; }

  /// Best (backend, config) for an aggregate rate under an SLO — the
  /// analytic inner evaluation, exposed for tests and benches.
  struct Evaluation {
    lambda::BackendKind backend = lambda::BackendKind::kCpuLambda;
    lambda::Config config;
    double cost_per_request = 0.0;
    double latency_bound_s = 0.0;
    double expected_fill = 1.0;
    bool feasible = false;
  };
  Evaluation evaluate(double rate, double slo_s) const;

  /// Analytic expected batch fill at `rate`: min(B, 1 + rate * T),
  /// clamped to [1, B].
  static double expected_fill(double rate, const lambda::Config& config);

  /// Partition `fleet` into function groups and provision each.
  FleetPlan plan(std::span<const FleetTenant> fleet) const;

  const FleetOptimizerOptions& options() const { return options_; }

 private:
  Evaluation evaluate_backend(const lambda::Backend& backend, double rate,
                              double slo_s) const;
  void refine_with_surrogate(FleetPlan& plan) const;

  const lambda::CpuLambdaBackend* cpu_;
  const lambda::GpuServerlessBackend* gpu_;
  FleetOptimizerOptions options_;
  const Surrogate* surrogate_ = nullptr;
};

/// Attribute a merged group replay's per-request latencies back to the
/// member tenants, by arrival timestamp: requests sharing an arrival time
/// necessarily shared a batch (hence a latency), so multiset matching over
/// timestamps is exact. Dropped arrivals yield +inf latencies. Returns one
/// latency vector per group member, in GroupPlan::tenants order.
std::vector<std::vector<double>> split_group_latencies(
    const GroupPlan& group, std::span<const FleetTenant> fleet,
    const sim::SimResult& result);

}  // namespace deepbat::core
