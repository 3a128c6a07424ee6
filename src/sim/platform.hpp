#pragma once
// Controller-in-the-loop serverless platform on top of the batching
// simulator — the executable version of paper Fig. 2. A trace is replayed
// through the Buffer; at a fixed control interval the attached Controller
// observes the recent arrival history (the Workload Parser's view) and
// returns the (M, B, T) configuration to apply next, exactly the DeepBAT
// request/control flow. With a FixedController this degenerates to plain batching.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/batch_sim.hpp"
#include "workload/trace.hpp"

namespace deepbat::sim {

/// A surrogate hot-swap performed by a learning controller (src/learn/,
/// DESIGN.md §14): at control tick `time` the tenant's decision engine
/// switched from surrogate version `from_version` to `to_version`. Recorded
/// in PlatformRun so a retraining replay's full outcome — decisions AND the
/// model lineage behind them — is byte-comparable across reruns and shard
/// counts.
struct SwapEvent {
  double time = 0.0;
  std::uint64_t from_version = 0;
  std::uint64_t to_version = 0;

  friend bool operator==(const SwapEvent&, const SwapEvent&) = default;
};

/// Per-tenant tick observation hook. The runtime calls on_tick() once per
/// control tick, after the tenant's arrivals up to `now` have been offered
/// and dispatched but BEFORE the controller decides — so an observer can
/// feed the interval's observed (latency, cost) outcomes back into the
/// controller that is about to run (the src/learn/ online-learning loop).
/// Borrowed by the runtime; single-writer: a tenant lives on exactly one
/// shard, so on_tick() is never invoked concurrently for one observer.
class TenantObserver {
 public:
  virtual ~TenantObserver() = default;

  /// `result` is the tenant simulator's live state at tick time `now`;
  /// RequestRecords are appended in dispatch order and never reordered, so
  /// SimResult::requests_since() gives the interval's fresh outcomes.
  virtual void on_tick(double now, const SimResult& result) = 0;

  /// Surrogate hot-swaps recorded so far; copied into PlatformRun::swaps
  /// when the replay finalizes.
  virtual std::span<const SwapEvent> swaps() const { return {}; }
};

/// Strategy interface implemented by DeepBAT (core/), the BATCH baseline
/// (batchlib/), and trivial fixed policies.
class Controller {
 public:
  virtual ~Controller() = default;

  /// Called at every control point with the full arrival history up to
  /// `now` (implementations slice their own window from it). Returns the
  /// configuration to use until the next control point.
  virtual lambda::Config decide(const workload::Trace& history,
                                double now) = 0;

  /// Name used in reports.
  virtual std::string name() const = 0;
};

/// Always returns the same configuration.
class FixedController : public Controller {
 public:
  explicit FixedController(lambda::Config config) : config_(config) {}
  lambda::Config decide(const workload::Trace&, double) override {
    return config_;
  }
  std::string name() const override { return "fixed"; }

 private:
  lambda::Config config_;
};

struct PlatformOptions {
  double control_interval_s = 30.0;  // how often the controller re-decides
  std::optional<std::uint64_t> cold_start_seed;
  /// Fault weather applied to this tenant's batching buffer (DESIGN.md §11).
  /// Default-constructed = disabled: the simulator runs the exact pre-fault
  /// dispatch path.
  FaultPlan faults;
  /// Per-tenant fault/cold-start stream id. Part of the tenant's identity,
  /// NOT of the execution layout, so replays stay shard-invariant; stream 0
  /// leaves cold_start_seed untouched (solo-replay compatible).
  std::uint64_t fault_stream = 0;
  /// Optional per-tenant tick observer (src/learn/ online learning).
  /// Borrowed; must outlive the replay. nullptr = no observation.
  TenantObserver* observer = nullptr;
};

struct ControlDecision {
  double time = 0.0;
  lambda::Config config;
};

struct PlatformRun {
  SimResult result;
  std::vector<ControlDecision> decisions;
  /// Fleet metadata (DESIGN.md §13): the function-group id this tenant was
  /// provisioned under by core::FleetOptimizer (-1 = solo / ungrouped) and
  /// the name of the backend that served it.
  std::int64_t group_id = -1;
  std::string backend = "cpu-lambda";
  /// Replay provenance for retraining runs (DESIGN.md §14): the fault
  /// stream this tenant was replayed under and every surrogate hot-swap its
  /// observer performed. Recorded together so a retrained replay is
  /// byte-comparable — same stream, same swap ticks — across reruns and
  /// shard counts.
  std::uint64_t fault_stream = 0;
  std::vector<SwapEvent> swaps;
};

/// Replay `trace` through the batching buffer; the controller re-decides the
/// configuration every `control_interval_s` seconds, on the global tick grid
/// (multiples of the interval), starting at the grid instant at or just
/// before the trace start.
PlatformRun run_platform(const workload::Trace& trace, Controller& controller,
                         const lambda::LambdaModel& model,
                         lambda::Config initial_config,
                         const PlatformOptions& options = {});

/// Same, serving through an arbitrary heterogeneous backend.
PlatformRun run_platform(const workload::Trace& trace, Controller& controller,
                         const lambda::Backend& backend,
                         lambda::Config initial_config,
                         const PlatformOptions& options = {});

}  // namespace deepbat::sim
