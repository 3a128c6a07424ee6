#pragma once
// The full DeepBAT controller (paper Fig. 2): Workload Parser (sliding
// window over the arrival history) -> Deep Surrogate Model -> SLO-aware
// Optimizer. Since the control-plane refactor this is a thin adapter over
// core::DecisionEngine; it also implements sim::SplitController so the
// multi-tenant runtime can batch the encoder stage across tenants.

#include <optional>

#include "core/decision_engine.hpp"

namespace deepbat::core {

struct DeepBatControllerOptions {
  double slo_s = 0.1;
  double gamma = 0.0;  // penalty factor (see §III-D); set after fine-tuning
  lambda::ConfigGrid grid = lambda::ConfigGrid::standard();
  /// Heterogeneous serving backend: when set its config_grid() overrides
  /// `grid` (DecisionEngineOptions::backend). Borrowed.
  const lambda::Backend* backend = nullptr;
  /// Gap value used to left-pad windows with fewer arrivals than l
  /// (paper §III-A: "techniques for padding ... can be used"). A large gap
  /// reads as "no traffic".
  double pad_gap_s = 10.0;
  /// Surrogate guardrails + circuit breaker (DecisionEngine, DESIGN.md §11).
  SurrogateGuardOptions guard;
};

class DeepBatController : public sim::SplitController,
                          public sim::Checkpointable {
 public:
  /// The controller borrows the surrogate (trained/fine-tuned elsewhere);
  /// inference runs under NoGradGuard, so a const reference suffices.
  DeepBatController(const Surrogate& surrogate,
                    DeepBatControllerOptions options);

  lambda::Config decide(const workload::Trace& history, double now) override;
  std::string name() const override { return "DeepBAT"; }

  // Split-phase path (multi-tenant runtime); produces decisions identical
  // to decide() — the shared batched encode is bit-equal per row to the
  // solo forward.
  TickRequest begin_tick(const workload::Trace& history, double now) override;
  lambda::Config finish_tick(std::span<const float> encoding) override;

  /// The engine accepts externally fused grid scores (SurrogateBatchScorer);
  /// decisions are identical to the per-tenant path.
  bool supports_batched_scoring() const override { return true; }
  lambda::Config finish_tick_scored(
      std::span<const float> encoding,
      std::span<const float> raw_predictions) override;

  void set_gamma(double gamma) { engine_.set_gamma(gamma); }
  double gamma() const { return engine_.gamma(); }

  /// Hot-swap the engine's surrogate (learn/ online retraining loop,
  /// DESIGN.md §14); see DecisionEngine::rebind_surrogate. Only between
  /// decisions.
  void swap_surrogate(const Surrogate& surrogate) {
    engine_.rebind_surrogate(surrogate);
  }
  /// External staleness trip from an observed-drift monitor
  /// (learn::DriftMonitor); see DecisionEngine::report_staleness.
  void report_staleness() { engine_.report_staleness(); }

  // --- instrumentation (speedup experiment, §IV-F) ---
  std::size_t decision_count() const { return decisions_; }
  double total_predict_seconds() const { return predict_seconds_; }
  double total_search_seconds() const { return search_seconds_; }
  const std::optional<OptimizationOutcome>& last_outcome() const {
    return last_outcome_;
  }
  std::size_t cache_hits() const { return engine_.encoder().cache_hits(); }
  std::size_t cache_misses() const { return engine_.encoder().cache_misses(); }
  std::size_t fallback_decisions() const {
    return engine_.fallback_decisions();
  }
  std::size_t breaker_trips() const { return engine_.breaker_trips(); }

  const DecisionEngine& engine() const { return engine_; }

  /// sim::Checkpointable (DESIGN.md §16): the engine's memo + breaker
  /// state plus the controller's cumulative instrumentation. last_outcome_
  /// is intra-tick diagnostics and is not serialized (it resets on the next
  /// decision either way).
  void save_state(sim::CheckpointWriter& w) const override;
  void restore_state(sim::CheckpointReader& r) override;

 private:
  lambda::Config record(EngineDecision decision);

  DecisionEngine engine_;
  std::size_t decisions_ = 0;
  double predict_seconds_ = 0.0;
  double search_seconds_ = 0.0;
  std::optional<OptimizationOutcome> last_outcome_;
};

}  // namespace deepbat::core
