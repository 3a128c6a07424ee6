#include "core/controller.hpp"

namespace deepbat::core {

namespace {

DecisionEngineOptions engine_options(const DeepBatControllerOptions& options) {
  DecisionEngineOptions eo;
  eo.slo_s = options.slo_s;
  eo.gamma = options.gamma;
  eo.grid = options.grid;
  eo.backend = options.backend;
  eo.pad_gap_s = options.pad_gap_s;
  eo.guard = options.guard;
  return eo;
}

}  // namespace

DeepBatController::DeepBatController(const Surrogate& surrogate,
                                     DeepBatControllerOptions options)
    : engine_(surrogate, engine_options(options)) {}

lambda::Config DeepBatController::record(EngineDecision decision) {
  ++decisions_;
  predict_seconds_ += decision.encode_seconds + decision.score_seconds;
  search_seconds_ += decision.search_seconds;
  const lambda::Config chosen = decision.choice.config;
  OptimizationOutcome outcome;
  outcome.choice = decision.choice;
  outcome.predictions = std::move(decision.predictions);
  outcome.predict_seconds = decision.encode_seconds + decision.score_seconds;
  outcome.search_seconds = decision.search_seconds;
  last_outcome_ = std::move(outcome);
  return chosen;
}

lambda::Config DeepBatController::decide(const workload::Trace& history,
                                         double now) {
  return record(engine_.decide(history, now));
}

sim::SplitController::TickRequest DeepBatController::begin_tick(
    const workload::Trace& history, double now) {
  const DecisionEngine::Prepared prepared = engine_.begin(history, now);
  return TickRequest{prepared.needs_encoding, prepared.window,
                     prepared.bypassed, prepared.cached_encoding};
}

lambda::Config DeepBatController::finish_tick(
    std::span<const float> encoding) {
  return record(engine_.finish(encoding));
}

lambda::Config DeepBatController::finish_tick_scored(
    std::span<const float> encoding, std::span<const float> raw_predictions) {
  return record(engine_.finish_scored(encoding, raw_predictions));
}

void DeepBatController::save_state(sim::CheckpointWriter& w) const {
  engine_.save_state(w);
  w.u64(decisions_);
  w.f64(predict_seconds_);
  w.f64(search_seconds_);
}

void DeepBatController::restore_state(sim::CheckpointReader& r) {
  engine_.restore_state(r);
  decisions_ = static_cast<std::size_t>(r.u64());
  // Wall-clock totals restore for report continuity; they never feed back
  // into decisions, so they cannot perturb the replay.
  predict_seconds_ = r.f64();
  search_seconds_ = r.f64();
  last_outcome_.reset();
}

}  // namespace deepbat::core
