#include "learn/adaptive_controller.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace deepbat::learn {

namespace {

LearnOptions resolve_slo(LearnOptions learn, double slo_s) {
  // One SLO per tenant: the drift monitor and the trainer's violation
  // weighting both judge against the controller's own target.
  learn.drift.slo_s = slo_s;
  learn.retrain.slo_s = slo_s;
  return learn;
}

}  // namespace

AdaptiveController::AdaptiveController(const core::Surrogate& incumbent,
                                       AdaptiveControllerOptions options)
    : core::DeepBatController(incumbent, options.controller),
      options_(AdaptiveControllerOptions{
          options.controller,
          resolve_slo(options.learn, options.controller.slo_s)}),
      parser_(static_cast<std::size_t>(incumbent.config().sequence_length),
              options.controller.pad_gap_s),
      store_(&incumbent),
      harvester_(options_.learn.harvest),
      drift_(options_.learn.drift),
      retrainer_(options_.learn.retrain),
      shadow_(options_.learn.shadow, engine().configs()),
      fallback_ring_(std::max<std::size_t>(options_.learn.fallback_window_ticks,
                                           1),
                     0) {
  drift_counter_ =
      &obs::MetricsRegistry::instance().counter("core.retrain.drift_trip");
}

lambda::Config AdaptiveController::decide(const workload::Trace& history,
                                          double now) {
  tick_now_ = now;
  const auto window = parser_.parse(history, now);
  window_scratch_.assign(window.begin(), window.end());
  const std::size_t fallbacks_before = fallback_decisions();
  // engine() already reads the store's current surrogate after a swap
  // (rebind_surrogate), so the solo path needs no further indirection.
  const lambda::Config config = core::DeepBatController::decide(history, now);
  return after_decision(config, now, fallbacks_before);
}

sim::SplitController::TickRequest AdaptiveController::begin_tick(
    const workload::Trace& history, double now) {
  tick_now_ = now;
  const auto window = parser_.parse(history, now);
  window_scratch_.assign(window.begin(), window.end());
  TickRequest request = core::DeepBatController::begin_tick(history, now);
  self_encode_ = false;
  if (store_.version() > 0 && request.needs_encoding) {
    // Post-swap, the runtime's shared batch encoder still holds version-0
    // weights; encode through the engine's own (rebound) encoder instead.
    // Pre-swap the shared batched encode is bit-identical per row, so the
    // fast path stays untouched until the first swap.
    self_e1_.resize(engine().encoding_dim());
    engine().encoder().forward_single(window_scratch_, self_e1_);
    self_encode_ = true;
    request.needs_encoding = false;
    request.window = {};
  }
  return request;
}

lambda::Config AdaptiveController::finish_tick(
    std::span<const float> encoding) {
  const std::size_t fallbacks_before = fallback_decisions();
  const lambda::Config config =
      self_encode_ ? core::DeepBatController::finish_tick(self_e1_)
                   : core::DeepBatController::finish_tick(encoding);
  self_encode_ = false;
  return after_decision(config, tick_now_, fallbacks_before);
}

lambda::Config AdaptiveController::after_decision(
    lambda::Config config, double now, std::size_t fallbacks_before) {
  const bool fallback = fallback_decisions() > fallbacks_before;
  if (fallback) fallback_times_.push_back(now);
  last_window_ = window_scratch_;
  last_config_ = config;
  last_pred_p95_s_ = -1.0;
  if (!fallback && last_outcome().has_value()) {
    // An untrained or badly drifted surrogate can predict a NEGATIVE p95
    // (the structural guard only checks monotonicity, not sign). Clamp at
    // zero so the sentinel below stays unambiguous and the drift ratio
    // test reads "observed exceeded margin over a zero prediction".
    last_pred_p95_s_ = std::max(last_outcome()->choice.prediction.p95(), 0.0);
  }
  have_last_ = true;
  return config;
}

void AdaptiveController::on_tick(double now, const sim::SimResult& result) {
  ++tick_index_;

  // Sliding fallback-activity window (per-tick deltas over the last W
  // ticks) — the retrain trigger watches this, not the lifetime counter.
  const std::size_t fallbacks_now = fallback_decisions();
  const std::size_t delta = fallbacks_now - fallbacks_at_last_tick_;
  fallbacks_at_last_tick_ = fallbacks_now;
  ring_sum_ += delta;
  ring_sum_ -= fallback_ring_[ring_pos_];
  fallback_ring_[ring_pos_] = delta;
  ring_pos_ = (ring_pos_ + 1) % fallback_ring_.size();

  // Pair the previous decision with its interval's observed outcomes.
  const auto fresh = result.requests_since(seen_requests_);
  seen_requests_ = result.requests.size();
  if (have_last_ && fresh.size() >= options_.learn.harvest.min_requests) {
    const core::PredictionTarget observed = observed_target(fresh);
    harvester_.add(last_window_, last_config_, observed);
    if (last_pred_p95_s_ >= 0.0) {
      drift_.observe(last_pred_p95_s_, observed.p95(), fresh.size());
    }
  }

  // A sustained observed-vs-predicted divergence trips the breaker — the
  // structural guard cannot see this failure mode (faults perturb service
  // outcomes, not the arrival windows the engine watches).
  if (drift_.stale() && !engine().breaker_open()) {
    report_staleness();
    if (engine().breaker_open()) {  // no-op when the guard layer is off
      ++drift_trips_;
      drift_counter_->add();
      drift_.reset();  // the streak is consumed by the trip
    }
  }

  step_learner(now);
}

void AdaptiveController::step_learner(double now) {
  const LearnOptions& learn = options_.learn;

  if (retrainer_.pending()) {
    if (!join_at_tick_.has_value() || tick_index_ < *join_at_tick_) return;
    // Join at the scheduled logical tick — not "when training finished" —
    // so the swap tick is a pure function of the tenant's own history.
    Retrainer::Outcome outcome = retrainer_.join();
    join_at_tick_.reset();
    const std::vector<nn::Sample> holdout = harvester_.holdout();
    const ShadowReport report =
        shadow_.evaluate(*store_.current(), *outcome.candidate, holdout);
    shadow_reports_.push_back(report);
    if (report.candidate_wins) {
      ++shadow_wins_;
      const core::Surrogate* next =
          store_.adopt(std::move(outcome.candidate), now);
      swap_surrogate(*next);  // encoder memo drop + scorer rebuild +
                              // breaker to HalfOpen
      drift_.reset();
    } else {
      ++shadow_losses_;  // candidate discarded; the incumbent stays live
    }
    return;
  }

  if (learn.max_retrains > 0 && retrainer_.runs() >= learn.max_retrains) {
    return;
  }
  if (harvester_.train_size() < learn.min_train_samples) return;
  const bool fallback_hot =
      learn.fallback_trigger > 0 && ring_sum_ >= learn.fallback_trigger;
  const bool budget_hit =
      learn.sample_budget > 0 &&
      harvester_.harvested() - samples_at_launch_ >= learn.sample_budget;
  if (!fallback_hot && !budget_hit) return;

  samples_at_launch_ = harvester_.harvested();
  retrainer_.launch(*store_.current(), harvester_.train_dataset());
  join_at_tick_ = tick_index_ + learn.retrain_delay_ticks;
}

void AdaptiveController::save_state(sim::CheckpointWriter& w) const {
  store_.save_state(w);
  core::DeepBatController::save_state(w);
  harvester_.save_state(w);
  drift_.save_state(w);
  retrainer_.save_state(w);
  w.floats(last_window_);
  sim::save_config(w, last_config_);
  w.f64(last_pred_p95_s_);
  w.boolean(have_last_);
  w.u64(seen_requests_);
  w.u64(tick_index_);
  w.boolean(join_at_tick_.has_value());
  if (join_at_tick_.has_value()) w.u64(*join_at_tick_);
  w.u64(samples_at_launch_);
  w.u64(fallbacks_at_last_tick_);
  for (std::size_t delta : fallback_ring_) w.u64(delta);
  w.u64(ring_pos_);
  w.u64(ring_sum_);
  w.u64(shadow_wins_);
  w.u64(shadow_losses_);
  w.u64(drift_trips_);
  w.doubles(fallback_times_);
  w.u64(shadow_reports_.size());
  for (const ShadowReport& report : shadow_reports_) {
    w.u64(report.holdout_size);
    w.f64(report.incumbent_mape_pct);
    w.f64(report.candidate_mape_pct);
    w.f64(report.argmin_agreement);
    w.boolean(report.candidate_wins);
  }
}

void AdaptiveController::restore_state(sim::CheckpointReader& r) {
  store_.restore_state(r);
  if (store_.version() > 0) {
    // Rebind the engine to the restored incumbent before the base restore:
    // the rebind drops the encoder memo and half-opens the breaker, and
    // the base restore then overwrites both with the checkpointed state.
    swap_surrogate(*store_.current());
  }
  core::DeepBatController::restore_state(r);
  harvester_.restore_state(r);
  drift_.restore_state(r);
  retrainer_.restore_state(r, *store_.current());
  last_window_ = r.floats();
  last_config_ = sim::restore_config(r);
  last_pred_p95_s_ = r.f64();
  have_last_ = r.boolean();
  seen_requests_ = static_cast<std::size_t>(r.u64());
  tick_index_ = static_cast<std::size_t>(r.u64());
  join_at_tick_.reset();
  if (r.boolean()) join_at_tick_ = static_cast<std::size_t>(r.u64());
  DEEPBAT_CHECK(join_at_tick_.has_value() == retrainer_.pending(),
                "AdaptiveController: checkpoint join tick does not match the "
                "pending retrain");
  samples_at_launch_ = static_cast<std::size_t>(r.u64());
  fallbacks_at_last_tick_ = static_cast<std::size_t>(r.u64());
  // The ring's length is an option, not state; the checkpoint stores
  // exactly one delta per slot.
  for (std::size_t& delta : fallback_ring_) {
    delta = static_cast<std::size_t>(r.u64());
  }
  ring_pos_ = static_cast<std::size_t>(r.u64());
  DEEPBAT_CHECK(ring_pos_ < fallback_ring_.size(),
                "AdaptiveController: checkpoint ring cursor out of range");
  ring_sum_ = static_cast<std::size_t>(r.u64());
  shadow_wins_ = static_cast<std::size_t>(r.u64());
  shadow_losses_ = static_cast<std::size_t>(r.u64());
  drift_trips_ = static_cast<std::size_t>(r.u64());
  fallback_times_ = r.doubles();
  const std::uint64_t report_count = r.u64();
  // 33 payload bytes per report; reject a corrupt count before reserving.
  DEEPBAT_CHECK(report_count <= r.remaining() / 33,
                "AdaptiveController: checkpoint report count exceeds payload");
  shadow_reports_.clear();
  shadow_reports_.reserve(report_count);
  for (std::uint64_t i = 0; i < report_count; ++i) {
    ShadowReport report;
    report.holdout_size = static_cast<std::size_t>(r.u64());
    report.incumbent_mape_pct = r.f64();
    report.candidate_mape_pct = r.f64();
    report.argmin_agreement = r.f64();
    report.candidate_wins = r.boolean();
    shadow_reports_.push_back(report);
  }
  // Intra-tick scratch never rides in a checkpoint (saves land strictly
  // between ticks).
  self_encode_ = false;
}

}  // namespace deepbat::learn
