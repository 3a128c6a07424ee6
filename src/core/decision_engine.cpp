#include "core/decision_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "nn/arena.hpp"
#include "nn/autograd.hpp"
#include "obs/trace.hpp"

namespace deepbat::core {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

// ---------------------------------------------------------------- parser --

WindowParser::WindowParser(std::size_t window_length, double pad_gap_s)
    : window_length_(window_length), pad_gap_s_(pad_gap_s) {
  DEEPBAT_CHECK(window_length_ > 0, "WindowParser: window length must be > 0");
  encoded_.resize(window_length_);
}

std::span<const float> WindowParser::parse(const workload::Trace& history,
                                           double now) {
  const auto gaps = history.window_before(now, window_length_, pad_gap_s_);
  for (std::size_t i = 0; i < window_length_; ++i) {
    encoded_[i] = encode_gap(gaps[i]);
  }
  return encoded_;
}

// --------------------------------------------------------------- encoder --

SequenceEncoder::SequenceEncoder(const Surrogate& surrogate)
    : surrogate_(&surrogate) {
  auto& registry = obs::MetricsRegistry::instance();
  hit_counter_ = &registry.counter("core.encoder.cache_hit");
  miss_counter_ = &registry.counter("core.encoder.cache_miss");
}

std::size_t SequenceEncoder::window_length() const {
  return static_cast<std::size_t>(surrogate_->config().sequence_length);
}

std::size_t SequenceEncoder::encoding_dim() const {
  return static_cast<std::size_t>(surrogate_->config().model_dim);
}

const std::vector<float>* SequenceEncoder::lookup(
    std::span<const float> window) {
  if (!std::equal(window.begin(), window.end(), window_.begin(),
                  window_.end())) {
    ++misses_;
    miss_counter_->add();
    return nullptr;
  }
  ++hits_;
  hit_counter_->add();
  return &e1_;
}

std::span<const float> SequenceEncoder::insert(std::span<const float> window,
                                               std::span<const float> e1) {
  DEEPBAT_CHECK(window.size() == window_length(),
                "SequenceEncoder: window length mismatch");
  DEEPBAT_CHECK(e1.size() == encoding_dim(),
                "SequenceEncoder: encoding dimension mismatch");
  window_.assign(window.begin(), window.end());
  e1_.assign(e1.begin(), e1.end());
  return e1_;
}

void SequenceEncoder::forward_single(std::span<const float> window,
                                     std::span<float> out) const {
  DEEPBAT_CHECK(window.size() == window_length(),
                "SequenceEncoder: window length mismatch");
  DEEPBAT_CHECK(out.size() == encoding_dim(),
                "SequenceEncoder: output dimension mismatch");
  nn::NoGradGuard no_grad;
  nn::arena::Scope arena_scope;
  nn::Tensor seq({1, surrogate_->config().sequence_length, 1});
  std::copy(window.begin(), window.end(), seq.data());
  const nn::Tensor e1 = surrogate_->encode_sequence(seq);
  std::copy(e1.data(), e1.data() + out.size(), out.begin());
}

void SequenceEncoder::rebind(const Surrogate& surrogate) {
  DEEPBAT_CHECK(
      surrogate.config().sequence_length ==
              surrogate_->config().sequence_length &&
          surrogate.config().model_dim == surrogate_->config().model_dim,
      "SequenceEncoder: rebound surrogate changes the encoder dimensions");
  surrogate_ = &surrogate;
  window_.clear();
  e1_.clear();
}

void SequenceEncoder::save_state(sim::CheckpointWriter& w) const {
  w.boolean(!window_.empty());
  if (!window_.empty()) {
    w.floats(window_);
    w.floats(e1_);
  }
  w.u64(hits_);
  w.u64(misses_);
}

void SequenceEncoder::restore_state(sim::CheckpointReader& r) {
  window_.clear();
  e1_.clear();
  if (r.boolean()) {
    // Two reads in declared order, then one dimension check for both.
    std::vector<float> window = r.floats();
    std::vector<float> e1 = r.floats();
    DEEPBAT_CHECK(window.size() == window_length() &&
                      e1.size() == encoding_dim(),
                  "SequenceEncoder: checkpoint memo dimensions do not match "
                  "this encoder's surrogate");
    window_ = std::move(window);
    e1_ = std::move(e1);
  }
  hits_ = static_cast<std::size_t>(r.u64());
  misses_ = static_cast<std::size_t>(r.u64());
}

// ---------------------------------------------------------------- scorer --

GridScorer::GridScorer(const Surrogate& surrogate,
                       std::vector<lambda::Config> configs)
    : surrogate_(&surrogate), configs_(std::move(configs)) {
  DEEPBAT_CHECK(!configs_.empty(), "GridScorer: empty config grid");
}

GridScoringCache& GridScorer::ensure_cache() const {
  if (!cache_) cache_ = surrogate_->make_scoring_cache(configs_);
  return *cache_;
}

std::span<const PredictionTarget> GridScorer::score(
    std::span<const float> e1) const {
  surrogate_->predict_grid_from_e1_batch(e1, 1, ensure_cache(), scored_);
  return scored_;
}

std::span<const PredictionTarget> GridScorer::unpack(
    std::span<const float> raw) const {
  const std::size_t n = configs_.size();
  DEEPBAT_CHECK(raw.size() == n * kTargetDim,
                "GridScorer: raw prediction size mismatch");
  scored_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scored_[i] = unpack_target(raw.subspan(i * kTargetDim, kTargetDim));
  }
  return scored_;
}

void GridScorer::rebind(const Surrogate& surrogate) {
  DEEPBAT_CHECK(surrogate.config().model_dim == surrogate_->config().model_dim,
                "GridScorer: rebound surrogate changes the encoding dim");
  surrogate_ = &surrogate;
  cache_.reset();
}

// ---------------------------------------------------------------- engine --

namespace {

/// Backend override (DESIGN.md §13): an engine bound to a backend scores
/// that backend's own grid, never the generic CPU one.
DecisionEngineOptions resolve_grid(DecisionEngineOptions options) {
  if (options.backend != nullptr) {
    options.grid = options.backend->config_grid();
  }
  return options;
}

}  // namespace

DecisionEngine::DecisionEngine(const Surrogate& surrogate,
                               DecisionEngineOptions options)
    : options_(resolve_grid(std::move(options))),
      parser_(static_cast<std::size_t>(surrogate.config().sequence_length),
              options_.pad_gap_s),
      encoder_(surrogate),
      scorer_(surrogate, options_.grid.enumerate()) {
  DEEPBAT_CHECK(options_.gamma >= 0.0 && options_.gamma < 1.0,
                "DecisionEngine: gamma out of [0, 1)");
  auto& registry = obs::MetricsRegistry::instance();
  parse_hist_ = &registry.histogram("core.engine.parse_seconds");
  encode_hist_ = &registry.histogram("core.engine.encode_seconds");
  score_hist_ = &registry.histogram("core.engine.score_seconds");
  search_hist_ = &registry.histogram("core.engine.search_seconds");
  trip_counter_ = &registry.counter("core.engine.fallback_trip");
  fallback_counter_ = &registry.counter("core.engine.fallback_decision");
  reset_counter_ = &registry.counter("core.engine.fallback_reset");
  // Cold fallback before any decision succeeded: the most conservative grid
  // point — max memory (fastest service), smallest batch, shortest timeout
  // (least batching delay). The grid is a cross product, so this combination
  // is always a member.
  conservative_ = scorer_.configs().front();
  for (const lambda::Config& c : scorer_.configs()) {
    conservative_.memory_mb = std::max(conservative_.memory_mb, c.memory_mb);
    conservative_.batch_size = std::min(conservative_.batch_size, c.batch_size);
    conservative_.timeout_s = std::min(conservative_.timeout_s, c.timeout_s);
  }
}

bool DecisionEngine::guard_ok(std::span<const PredictionTarget> predictions,
                              const SurrogateGuardOptions& guard) {
  for (const PredictionTarget& p : predictions) {
    if (!std::isfinite(p.cost_usd_per_request) ||
        p.cost_usd_per_request < guard.cost_floor_usd) {
      return false;
    }
    double prev = -std::numeric_limits<double>::infinity();
    for (const double v : p.latency_s) {
      if (!std::isfinite(v) || v < prev - guard.monotone_margin_s) {
        return false;
      }
      prev = v;
    }
  }
  return true;
}

void DecisionEngine::trip_breaker() {
  breaker_ = options_.guard.cooldown_ticks > 0 ? BreakerState::kOpen
                                               : BreakerState::kHalfOpen;
  cooldown_left_ = options_.guard.cooldown_ticks;
  ++breaker_trips_;
  trip_counter_->add();
}

EngineDecision DecisionEngine::fallback_decision() {
  EngineDecision decision;
  decision.fallback = true;
  decision.choice.config = last_good_.value_or(conservative_);
  decision.choice.feasible = false;
  ++fallback_decisions_;
  fallback_counter_->add();
  return decision;
}

void DecisionEngine::set_gamma(double gamma) {
  DEEPBAT_CHECK(gamma >= 0.0 && gamma < 1.0,
                "DecisionEngine: gamma out of [0, 1)");
  options_.gamma = gamma;
}

void DecisionEngine::rebind_surrogate(const Surrogate& surrogate) {
  DEEPBAT_CHECK(!pending_,
                "DecisionEngine: rebind_surrogate() between begin()/finish()");
  DEEPBAT_CHECK(static_cast<std::size_t>(surrogate.config().sequence_length) ==
                    parser_.window_length(),
                "DecisionEngine: rebound surrogate changes the window length");
  encoder_.rebind(surrogate);
  scorer_.rebind(surrogate);
  // HalfOpen, not Closed: the next decision probes the new model once; the
  // guard either confirms it (breaker closes, reset counted) or re-trips.
  breaker_ = BreakerState::kHalfOpen;
  cooldown_left_ = 0;
}

void DecisionEngine::report_staleness() {
  DEEPBAT_CHECK(!pending_,
                "DecisionEngine: report_staleness() between begin()/finish()");
  if (!options_.guard.enabled || breaker_ != BreakerState::kClosed) return;
  trip_breaker();
}

DecisionEngine::Prepared DecisionEngine::begin(const workload::Trace& history,
                                               double now) {
  DEEPBAT_CHECK(!pending_, "DecisionEngine: begin() called twice");
  pending_ = true;
  if (options_.guard.enabled && breaker_ == BreakerState::kOpen) {
    // Breaker open: skip parse/memo/encode entirely; finish() serves the
    // fallback config. Ticks spent here are neither hits nor misses.
    pending_bypass_ = true;
    return Prepared{false, {}, true, {}};
  }
  pending_bypass_ = false;
  obs::ScopedTimer parse_timer(*parse_hist_);
  obs::Span span("core.engine.parse");
  pending_window_ = parser_.parse(history, now);
  const std::vector<float>* cached = encoder_.lookup(pending_window_);
  if (cached != nullptr) {
    pending_hit_ = true;
    pending_e1_ = *cached;
    // Expose the memoised row so a batching runtime can fold this tenant
    // into its fused scoring pass. The span stays valid until finish(): the
    // memo only changes on insert, and the engine inserts at most once per
    // begin()/finish() pair, on a miss.
    return Prepared{false, {}, false, pending_e1_};
  }
  pending_hit_ = false;
  return Prepared{true, pending_window_, false, {}};
}

EngineDecision DecisionEngine::finish(std::span<const float> encoding) {
  DEEPBAT_CHECK(pending_, "DecisionEngine: finish() without begin()");
  pending_ = false;

  if (pending_bypass_) {
    pending_bypass_ = false;
    if (--cooldown_left_ == 0) breaker_ = BreakerState::kHalfOpen;
    return fallback_decision();
  }

  std::span<const float> e1;
  if (pending_hit_) {
    e1 = pending_e1_;
  } else {
    DEEPBAT_CHECK(encoding.size() == encoder_.encoding_dim(),
                  "DecisionEngine: finish() expected an encoding row");
    // Score from the caller's row first; it is only memoised inside
    // complete(), once the guard has accepted the predictions, so a
    // poisoned encoding can never be served from the memo later.
    e1 = encoding;
  }

  std::span<const PredictionTarget> scored;
  double score_seconds = 0.0;
  {
    obs::Span span("core.engine.score");
    const auto score_start = std::chrono::steady_clock::now();
    scored = scorer_.score(e1);
    score_seconds = seconds_since(score_start);
  }
  score_hist_->observe(score_seconds);
  return complete(encoding, scored, score_seconds);
}

EngineDecision DecisionEngine::finish_scored(
    std::span<const float> encoding, std::span<const float> raw_predictions) {
  DEEPBAT_CHECK(pending_, "DecisionEngine: finish_scored() without begin()");
  DEEPBAT_CHECK(!pending_bypass_,
                "DecisionEngine: finish_scored() on a bypassed tick");
  pending_ = false;
  if (!pending_hit_) {
    DEEPBAT_CHECK(encoding.size() == encoder_.encoding_dim(),
                  "DecisionEngine: finish_scored() expected an encoding row");
  }
  // The fused batch pass already scored this tenant's grid slice; unpacking
  // into the scorer's scratch is all that remains of the scoring stage.
  // The shard-level batch_score histogram carries the fused timing, so the
  // per-decision score_seconds stays 0 here (like encode_seconds on a
  // batched encode).
  const std::span<const PredictionTarget> scored =
      scorer_.unpack(raw_predictions);
  return complete(encoding, scored, 0.0);
}

EngineDecision DecisionEngine::complete(
    std::span<const float> encoding,
    std::span<const PredictionTarget> scored, double score_seconds) {
  EngineDecision decision;
  decision.cache_hit = pending_hit_;
  decision.score_seconds = score_seconds;

  if (options_.guard.enabled && !guard_ok(scored, options_.guard)) {
    trip_breaker();
    EngineDecision fallback = fallback_decision();
    fallback.cache_hit = decision.cache_hit;
    fallback.score_seconds = decision.score_seconds;
    // Keep the rejected predictions visible to callers for diagnostics.
    fallback.predictions.assign(scored.begin(), scored.end());
    return fallback;
  }
  if (!pending_hit_) {
    // The memo stores its own copy; the runtime's batch buffer is reused.
    encoder_.insert(pending_window_, encoding);
  }
  if (breaker_ == BreakerState::kHalfOpen) {
    breaker_ = BreakerState::kClosed;
    ++breaker_resets_;
    reset_counter_->add();
  }

  OptimizerOptions opt;
  opt.slo_s = options_.slo_s;
  opt.gamma = options_.gamma;
  opt.percentile_index = options_.percentile_index;
  {
    obs::Span span("core.engine.search");
    const auto search_start = std::chrono::steady_clock::now();
    decision.choice = select_config(scored, scorer_.configs(), opt);
    decision.search_seconds = seconds_since(search_start);
  }
  search_hist_->observe(decision.search_seconds);
  // EngineDecision owns its prediction vector (callers move it into
  // OptimizationOutcome), so the scorer's scratch is copied out here — the
  // one per-tick PredictionTarget copy the public API mandates.
  decision.predictions.assign(scored.begin(), scored.end());
  last_good_ = decision.choice.config;
  return decision;
}

void DecisionEngine::save_state(sim::CheckpointWriter& w) const {
  DEEPBAT_CHECK(!pending_,
                "DecisionEngine: save_state() between begin()/finish()");
  encoder_.save_state(w);
  w.u8(static_cast<std::uint8_t>(breaker_));
  w.u64(cooldown_left_);
  w.boolean(last_good_.has_value());
  if (last_good_.has_value()) sim::save_config(w, *last_good_);
  w.u64(breaker_trips_);
  w.u64(breaker_resets_);
  w.u64(fallback_decisions_);
}

void DecisionEngine::restore_state(sim::CheckpointReader& r) {
  DEEPBAT_CHECK(!pending_,
                "DecisionEngine: restore_state() between begin()/finish()");
  encoder_.restore_state(r);
  const std::uint8_t breaker = r.u8();
  DEEPBAT_CHECK(breaker <= static_cast<std::uint8_t>(BreakerState::kHalfOpen),
                "DecisionEngine: corrupt breaker state in checkpoint");
  breaker_ = static_cast<BreakerState>(breaker);
  cooldown_left_ = static_cast<std::size_t>(r.u64());
  last_good_.reset();
  if (r.boolean()) last_good_ = sim::restore_config(r);
  breaker_trips_ = static_cast<std::size_t>(r.u64());
  breaker_resets_ = static_cast<std::size_t>(r.u64());
  fallback_decisions_ = static_cast<std::size_t>(r.u64());
}

EngineDecision DecisionEngine::decide(const workload::Trace& history,
                                      double now) {
  const Prepared prepared = begin(history, now);
  if (!prepared.needs_encoding) return finish({});
  e1_scratch_.resize(encoder_.encoding_dim());  // member scratch: no per-tick
                                                // allocation on misses
  double encode_seconds = 0.0;
  {
    obs::Span span("core.engine.encode");
    const auto encode_start = std::chrono::steady_clock::now();
    encoder_.forward_single(prepared.window, e1_scratch_);
    encode_seconds = seconds_since(encode_start);
  }
  encode_hist_->observe(encode_seconds);
  EngineDecision decision = finish(e1_scratch_);
  decision.encode_seconds = encode_seconds;
  return decision;
}

// --------------------------------------------------------- batch encoder --

std::size_t SurrogateBatchEncoder::window_length() const {
  return static_cast<std::size_t>(surrogate_.config().sequence_length);
}

std::size_t SurrogateBatchEncoder::encoding_dim() const {
  return static_cast<std::size_t>(surrogate_.config().model_dim);
}

void SurrogateBatchEncoder::encode(std::span<const float> windows,
                                   std::size_t count, std::span<float> out) {
  const std::size_t l = window_length();
  const std::size_t d = encoding_dim();
  DEEPBAT_CHECK(count > 0, "SurrogateBatchEncoder: empty batch");
  DEEPBAT_CHECK(windows.size() == count * l,
                "SurrogateBatchEncoder: window buffer size mismatch");
  DEEPBAT_CHECK(out.size() == count * d,
                "SurrogateBatchEncoder: output buffer size mismatch");
  nn::NoGradGuard no_grad;
  nn::arena::Scope arena_scope;
  nn::Tensor seq({static_cast<std::int64_t>(count),
                  surrogate_.config().sequence_length, 1});
  std::copy(windows.begin(), windows.end(), seq.data());
  const nn::Tensor e1 = surrogate_.encode_sequence(seq);
  std::copy(e1.data(), e1.data() + out.size(), out.begin());
  count_call(count);
}

// ---------------------------------------------------------- batch scorer --

SurrogateBatchScorer::SurrogateBatchScorer(const Surrogate& surrogate,
                                           std::vector<lambda::Config> configs,
                                           ScoringPrecision /*precision*/)
    : surrogate_(surrogate), configs_(std::move(configs)) {
  DEEPBAT_CHECK(!configs_.empty(), "SurrogateBatchScorer: empty config grid");
  cache_ = surrogate_.make_scoring_cache(configs_);
}

std::size_t SurrogateBatchScorer::encoding_dim() const {
  return static_cast<std::size_t>(surrogate_.config().model_dim);
}

std::size_t SurrogateBatchScorer::grid_size() const {
  return configs_.size();
}

std::size_t SurrogateBatchScorer::target_dim() const { return kTargetDim; }

void SurrogateBatchScorer::score(std::span<const float> e1_rows,
                                 std::size_t count, std::span<float> out) {
  surrogate_.predict_grid_from_e1_batch(e1_rows, count, cache_, out);
  count_call(count);
}

}  // namespace deepbat::core
