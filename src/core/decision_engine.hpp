#pragma once
// The staged DeepBAT control plane (paper Fig. 2, restructured as an
// explicit pipeline):
//
//   WindowParser     — slice the last l inter-arrival gaps before `now`
//                      from the history, left-pad short windows, encode.
//   SequenceEncoder  — the expensive stage: one Surrogate::encode_sequence
//                      per tick, behind a last-window memo so an idle
//                      tenant's repeated window skips the Transformer
//                      forward entirely.
//   GridScorer       — the cheap per-config head: broadcast E_1 over the
//                      candidate grid and predict (cost, percentiles).
//   Policy           — gamma-tightened feasibility scan + cost argmin
//                      (select_config / common GridSearch).
//
// The engine exposes both a one-shot decide() and a split begin()/finish()
// pair; the split form lets sim::Runtime batch the encoder stage of many
// tenants into a single forward (one [k, l, 1] encode_sequence per control
// tick for the whole fleet). DeepBatController is a thin adapter over this
// class.

#include <optional>
#include <span>
#include <vector>

#include "core/optimizer.hpp"
#include "obs/metrics.hpp"
#include "sim/runtime.hpp"

namespace deepbat::core {

/// Stage 1 — the Workload Parser's window slicing + padding + encoding.
class WindowParser {
 public:
  WindowParser(std::size_t window_length, double pad_gap_s);

  /// The encoded window for a decision at `now`. The returned span points
  /// into an internal buffer that stays valid until the next parse().
  std::span<const float> parse(const workload::Trace& history, double now);

  std::size_t window_length() const { return window_length_; }
  double pad_gap_s() const { return pad_gap_s_; }

 private:
  std::size_t window_length_;
  double pad_gap_s_;
  std::vector<float> encoded_;
};

/// Stage 2 — encode-once behind a last-window memo. A probe hits when the
/// window equals (float ==, element by element) the last window inserted,
/// which is exactly the tick of an idle tenant: Trace::window_before reads
/// only arrivals before `now`, so a tenant with no new arrivals re-parses
/// the identical window. Any other window misses, so A -> B -> A misses on
/// the third probe. Probes feed the core.encoder.* registry metrics
/// (DESIGN.md §9).
class SequenceEncoder {
 public:
  explicit SequenceEncoder(const Surrogate& surrogate);

  /// The memoised E_1 row when `window` equals the last inserted window, or
  /// nullptr on a miss (counts the probe).
  const std::vector<float>* lookup(std::span<const float> window);

  /// Memoise an externally computed E_1 row (e.g. from the runtime's shared
  /// batched forward) in place of the previous memo, and return a span of
  /// the stored copy, valid until the next insert(), rebind() or restore.
  std::span<const float> insert(std::span<const float> window,
                                std::span<const float> e1);

  /// Encode one window with a single [1, l, 1] forward (no memo update;
  /// callers pair this with insert()).
  void forward_single(std::span<const float> window,
                      std::span<float> out) const;

  /// Point the encoder at a new surrogate version (learn/ hot-swap,
  /// DESIGN.md §14). The memoised E_1 row was computed by the old weights,
  /// so the memo is dropped; the cumulative hit/miss counters survive —
  /// they describe the tenant, not the model. The new surrogate must share
  /// sequence_length and model_dim with the old one.
  void rebind(const Surrogate& surrogate);

  /// Checkpoint the memo and the cumulative probe counters (DESIGN.md §16).
  void save_state(sim::CheckpointWriter& w) const;
  void restore_state(sim::CheckpointReader& r);

  std::size_t window_length() const;
  std::size_t encoding_dim() const;
  std::size_t cache_hits() const { return hits_; }
  std::size_t cache_misses() const { return misses_; }

 private:
  const Surrogate* surrogate_;  // rebindable (hot-swap); never null
  std::vector<float> window_;   // memoised window; empty when none
  std::vector<float> e1_;       // its E_1 row
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  obs::Counter* hit_counter_;   // core.encoder.cache_hit
  obs::Counter* miss_counter_;  // core.encoder.cache_miss
};

/// Stage 3 — per-config scoring off one E_1 row (the millisecond path the
/// paper's §IV-F speedup rests on). Holds a GridScoringCache so the feature
/// branch and head-weight slices are computed once instead of per tick, and
/// a PredictionTarget scratch buffer so steady-state scoring allocates
/// nothing (DESIGN.md §12). The cache is built on the first score(): a
/// controller whose runtime scores its grid in the shared fused pass only
/// ever calls unpack() and never pays for one.
class GridScorer {
 public:
  GridScorer(const Surrogate& surrogate, std::vector<lambda::Config> configs);

  /// Score the grid against one E_1 row. The returned span points into the
  /// scorer's scratch buffer and stays valid until the next score() /
  /// unpack() call on this scorer.
  std::span<const PredictionTarget> score(std::span<const float> e1) const;

  /// Unpack raw fused-scoring output (grid_size * kTargetDim floats, e.g.
  /// one tenant's slice of a runtime batch) into the scratch buffer.
  std::span<const PredictionTarget> unpack(std::span<const float> raw) const;

  /// Point the scorer at a new surrogate version (learn/ hot-swap): the
  /// precomputed feature branch and head slices came from the old weights,
  /// so the scoring cache is dropped and rebuilt on the next score().
  void rebind(const Surrogate& surrogate);

  const std::vector<lambda::Config>& configs() const { return configs_; }

 private:
  /// The scoring cache, built on first use. A scorer belongs to one
  /// controller, which only one runtime shard drives at a time, so the
  /// lazy build in a const call needs no synchronization.
  GridScoringCache& ensure_cache() const;

  const Surrogate* surrogate_;  // rebindable (hot-swap); never null
  std::vector<lambda::Config> configs_;
  mutable std::optional<GridScoringCache> cache_;
  mutable std::vector<PredictionTarget> scored_;  // reused across ticks
};

/// Sanity bounds on surrogate output (DESIGN.md §11). A prediction batch
/// violating them trips the engine's circuit breaker: the engine stops
/// trusting the surrogate for `cooldown_ticks` decisions and falls back to
/// the last-known-good configuration (cold fallback: the most conservative
/// grid point) instead of chasing garbage.
///
/// The default margins are deliberately loose: an UNTRAINED surrogate
/// legitimately emits small negative costs (~1e-6 USD after the 1e6 output
/// scaling) and percentile vectors that wobble by a second or two, and the
/// training/eval tests exercise exactly that regime. The breaker is for
/// structurally broken output — NaN/Inf (always trips), wildly negative
/// cost, grossly decreasing percentile curves — not for model error.
struct SurrogateGuardOptions {
  bool enabled = true;
  /// Trip when any predicted cost_usd_per_request is below this.
  double cost_floor_usd = -1e-3;
  /// Trip when latency_s[i] < latency_s[i-1] - margin for any i (the
  /// percentile vector must be monotone up to this tolerance).
  double monotone_margin_s = 10.0;
  /// Decisions served from the fallback config while the breaker is open;
  /// after the cooldown one probe decision re-runs the surrogate
  /// (half-open) and either closes the breaker or re-trips it.
  std::size_t cooldown_ticks = 4;
};

struct DecisionEngineOptions {
  double slo_s = 0.1;
  double gamma = 0.0;  // penalty factor (see §III-D); set after fine-tuning
  lambda::ConfigGrid grid = lambda::ConfigGrid::standard();
  /// Heterogeneous serving backend (DESIGN.md §13). When set it WINS over
  /// `grid`: the engine scores this backend's own config_grid(), so a
  /// GPU-tier engine never scores CPU configs — the capacity knob means
  /// vCPU-share MB on one backend and SM% on the other. Borrowed; the
  /// caller keeps it alive for the engine's lifetime.
  const lambda::Backend* backend = nullptr;
  /// Gap value used to left-pad windows with fewer arrivals than l
  /// (paper §III-A: "techniques for padding ... can be used"). A large gap
  /// reads as "no traffic".
  double pad_gap_s = 10.0;
  std::size_t percentile_index = kSloPercentileIndex;
  /// Surrogate output guardrails + circuit breaker (DESIGN.md §11).
  SurrogateGuardOptions guard;
};

struct EngineDecision {
  OptimizedChoice choice;
  /// Surrogate predictions for the full grid (same order as configs()).
  /// On a fallback decision these are the REJECTED predictions when the
  /// guard tripped this tick, empty when the breaker bypassed the surrogate.
  std::vector<PredictionTarget> predictions;
  /// True when the surrogate was not trusted for this decision: the choice
  /// is the last-known-good (or conservative) config, not an optimum.
  bool fallback = false;
  bool cache_hit = false;
  double encode_seconds = 0.0;  // 0 on a cache hit or a batched encode
  double score_seconds = 0.0;
  double search_seconds = 0.0;
};

class DecisionEngine {
 public:
  DecisionEngine(const Surrogate& surrogate, DecisionEngineOptions options);

  /// One-shot decision: parse -> encode (memo / single forward) -> score
  /// -> select.
  EngineDecision decide(const workload::Trace& history, double now);

  /// Split-phase decision for the multi-tenant runtime: begin() parses and
  /// probes the memo; when it asks for an encoding, the caller computes it
  /// (possibly batched with other tenants) and passes the E_1 row to
  /// finish(). begin()/finish() must alternate strictly.
  struct Prepared {
    bool needs_encoding = false;
    std::span<const float> window;  // valid until finish() returns
    /// True when the circuit breaker is open: parse/encode/score are all
    /// skipped and finish() returns the fallback decision.
    bool bypassed = false;
    /// On a memo hit: the memoised E_1 row, so a batching runtime can
    /// include this tenant in its fused grid-scoring pass without
    /// re-encoding. Valid until finish()/finish_scored() returns.
    std::span<const float> cached_encoding;
  };
  Prepared begin(const workload::Trace& history, double now);
  EngineDecision finish(std::span<const float> encoding);

  /// finish() variant for runtimes that already scored the grid through the
  /// fused batch pass (SurrogateBatchScorer): `raw_predictions` holds this
  /// tenant's grid slice (configs().size() * kTargetDim floats). The guard,
  /// memo-insert ordering (guard BEFORE insert), breaker transitions, and
  /// policy stage are identical to finish(); only the scoring stage is
  /// skipped. Must not be called on a bypassed tick (use finish()).
  EngineDecision finish_scored(std::span<const float> encoding,
                               std::span<const float> raw_predictions);

  /// True iff `predictions` pass the guard's sanity bounds (all entries
  /// finite, cost above the floor, percentile vectors monotone within the
  /// margin). Exposed for tests and external validators.
  static bool guard_ok(std::span<const PredictionTarget> predictions,
                       const SurrogateGuardOptions& guard);
  static bool guard_ok(std::initializer_list<PredictionTarget> predictions,
                       const SurrogateGuardOptions& guard) {
    return guard_ok(
        std::span<const PredictionTarget>(predictions.begin(),
                                          predictions.size()),
        guard);
  }

  /// Hot-swap the surrogate behind the engine (learn/ versioned store,
  /// DESIGN.md §14): the encoder drops its now-stale window memo, the
  /// scorer rebuilds its precomputed grid cache from the new weights, and
  /// the breaker moves to HalfOpen — the swap is an assertion that the new
  /// model is better, not proof, so the very next decision probes it once
  /// before it is fully trusted. Must not be called between begin() and
  /// finish(); the new surrogate must match the old one's dimensions.
  void rebind_surrogate(const Surrogate& surrogate);

  /// External staleness signal (learn::DriftMonitor): observed outcomes
  /// persistently diverge from the surrogate's predictions. Structural
  /// guard_ok() cannot see that kind of failure — the predictions are
  /// well-formed, just wrong — so drift trips the breaker through this
  /// entry instead. No-op when the guard layer is disabled or the breaker
  /// is already open; must not be called between begin() and finish().
  void report_staleness();

  // --- breaker observability ---
  bool breaker_open() const { return breaker_ != BreakerState::kClosed; }
  std::size_t breaker_trips() const { return breaker_trips_; }
  std::size_t breaker_resets() const { return breaker_resets_; }
  std::size_t fallback_decisions() const { return fallback_decisions_; }

  void set_gamma(double gamma);
  double gamma() const { return options_.gamma; }
  /// Swap the guard bounds at runtime: operators can tighten or loosen the
  /// sanity margins without rebuilding the engine (tests use an impossible
  /// floor to force deterministic trips). Does not touch breaker state.
  void set_guard(const SurrogateGuardOptions& guard) {
    options_.guard = guard;
  }
  const DecisionEngineOptions& options() const { return options_; }

  /// Checkpoint the engine's replay-relevant state: the encoder memo, the
  /// circuit breaker (state, cooldown, last-known-good config), and the
  /// cumulative breaker counters. The surrogate weights are NOT serialized
  /// here — the owner restores the engine against the same (or the learn/
  /// store's restored) surrogate. Must not be called between begin() and
  /// finish().
  void save_state(sim::CheckpointWriter& w) const;
  void restore_state(sim::CheckpointReader& r);

  std::size_t window_length() const { return parser_.window_length(); }
  std::size_t encoding_dim() const { return encoder_.encoding_dim(); }
  const std::vector<lambda::Config>& configs() const {
    return scorer_.configs();
  }
  const SequenceEncoder& encoder() const { return encoder_; }

 private:
  /// Closed = trusting the surrogate; Open = serving the fallback config
  /// for the cooldown; HalfOpen = next decision probes the surrogate once.
  enum class BreakerState { kClosed, kOpen, kHalfOpen };

  EngineDecision fallback_decision();
  void trip_breaker();
  /// Shared tail of finish()/finish_scored(): guard, memo insert, breaker
  /// reset, policy. `scored` points into the scorer's scratch buffer.
  EngineDecision complete(std::span<const float> encoding,
                          std::span<const PredictionTarget> scored,
                          double score_seconds);

  DecisionEngineOptions options_;
  WindowParser parser_;
  SequenceEncoder encoder_;
  GridScorer scorer_;
  // Stage-latency histograms (core.engine.*_seconds, DESIGN.md §9);
  // registry handles cached for the hot tick path.
  obs::Histogram* parse_hist_;
  obs::Histogram* encode_hist_;
  obs::Histogram* score_hist_;
  obs::Histogram* search_hist_;
  // Breaker counters (core.engine.fallback_*).
  obs::Counter* trip_counter_;
  obs::Counter* fallback_counter_;
  obs::Counter* reset_counter_;
  // Pending state between begin() and finish().
  std::span<const float> pending_window_;
  std::span<const float> pending_e1_;  // set on a memo hit
  bool pending_ = false;
  bool pending_hit_ = false;
  bool pending_bypass_ = false;
  std::vector<float> e1_scratch_;  // decide()'s encode output, reused
  // Breaker state.
  BreakerState breaker_ = BreakerState::kClosed;
  std::size_t cooldown_left_ = 0;
  std::optional<lambda::Config> last_good_;
  lambda::Config conservative_;  // cold fallback: most conservative grid pt
  std::size_t breaker_trips_ = 0;
  std::size_t breaker_resets_ = 0;
  std::size_t fallback_decisions_ = 0;
};

/// sim::BatchEncoder over the surrogate: encodes k tenant windows in one
/// [k, l, 1] encode_sequence call. The kernels' per-row determinism makes
/// each row bit-identical to a solo [1, l, 1] encode, which is what keeps
/// multi-tenant runs bit-identical to independent single-tenant replays.
///
/// Shard safety: one instance serves every runtime shard concurrently — the
/// forward reads a const model under thread-local NoGradGuard/arena scopes,
/// keeps its scratch tensor on the stack, and the base-class call counters
/// are relaxed atomics. (Each tenant's SequenceEncoder memo, by contrast,
/// is single-writer: a tenant belongs to exactly one shard.)
class SurrogateBatchEncoder final : public sim::BatchEncoder {
 public:
  explicit SurrogateBatchEncoder(const Surrogate& surrogate)
      : surrogate_(surrogate) {}

  std::size_t window_length() const override;
  std::size_t encoding_dim() const override;
  void encode(std::span<const float> windows, std::size_t count,
              std::span<float> out) override;

 private:
  const Surrogate& surrogate_;
};

/// sim::BatchScorer over the surrogate's fused grid-scoring pass: scores k
/// tenants' E_1 rows against the whole config grid in one
/// predict_grid_from_e1_batch call (DESIGN.md §12). Row r of the output is
/// bit-identical to scoring row r alone and to the composed autograd head,
/// which is what keeps multi-tenant batched-scoring runs replay-invariant.
///
/// Shard safety: score() reads the model and the scoring cache const (the
/// per-call scratch lives in thread-local arenas), so one instance may
/// serve concurrent runtime shards.
class SurrogateBatchScorer final : public sim::BatchScorer {
 public:
  /// `precision` is always kFp32, the one scoring arithmetic.
  SurrogateBatchScorer(const Surrogate& surrogate,
                       std::vector<lambda::Config> configs,
                       ScoringPrecision precision = ScoringPrecision::kFp32);

  std::size_t encoding_dim() const override;
  std::size_t grid_size() const override;
  std::size_t target_dim() const override;
  void score(std::span<const float> e1_rows, std::size_t count,
             std::span<float> out) override;

 private:
  const Surrogate& surrogate_;
  std::vector<lambda::Config> configs_;
  GridScoringCache cache_;
};

}  // namespace deepbat::core
