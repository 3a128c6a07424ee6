#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "core/decision_engine.hpp"
#include "workload/synth.hpp"

namespace deepbat::core {
namespace {

SurrogateConfig tiny_config() {
  SurrogateConfig cfg;
  cfg.sequence_length = 16;
  cfg.dropout = 0.0F;
  return cfg;
}

DecisionEngineOptions small_options() {
  DecisionEngineOptions opts;
  opts.grid = lambda::ConfigGrid::small();
  return opts;
}

TEST(WindowParserTest, PadsEmptyHistory) {
  WindowParser parser(8, 10.0);
  const workload::Trace empty;
  const auto window = parser.parse(empty, 5.0);
  ASSERT_EQ(window.size(), 8u);
  const float pad = encode_gap(10.0);
  for (const float v : window) EXPECT_EQ(v, pad);
}

TEST(WindowParserTest, PadsShortHistoryOnTheLeft) {
  WindowParser parser(4, 10.0);
  // Two arrivals -> one real gap; the rest of the window is pad values.
  const workload::Trace thin({0.0, 0.5});
  const auto window = parser.parse(thin, 1.0);
  ASSERT_EQ(window.size(), 4u);
  const float pad = encode_gap(10.0);
  EXPECT_EQ(window[0], pad);
  EXPECT_EQ(window[1], pad);
  EXPECT_EQ(window[2], pad);
  EXPECT_EQ(window[3], encode_gap(0.5));
}

TEST(WindowParserTest, ExactlyFullWindowHasNoPadding) {
  WindowParser parser(3, 10.0);
  const workload::Trace trace({0.0, 1.0, 1.5, 3.5});  // 3 gaps
  const auto window = parser.parse(trace, 4.0);
  ASSERT_EQ(window.size(), 3u);
  EXPECT_EQ(window[0], encode_gap(1.0));
  EXPECT_EQ(window[1], encode_gap(0.5));
  EXPECT_EQ(window[2], encode_gap(2.0));
}

TEST(DecisionEngineTest, DecidesOnEmptyHistory) {
  Surrogate model(tiny_config(), lambda::ConfigGrid::small());
  model.set_training(false);
  DecisionEngine engine(model, small_options());
  const workload::Trace empty;
  const auto decision = engine.decide(empty, 0.0);
  EXPECT_GE(decision.choice.config.batch_size, 1);
  EXPECT_EQ(decision.predictions.size(), engine.configs().size());
  EXPECT_FALSE(decision.cache_hit);
}

TEST(DecisionEngineTest, CacheHitsOnIdenticalWindow) {
  Surrogate model(tiny_config(), lambda::ConfigGrid::small());
  model.set_training(false);
  DecisionEngine engine(model, small_options());
  const workload::Trace trace({0.0, 0.5, 1.0});

  const auto first = engine.decide(trace, 2.0);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(engine.encoder().cache_misses(), 1u);
  EXPECT_EQ(engine.encoder().cache_hits(), 0u);

  // Same history and instant -> same window -> cache hit, same decision.
  const auto second = engine.decide(trace, 2.0);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(engine.encoder().cache_hits(), 1u);
  EXPECT_EQ(second.choice.config.memory_mb, first.choice.config.memory_mb);
  EXPECT_EQ(second.choice.config.batch_size, first.choice.config.batch_size);
  EXPECT_EQ(second.choice.config.timeout_s, first.choice.config.timeout_s);
  ASSERT_EQ(second.predictions.size(), first.predictions.size());
  for (std::size_t i = 0; i < first.predictions.size(); ++i) {
    EXPECT_EQ(second.predictions[i].cost_usd_per_request,
              first.predictions[i].cost_usd_per_request);
    EXPECT_EQ(second.predictions[i].p95(), first.predictions[i].p95());
  }
  EXPECT_EQ(second.encode_seconds, 0.0);  // no forward on a hit

  // A different window is a miss again.
  const workload::Trace other({0.0, 0.1, 0.2, 1.9});
  const auto third = engine.decide(other, 2.0);
  EXPECT_FALSE(third.cache_hit);
  EXPECT_EQ(engine.encoder().cache_misses(), 2u);

  // The memo holds one window: going back to the first one (A -> B -> A)
  // misses, and re-encoding it reproduces the first decision exactly.
  const auto fourth = engine.decide(trace, 2.0);
  EXPECT_FALSE(fourth.cache_hit);
  EXPECT_EQ(engine.encoder().cache_misses(), 3u);
  EXPECT_EQ(engine.encoder().cache_hits(), 1u);
  EXPECT_EQ(fourth.choice.config, first.choice.config);
}

TEST(DecisionEngineTest, RebindDropsTheMemo) {
  Surrogate model(tiny_config(), lambda::ConfigGrid::small());
  model.set_training(false);
  DecisionEngine engine(model, small_options());
  const workload::Trace trace({0.0, 0.5, 1.0});
  engine.decide(trace, 2.0);
  EXPECT_TRUE(engine.decide(trace, 2.0).cache_hit);

  // The memoised E_1 row came from the old weights: after a hot-swap the
  // unchanged window must run through the new surrogate, which then
  // memoises it again. The probe counters describe the tenant and survive.
  Surrogate swapped(tiny_config(), lambda::ConfigGrid::small());
  swapped.set_training(false);
  engine.rebind_surrogate(swapped);
  EXPECT_FALSE(engine.decide(trace, 2.0).cache_hit);
  EXPECT_TRUE(engine.decide(trace, 2.0).cache_hit);
  EXPECT_EQ(engine.encoder().cache_hits(), 2u);
  EXPECT_EQ(engine.encoder().cache_misses(), 2u);
}

TEST(DecisionEngineTest, GammaTightenedInfeasibleGridFallsBackToFastest) {
  Surrogate model(tiny_config(), lambda::ConfigGrid::small());
  model.set_training(false);
  DecisionEngineOptions opts = small_options();
  // The untrained surrogate can predict negative latencies, so only a
  // negative SLO guarantees infeasibility (same idiom as the optimizer
  // tests); gamma tightening must not flip the sign of the verdict.
  opts.slo_s = -1e9;
  opts.gamma = 0.99;
  DecisionEngine engine(model, opts);
  const workload::Trace trace({0.0, 0.5, 1.0});
  const auto decision = engine.decide(trace, 2.0);
  EXPECT_FALSE(decision.choice.feasible);
  // Fallback picks the lowest predicted SLO-percentile latency.
  for (const auto& p : decision.predictions) {
    EXPECT_LE(decision.choice.prediction.p95(), p.p95() + 1e-12);
  }
}

TEST(DecisionEngineTest, SplitPhaseMatchesOneShot) {
  Surrogate model(tiny_config(), lambda::ConfigGrid::small());
  model.set_training(false);
  DecisionEngine one_shot(model, small_options());
  DecisionEngine split(model, small_options());
  const workload::Trace trace = workload::twitter_like({.hours = 0.01}, 3);

  for (const double now : {5.0, 10.0, 15.0, 20.0}) {
    const auto direct = one_shot.decide(trace, now);
    const auto prepared = split.begin(trace, now);
    std::vector<float> e1;
    if (prepared.needs_encoding) {
      e1.resize(split.encoding_dim());
      // Same single forward the runtime's batch encoder would issue.
      SurrogateBatchEncoder encoder(model);
      encoder.encode(prepared.window, 1, e1);
    }
    const auto phased = split.finish(e1);
    EXPECT_EQ(phased.choice.config.memory_mb, direct.choice.config.memory_mb);
    EXPECT_EQ(phased.choice.config.batch_size,
              direct.choice.config.batch_size);
    EXPECT_EQ(phased.choice.config.timeout_s, direct.choice.config.timeout_s);
  }
}

TEST(DecisionEngineTest, ProtocolViolationsThrow) {
  Surrogate model(tiny_config(), lambda::ConfigGrid::small());
  model.set_training(false);
  DecisionEngine engine(model, small_options());
  const workload::Trace trace({0.0, 0.5});
  EXPECT_THROW(engine.finish({}), Error);  // finish without begin
  const auto prepared = engine.begin(trace, 1.0);
  EXPECT_TRUE(prepared.needs_encoding);
  EXPECT_THROW(engine.begin(trace, 1.0), Error);  // begin twice
  EXPECT_THROW(engine.finish({}), Error);  // miss requires an encoding row
}

TEST(DecisionEngineTest, GammaValidation) {
  Surrogate model(tiny_config(), lambda::ConfigGrid::small());
  DecisionEngineOptions opts = small_options();
  opts.gamma = 1.5;
  EXPECT_THROW(DecisionEngine(model, opts), Error);
  DecisionEngine engine(model, small_options());
  engine.set_gamma(0.3);
  EXPECT_DOUBLE_EQ(engine.gamma(), 0.3);
  EXPECT_THROW(engine.set_gamma(-0.1), Error);
}

// ------------------------------------------- guardrails & breaker ------

PredictionTarget pt(double cost, std::array<double, 7> latency) {
  PredictionTarget p;
  p.cost_usd_per_request = cost;
  p.latency_s = latency;
  return p;
}

TEST(SurrogateGuardTest, GuardOkChecksFinitenessFloorAndMonotonicity) {
  SurrogateGuardOptions strict;
  strict.cost_floor_usd = 0.0;
  strict.monotone_margin_s = 0.0;
  const auto mono =
      pt(1e-6, {0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07});
  EXPECT_TRUE(DecisionEngine::guard_ok({mono}, strict));
  EXPECT_TRUE(DecisionEngine::guard_ok({}, strict));  // vacuously fine

  // Cost below the floor.
  EXPECT_FALSE(DecisionEngine::guard_ok(
      {pt(-1e-6, mono.latency_s)}, strict));

  // A dip in the percentile curve: rejected at zero margin, tolerated when
  // the margin covers it.
  const auto dip = pt(1e-6, {0.01, 0.02, 0.015, 0.04, 0.05, 0.06, 0.07});
  EXPECT_FALSE(DecisionEngine::guard_ok({dip}, strict));
  SurrogateGuardOptions tolerant = strict;
  tolerant.monotone_margin_s = 0.1;
  EXPECT_TRUE(DecisionEngine::guard_ok({dip}, tolerant));

  // Non-finite values trip regardless of how loose the margins are.
  SurrogateGuardOptions loose;  // defaults: floor -1e-3, margin 10 s
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(DecisionEngine::guard_ok({pt(nan, mono.latency_s)}, loose));
  EXPECT_FALSE(DecisionEngine::guard_ok(
      {pt(1e-6, {0.01, nan, 0.03, 0.04, 0.05, 0.06, 0.07})}, loose));
  EXPECT_FALSE(DecisionEngine::guard_ok(
      {pt(1e-6, {0.01, 0.02, inf, 0.04, 0.05, 0.06, 0.07})}, loose));
  // One bad prediction in a batch of good ones is enough.
  EXPECT_FALSE(
      DecisionEngine::guard_ok({mono, pt(nan, mono.latency_s)}, loose));
}

TEST(DecisionEngineTest, BreakerTripsOnGuardViolationAndRecovers) {
  Surrogate model(tiny_config(), lambda::ConfigGrid::small());
  model.set_training(false);
  DecisionEngineOptions opts = small_options();
  opts.guard.cooldown_ticks = 2;
  DecisionEngine engine(model, opts);
  const workload::Trace trace = workload::twitter_like({.hours = 0.01}, 3);

  // A healthy decision first, so the fallback has a last-known-good.
  const auto good = engine.decide(trace, 5.0);
  EXPECT_FALSE(good.fallback);
  EXPECT_FALSE(engine.breaker_open());

  // An impossible cost floor makes every real prediction a guard violation
  // — the deterministic stand-in for a surrogate emitting garbage.
  SurrogateGuardOptions broken = opts.guard;
  broken.cost_floor_usd = 1e9;
  engine.set_guard(broken);
  auto prepared = engine.begin(trace, 10.0);
  ASSERT_TRUE(prepared.needs_encoding);
  std::vector<float> row(engine.encoding_dim());
  SurrogateBatchEncoder batch_encoder(model);
  batch_encoder.encode(prepared.window, 1, row);
  const auto tripped = engine.finish(row);
  EXPECT_TRUE(tripped.fallback);
  EXPECT_FALSE(tripped.choice.feasible);
  EXPECT_TRUE(engine.breaker_open());
  EXPECT_EQ(engine.breaker_trips(), 1u);
  // Last-known-good config, and the rejected predictions stay visible.
  EXPECT_EQ(tripped.choice.config, good.choice.config);
  EXPECT_EQ(tripped.predictions.size(), engine.configs().size());

  // Open breaker: cooldown_ticks decisions are served from the fallback
  // without touching the parser, the cache, or the surrogate.
  const std::size_t hits0 = engine.encoder().cache_hits();
  const std::size_t misses0 = engine.encoder().cache_misses();
  for (int k = 0; k < 2; ++k) {
    const auto p = engine.begin(trace, 15.0 + 5.0 * k);
    EXPECT_TRUE(p.bypassed);
    EXPECT_FALSE(p.needs_encoding);
    const auto d = engine.finish({});
    EXPECT_TRUE(d.fallback);
    EXPECT_TRUE(d.predictions.empty());
    EXPECT_EQ(d.choice.config, good.choice.config);
  }
  EXPECT_EQ(engine.encoder().cache_hits(), hits0);
  EXPECT_EQ(engine.encoder().cache_misses(), misses0);
  EXPECT_EQ(engine.fallback_decisions(), 3u);  // trip tick + 2 bypassed

  // Cooldown over: the half-open probe re-runs the surrogate, and output
  // that passes the (restored) guard closes the breaker. The probe parses
  // the very window the guard rejected at t = 10: a rejected window is
  // never memoised, so it misses and is encoded afresh.
  engine.set_guard(opts.guard);
  const auto probe = engine.begin(trace, 10.0);
  EXPECT_FALSE(probe.bypassed);
  ASSERT_TRUE(probe.needs_encoding);
  EXPECT_EQ(engine.encoder().cache_misses(), misses0 + 1);
  std::vector<float> e1(engine.encoding_dim());
  SurrogateBatchEncoder encoder(model);
  encoder.encode(probe.window, 1, e1);
  const auto recovered = engine.finish(e1);
  EXPECT_FALSE(recovered.fallback);
  EXPECT_FALSE(engine.breaker_open());
  EXPECT_EQ(engine.breaker_resets(), 1u);
  EXPECT_EQ(engine.breaker_trips(), 1u);
}

TEST(DecisionEngineTest, ColdFallbackIsConservativeAndHalfOpenCanRetrip) {
  Surrogate model(tiny_config(), lambda::ConfigGrid::small());
  model.set_training(false);
  DecisionEngineOptions opts = small_options();
  opts.guard.cooldown_ticks = 1;
  opts.guard.cost_floor_usd = 1e9;  // every real prediction violates this
  DecisionEngine engine(model, opts);
  const workload::Trace trace({0.0, 0.5, 1.0});

  // Tripping before any decision ever succeeded: the fallback is the most
  // conservative grid point (max memory, smallest batch, shortest timeout).
  const auto tripped = engine.decide(trace, 2.0);
  lambda::Config conservative = engine.configs().front();
  for (const lambda::Config& c : engine.configs()) {
    conservative.memory_mb = std::max(conservative.memory_mb, c.memory_mb);
    conservative.batch_size = std::min(conservative.batch_size, c.batch_size);
    conservative.timeout_s = std::min(conservative.timeout_s, c.timeout_s);
  }
  EXPECT_TRUE(tripped.fallback);
  EXPECT_EQ(tripped.choice.config, conservative);
  EXPECT_EQ(engine.breaker_trips(), 1u);

  // One bypassed tick, then the half-open probe still violates the guard:
  // the breaker re-trips instead of closing.
  EXPECT_TRUE(engine.begin(trace, 3.0).bypassed);
  engine.finish({});
  auto probe = engine.begin(trace, 4.0);
  EXPECT_FALSE(probe.bypassed);
  ASSERT_TRUE(probe.needs_encoding);  // the rejected row was never cached
  std::vector<float> row(engine.encoding_dim());
  SurrogateBatchEncoder encoder(model);
  encoder.encode(probe.window, 1, row);
  const auto retripped = engine.finish(row);
  EXPECT_TRUE(retripped.fallback);
  EXPECT_TRUE(engine.breaker_open());
  EXPECT_EQ(engine.breaker_trips(), 2u);
  EXPECT_EQ(engine.breaker_resets(), 0u);

  // Restore a sane guard: after the cooldown the probe closes the breaker,
  // and only now does the (identical) window enter the cache — a follow-up
  // decide() is a clean hit, proof the rejected rows never poisoned it.
  SurrogateGuardOptions sane = opts.guard;
  sane.cost_floor_usd = -1e-3;
  engine.set_guard(sane);
  EXPECT_TRUE(engine.begin(trace, 5.0).bypassed);
  engine.finish({});
  auto probe2 = engine.begin(trace, 6.0);
  ASSERT_TRUE(probe2.needs_encoding);
  encoder.encode(probe2.window, 1, row);
  const auto recovered = engine.finish(row);
  EXPECT_FALSE(recovered.fallback);
  EXPECT_EQ(engine.breaker_resets(), 1u);
  const auto after = engine.decide(trace, 7.0);
  EXPECT_TRUE(after.cache_hit);
  EXPECT_FALSE(after.fallback);
}

TEST(DecisionEngineTest, GuardDisabledNeverTrips) {
  Surrogate model(tiny_config(), lambda::ConfigGrid::small());
  model.set_training(false);
  DecisionEngineOptions opts = small_options();
  opts.guard.enabled = false;
  opts.guard.cost_floor_usd = 1e9;  // would trip every decision if enabled
  DecisionEngine engine(model, opts);
  const workload::Trace trace({0.0, 0.5, 1.0});
  const auto decision = engine.decide(trace, 2.0);
  EXPECT_FALSE(decision.fallback);
  EXPECT_FALSE(engine.breaker_open());
  EXPECT_EQ(engine.breaker_trips(), 0u);
}

TEST(SurrogateBatchEncoderTest, BatchedRowsBitIdenticalToSoloForwards) {
  Surrogate model(tiny_config(), lambda::ConfigGrid::small());
  model.set_training(false);
  SurrogateBatchEncoder encoder(model);
  const std::size_t l = encoder.window_length();
  const std::size_t d = encoder.encoding_dim();

  // Three distinct windows batched together...
  std::vector<float> windows(3 * l);
  for (std::size_t k = 0; k < 3; ++k) {
    for (std::size_t i = 0; i < l; ++i) {
      windows[k * l + i] = encode_gap(0.1 + 0.3 * static_cast<double>(k) +
                                      0.01 * static_cast<double>(i));
    }
  }
  std::vector<float> batched(3 * d);
  encoder.encode(windows, 3, batched);

  // ...must match each window encoded alone, bit for bit (the kernels'
  // per-row determinism contract the multi-tenant runtime relies on).
  for (std::size_t k = 0; k < 3; ++k) {
    std::vector<float> solo(d);
    encoder.encode({windows.data() + k * l, l}, 1, solo);
    for (std::size_t j = 0; j < d; ++j) {
      EXPECT_EQ(solo[j], batched[k * d + j]) << "row " << k << " dim " << j;
    }
  }
  EXPECT_EQ(encoder.calls(), 4u);
  EXPECT_EQ(encoder.windows_encoded(), 6u);
}

}  // namespace
}  // namespace deepbat::core
