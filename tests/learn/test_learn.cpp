// The online-learning loop's contract (DESIGN.md §14): the versioned store
// swaps atomically while readers score through it; reservoir sampling and
// shadow evaluation are seeded/deterministic (ties keep the incumbent);
// background (pool) and inline retraining produce bit-identical candidates;
// and an AdaptiveController replay — with its drift trips, retrains, and
// hot-swaps — is bit-reproducible, shard-invariant, and collapses to a
// plain DeepBatController replay when nothing drifts.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/controller.hpp"
#include "learn/adaptive_controller.hpp"
#include "learn/drift.hpp"
#include "learn/harvester.hpp"
#include "learn/retrainer.hpp"
#include "learn/shadow.hpp"
#include "learn/store.hpp"
#include "sim/runtime.hpp"

namespace deepbat::learn {
namespace {

core::SurrogateConfig tiny_config(std::uint64_t init_seed = 1234) {
  core::SurrogateConfig cfg;
  cfg.sequence_length = 16;
  cfg.dropout = 0.0F;
  cfg.init_seed = init_seed;
  return cfg;
}

std::vector<lambda::Config> small_grid() {
  return lambda::ConfigGrid::small().enumerate();
}

/// Deterministic pseudo-random sample in the surrogate's input/target
/// encoding (window of encoded gaps, raw {M, B, T} features, 8-dim target).
nn::Sample synth_sample(Rng& rng, const lambda::Config& config) {
  nn::Sample s;
  s.sequence.resize(16);
  for (float& v : s.sequence) v = static_cast<float>(rng.uniform());
  s.features = core::encode_features(config);
  s.target.resize(core::kTargetDim);
  for (float& v : s.target) v = static_cast<float>(rng.uniform(0.01, 1.0));
  return s;
}

sim::RequestRecord request(double arrival, double dispatch, double completion,
                           double cost_share) {
  sim::RequestRecord r;
  r.arrival = arrival;
  r.dispatch = dispatch;
  r.completion = completion;
  r.batch_actual = 1;
  r.cost_share = cost_share;
  return r;
}

// ---------------------------------------------------------- harvesting --

TEST(ObservedTarget, MatchesOfflineTargetRecipe) {
  std::vector<sim::RequestRecord> reqs;
  for (int i = 0; i < 20; ++i) {
    const double arrival = 0.1 * i;
    reqs.push_back(request(arrival, arrival + 0.01, arrival + 0.02 + 0.005 * i,
                           2e-6 + 1e-7 * i));
  }
  const core::PredictionTarget t = observed_target(reqs);
  // Mean per-request cost share.
  double cost = 0.0;
  for (const auto& r : reqs) cost += r.cost_share;
  EXPECT_DOUBLE_EQ(t.cost_usd_per_request, cost / reqs.size());
  // Percentiles are monotone and bracketed by the latency extremes.
  for (std::size_t i = 1; i < core::kPercentiles.size(); ++i) {
    EXPECT_GE(t.latency_s[i], t.latency_s[i - 1]);
  }
  EXPECT_GE(t.latency_s[0], reqs.front().latency());
  EXPECT_LE(t.latency_s.back(), reqs.back().latency());
}

TEST(SampleHarvester, ReservoirIsSeededAndDeterministic) {
  HarvestOptions opts;
  opts.capacity = 16;
  opts.holdout_every = 4;
  opts.holdout_capacity = 8;
  opts.seed = 42;

  const auto feed = [&](SampleHarvester& h) {
    Rng rng(7);  // the sample STREAM is fixed; only reservoir draws differ
    for (int i = 0; i < 200; ++i) {
      const nn::Sample s = synth_sample(rng, {1024, 4, 0.05});
      core::PredictionTarget target;
      target.cost_usd_per_request = s.target[0];
      h.add(s.sequence, {1024, 4, 0.05}, target);
    }
  };

  SampleHarvester a(opts);
  SampleHarvester b(opts);
  feed(a);
  feed(b);
  ASSERT_EQ(a.train_size(), b.train_size());
  const nn::Dataset da = a.train_dataset();
  const nn::Dataset db = b.train_dataset();
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].sequence, db[i].sequence) << "slot " << i;
  }

  HarvestOptions other = opts;
  other.seed = 43;
  SampleHarvester c(other);
  feed(c);
  ASSERT_EQ(a.train_size(), c.train_size());
  const nn::Dataset dc = c.train_dataset();
  bool any_differs = false;
  for (std::size_t i = 0; i < da.size() && !any_differs; ++i) {
    any_differs = da[i].sequence != dc[i].sequence;
  }
  EXPECT_TRUE(any_differs) << "different seeds retained identical reservoirs";
}

TEST(SampleHarvester, HoldoutRingDivertsEveryNthOldestFirst) {
  HarvestOptions opts;
  opts.capacity = 64;
  opts.holdout_every = 2;   // every 2nd sample is held out
  opts.holdout_capacity = 3;
  SampleHarvester h(opts);

  for (int i = 1; i <= 10; ++i) {
    nn::Sample s;
    core::PredictionTarget target;
    target.cost_usd_per_request = static_cast<double>(i);
    std::vector<float> window(16, static_cast<float>(i));
    h.add(window, {512, 1, 0.01}, target);
  }
  EXPECT_EQ(h.harvested(), 10u);
  // Held out: samples 2, 4, 6, 8, 10; ring of 3 keeps {6, 8, 10}.
  EXPECT_EQ(h.train_size(), 5u);
  const auto holdout = h.holdout();
  ASSERT_EQ(holdout.size(), 3u);
  EXPECT_FLOAT_EQ(holdout[0].sequence[0], 6.0F);
  EXPECT_FLOAT_EQ(holdout[1].sequence[0], 8.0F);
  EXPECT_FLOAT_EQ(holdout[2].sequence[0], 10.0F);
}

// --------------------------------------------------------------- store --

TEST(VersionedSurrogateStore, SwapWhileScoringIsRaceFree) {
  core::Surrogate incumbent(tiny_config(), lambda::ConfigGrid::small());
  incumbent.set_training(false);
  VersionedSurrogateStore store(&incumbent);
  const auto grid = small_grid();

  std::vector<float> window(16, 0.5F);
  std::atomic<bool> stop{false};
  std::atomic<int> scored{0};

  // Readers hammer current() -> predict_grid while the writer adopts new
  // versions. Superseded versions are retained, so a reader that loaded an
  // old pointer keeps scoring through valid weights.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const core::Surrogate* live = store.current();
        const auto predictions = live->predict_grid(window, grid);
        ASSERT_EQ(predictions.size(), grid.size());
        scored.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int v = 0; v < 3; ++v) {
    store.adopt(incumbent.clone(), 30.0 * (v + 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_GT(scored.load(), 0);
  EXPECT_EQ(store.version(), 3u);
  const auto swaps = store.swaps();
  ASSERT_EQ(swaps.size(), 3u);
  for (std::size_t i = 0; i < swaps.size(); ++i) {
    EXPECT_EQ(swaps[i].from_version, i);
    EXPECT_EQ(swaps[i].to_version, i + 1);
    EXPECT_DOUBLE_EQ(swaps[i].time, 30.0 * (i + 1));
  }
}

// --------------------------------------------------------------- clone --

TEST(SurrogateClone, PredictionsAreBitIdentical) {
  core::Surrogate original(tiny_config(), lambda::ConfigGrid::small());
  original.set_training(false);
  const auto copy = original.clone();
  const auto grid = small_grid();
  std::vector<float> window(16);
  Rng rng(3);
  for (float& v : window) v = static_cast<float>(rng.uniform());

  const auto a = original.predict_grid(window, grid);
  const auto b = copy->predict_grid(window, grid);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cost_usd_per_request, b[i].cost_usd_per_request);
    for (std::size_t p = 0; p < a[i].latency_s.size(); ++p) {
      EXPECT_EQ(a[i].latency_s[p], b[i].latency_s[p]);
    }
  }
}

// -------------------------------------------------------------- shadow --

TEST(ShadowEvaluator, TieKeepsTheIncumbent) {
  core::Surrogate incumbent(tiny_config(), lambda::ConfigGrid::small());
  incumbent.set_training(false);
  const auto candidate = incumbent.clone();

  Rng rng(11);
  std::vector<nn::Sample> holdout;
  for (int i = 0; i < 8; ++i) holdout.push_back(synth_sample(rng, {2048, 4, 0.05}));

  ShadowEvaluator shadow(ShadowOptions{}, small_grid());
  const ShadowReport report = shadow.evaluate(incumbent, *candidate, holdout);
  EXPECT_EQ(report.holdout_size, 8u);
  EXPECT_EQ(report.incumbent_mape_pct, report.candidate_mape_pct);
  EXPECT_DOUBLE_EQ(report.argmin_agreement, 1.0);
  EXPECT_FALSE(report.candidate_wins) << "an exact tie must not swap";
}

TEST(ShadowEvaluator, AccurateCandidateWins) {
  core::Surrogate incumbent(tiny_config(1), lambda::ConfigGrid::small());
  core::Surrogate oracle(tiny_config(2), lambda::ConfigGrid::small());
  incumbent.set_training(false);
  oracle.set_training(false);

  // Holdout targets are the ORACLE's own predictions, so its MAPE is
  // exactly zero while the differently-initialized incumbent's is not.
  Rng rng(5);
  std::vector<nn::Sample> holdout;
  const lambda::Config config{2048, 4, 0.05};
  for (int i = 0; i < 8; ++i) {
    nn::Sample s = synth_sample(rng, config);
    const auto pred = oracle.predict_grid(s.sequence, {&config, 1});
    s.target = core::pack_target(pred[0]);
    holdout.push_back(std::move(s));
  }

  ShadowEvaluator shadow(ShadowOptions{}, small_grid());
  const ShadowReport report = shadow.evaluate(incumbent, oracle, holdout);
  EXPECT_LT(report.candidate_mape_pct, report.incumbent_mape_pct);
  EXPECT_TRUE(report.candidate_wins);
}

TEST(ShadowEvaluator, ThinHoldoutHasNoVerdict) {
  core::Surrogate incumbent(tiny_config(1), lambda::ConfigGrid::small());
  core::Surrogate oracle(tiny_config(2), lambda::ConfigGrid::small());
  incumbent.set_training(false);
  oracle.set_training(false);
  Rng rng(5);
  const lambda::Config config{2048, 4, 0.05};
  nn::Sample s = synth_sample(rng, config);
  const auto pred = oracle.predict_grid(s.sequence, {&config, 1});
  s.target = core::pack_target(pred[0]);
  const std::vector<nn::Sample> holdout{s};

  ShadowOptions opts;
  opts.min_holdout = 4;
  ShadowEvaluator shadow(opts, small_grid());
  EXPECT_FALSE(shadow.evaluate(incumbent, oracle, holdout).candidate_wins);
}

// --------------------------------------------------------------- drift --

TEST(DriftMonitor, TripsOnlyAfterConsecutiveStaleIntervals) {
  DriftOptions opts;
  opts.ratio = 2.0;
  opts.margin_s = 0.0;
  opts.min_requests = 4;
  opts.trip_after = 2;
  opts.slo_s = 0.1;
  DriftMonitor drift(opts);

  EXPECT_TRUE(drift.observe(0.1, 0.5, 10));   // stale (0.5 > 2*0.1, > slo)
  EXPECT_FALSE(drift.stale()) << "one stale interval is not a streak";
  EXPECT_FALSE(drift.observe(0.1, 0.15, 10));  // 0.15 < 2*0.1: healthy
  EXPECT_TRUE(drift.observe(0.1, 0.5, 10));
  EXPECT_FALSE(drift.stale()) << "the healthy interval reset the streak";
  EXPECT_TRUE(drift.observe(0.1, 0.5, 10));
  EXPECT_TRUE(drift.stale());
  drift.reset();
  EXPECT_FALSE(drift.stale());

  // Thin intervals and SLO-respecting divergence never count.
  EXPECT_FALSE(drift.observe(0.1, 0.5, 3)) << "below min_requests";
  EXPECT_FALSE(drift.observe(0.01, 0.05, 10)) << "observed under the SLO";
  EXPECT_EQ(drift.stale_intervals(), 3u);
}

// ----------------------------------------------------------- retrainer --

TEST(Retrainer, PoolAndInlineProduceBitIdenticalCandidates) {
  core::Surrogate incumbent(tiny_config(), lambda::ConfigGrid::small());
  incumbent.set_training(false);

  Rng rng(21);
  nn::Dataset dataset;
  for (int i = 0; i < 24; ++i) {
    dataset.add(synth_sample(rng, {1024, 4, 0.05}));
  }

  RetrainerOptions opts;
  opts.epochs = 2;
  opts.shuffle_seed = 99;

  Retrainer inline_runner(opts);
  inline_runner.launch(incumbent, dataset);
  const auto inline_out = inline_runner.join();

  WorkerPool pool(2);
  RetrainerOptions pooled = opts;
  pooled.pool = &pool;
  Retrainer pool_runner(pooled);
  pool_runner.launch(incumbent, dataset);
  const auto pool_out = pool_runner.join();

  const auto grid = small_grid();
  std::vector<float> window(16, 0.3F);
  const auto a = inline_out.candidate->predict_grid(window, grid);
  const auto b = pool_out.candidate->predict_grid(window, grid);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cost_usd_per_request, b[i].cost_usd_per_request);
    for (std::size_t p = 0; p < a[i].latency_s.size(); ++p) {
      EXPECT_EQ(a[i].latency_s[p], b[i].latency_s[p]);
    }
  }
  // Training must have moved the clone away from the incumbent.
  const auto before = incumbent.predict_grid(window, grid);
  bool moved = false;
  for (std::size_t i = 0; i < a.size() && !moved; ++i) {
    moved = a[i].cost_usd_per_request != before[i].cost_usd_per_request;
  }
  EXPECT_TRUE(moved);
}

// ------------------------------------------- adaptive controller E2E ---

workload::Trace periodic_trace(double duration_s, double gap_s) {
  std::vector<double> times;
  for (double t = 0.0; t < duration_s; t += gap_s) times.push_back(t);
  return workload::Trace(std::move(times));
}

void expect_runs_identical(const sim::PlatformRun& a,
                           const sim::PlatformRun& b) {
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (std::size_t k = 0; k < a.decisions.size(); ++k) {
    EXPECT_EQ(a.decisions[k].time, b.decisions[k].time);
    EXPECT_EQ(a.decisions[k].config.memory_mb, b.decisions[k].config.memory_mb);
    EXPECT_EQ(a.decisions[k].config.batch_size,
              b.decisions[k].config.batch_size);
    EXPECT_EQ(a.decisions[k].config.timeout_s, b.decisions[k].config.timeout_s);
  }
  ASSERT_EQ(a.result.requests.size(), b.result.requests.size());
  for (std::size_t k = 0; k < a.result.requests.size(); ++k) {
    EXPECT_EQ(a.result.requests[k].completion, b.result.requests[k].completion);
    EXPECT_EQ(a.result.requests[k].cost_share, b.result.requests[k].cost_share);
  }
  EXPECT_EQ(a.result.invocations, b.result.invocations);
  EXPECT_EQ(a.result.total_cost, b.result.total_cost);
  EXPECT_EQ(a.fault_stream, b.fault_stream);
  ASSERT_EQ(a.swaps.size(), b.swaps.size());
  for (std::size_t k = 0; k < a.swaps.size(); ++k) {
    EXPECT_EQ(a.swaps[k], b.swaps[k]);
  }
}

/// Learner options that force the whole loop in a short replay: any
/// observed p95 over the (tiny) SLO is drift, one stale tick trips, one
/// fallback triggers a retrain, and the shadow verdict is rigged so the
/// candidate always wins.
AdaptiveControllerOptions forced_swap_options() {
  AdaptiveControllerOptions opts;
  opts.controller.slo_s = 1e-3;
  opts.controller.grid = lambda::ConfigGrid::small();
  opts.learn.harvest.capacity = 32;
  opts.learn.harvest.holdout_every = 4;
  opts.learn.harvest.holdout_capacity = 8;
  opts.learn.harvest.min_requests = 1;
  opts.learn.drift.ratio = 0.0;
  opts.learn.drift.margin_s = 0.0;
  opts.learn.drift.min_requests = 1;
  opts.learn.drift.trip_after = 1;
  opts.learn.min_train_samples = 4;
  opts.learn.fallback_trigger = 1;
  opts.learn.retrain_delay_ticks = 2;
  opts.learn.max_retrains = 2;
  opts.learn.retrain.epochs = 2;
  opts.learn.shadow.min_holdout = 1;
  opts.learn.shadow.min_mape_gain_pct = -1e9;  // mechanics test: always win
  return opts;
}

sim::PlatformRun run_adaptive_solo(const core::Surrogate& model,
                                   const workload::Trace& trace,
                                   const AdaptiveControllerOptions& opts,
                                   std::size_t* swaps_seen = nullptr) {
  AdaptiveController controller(model, opts);
  const lambda::LambdaModel lm;
  sim::PlatformOptions popts;
  popts.control_interval_s = 5.0;
  popts.observer = &controller;
  auto run = sim::run_platform(trace, controller, lm, {1024, 1, 0.0}, popts);
  if (swaps_seen != nullptr) *swaps_seen = controller.store().swaps().size();
  return run;
}

TEST(AdaptiveController, SwapsAndStaysReproducibleAndShardInvariant) {
  core::Surrogate model(tiny_config(), lambda::ConfigGrid::small());
  model.set_training(false);
  const workload::Trace trace_a = periodic_trace(120.0, 0.2);
  const workload::Trace trace_b = periodic_trace(100.0, 0.3);
  const auto opts = forced_swap_options();

  std::size_t swaps_a = 0;
  const sim::PlatformRun solo_a =
      run_adaptive_solo(model, trace_a, opts, &swaps_a);
  const sim::PlatformRun solo_b = run_adaptive_solo(model, trace_b, opts);
  ASSERT_GE(swaps_a, 1u) << "the forced loop must hot-swap at least once";
  ASSERT_EQ(solo_a.swaps.size(), swaps_a)
      << "swap events must travel into PlatformRun";

  // Rerun: bit-reproducible, swap ticks included.
  const sim::PlatformRun again = run_adaptive_solo(model, trace_a, opts);
  expect_runs_identical(solo_a, again);

  // Sharded runtime with the shared batch encoder: each tenant must match
  // its solo replay bitwise, post-swap self-encoding included — at one and
  // two shards, since retraining replays (shadow eval, hot-swap ticks) must
  // not observe the execution layout.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    AdaptiveController ctl_a(model, opts);
    AdaptiveController ctl_b(model, opts);
    core::SurrogateBatchEncoder encoder(model);
    const lambda::LambdaModel lm;
    sim::RuntimeOptions ropts;
    ropts.shards = shards;
    sim::Runtime runtime(&encoder, ropts);
    const workload::Trace* traces[] = {&trace_a, &trace_b};
    AdaptiveController* controllers[] = {&ctl_a, &ctl_b};
    for (int i = 0; i < 2; ++i) {
      sim::TenantSpec spec;
      spec.name = "tenant";
      spec.trace = traces[i];
      spec.controller = controllers[i];
      spec.model = &lm;
      spec.initial_config = {1024, 1, 0.0};
      spec.options.control_interval_s = 5.0;
      spec.options.observer = controllers[i];
      runtime.add_tenant(std::move(spec));
    }
    const auto merged = runtime.run();
    ASSERT_EQ(merged.size(), 2u);
    expect_runs_identical(solo_a, merged[0]);
    expect_runs_identical(solo_b, merged[1]);
  }
}

TEST(AdaptiveController, CalmReplayIsByteIdenticalToPlainController) {
  core::Surrogate model(tiny_config(), lambda::ConfigGrid::small());
  model.set_training(false);
  const workload::Trace trace = periodic_trace(120.0, 0.2);
  const lambda::LambdaModel lm;

  // A generous SLO keeps the drift monitor quiet (observed p95 under the
  // SLO is never stale), so the learner must not engage at all.
  AdaptiveControllerOptions opts;
  opts.controller.slo_s = 10.0;
  opts.controller.grid = lambda::ConfigGrid::small();

  core::DeepBatControllerOptions plain_opts = opts.controller;
  core::DeepBatController plain(model, plain_opts);
  sim::PlatformOptions popts;
  popts.control_interval_s = 5.0;
  const auto plain_run =
      sim::run_platform(trace, plain, lm, {1024, 1, 0.0}, popts);

  AdaptiveController adaptive(model, opts);
  sim::PlatformOptions apopts = popts;
  apopts.observer = &adaptive;
  const auto adaptive_run =
      sim::run_platform(trace, adaptive, lm, {1024, 1, 0.0}, apopts);

  EXPECT_EQ(adaptive.retrain_runs(), 0u);
  EXPECT_EQ(adaptive.drift_trips(), 0u);
  EXPECT_TRUE(adaptive_run.swaps.empty());
  expect_runs_identical(plain_run, adaptive_run);
}

}  // namespace
}  // namespace deepbat::learn
