// The multi-tenant runtime's contract: replaying N tenants through the
// sharded executor yields results bit-identical, per tenant, to N
// independent run_platform() replays — for EVERY shard count, with or
// without the shared batched encoder — while each shard issues one batched
// encode_sequence per control tick for its memo-missing tenants.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "batchlib/controller.hpp"
#include "core/controller.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "sim/runtime.hpp"
#include "workload/synth.hpp"

namespace deepbat::sim {
namespace {

core::SurrogateConfig tiny_config() {
  core::SurrogateConfig cfg;
  cfg.sequence_length = 16;
  cfg.dropout = 0.0F;
  return cfg;
}

core::DeepBatControllerOptions controller_options() {
  core::DeepBatControllerOptions opts;
  opts.grid = lambda::ConfigGrid::small();
  return opts;
}

void expect_bit_identical(const PlatformRun& a, const PlatformRun& b) {
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
    const auto& ra = a.result.requests[k];
    const auto& rb = b.result.requests[k];
    EXPECT_EQ(ra.arrival, rb.arrival);
    EXPECT_EQ(ra.dispatch, rb.dispatch);
    EXPECT_EQ(ra.completion, rb.completion);
    EXPECT_EQ(ra.batch_actual, rb.batch_actual);
    EXPECT_EQ(ra.cost_share, rb.cost_share);
  }
  EXPECT_EQ(a.result.invocations, b.result.invocations);
  EXPECT_EQ(a.result.total_cost, b.result.total_cost);
  EXPECT_EQ(a.result.retries, b.result.retries);
  EXPECT_EQ(a.result.dropped, b.result.dropped);
  EXPECT_EQ(a.result.dropped_arrivals, b.result.dropped_arrivals);
}

// ------------------------------------------------ shard invariance ------

struct ShardCase {
  std::size_t shards;
  bool shared_encoder;
};

// ctest lists each case with its printed parameter; without a printer gtest
// hex-dumps the struct, padding bytes included.
void PrintTo(const ShardCase& c, std::ostream* os) {
  *os << "shards=" << c.shards
      << (c.shared_encoder ? ", shared encoder" : ", no encoder");
}

std::string shard_case_name(const ::testing::TestParamInfo<ShardCase>& info) {
  const ShardCase& c = info.param;
  return "Shards" + std::to_string(c.shards) +
         (c.shared_encoder ? "_Encoder" : "_NoEncoder");
}

class RuntimeShardInvariance : public ::testing::TestWithParam<ShardCase> {};

// Five tenants on mixed control intervals (30/45/60 s), so tick groups
// interleave and members tick while non-members wait, replayed at the
// parameterized shard count. Every configuration must be bit-identical,
// request by request, to five independent solo replays.
TEST_P(RuntimeShardInvariance, BitIdenticalToSoloRuns) {
  const ShardCase c = GetParam();
  core::Surrogate model(tiny_config(), lambda::ConfigGrid::small());
  model.set_training(false);
  const lambda::LambdaModel lm;

  struct TenantDef {
    workload::Trace trace;
    double interval;
  };
  std::vector<TenantDef> defs;
  defs.push_back({workload::twitter_like({.hours = 0.05}, 31), 30.0});
  defs.push_back({workload::azure_like({.hours = 0.05}, 17), 45.0});
  defs.push_back({workload::twitter_like({.hours = 0.04}, 99), 30.0});
  defs.push_back({workload::azure_like({.hours = 0.04}, 7), 60.0});
  defs.push_back({workload::twitter_like({.hours = 0.03}, 55), 45.0});

  std::vector<PlatformRun> solo;
  for (const TenantDef& def : defs) {
    core::DeepBatController ctl(model, controller_options());
    PlatformOptions popts;
    popts.control_interval_s = def.interval;
    solo.push_back(run_platform(def.trace, ctl, lm, {1024, 1, 0.0}, popts));
  }

  core::SurrogateBatchEncoder encoder(model);
  RuntimeOptions ropts;
  ropts.shards = c.shards;
  Runtime runtime(c.shared_encoder ? &encoder : nullptr, ropts);
  std::vector<std::unique_ptr<core::DeepBatController>> controllers;
  for (const TenantDef& def : defs) {
    controllers.push_back(std::make_unique<core::DeepBatController>(
        model, controller_options()));
    TenantSpec spec;
    spec.name = "tenant";
    spec.trace = &def.trace;
    spec.controller = controllers.back().get();
    spec.model = &lm;
    spec.initial_config = {1024, 1, 0.0};
    spec.options.control_interval_s = def.interval;
    runtime.add_tenant(std::move(spec));
  }
  const auto merged = runtime.run();

  ASSERT_EQ(merged.size(), defs.size());
  for (std::size_t i = 0; i < defs.size(); ++i) {
    SCOPED_TRACE("tenant " + std::to_string(i));
    expect_bit_identical(solo[i], merged[i]);
  }

  const RuntimeStats& stats = runtime.stats();
  std::size_t total_decisions = 0;
  for (const auto& run : merged) total_decisions += run.decisions.size();
  EXPECT_EQ(stats.control_ticks, total_decisions);
  if (c.shared_encoder) {
    // Every window that missed the memo went through the one shared
    // encoder instance, whatever shard encoded it.
    EXPECT_EQ(stats.batched_windows, encoder.windows_encoded());
    EXPECT_EQ(stats.encode_calls, encoder.calls());
    EXPECT_GT(stats.cache_hits + stats.cache_misses, 0u);
    // The runtime counts a probe from the tick request it sees; the
    // controllers count the same probe inside their engines. The two
    // ledgers must agree at every shard count.
    std::size_t hits = 0;
    std::size_t misses = 0;
    for (const auto& ctl : controllers) {
      hits += ctl->cache_hits();
      misses += ctl->cache_misses();
    }
    EXPECT_EQ(stats.cache_hits, hits);
    EXPECT_EQ(stats.cache_misses, misses);
  } else {
    EXPECT_EQ(stats.batched_windows, 0u);
    EXPECT_EQ(stats.encode_calls, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShardCounts, RuntimeShardInvariance,
    ::testing::Values(ShardCase{1, true}, ShardCase{1, false},
                      ShardCase{2, true}, ShardCase{2, false},
                      ShardCase{5, true}, ShardCase{5, false}),
    shard_case_name);

// Shard invariance must survive the fault layer: the fault stream id lives
// in PlatformOptions (tenant identity), never in the execution layout, so a
// chaos-scenario replay at any shard count stays bit-identical — including
// retries, drops, and throttle-delayed dispatches — to the tenant's solo
// run_platform() with the same options. The parameter is the shard count.
class FaultedShardInvariance
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FaultedShardInvariance, ChaosReplayBitIdenticalToSolo) {
  const std::size_t shards = GetParam();
  core::Surrogate model(tiny_config(), lambda::ConfigGrid::small());
  model.set_training(false);
  const lambda::LambdaModel lm;
  const FaultPlan plan = fault_scenario("chaos", 23);

  std::vector<workload::Trace> traces;
  traces.push_back(workload::twitter_like({.hours = 0.05}, 31));
  traces.push_back(workload::azure_like({.hours = 0.05}, 17));
  traces.push_back(workload::twitter_like({.hours = 0.04}, 99));

  std::vector<PlatformOptions> popts(traces.size());
  std::vector<PlatformRun> solo;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    popts[i].control_interval_s = 30.0;
    popts[i].cold_start_seed = 12345;  // legacy stream, re-seeded per tenant
    popts[i].faults = plan;
    popts[i].fault_stream = i;
    core::DeepBatController ctl(model, controller_options());
    solo.push_back(
        run_platform(traces[i], ctl, lm, {1024, 1, 0.0}, popts[i]));
  }
  // The faults actually bit: at least one tenant retried or dropped.
  std::size_t total_retries = 0;
  for (const auto& run : solo) total_retries += run.result.retries;
  EXPECT_GT(total_retries, 0u);

  core::SurrogateBatchEncoder encoder(model);
  RuntimeOptions ropts;
  ropts.shards = shards;
  Runtime runtime(&encoder, ropts);
  std::vector<std::unique_ptr<core::DeepBatController>> controllers;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    controllers.push_back(std::make_unique<core::DeepBatController>(
        model, controller_options()));
    TenantSpec spec;
    spec.name = "tenant";
    spec.trace = &traces[i];
    spec.controller = controllers.back().get();
    spec.model = &lm;
    spec.initial_config = {1024, 1, 0.0};
    spec.options = popts[i];
    runtime.add_tenant(std::move(spec));
  }
  const auto merged = runtime.run();

  ASSERT_EQ(merged.size(), traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    SCOPED_TRACE("tenant " + std::to_string(i));
    expect_bit_identical(solo[i], merged[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShardCounts, FaultedShardInvariance,
    ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{5}),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return "Shards" + std::to_string(info.param);
    });

// TSan target (scripts/check.sh): 8 tenants over 4 shards encoding through
// one instance shared by all four shards — legal per the BatchEncoder
// concurrency contract, and bit-identical to solo replays.
TEST(RuntimeTest, ConcurrentShardsStressMatchesSolo) {
  core::Surrogate model(tiny_config(), lambda::ConfigGrid::small());
  model.set_training(false);
  const lambda::LambdaModel lm;
  PlatformOptions popts;
  popts.control_interval_s = 30.0;

  std::vector<workload::Trace> traces;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    traces.push_back(seed % 2 == 0
                         ? workload::azure_like({.hours = 0.03}, seed)
                         : workload::twitter_like({.hours = 0.03}, seed));
  }
  std::vector<PlatformRun> solo;
  for (const auto& trace : traces) {
    core::DeepBatController ctl(model, controller_options());
    solo.push_back(run_platform(trace, ctl, lm, {1024, 1, 0.0}, popts));
  }

  core::SurrogateBatchEncoder encoder(model);
  RuntimeOptions ropts;
  ropts.shards = 4;
  Runtime runtime(&encoder, ropts);
  std::vector<std::unique_ptr<core::DeepBatController>> controllers;
  for (const auto& trace : traces) {
    controllers.push_back(std::make_unique<core::DeepBatController>(
        model, controller_options()));
    TenantSpec spec;
    spec.name = "tenant";
    spec.trace = &trace;
    spec.controller = controllers.back().get();
    spec.model = &lm;
    spec.initial_config = {1024, 1, 0.0};
    spec.options = popts;
    runtime.add_tenant(std::move(spec));
  }
  const auto merged = runtime.run();
  ASSERT_EQ(merged.size(), traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    SCOPED_TRACE("tenant " + std::to_string(i));
    expect_bit_identical(solo[i], merged[i]);
  }
}

// TSan target (scripts/check.sh): the static shard schedule under load —
// six shards on five pool threads plus the caller, two tenants each, tiny
// control intervals so tick groups are short and every shard encodes
// through the one shared instance concurrently. Results must be
// bit-identical to solo replays, nothing is ever stolen, and the
// queue-depth telemetry must land in RuntimeStats.
TEST(RuntimeTest, WorkStealingStressMatchesSolo) {
  core::Surrogate model(tiny_config(), lambda::ConfigGrid::small());
  model.set_training(false);
  const lambda::LambdaModel lm;

  std::vector<workload::Trace> traces;
  std::vector<double> intervals;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    traces.push_back(seed % 2 == 0
                         ? workload::azure_like({.hours = 0.03}, seed)
                         : workload::twitter_like({.hours = 0.03}, seed));
    intervals.push_back(5.0 + static_cast<double>(seed % 3) * 2.5);
  }
  std::vector<PlatformRun> solo;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    core::DeepBatController ctl(model, controller_options());
    PlatformOptions popts;
    popts.control_interval_s = intervals[i];
    solo.push_back(run_platform(traces[i], ctl, lm, {1024, 1, 0.0}, popts));
  }

  core::SurrogateBatchEncoder encoder(model);
  RuntimeOptions ropts;
  ropts.shards = 6;
  Runtime runtime(&encoder, ropts);
  std::vector<std::unique_ptr<core::DeepBatController>> controllers;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    controllers.push_back(std::make_unique<core::DeepBatController>(
        model, controller_options()));
    TenantSpec spec;
    spec.name = "tenant";
    spec.trace = &traces[i];
    spec.controller = controllers.back().get();
    spec.model = &lm;
    spec.initial_config = {1024, 1, 0.0};
    spec.options.control_interval_s = intervals[i];
    runtime.add_tenant(std::move(spec));
  }
  const auto merged = runtime.run();
  ASSERT_EQ(merged.size(), traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    SCOPED_TRACE("tenant " + std::to_string(i));
    expect_bit_identical(solo[i], merged[i]);
  }

  // Telemetry: every shard saw at least one pending slot, so the queue
  // high-water mark is positive; the static schedule never steals.
  const RuntimeStats& stats = runtime.stats();
  EXPECT_GT(stats.max_queue_depth, 0u);
  EXPECT_EQ(stats.steals, 0u);
}

// The queue-depth gauge rides the generic exporters: after any sharded run
// its name appears in the JSON document and the Prometheus exposition.
TEST(RuntimeTest, QueueDepthMetricAppearsInExporters) {
  core::Surrogate model(tiny_config(), lambda::ConfigGrid::small());
  model.set_training(false);
  const lambda::LambdaModel lm;
  const workload::Trace trace = workload::twitter_like({.hours = 0.02}, 5);
  core::DeepBatController a(model, controller_options());
  core::DeepBatController b(model, controller_options());
  core::SurrogateBatchEncoder encoder(model);
  RuntimeOptions ropts;
  ropts.shards = 2;
  Runtime runtime(&encoder, ropts);
  TenantSpec spec;
  spec.trace = &trace;
  spec.model = &lm;
  spec.initial_config = {1024, 1, 0.0};
  spec.options.control_interval_s = 30.0;
  spec.name = "a";
  spec.controller = &a;
  runtime.add_tenant(spec);
  spec.name = "b";
  spec.controller = &b;
  runtime.add_tenant(spec);
  runtime.run();

  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::instance().snapshot();
  ASSERT_NE(snap.gauge("sim.runtime.queue_depth"), nullptr);
  EXPECT_GT(snap.gauge("sim.runtime.queue_depth")->value, 0.0);

  const std::string json = obs::to_json(snap);
  EXPECT_NE(json.find("\"sim.runtime.queue_depth\""), std::string::npos);
  const std::string prom = obs::to_prometheus(snap);
  EXPECT_NE(prom.find("deepbat_sim_runtime_queue_depth"),
            std::string::npos);
}

// ---------------------------------------------------- stats folding ------

TEST(RuntimeStatsTest, MergeSumsCountsAndRecomputesHitRate) {
  RuntimeStats a;
  a.tick_groups = 3;
  a.control_ticks = 7;
  a.batched_windows = 5;
  a.encode_calls = 2;
  a.cache_hits = 9;
  a.cache_misses = 1;
  a.bypassed_ticks = 2;
  a.encode_seconds = 0.25;
  a.fleet_groups = 1;
  a.cpu_invocations = 40;
  a.gpu_invocations = 0;
  a.steals = 4;
  a.max_queue_depth = 100;
  RuntimeStats b;
  b.tick_groups = 4;
  b.control_ticks = 11;
  b.batched_windows = 8;
  b.encode_calls = 3;
  b.cache_hits = 0;
  b.cache_misses = 10;
  b.bypassed_ticks = 3;
  b.encode_seconds = 0.5;
  b.fleet_groups = 2;
  b.cpu_invocations = 5;
  b.gpu_invocations = 13;
  b.steals = 9;
  b.max_queue_depth = 60;

  a.merge(b);
  EXPECT_EQ(a.tick_groups, 7u);
  EXPECT_EQ(a.control_ticks, 18u);
  EXPECT_EQ(a.batched_windows, 13u);
  EXPECT_EQ(a.encode_calls, 5u);
  EXPECT_EQ(a.cache_hits, 9u);
  EXPECT_EQ(a.cache_misses, 11u);
  EXPECT_EQ(a.bypassed_ticks, 5u);
  EXPECT_DOUBLE_EQ(a.encode_seconds, 0.75);
  // Fleet counters (DESIGN.md §13) fold as plain sums across shards.
  EXPECT_EQ(a.fleet_groups, 3u);
  EXPECT_EQ(a.cpu_invocations, 45u);
  EXPECT_EQ(a.gpu_invocations, 13u);
  // Steals fold as a sum; the queue high-water mark folds as a MAX (a
  // fleet-wide depth is the deepest any shard ever got, not their total).
  EXPECT_EQ(a.steals, 13u);
  EXPECT_EQ(a.max_queue_depth, 100u);
  // The folded hit rate comes from the summed counts (9 / 20), NOT the
  // mean of the per-shard rates (0.9 and 0.0 would average to 0.45 too —
  // so check a second, asymmetric fold where the two disagree).
  EXPECT_DOUBLE_EQ(a.cache_hit_rate(), 9.0 / 20.0);

  RuntimeStats c;  // 1 probe, 100% hits
  c.cache_hits = 1;
  RuntimeStats d;  // 99 probes, 0% hits
  d.cache_misses = 99;
  c.merge(d);
  EXPECT_DOUBLE_EQ(c.cache_hit_rate(), 1.0 / 100.0);  // not (1.0 + 0.0) / 2

  RuntimeStats empty;
  empty.merge(RuntimeStats{});
  EXPECT_DOUBLE_EQ(empty.cache_hit_rate(), 0.0);
}

TEST(RuntimeTest, MultiTenantBitIdenticalToIndependentSoloRuns) {
  core::Surrogate model(tiny_config(), lambda::ConfigGrid::small());
  model.set_training(false);
  const lambda::LambdaModel lm;
  PlatformOptions popts;
  popts.control_interval_s = 30.0;

  // Three tenants on different traces (different burst structure so their
  // decisions genuinely differ), all sharing one surrogate.
  const std::vector<workload::Trace> traces = {
      workload::twitter_like({.hours = 0.05}, 31),
      workload::azure_like({.hours = 0.05}, 17),
      workload::twitter_like({.hours = 0.04}, 99),
  };

  // Reference: N independent solo replays.
  std::vector<PlatformRun> solo;
  for (const auto& trace : traces) {
    core::DeepBatController ctl(model, controller_options());
    solo.push_back(run_platform(trace, ctl, lm, {1024, 1, 0.0}, popts));
  }

  // One merged runtime with the shared batched encoder.
  core::SurrogateBatchEncoder encoder(model);
  Runtime runtime(&encoder);
  std::vector<std::unique_ptr<core::DeepBatController>> controllers;
  for (const auto& trace : traces) {
    controllers.push_back(std::make_unique<core::DeepBatController>(
        model, controller_options()));
    TenantSpec spec;
    spec.name = "tenant";
    spec.trace = &trace;
    spec.controller = controllers.back().get();
    spec.model = &lm;
    spec.initial_config = {1024, 1, 0.0};
    spec.options = popts;
    runtime.add_tenant(std::move(spec));
  }
  const auto merged = runtime.run();

  ASSERT_EQ(merged.size(), traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    SCOPED_TRACE("tenant " + std::to_string(i));
    expect_bit_identical(solo[i], merged[i]);
  }

  // The control plane actually batched: every window went through the
  // shared encoder, and coinciding ticks were folded into single forwards.
  const RuntimeStats& stats = runtime.stats();
  EXPECT_GT(stats.control_ticks, 0u);
  EXPECT_EQ(stats.batched_windows, encoder.windows_encoded());
  EXPECT_GT(encoder.calls(), 0u);
  EXPECT_LT(encoder.calls(), stats.control_ticks);  // ticks were folded
  EXPECT_LT(stats.tick_groups, stats.control_ticks);
}

TEST(RuntimeTest, MixedControllersShareTheLoop) {
  // A DeepBAT (split) tenant and a BATCH (plain Controller) tenant replayed
  // by one runtime: the plain controller takes the decide() path and both
  // still match their solo replays.
  core::Surrogate model(tiny_config(), lambda::ConfigGrid::small());
  model.set_training(false);
  const lambda::LambdaModel lm;
  PlatformOptions popts;
  popts.control_interval_s = 30.0;
  const workload::Trace trace = workload::twitter_like({.hours = 0.05}, 31);

  batchlib::BatchControllerOptions bopts;
  bopts.grid = lambda::ConfigGrid::small();

  PlatformRun solo_deepbat;
  PlatformRun solo_batch;
  {
    core::DeepBatController deepbat(model, controller_options());
    solo_deepbat = run_platform(trace, deepbat, lm, {1024, 1, 0.0}, popts);
    batchlib::BatchController batch(lm, bopts);
    solo_batch = run_platform(trace, batch, lm, {1024, 1, 0.0}, popts);
  }

  core::SurrogateBatchEncoder encoder(model);
  Runtime runtime(&encoder);
  core::DeepBatController deepbat(model, controller_options());
  batchlib::BatchController batch(lm, bopts);
  TenantSpec spec;
  spec.trace = &trace;
  spec.model = &lm;
  spec.initial_config = {1024, 1, 0.0};
  spec.options = popts;
  spec.name = "deepbat";
  spec.controller = &deepbat;
  runtime.add_tenant(spec);
  spec.name = "batch";
  spec.controller = &batch;
  runtime.add_tenant(spec);
  const auto merged = runtime.run();

  ASSERT_EQ(merged.size(), 2u);
  {
    SCOPED_TRACE("deepbat tenant");
    expect_bit_identical(solo_deepbat, merged[0]);
  }
  {
    SCOPED_TRACE("batch tenant");
    expect_bit_identical(solo_batch, merged[1]);
  }
}

TEST(RuntimeTest, EmptyTraceYieldsEmptyRun) {
  core::Surrogate model(tiny_config(), lambda::ConfigGrid::small());
  model.set_training(false);
  const lambda::LambdaModel lm;
  const workload::Trace empty;
  const workload::Trace busy = workload::twitter_like({.hours = 0.02}, 5);

  core::DeepBatController a(model, controller_options());
  core::DeepBatController b(model, controller_options());
  core::SurrogateBatchEncoder encoder(model);
  Runtime runtime(&encoder);
  TenantSpec spec;
  spec.model = &lm;
  spec.initial_config = {1024, 1, 0.0};
  spec.options.control_interval_s = 30.0;
  spec.name = "empty";
  spec.trace = &empty;
  spec.controller = &a;
  runtime.add_tenant(spec);
  spec.name = "busy";
  spec.trace = &busy;
  spec.controller = &b;
  runtime.add_tenant(spec);

  const auto runs = runtime.run();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_TRUE(runs[0].decisions.empty());
  EXPECT_EQ(runs[0].result.served(), 0u);
  EXPECT_EQ(runs[1].result.served(), busy.size());
}

// ------------------------------------- cross-tenant batched scoring ------

/// Five mixed-interval tenants replayed with the fused cross-tenant grid
/// scorer attached at the given shard count, compared tenant-by-tenant
/// against independent solo replays. The fused pass must be invisible
/// bit-for-bit: scoring is row-local, so batching tenants of a tick group
/// into one pass (or changing the shard layout) never changes a decision,
/// a request, or a cost cent.
void expect_batched_scoring_invariant(std::size_t shards) {
  core::Surrogate model(tiny_config(), lambda::ConfigGrid::small());
  model.set_training(false);
  const lambda::LambdaModel lm;
  const auto opts = controller_options();

  struct TenantDef {
    workload::Trace trace;
    double interval;
  };
  std::vector<TenantDef> defs;
  defs.push_back({workload::twitter_like({.hours = 0.05}, 31), 30.0});
  defs.push_back({workload::azure_like({.hours = 0.05}, 17), 45.0});
  defs.push_back({workload::twitter_like({.hours = 0.04}, 99), 30.0});
  defs.push_back({workload::azure_like({.hours = 0.04}, 7), 60.0});
  defs.push_back({workload::twitter_like({.hours = 0.03}, 55), 45.0});

  std::vector<PlatformRun> solo;
  for (const TenantDef& def : defs) {
    core::DeepBatController ctl(model, opts);
    PlatformOptions popts;
    popts.control_interval_s = def.interval;
    solo.push_back(run_platform(def.trace, ctl, lm, {1024, 1, 0.0}, popts));
  }

  core::SurrogateBatchEncoder encoder(model);
  core::SurrogateBatchScorer scorer(model,
                                    lambda::ConfigGrid::small().enumerate());
  RuntimeOptions ropts;
  ropts.shards = shards;
  Runtime runtime(&encoder, ropts);
  runtime.set_scorer(&scorer);
  std::vector<std::unique_ptr<core::DeepBatController>> controllers;
  for (const TenantDef& def : defs) {
    controllers.push_back(
        std::make_unique<core::DeepBatController>(model, opts));
    TenantSpec spec;
    spec.name = "tenant";
    spec.trace = &def.trace;
    spec.controller = controllers.back().get();
    spec.model = &lm;
    spec.initial_config = {1024, 1, 0.0};
    spec.options.control_interval_s = def.interval;
    runtime.add_tenant(std::move(spec));
  }
  const auto merged = runtime.run();

  ASSERT_EQ(merged.size(), defs.size());
  for (std::size_t i = 0; i < defs.size(); ++i) {
    SCOPED_TRACE("tenant " + std::to_string(i));
    expect_bit_identical(solo[i], merged[i]);
  }

  // The fused scorer actually ran: every non-bypassed control tick's grid
  // landed in a batched score call.
  const RuntimeStats& stats = runtime.stats();
  EXPECT_EQ(stats.scored_rows + stats.bypassed_ticks, stats.control_ticks);
  EXPECT_GT(stats.score_calls, 0u);
  EXPECT_LE(stats.score_calls, stats.scored_rows);
  EXPECT_EQ(scorer.rows_scored(), stats.scored_rows);
  EXPECT_EQ(scorer.calls(), stats.score_calls);
}

TEST(RuntimeBatchedScoring, FusedFp32BitIdenticalToSoloRuns) {
  expect_batched_scoring_invariant(1);
  expect_batched_scoring_invariant(2);
  expect_batched_scoring_invariant(3);
}

TEST(RuntimeTest, AddTenantValidates) {
  Runtime runtime;
  const workload::Trace trace({0.0, 1.0});
  const lambda::LambdaModel lm;
  TenantSpec spec;  // null trace/controller/model
  EXPECT_THROW(runtime.add_tenant(spec), Error);
  FixedController fixed({1024, 1, 0.0});
  spec.trace = &trace;
  spec.controller = &fixed;
  spec.model = &lm;
  spec.options.control_interval_s = 0.0;
  EXPECT_THROW(runtime.add_tenant(spec), Error);
}

}  // namespace
}  // namespace deepbat::sim
