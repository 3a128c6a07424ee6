// Runtime-level durability contract (DESIGN.md §16): a replay advanced to a
// tick-group boundary, checkpointed, and restored into a FRESH runtime —
// fresh controllers, any shard count — must finish bit-identical, per
// tenant, to the uninterrupted run. Corrupt snapshots and mismatched tenant
// rosters are rejected with typed errors before any state is touched. The
// cross-process variant of this test (kill -9 at a seeded tick, restore,
// stitch) lives in bench/crash_recovery.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "batchlib/controller.hpp"
#include "common/error.hpp"
#include "core/controller.hpp"
#include "sim/checkpoint.hpp"
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

/// ctest runs every parameterized case as its own process, in parallel, so
/// the file name carries the process id: cases must not share a snapshot.
std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (std::to_string(::getpid()) + "_" + name))
      .string();
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

/// One assembled three-tenant chaos replay (mixed intervals so tick groups
/// interleave, faults so retries/drops ride the checkpoint). Controllers
/// are owned by the harness; the runtime is rebuilt fresh per phase exactly
/// as a restarted process would rebuild it.
struct Harness {
  core::Surrogate model{tiny_config(), lambda::ConfigGrid::small()};
  lambda::LambdaModel lm;
  FaultPlan plan = fault_scenario("chaos", 23);
  std::vector<workload::Trace> traces;
  std::vector<double> intervals = {30.0, 45.0, 30.0};
  std::vector<std::unique_ptr<core::DeepBatController>> controllers;
  core::SurrogateBatchEncoder encoder{model};
  std::unique_ptr<Runtime> runtime;

  Harness() {
    model.set_training(false);
    traces.push_back(workload::twitter_like({.hours = 0.05}, 31));
    traces.push_back(workload::azure_like({.hours = 0.05}, 17));
    traces.push_back(workload::twitter_like({.hours = 0.04}, 99));
  }

  Runtime& build(std::size_t shards) {
    controllers.clear();
    RuntimeOptions ropts;
    ropts.shards = shards;
    runtime = std::make_unique<Runtime>(&encoder, ropts);
    for (std::size_t i = 0; i < traces.size(); ++i) {
      controllers.push_back(std::make_unique<core::DeepBatController>(
          model, controller_options()));
      TenantSpec spec;
      spec.name = "tenant" + std::to_string(i);
      spec.trace = &traces[i];
      spec.controller = controllers.back().get();
      spec.model = &lm;
      spec.initial_config = {1024, 1, 0.0};
      spec.options.control_interval_s = intervals[i];
      spec.options.cold_start_seed = 12345;
      spec.options.faults = plan;
      spec.options.fault_stream = i;
      runtime->add_tenant(std::move(spec));
    }
    return *runtime;
  }
};

struct RestoreCase {
  std::size_t save_shards;
  std::size_t restore_shards;
};

// ctest lists each case with its printed parameter; without a printer gtest
// hex-dumps the struct, padding bytes included.
void PrintTo(const RestoreCase& c, std::ostream* os) {
  *os << "save shards=" << c.save_shards
      << ", restore shards=" << c.restore_shards;
}

class RuntimeCheckpoint : public ::testing::TestWithParam<RestoreCase> {};

// Advance to a mid-trace boundary, save, restore into a fresh runtime at a
// possibly DIFFERENT shard count (the snapshot is tenant-ordered, never
// shard-ordered), finish, and compare per tenant against one uninterrupted
// reference — stitched stats included.
TEST_P(RuntimeCheckpoint, SaveRestoreFinishesBitIdentical) {
  const RestoreCase c = GetParam();
  Harness h;
  // An idle tenant: its window stops changing after the last early arrival,
  // so every tick from 60 s on is a memo hit — including the first tick
  // after the restore, which only the checkpointed memo can serve.
  h.traces.push_back(workload::Trace({1.0, 2.0, 3.0, 170.0}));
  h.intervals.push_back(30.0);

  Runtime& ref = h.build(1);
  const std::vector<PlatformRun> reference = ref.run();
  const RuntimeStats ref_stats = ref.stats();
  std::vector<std::size_t> ref_hits;
  std::vector<std::size_t> ref_misses;
  for (const auto& ctl : h.controllers) {
    ref_hits.push_back(ctl->cache_hits());
    ref_misses.push_back(ctl->cache_misses());
  }
  std::size_t total_retries = 0;
  for (const auto& run : reference) total_retries += run.result.retries;
  EXPECT_GT(total_retries, 0u);  // the chaos faults actually bit

  const std::string path = temp_path("deepbat_runtime_ckpt.bin");
  Runtime& saver = h.build(c.save_shards);
  saver.run_until(90.0);
  saver.save_checkpoint(path);

  Runtime& restored = h.build(c.restore_shards);
  restored.restore_checkpoint(path);
  const std::vector<PlatformRun> resumed = restored.run();

  ASSERT_EQ(resumed.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    SCOPED_TRACE("tenant " + std::to_string(i));
    expect_bit_identical(reference[i], resumed[i]);
  }

  // Stitched stats: the pre-crash half rides the checkpoint and merges with
  // the post-restore half, so the deterministic control-plane totals match
  // the uninterrupted run. (max_queue_depth depends on the shard layout
  // and is excluded by contract; encode totals depend on cache state, which
  // IS checkpointed, so they match too.)
  const RuntimeStats& st = restored.stats();
  EXPECT_EQ(st.control_ticks, ref_stats.control_ticks);
  EXPECT_EQ(st.cache_hits, ref_stats.cache_hits);
  EXPECT_EQ(st.cache_misses, ref_stats.cache_misses);
  EXPECT_EQ(st.bypassed_ticks, ref_stats.bypassed_ticks);
  EXPECT_EQ(st.batched_windows, ref_stats.batched_windows);
  // Each engine's window memo rides the checkpoint, so every tenant resumes
  // the reference's exact hit/miss sequence: a memo lost at restore would
  // turn the first resumed tick of an idle tenant into a miss.
  for (std::size_t i = 0; i < h.controllers.size(); ++i) {
    SCOPED_TRACE("tenant " + std::to_string(i));
    EXPECT_EQ(h.controllers[i]->cache_hits(), ref_hits[i]);
    EXPECT_EQ(h.controllers[i]->cache_misses(), ref_misses[i]);
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    ShardCounts, RuntimeCheckpoint,
    ::testing::Values(RestoreCase{1, 1}, RestoreCase{2, 2},
                      RestoreCase{5, 5}, RestoreCase{1, 5},
                      RestoreCase{5, 1}),
    [](const ::testing::TestParamInfo<RestoreCase>& info) {
      return "Save" + std::to_string(info.param.save_shards) + "Restore" +
             std::to_string(info.param.restore_shards);
    });

// Mixed roster: a BATCH (batchlib) tenant rides the same snapshot as the
// DeepBAT tenants — both controller families implement Checkpointable.
TEST(RuntimeCheckpointTest, MixedControllerFamiliesRoundTrip) {
  core::Surrogate model(tiny_config(), lambda::ConfigGrid::small());
  model.set_training(false);
  const lambda::LambdaModel lm;
  const workload::Trace trace = workload::twitter_like({.hours = 0.05}, 31);
  batchlib::BatchControllerOptions bopts;
  bopts.grid = lambda::ConfigGrid::small();
  PlatformOptions popts;
  popts.control_interval_s = 30.0;

  const auto build = [&](core::DeepBatController& d,
                         batchlib::BatchController& b,
                         core::SurrogateBatchEncoder& enc) {
    auto rt = std::make_unique<Runtime>(&enc);
    TenantSpec spec;
    spec.trace = &trace;
    spec.model = &lm;
    spec.initial_config = {1024, 1, 0.0};
    spec.options = popts;
    spec.name = "deepbat";
    spec.controller = &d;
    rt->add_tenant(spec);
    spec.name = "batch";
    spec.controller = &b;
    rt->add_tenant(spec);
    return rt;
  };

  core::SurrogateBatchEncoder enc(model);
  core::DeepBatController d1(model, controller_options());
  batchlib::BatchController b1(lm, bopts);
  auto ref = build(d1, b1, enc);
  const auto reference = ref->run();

  const std::string path = temp_path("deepbat_runtime_ckpt_mixed.bin");
  core::DeepBatController d2(model, controller_options());
  batchlib::BatchController b2(lm, bopts);
  auto saver = build(d2, b2, enc);
  saver->run_until(60.0);
  saver->save_checkpoint(path);

  core::DeepBatController d3(model, controller_options());
  batchlib::BatchController b3(lm, bopts);
  auto restored = build(d3, b3, enc);
  restored->restore_checkpoint(path);
  const auto resumed = restored->run();

  ASSERT_EQ(resumed.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    SCOPED_TRACE("tenant " + std::to_string(i));
    expect_bit_identical(reference[i], resumed[i]);
  }
  std::remove(path.c_str());
}

// Save before ANY tick ran (run_until at a negative horizon starts the
// execution state without processing a group): the restored runtime replays
// the whole trace — the degenerate "crashed immediately" case.
TEST(RuntimeCheckpointTest, SaveBeforeFirstTickRestoresFullReplay) {
  Harness h;
  Runtime& ref = h.build(1);
  const auto reference = ref.run();

  const std::string path = temp_path("deepbat_runtime_ckpt_t0.bin");
  Runtime& saver = h.build(2);
  saver.run_until(-1.0);
  saver.save_checkpoint(path);

  Runtime& restored = h.build(2);
  restored.restore_checkpoint(path);
  const auto resumed = restored.run();
  ASSERT_EQ(resumed.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    SCOPED_TRACE("tenant " + std::to_string(i));
    expect_bit_identical(reference[i], resumed[i]);
  }
  std::remove(path.c_str());
}

// Typed-error surface: corrupt files, roster mismatches, non-checkpointable
// controllers, and restore-after-start are all rejected with deepbat::Error.
TEST(RuntimeCheckpointTest, RejectsCorruptionAndMisuse) {
  Harness h;
  const std::string path = temp_path("deepbat_runtime_ckpt_err.bin");
  Runtime& saver = h.build(2);
  saver.run_until(90.0);
  saver.save_checkpoint(path);

  // Corrupt envelope: flip one payload byte.
  {
    std::ifstream in(path, std::ios::binary);
    std::string raw((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    in.close();
    raw[raw.size() / 2] ^= 0x10;
    const std::string bad = path + ".corrupt";
    std::ofstream os(bad, std::ios::binary | std::ios::trunc);
    os.write(raw.data(), static_cast<std::streamsize>(raw.size()));
    os.close();
    Runtime& victim = h.build(2);
    EXPECT_THROW(victim.restore_checkpoint(bad), Error);
    std::remove(bad.c_str());
  }

  // Roster mismatch: a runtime with a renamed tenant must refuse the
  // snapshot.
  {
    core::DeepBatController lone(h.model, controller_options());
    Runtime wrong(&h.encoder);
    TenantSpec spec;
    spec.name = "somebody-else";
    spec.trace = &h.traces[0];
    spec.controller = &lone;
    spec.model = &h.lm;
    spec.initial_config = {1024, 1, 0.0};
    spec.options.control_interval_s = 30.0;
    wrong.add_tenant(std::move(spec));
    EXPECT_THROW(wrong.restore_checkpoint(path), Error);
  }

  // Restore must precede any run_until()/run().
  {
    Runtime& late = h.build(2);
    late.run_until(30.0);
    EXPECT_THROW(late.restore_checkpoint(path), Error);
  }

  // A tenant whose controller is not Checkpointable cannot be saved.
  {
    FixedController fixed({1024, 1, 0.0});
    Runtime plain;
    TenantSpec spec;
    spec.name = "fixed";
    spec.trace = &h.traces[0];
    spec.controller = &fixed;
    spec.model = &h.lm;
    spec.initial_config = {1024, 1, 0.0};
    spec.options.control_interval_s = 30.0;
    plain.add_tenant(std::move(spec));
    plain.run_until(-1.0);
    EXPECT_THROW(plain.save_checkpoint(temp_path("deepbat_nockpt.bin")),
                 Error);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------- stats folding ------
// steals / max_queue_depth under merge(), including the zero-run and
// single-run edge cases a restored-run stitch exercises: stitching an empty
// pre-crash half (crash before the first group) and folding exactly one
// live shard must both be identity operations.

TEST(RuntimeStatsTest, MergeStealFieldsZeroAndSingleRunEdges) {
  // Zero-run stitch: merging a default-constructed snapshot changes
  // nothing, in either direction.
  RuntimeStats empty;
  empty.merge(RuntimeStats{});
  EXPECT_EQ(empty.steals, 0u);
  EXPECT_EQ(empty.max_queue_depth, 0u);
  EXPECT_DOUBLE_EQ(empty.cache_hit_rate(), 0.0);

  RuntimeStats live;
  live.steals = 7;
  live.max_queue_depth = 12;
  live.control_ticks = 40;
  live.merge(RuntimeStats{});
  EXPECT_EQ(live.steals, 7u);
  EXPECT_EQ(live.max_queue_depth, 12u);
  EXPECT_EQ(live.control_ticks, 40u);

  // Single-run stitch: folding one shard's stats into a zeroed base is the
  // identity on every field, the high-water mark included.
  RuntimeStats base;
  base.merge(live);
  EXPECT_EQ(base.steals, 7u);
  EXPECT_EQ(base.max_queue_depth, 12u);
  EXPECT_EQ(base.control_ticks, 40u);

  // Multi-fold: steals SUM across stitched halves, the queue high-water
  // mark takes the MAX (a restored run's depth is the deepest either half
  // ever got, not their total).
  RuntimeStats other;
  other.steals = 5;
  other.max_queue_depth = 9;
  base.merge(other);
  EXPECT_EQ(base.steals, 12u);
  EXPECT_EQ(base.max_queue_depth, 12u);
  RuntimeStats deeper;
  deeper.max_queue_depth = 30;
  base.merge(deeper);
  EXPECT_EQ(base.max_queue_depth, 30u);
}

}  // namespace
}  // namespace deepbat::sim
