#pragma once
// One execution unit of the sharded multi-tenant runtime (DESIGN.md §10,
// §15). A RuntimeShard owns a subset of tenants end-to-end: their batching
// simulators (held by value in the tenant table), their controllers (and
// therefore each controller's DecisionEngine / SequenceEncoder memo —
// single-writer by construction, since a tenant belongs to exactly one
// shard), a TickScheduler over that subset, and the runtime's shared
// BatchEncoder / BatchScorer for the shard's batched passes.
//
// run() replays the shard to completion on the calling thread. The
// stepwise API underneath it — run_quantum() executes exactly ONE tick
// group, finalize_run() drains the tail — is also what Runtime::run_until()
// drives to stop at a checkpoint boundary. A quantum runs entirely on the
// calling thread: the group's batched encode and fused score run inline,
// and only the group's members are advanced.
//
// Instrumentation: spans and sim.runtime.* metrics tick as before; a
// multi-shard run additionally records sim.runtime.shard<k>.* histogram
// variants and tags every span completed inside the shard with its id
// (obs::ShardScope), all without hot-path locks. The pending-tenant
// high-water mark rides the sim.runtime.queue_depth gauge.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/batch_sim.hpp"
#include "sim/runtime.hpp"
#include "sim/tick_scheduler.hpp"

namespace deepbat::sim {

class RuntimeShard {
 public:
  struct Options {
    std::size_t shard_id = 0;
    std::size_t shard_count = 1;
  };

  /// `scorer` (optional) enables the fused grid-scoring pass: after the
  /// batched encode, every batched-scoring tenant of the tick group — cache
  /// hits included — is scored in one BatchScorer::score() call and
  /// finished via finish_tick_scored().
  RuntimeShard(Options options, BatchEncoder* encoder,
               BatchScorer* scorer = nullptr);

  /// Size hint for bulk registration: reserves the tenant table and the
  /// scheduler's slot table once, up front.
  void reserve(std::size_t tenants);

  /// Register one tenant; `out` receives its PlatformRun (decisions +
  /// result) and must stay valid until the replay finishes. Specs are
  /// assumed validated by Runtime::add_tenant.
  void add_tenant(const TenantSpec& spec, PlatformRun* out);

  std::size_t tenant_count() const { return tenants_.size(); }

  /// Replay every owned tenant to the end of its trace on the calling
  /// thread: run_quantum() until exhausted, then finalize_run().
  void run();

  /// Outcome of a limit-bounded quantum.
  enum class Quantum {
    kRan,       // one tick group executed
    kDeferred,  // next group lies beyond the limit; nothing executed
    kExhausted  // no pending group remains
  };

  /// Execute exactly one tick group whose instant is <= `limit`. Peeking a
  /// group beyond the limit is free: next_group() keeps returning the open
  /// group until its complete_tick() calls, so a deferred group is re-formed
  /// intact by the next quantum (or by a restored replay — the scheduler's
  /// heap is derived state).
  Quantum run_quantum(double limit);

  /// Drain every tenant's remaining arrivals, finalize simulators, and fill
  /// the PlatformRuns.
  void finalize_run();

  const RuntimeStats& stats() const { return stats_; }

  // ---- Checkpoint support (sim/checkpoint.hpp, DESIGN.md §16) ----
  // The shard serializes only what it owns per tenant: the scheduler slot's
  // progress, the arrival cursor, and the simulator's dynamic state.
  // Controllers, observers, and accumulated decisions are serialized by
  // Runtime (which owns the specs and the PlatformRuns).

  /// Serialize tenant `local` (this shard's index, not the global one).
  void save_tenant(std::size_t local, CheckpointWriter& w) const;

  /// Restore tenant `local` from a checkpoint section written by
  /// save_tenant(). The tenant must have been registered from the same spec
  /// (same trace, same fault plan) — presence of the simulator and its
  /// fault/cold layers is checked, throwing deepbat::Error on mismatch.
  void restore_tenant(std::size_t local, CheckpointReader& r);

  /// Rebuild the scheduler's heap from the restored slots after the last
  /// restore_tenant().
  void finish_restore();

 private:
  struct TenantState {
    const TenantSpec* spec = nullptr;
    PlatformRun* out = nullptr;
    std::optional<BatchSimulator> sim;  // empty for an empty trace
    SplitController* split = nullptr;
    std::size_t next_arrival = 0;
    SplitController::TickRequest request;  // valid within one tick group
    std::size_t batch_slot = 0;            // row in this tick's batch
    std::size_t score_slot = 0;            // row in this tick's fused scoring
    bool scored = false;                   // member of this tick's scoring
  };

  /// One-time derived state (shard tag, encoder dims), computed lazily on
  /// the first quantum so registration stays allocation-only.
  void prepare();

  /// Deliver arrivals up to `t` and fire any batch deadline that elapsed.
  void process_events(TenantState& st, double t);

  Options options_;
  BatchEncoder* encoder_;
  BatchScorer* scorer_;
  TickScheduler scheduler_;
  std::vector<TenantState> tenants_;
  RuntimeStats stats_;

  // Derived by prepare(); stable for the rest of the replay.
  bool prepared_ = false;
  std::uint32_t shard_tag_ = 0;
  std::size_t encoding_dim_ = 0;
  std::size_t score_row_floats_ = 0;  // grid_size * target_dim per scored row

  // Per-quantum scratch, reused across tick groups (no steady-state
  // allocation once the high-water sizes are reached).
  std::vector<std::size_t> group_;
  std::vector<float> batch_windows_;
  std::vector<float> batch_out_;
  std::vector<float> score_in_;
  std::vector<float> score_out_;

  // Registry mirrors (sim.runtime.*); resolved once at construction, off
  // the hot path. Counters are global across shards (their writes are
  // lock-free and sharded); the histograms get an extra per-shard variant
  // in multi-shard runs.
  obs::Counter* c_tick_groups_;
  obs::Counter* c_control_ticks_;
  obs::Counter* c_batched_;
  obs::Counter* c_encode_calls_;
  obs::Counter* c_hits_;
  obs::Counter* c_misses_;
  obs::Counter* c_bypassed_;
  obs::Counter* c_scored_rows_;
  obs::Counter* c_score_calls_;
  obs::Counter* c_fleet_groups_;
  obs::Counter* c_cpu_invocations_;
  obs::Counter* c_gpu_invocations_;
  obs::Gauge* g_queue_depth_;
  obs::Histogram* h_encode_;
  obs::Histogram* h_score_;
  obs::Histogram* h_group_;
  obs::Histogram* h_tenant_;
  obs::Histogram* h_shard_encode_ = nullptr;  // sim.runtime.shard<k>.*
  obs::Histogram* h_shard_group_ = nullptr;   // (multi-shard runs only)
};

}  // namespace deepbat::sim
