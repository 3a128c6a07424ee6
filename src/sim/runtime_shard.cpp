#include "sim/runtime_shard.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace deepbat::sim {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

RuntimeShard::RuntimeShard(Options options, BatchEncoder* encoder,
                           BatchScorer* scorer)
    : options_(options), encoder_(encoder), scorer_(scorer) {
  auto& registry = obs::MetricsRegistry::instance();
  c_tick_groups_ = &registry.counter("sim.runtime.tick_group");
  c_control_ticks_ = &registry.counter("sim.runtime.control_tick");
  c_batched_ = &registry.counter("sim.runtime.batched_window");
  c_encode_calls_ = &registry.counter("sim.runtime.encode_call");
  c_hits_ = &registry.counter("sim.runtime.cache_hit");
  c_misses_ = &registry.counter("sim.runtime.cache_miss");
  c_bypassed_ = &registry.counter("sim.runtime.bypassed_tick");
  c_scored_rows_ = &registry.counter("sim.runtime.scored_row");
  c_score_calls_ = &registry.counter("sim.runtime.score_call");
  c_fleet_groups_ = &registry.counter("sim.runtime.fleet_group");
  c_cpu_invocations_ = &registry.counter("sim.runtime.cpu_invocation");
  c_gpu_invocations_ = &registry.counter("sim.runtime.gpu_invocation");
  g_queue_depth_ = &registry.gauge("sim.runtime.queue_depth");
  h_encode_ = &registry.histogram("sim.runtime.batch_encode_seconds");
  h_score_ = &registry.histogram("sim.runtime.batch_score_seconds");
  h_group_ = &registry.histogram("sim.runtime.tick_group_seconds");
  h_tenant_ = &registry.histogram("sim.runtime.tenant_phase_seconds");
  if (options_.shard_count > 1) {
    const std::string prefix =
        "sim.runtime.shard" + std::to_string(options_.shard_id) + ".";
    h_shard_encode_ = &registry.histogram(prefix + "batch_encode_seconds");
    h_shard_group_ = &registry.histogram(prefix + "tick_group_seconds");
  }
}

void RuntimeShard::reserve(std::size_t tenants) {
  tenants_.reserve(tenants);
  scheduler_.reserve(tenants);
}

void RuntimeShard::add_tenant(const TenantSpec& spec, PlatformRun* out) {
  TenantState st;
  st.spec = &spec;
  st.out = out;
  const bool empty = spec.trace->empty();
  if (!empty) {
    if (spec.backend != nullptr) {
      st.sim.emplace(*spec.backend, spec.initial_config,
                     spec.options.cold_start_seed, &spec.options.faults,
                     spec.options.fault_stream);
    } else {
      st.sim.emplace(*spec.model, spec.initial_config,
                     spec.options.cold_start_seed, &spec.options.faults,
                     spec.options.fault_stream);
    }
    st.split = encoder_ != nullptr
                   ? dynamic_cast<SplitController*>(spec.controller)
                   : nullptr;
  }
  // Empty replay: no sim, no decisions — the scheduler retires the slot at
  // birth and the drain loop leaves its PlatformRun default-initialized.
  scheduler_.add(spec.options.control_interval_s,
                 empty ? 0.0 : spec.trace->start_time(),
                 empty ? 0.0 : spec.trace->end_time(), empty);
  tenants_.push_back(std::move(st));
}

void RuntimeShard::process_events(TenantState& st, double t) {
  const workload::Trace& trace = *st.spec->trace;
  while (st.next_arrival < trace.size() && trace[st.next_arrival] <= t) {
    st.sim->offer(trace[st.next_arrival++]);
  }
  st.sim->advance_to(t);
}

void RuntimeShard::prepare() {
  prepared_ = true;
  // Tag spans completed while this shard executes. One thread can drive
  // several shards (run_until() steps them all on the caller), so the scope
  // is opened per quantum, keyed by the SHARD, not the thread. Single-shard
  // runs stay untagged: their trace output is byte-stable with the
  // pre-sharding runtime.
  shard_tag_ = options_.shard_count > 1
                   ? static_cast<std::uint32_t>(options_.shard_id)
                   : obs::kNoShard;
  encoding_dim_ = encoder_ != nullptr ? encoder_->encoding_dim() : 0;
  score_row_floats_ =
      scorer_ != nullptr ? scorer_->grid_size() * scorer_->target_dim() : 0;
  if (scorer_ != nullptr && encoder_ != nullptr) {
    DEEPBAT_CHECK(scorer_->encoding_dim() == encoding_dim_,
                  "Runtime: scorer encoding dim differs from the encoder's");
  }
}

RuntimeShard::Quantum RuntimeShard::run_quantum(double limit) {
  if (!prepared_) prepare();
  obs::ShardScope shard_scope(shard_tag_);
  const std::size_t d = encoding_dim_;

  const std::optional<double> t_opt = scheduler_.next_group(group_);
  if (!t_opt.has_value()) return Quantum::kExhausted;
  const double t = *t_opt;
  if (t > limit) return Quantum::kDeferred;

  // Queue-depth high-water: tenants whose replay is still pending on this
  // shard. live() only shrinks during a run, so the first quantum sets it.
  if (scheduler_.live() > stats_.max_queue_depth) {
    stats_.max_queue_depth = scheduler_.live();
    g_queue_depth_->set_max(static_cast<double>(stats_.max_queue_depth));
  }

  obs::Span group_span("sim.runtime.tick_group");
  const auto group_start = std::chrono::steady_clock::now();

  // Phase 1 — per member: deliver arrivals up to t, dispatch due batches,
  // and let split controllers parse their window / probe their cache.
  batch_windows_.clear();
  std::size_t batch_count = 0;
  for (const std::size_t i : group_) {
    TenantState& st = tenants_[i];
    process_events(st, t);
    if (st.spec->options.observer != nullptr) {
      // Observed outcomes up to t, delivered BEFORE the controller
      // decides — the learn/ harvest-drift-retrain loop runs here. The
      // observer may trip the engine breaker or hot-swap the surrogate;
      // both happen strictly between decisions, in tenant-tick order, so
      // the replay stays deterministic and shard-invariant.
      st.spec->options.observer->on_tick(t, st.sim->result());
    }
    if (st.split != nullptr) {
      st.request = st.split->begin_tick(*st.spec->trace, t);
      if (st.request.needs_encoding) {
        DEEPBAT_CHECK(st.request.window.size() == encoder_->window_length(),
                      "Runtime: tenant window length differs from the "
                      "shard encoder's");
        batch_windows_.insert(batch_windows_.end(), st.request.window.begin(),
                              st.request.window.end());
        st.batch_slot = batch_count++;
        ++stats_.cache_misses;
        c_misses_->add();
      } else if (st.request.bypassed) {
        // Controller breaker open: surrogate skipped, neither hit nor miss.
        ++stats_.bypassed_ticks;
        c_bypassed_->add();
      } else {
        ++stats_.cache_hits;
        c_hits_->add();
      }
    }
  }

  // Phase 2 — ONE batched forward for every cache miss in this tick group.
  double encode_seconds = 0.0;
  if (batch_count > 0) {
    batch_out_.resize(batch_count * d);
    {
      obs::Span encode_span("sim.runtime.batch_encode");
      const auto encode_start = std::chrono::steady_clock::now();
      encoder_->encode(batch_windows_, batch_count, batch_out_);
      encode_seconds = seconds_since(encode_start);
    }
    stats_.batched_windows += batch_count;
    ++stats_.encode_calls;
    stats_.encode_seconds += encode_seconds;
    c_batched_->add(batch_count);
    c_encode_calls_->add();
    h_encode_->observe(encode_seconds);
    if (h_shard_encode_ != nullptr) h_shard_encode_->observe(encode_seconds);
  }

  // Phase 2.5 — ONE fused grid-scoring pass over every batched-scoring
  // tenant of the group, window-cache hits included (their cached E_1
  // rows ride along). Per-row determinism of the fused pass keeps each
  // tenant's slice bit-identical to a solo score, so batching across
  // tenants is invisible to results.
  std::size_t score_count = 0;
  if (scorer_ != nullptr) {
    score_in_.clear();
    for (const std::size_t i : group_) {
      TenantState& st = tenants_[i];
      st.scored = false;
      if (st.split == nullptr || st.request.bypassed ||
          !st.split->supports_batched_scoring()) {
        continue;
      }
      std::span<const float> row;
      if (st.request.needs_encoding) {
        row = std::span<const float>(batch_out_.data() + st.batch_slot * d, d);
      } else {
        row = st.request.cached_encoding;
        DEEPBAT_CHECK(row.size() == d,
                      "Runtime: batched-scoring controller returned no "
                      "cached encoding on a window-cache hit");
      }
      score_in_.insert(score_in_.end(), row.begin(), row.end());
      st.score_slot = score_count++;
      st.scored = true;
    }
    if (score_count > 0) {
      score_out_.resize(score_count * score_row_floats_);
      obs::Span score_span("sim.runtime.batch_score");
      const auto score_start = std::chrono::steady_clock::now();
      scorer_->score(score_in_, score_count, score_out_);
      const double score_seconds = seconds_since(score_start);
      stats_.scored_rows += score_count;
      ++stats_.score_calls;
      stats_.score_seconds += score_seconds;
      c_scored_rows_->add(score_count);
      c_score_calls_->add();
      h_score_->observe(score_seconds);
    }
  }

  // Phase 3 — per member: finish the decision and apply the new config.
  for (const std::size_t i : group_) {
    TenantState& st = tenants_[i];
    lambda::Config cfg;
    if (st.split != nullptr) {
      const std::span<const float> row =
          st.request.needs_encoding
              ? std::span<const float>(batch_out_.data() + st.batch_slot * d,
                                       d)
              : std::span<const float>{};
      if (st.scored) {
        const std::span<const float> scores(
            score_out_.data() + st.score_slot * score_row_floats_,
            score_row_floats_);
        cfg = st.split->finish_tick_scored(row, scores);
      } else {
        cfg = st.split->finish_tick(row);
      }
    } else {
      cfg = st.spec->controller->decide(*st.spec->trace, t);
    }
    st.sim->set_config(cfg);
    st.out->decisions.push_back(ControlDecision{t, cfg});
    ++stats_.control_ticks;
    c_control_ticks_->add();
    scheduler_.complete_tick(i);
  }
  ++stats_.tick_groups;
  c_tick_groups_->add();
  const double group_seconds = seconds_since(group_start);
  h_group_->observe(group_seconds);
  if (h_shard_group_ != nullptr) h_shard_group_->observe(group_seconds);
  // Tenant event-loop share of the group: everything except the shared
  // batched forward.
  h_tenant_->observe(std::max(group_seconds - encode_seconds, 0.0));
  return Quantum::kRan;
}

void RuntimeShard::finalize_run() {
  if (!prepared_) prepare();  // all-empty shard: no quantum ever ran
  obs::ShardScope shard_scope(shard_tag_);
  for (TenantState& st : tenants_) {
    if (!st.sim.has_value()) continue;  // empty trace
    const workload::Trace& trace = *st.spec->trace;
    while (st.next_arrival < trace.size()) {
      st.sim->offer(trace[st.next_arrival++]);
    }
    st.sim->finalize();
    st.out->result = st.sim->result();
    // Retraining provenance (DESIGN.md §14): the fault stream and the
    // observer's swap history travel with the run so retrained replays are
    // byte-comparable across reruns and shard counts.
    st.out->fault_stream = st.spec->options.fault_stream;
    if (st.spec->options.observer != nullptr) {
      const auto swaps = st.spec->options.observer->swaps();
      st.out->swaps.assign(swaps.begin(), swaps.end());
    }
    // Fleet metadata + per-backend accounting (DESIGN.md §13). Tenant
    // identity, not layout: group ids and backend kinds travel with the
    // spec, so these totals are shard-invariant by construction.
    st.out->group_id = st.spec->group_id;
    const lambda::Backend* backend = st.spec->backend;
    st.out->backend =
        backend != nullptr ? backend->capabilities().name : "cpu-lambda";
    const std::size_t invocations = st.sim->result().invocations;
    const bool gpu = backend != nullptr &&
                     backend->capabilities().kind ==
                         lambda::BackendKind::kGpuServerless;
    if (gpu) {
      stats_.gpu_invocations += invocations;
      c_gpu_invocations_->add(invocations);
    } else {
      stats_.cpu_invocations += invocations;
      c_cpu_invocations_->add(invocations);
    }
    if (st.spec->group_id >= 0) {
      ++stats_.fleet_groups;
      c_fleet_groups_->add();
    }
  }
}

void RuntimeShard::run() {
  while (run_quantum(std::numeric_limits<double>::infinity()) ==
         Quantum::kRan) {
  }
  finalize_run();
}

void RuntimeShard::save_tenant(std::size_t local, CheckpointWriter& w) const {
  DEEPBAT_CHECK(local < tenants_.size(),
                "RuntimeShard: save_tenant index out of range");
  const TenantState& st = tenants_[local];
  w.i64(scheduler_.tick_index(local));
  w.boolean(scheduler_.done(local));
  w.u64(st.next_arrival);
  w.boolean(st.sim.has_value());
  if (st.sim.has_value()) st.sim->save_state(w);
}

void RuntimeShard::restore_tenant(std::size_t local, CheckpointReader& r) {
  DEEPBAT_CHECK(local < tenants_.size(),
                "RuntimeShard: restore_tenant index out of range");
  TenantState& st = tenants_[local];
  const std::int64_t tick_index = r.i64();
  const bool done = r.boolean();
  scheduler_.restore_slot(local, tick_index, done);
  st.next_arrival = static_cast<std::size_t>(r.u64());
  const bool had_sim = r.boolean();
  DEEPBAT_CHECK(had_sim == st.sim.has_value(),
                "RuntimeShard: checkpoint tenant has a different trace shape "
                "(simulator presence mismatch)");
  if (st.sim.has_value()) st.sim->restore_state(r);
}

void RuntimeShard::finish_restore() { scheduler_.rebuild(); }

}  // namespace deepbat::sim
