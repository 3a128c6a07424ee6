#include "sim/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "obs/metrics.hpp"
#include "sim/checkpoint.hpp"
#include "sim/runtime_shard.hpp"

namespace deepbat::sim {

void Runtime::add_tenant(TenantSpec spec) {
  DEEPBAT_CHECK(spec.trace != nullptr, "Runtime: tenant trace is null");
  DEEPBAT_CHECK(spec.controller != nullptr,
                "Runtime: tenant controller is null");
  DEEPBAT_CHECK(spec.model != nullptr || spec.backend != nullptr,
                "Runtime: tenant needs a lambda model or a backend");
  DEEPBAT_CHECK(spec.options.control_interval_s > 0.0,
                "Runtime: control interval must be positive");
  // Parse-boundary config validation (DESIGN.md §13): reject out-of-range
  // initial configs here, with a bound-specific message, instead of letting
  // them surface from deep inside the replay. The (backend, config) pair is
  // memoized — bulk registrations reuse one pair, and a million tenants
  // must not redo the identical bounds work per call.
  if (spec.backend != validated_backend_ ||
      !validated_config_.has_value() ||
      !(spec.initial_config == *validated_config_)) {
    if (spec.backend != nullptr) {
      spec.backend->validate(spec.initial_config);
    } else if (auto err = spec.initial_config.validate()) {
      throw *err;
    }
    validated_backend_ = spec.backend;
    validated_config_ = spec.initial_config;
  }
  tenants_.push_back(std::move(spec));
}

Runtime::Runtime(BatchEncoder* shared_encoder, RuntimeOptions options)
    : encoder_(shared_encoder), options_(options) {}

Runtime::~Runtime() = default;

void Runtime::start() {
  if (started_) return;
  started_ = true;

  // Deterministic partition: tenant i -> shard i mod S. The assignment is
  // part of no contract — the per-row determinism of the batched encode
  // makes EVERY partition produce bit-identical per-tenant results — but a
  // fixed rule keeps stats and metrics reproducible run over run, and lets
  // checkpoints lay tenants out in global order regardless of shard count.
  shard_count_ = std::clamp<std::size_t>(options_.shards, 1, tenants_.size());
  runs_.assign(tenants_.size(), PlatformRun{});
  shards_.reserve(shard_count_);

  // The calling thread executes shard 0; the pool runs the other shards.
  if (shard_count_ > 1) pool_.emplace(shard_count_ - 1);

  // The fused scorer rides the split path: without an encoder there are no
  // split ticks to score.
  BatchScorer* scorer = encoder_ != nullptr ? scorer_ : nullptr;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    RuntimeShard::Options sopts;
    sopts.shard_id = s;
    sopts.shard_count = shard_count_;
    shards_.push_back(std::make_unique<RuntimeShard>(sopts, encoder_, scorer));
  }
  for (std::size_t s = 0; s < shard_count_; ++s) {
    shards_[s]->reserve(tenants_.size() / shard_count_ + 1);
  }
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    shards_[i % shard_count_]->add_tenant(tenants_[i], &runs_[i]);
  }
}

std::vector<PlatformRun> Runtime::run() {
  if (tenants_.empty()) return {};
  start();

  // Shards 1..S-1 run as pool tasks; shard 0 runs on the calling thread
  // (the helping wait in WorkerPool would pull it onto this thread
  // anyway). Each shard runs to completion. Wait for every shard before
  // rethrowing so no shard is left touching its PlatformRuns when an error
  // unwinds.
  std::vector<WorkerPool::Handle> handles;
  handles.reserve(shard_count_ - 1);
  for (std::size_t s = 1; s < shard_count_; ++s) {
    handles.push_back(
        pool_->submit([shard = shards_[s].get()] { shard->run(); }));
  }
  std::exception_ptr error;
  try {
    shards_[0]->run();
  } catch (...) {
    error = std::current_exception();
  }
  for (WorkerPool::Handle& h : handles) h.wait();
  for (WorkerPool::Handle& h : handles) {
    if (error != nullptr) break;
    try {
      h.rethrow();
    } catch (...) {
      error = std::current_exception();
    }
  }
  if (error != nullptr) std::rethrow_exception(error);

  // Fold per-shard stats in shard order on top of any pre-restore base:
  // counts sum, rates recompute, high-water marks take the max.
  stats_ = base_stats_;
  for (const auto& shard : shards_) stats_.merge(shard->stats());
  return std::move(runs_);
}

void Runtime::run_until(double limit) {
  if (tenants_.empty()) return;
  start();
  // Sequential stepwise advance: shard results are schedule-invariant, so
  // draining each shard to the boundary on this thread is bit-identical to
  // run()'s parallel schedule.
  for (const auto& shard : shards_) {
    while (shard->run_quantum(limit) == RuntimeShard::Quantum::kRan) {
    }
  }
}

namespace {

void save_stats(CheckpointWriter& w, const RuntimeStats& s) {
  w.u64(s.tick_groups);
  w.u64(s.control_ticks);
  w.u64(s.batched_windows);
  w.u64(s.encode_calls);
  w.u64(s.cache_hits);
  w.u64(s.cache_misses);
  w.u64(s.bypassed_ticks);
  w.f64(s.encode_seconds);
  w.u64(s.scored_rows);
  w.u64(s.score_calls);
  w.f64(s.score_seconds);
  w.u64(s.fleet_groups);
  w.u64(s.cpu_invocations);
  w.u64(s.gpu_invocations);
  w.u64(s.steals);
  w.u64(s.max_queue_depth);
}

RuntimeStats restore_stats(CheckpointReader& r) {
  RuntimeStats s;
  s.tick_groups = static_cast<std::size_t>(r.u64());
  s.control_ticks = static_cast<std::size_t>(r.u64());
  s.batched_windows = static_cast<std::size_t>(r.u64());
  s.encode_calls = static_cast<std::size_t>(r.u64());
  s.cache_hits = static_cast<std::size_t>(r.u64());
  s.cache_misses = static_cast<std::size_t>(r.u64());
  s.bypassed_ticks = static_cast<std::size_t>(r.u64());
  s.encode_seconds = r.f64();
  s.scored_rows = static_cast<std::size_t>(r.u64());
  s.score_calls = static_cast<std::size_t>(r.u64());
  s.score_seconds = r.f64();
  s.fleet_groups = static_cast<std::size_t>(r.u64());
  s.cpu_invocations = static_cast<std::size_t>(r.u64());
  s.gpu_invocations = static_cast<std::size_t>(r.u64());
  s.steals = static_cast<std::size_t>(r.u64());
  s.max_queue_depth = static_cast<std::size_t>(r.u64());
  return s;
}

/// The tenant's checkpoint participants: its controller (mandatory) and its
/// observer (when set). In the learn/ stack one object plays both roles;
/// the layout records that so the state is written (and restored) once.
struct TenantHooks {
  Checkpointable* controller = nullptr;
  Checkpointable* observer = nullptr;  // null when absent or == controller
  bool shared = false;                 // observer IS the controller
};

TenantHooks tenant_hooks(const TenantSpec& spec) {
  TenantHooks hooks;
  hooks.controller = dynamic_cast<Checkpointable*>(spec.controller);
  DEEPBAT_CHECK(hooks.controller != nullptr,
                "Runtime: tenant '" + spec.name + "' controller (" +
                    spec.controller->name() +
                    ") does not implement sim::Checkpointable");
  if (spec.options.observer != nullptr) {
    Checkpointable* obs = dynamic_cast<Checkpointable*>(spec.options.observer);
    DEEPBAT_CHECK(obs != nullptr,
                  "Runtime: tenant '" + spec.name +
                      "' observer does not implement sim::Checkpointable");
    if (obs == hooks.controller) {
      hooks.shared = true;
    } else {
      hooks.observer = obs;
    }
  }
  return hooks;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

void Runtime::save_checkpoint(const std::string& path) {
  DEEPBAT_CHECK(started_,
                "Runtime: save_checkpoint before run_until()/run() — there "
                "is no execution state to snapshot yet");
  const auto save_start = std::chrono::steady_clock::now();
  CheckpointWriter w;
  w.u64(tenants_.size());
  w.u64(shard_count_);  // informational: restore may use any shard count
  RuntimeStats snapshot = base_stats_;
  for (const auto& shard : shards_) snapshot.merge(shard->stats());
  save_stats(w, snapshot);
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const TenantSpec& spec = tenants_[i];
    w.str(spec.name);
    w.u64(spec.options.fault_stream);
    shards_[i % shard_count_]->save_tenant(i / shard_count_, w);
    const auto& decisions = runs_[i].decisions;
    w.u64(decisions.size());
    for (const ControlDecision& d : decisions) {
      w.f64(d.time);
      save_config(w, d.config);
    }
    const TenantHooks hooks = tenant_hooks(spec);
    hooks.controller->save_state(w);
    if (hooks.shared) {
      w.u8(1);  // observer state already travels with the controller's
    } else if (hooks.observer != nullptr) {
      w.u8(2);
      hooks.observer->save_state(w);
    } else {
      w.u8(0);
    }
  }
  write_checkpoint_file(path, w.bytes());
  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("sim.checkpoint.save").add();
  registry.histogram("sim.checkpoint.save_seconds")
      .observe(seconds_since(save_start));
}

void Runtime::restore_checkpoint(const std::string& path) {
  DEEPBAT_CHECK(!started_,
                "Runtime: restore_checkpoint must run on a fresh runtime, "
                "before any run_until()/run()");
  DEEPBAT_CHECK(!tenants_.empty(),
                "Runtime: restore_checkpoint needs the tenants registered "
                "first (the checkpoint holds state, not specs)");
  const auto restore_start = std::chrono::steady_clock::now();
  const std::vector<std::uint8_t> payload = read_checkpoint_file(path);
  CheckpointReader r(payload);
  const std::uint64_t count = r.u64();
  DEEPBAT_CHECK(count == tenants_.size(),
                "Runtime: checkpoint holds " + std::to_string(count) +
                    " tenants, this runtime has " +
                    std::to_string(tenants_.size()));
  r.u64();  // saving runtime's shard count: layout is global, value unused
  start();
  base_stats_ = restore_stats(r);
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const TenantSpec& spec = tenants_[i];
    const std::string name = r.str();
    DEEPBAT_CHECK(name == spec.name,
                  "Runtime: checkpoint tenant " + std::to_string(i) +
                      " is '" + name + "', expected '" + spec.name + "'");
    const std::uint64_t stream = r.u64();
    DEEPBAT_CHECK(stream == spec.options.fault_stream,
                  "Runtime: checkpoint tenant '" + name +
                      "' has fault stream " + std::to_string(stream) +
                      ", expected " +
                      std::to_string(spec.options.fault_stream));
    shards_[i % shard_count_]->restore_tenant(i / shard_count_, r);
    auto& decisions = runs_[i].decisions;
    decisions.clear();
    const std::uint64_t n_decisions = r.u64();
    DEEPBAT_CHECK(n_decisions <= r.remaining() / 32,
                  "Runtime: checkpoint decision count exceeds payload");
    decisions.reserve(static_cast<std::size_t>(n_decisions));
    for (std::uint64_t k = 0; k < n_decisions; ++k) {
      ControlDecision d;
      d.time = r.f64();
      d.config = restore_config(r);
      decisions.push_back(d);
    }
    const TenantHooks hooks = tenant_hooks(spec);
    hooks.controller->restore_state(r);
    const std::uint8_t observer_kind = r.u8();
    if (hooks.shared) {
      DEEPBAT_CHECK(observer_kind == 1,
                    "Runtime: checkpoint tenant '" + name +
                        "' observer layout does not match this runtime");
    } else if (hooks.observer != nullptr) {
      DEEPBAT_CHECK(observer_kind == 2,
                    "Runtime: checkpoint tenant '" + name +
                        "' observer layout does not match this runtime");
      hooks.observer->restore_state(r);
    } else {
      DEEPBAT_CHECK(observer_kind == 0,
                    "Runtime: checkpoint tenant '" + name +
                        "' was saved with an observer, this runtime has "
                        "none");
    }
  }
  DEEPBAT_CHECK(r.done(),
                "checkpoint: payload carries trailing bytes past the last "
                "tenant");
  for (const auto& shard : shards_) shard->finish_restore();
  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("sim.checkpoint.restore").add();
  registry.histogram("sim.checkpoint.restore_seconds")
      .observe(seconds_since(restore_start));
}

}  // namespace deepbat::sim
