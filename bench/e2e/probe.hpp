#pragma once
// Layer probes: thin forwarding decorators over the interfaces sim::Runtime
// already calls through, so each layer is timed from outside the program.
//
//   TenantProbe   sim::SplitController + sim::TenantObserver +
//                 sim::Checkpointable around one tenant's controller (and,
//                 for a learning tenant, its learn hook). One object plays
//                 both roles, as learn::AdaptiveController does, so the
//                 runtime's checkpoint layout is the same with or without
//                 probes.
//   EncoderProbe  sim::BatchEncoder  (batched encode)
//   ScorerProbe   sim::BatchScorer   (fused grid score)
//   BackendProbe  lambda::Backend    (cost/latency model under the simulator)
//
// Untraced, TenantProbe and BackendProbe count calls, and TenantProbe takes
// the two clock reads of its decision-latency sample. The encoder and the
// scorer count their own calls, so their probes only time. Traced, every
// forwarded call also records a span into a per-thread buffer of the
// SpanLog, written at the end as Chrome trace-event JSON. Probes never
// change an argument or a result, so a replay is bit-identical with or
// without them (e2e --check).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "lambda/backend.hpp"
#include "sim/checkpoint.hpp"
#include "sim/runtime.hpp"

namespace deepbat::e2e {

/// One recorded interval. The id is `tenant:seq` for the spans of one
/// decision (learn.on_tick, core.begin_tick, core.finish_tick share it, seq
/// being the tenant's decision index); other spans have tenant -1 and a
/// per-thread sequence number. Top-level spans (run, run_until,
/// save_checkpoint, restore_checkpoint, set-up steps) have `top` set and
/// their own id in `seq`; `parent` is the id of the enclosing one.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t tenant = -1;
  std::int64_t seq = 0;
  std::uint32_t parent = 0;
  std::uint32_t thread = 0;
  bool top = false;
};

/// Process-wide span recorder with one preallocated buffer per thread.
/// record() touches only the calling thread's buffer; clear() and collect()
/// must run while no other thread records (between replays).
class SpanLog {
 public:
  static SpanLog& instance();

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Append a span to the calling thread's buffer. Decision spans pass
  /// their tenant and decision index; other spans get a sequence number.
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::int64_t tenant = -1, std::int64_t seq = -1);
  void clear();
  std::vector<Span> collect() const;
  void write_chrome(const std::string& path) const;

 private:
  friend class TopSpan;
  struct Buffer {
    std::uint32_t thread = 0;
    std::int64_t next_seq = 0;
    std::vector<Span> spans;
  };
  SpanLog();
  Buffer& local();

  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> on_{false};
  std::atomic<std::uint32_t> parent_{0};
  std::atomic<std::uint32_t> next_top_{1};
  mutable std::mutex mu_;  // guards buffers_ (registration and collection)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Wall-clock scope around a top-level call (run, run_until, a checkpoint
/// save or restore, a set-up step). Always timed; recorded as a span, and
/// made the parent of every span inside it, when the SpanLog is on.
class TopSpan {
 public:
  explicit TopSpan(const char* name);
  ~TopSpan();
  TopSpan(const TopSpan&) = delete;
  TopSpan& operator=(const TopSpan&) = delete;

  /// Close the scope now and return its wall seconds (idempotent).
  double stop();

 private:
  const char* name_;
  std::int64_t start_ns_;
  std::uint32_t id_;
  std::uint32_t saved_parent_;
  bool open_ = true;
  double seconds_ = 0.0;
};

class TenantProbe final : public sim::SplitController,
                          public sim::TenantObserver,
                          public sim::Checkpointable {
 public:
  /// `learner` is the tenant's learn hook (null for a plain controller);
  /// when set it must be the same object as `inner`.
  TenantProbe(core::DeepBatController& inner, sim::TenantObserver* learner,
              std::int64_t tenant);

  lambda::Config decide(const workload::Trace& history, double now) override;
  std::string name() const override { return inner_.name(); }
  TickRequest begin_tick(const workload::Trace& history, double now) override;
  lambda::Config finish_tick(std::span<const float> encoding) override;
  bool supports_batched_scoring() const override {
    return inner_.supports_batched_scoring();
  }
  lambda::Config finish_tick_scored(
      std::span<const float> encoding,
      std::span<const float> raw_predictions) override;

  void on_tick(double now, const sim::SimResult& result) override;
  std::span<const sim::SwapEvent> swaps() const override {
    return learner_ != nullptr ? learner_->swaps()
                               : std::span<const sim::SwapEvent>{};
  }

  void save_state(sim::CheckpointWriter& w) const override {
    inner_.save_state(w);
  }
  void restore_state(sim::CheckpointReader& r) override {
    inner_.restore_state(r);
  }

  /// Decision latency samples (microseconds), one per decision.
  const std::vector<double>& decision_us() const { return decision_us_; }
  /// Traced only: begin_tick return to finish_tick entry (microseconds).
  const std::vector<double>& wait_us() const { return wait_us_; }
  std::uint64_t begin_calls() const { return begin_calls_; }
  std::uint64_t finish_calls() const { return finish_calls_; }
  std::uint64_t on_tick_calls() const { return on_tick_calls_; }

 private:
  /// First control-plane call of a tick: starts the decision's clock.
  void open_decision(std::int64_t now_ns);
  lambda::Config close_decision(std::int64_t entry_ns, lambda::Config cfg);

  core::DeepBatController& inner_;
  sim::TenantObserver* learner_;
  std::int64_t tenant_;
  std::int64_t seq_ = 0;  // decision index: the tick part of span ids
  bool open_ = false;
  std::int64_t decision_start_ns_ = 0;
  std::int64_t begin_exit_ns_ = 0;
  std::uint64_t begin_calls_ = 0;
  std::uint64_t finish_calls_ = 0;
  std::uint64_t on_tick_calls_ = 0;
  std::vector<double> decision_us_;
  std::vector<double> wait_us_;
};

class EncoderProbe final : public sim::BatchEncoder {
 public:
  explicit EncoderProbe(sim::BatchEncoder& inner) : inner_(inner) {}
  std::size_t window_length() const override { return inner_.window_length(); }
  std::size_t encoding_dim() const override { return inner_.encoding_dim(); }
  void encode(std::span<const float> windows, std::size_t count,
              std::span<float> out) override;

 private:
  sim::BatchEncoder& inner_;
};

class ScorerProbe final : public sim::BatchScorer {
 public:
  explicit ScorerProbe(sim::BatchScorer& inner) : inner_(inner) {}
  std::size_t encoding_dim() const override { return inner_.encoding_dim(); }
  std::size_t grid_size() const override { return inner_.grid_size(); }
  std::size_t target_dim() const override { return inner_.target_dim(); }
  void score(std::span<const float> e1_rows, std::size_t count,
             std::span<float> out) override;

 private:
  sim::BatchScorer& inner_;
};

/// Counts (and, traced, times) every call the simulator makes into its
/// backend. Give each runtime shard its own instance: the counters are
/// relaxed atomics, and per-shard instances keep them uncontended.
class BackendProbe final : public lambda::Backend {
 public:
  explicit BackendProbe(const lambda::Backend& inner) : inner_(inner) {}

  std::uint64_t calls() const { return calls_.load(); }

  const lambda::BackendCapabilities& capabilities() const override {
    return inner_.capabilities();
  }
  double service_time(const lambda::Config& config,
                      std::int64_t batch_size) const override;
  double invocation_cost(const lambda::Config& config,
                         double duration_s) const override;
  double cold_start(const lambda::Config& config) const override;
  double cold_start_probability() const override;
  lambda::ConfigGrid config_grid() const override;
  void validate(const lambda::Config& config) const override;

 private:
  template <class F>
  auto forward(F&& call) const;

  const lambda::Backend& inner_;
  mutable std::atomic<std::uint64_t> calls_{0};
};

}  // namespace deepbat::e2e
