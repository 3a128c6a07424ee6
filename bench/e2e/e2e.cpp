// End-to-end benchmark of the DeepBAT control plane (bench/e2e/README.md).
//
// One process replays one workload: a Zipf tenant population (seeded by
// --seed) replayed through sim::Runtime as fast as the host allows, in
// simulated time. Each repetition ("rep") builds everything from the cached
// weights up — the set-up — and then replays the whole horizon. Reps repeat
// until --seconds of wall time are spent, at least three; throughput and
// latency percentiles are taken per rep and reported as medians over the
// reps, set-up time as the median over at least nine set-ups and one second
// of them. Layers are timed from outside, through the forwarding probes of
// probe.hpp.
//
//   e2e --prepare                      train or load the surrogate (untimed)
//   e2e --workload W [--seed N] [--seconds S] [--trace 0|1]
//   e2e --check                        probes-on vs probes-off identity
//
// Output: one `workload metric value unit` line per metric, then one JSON
// line {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). A result record
// with provenance lands in --out (default .bench-cache/results). Exit 1 when
// any output check fails, 2 on bad usage.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/fileio.hpp"
#include "common/stats.hpp"
#include "json.hpp"
#include "nn/serialize.hpp"
#include "probe.hpp"
#include "replay_common.hpp"
#include "sim/faults.hpp"
#include "workload/synth.hpp"

using namespace deepbat;
using e2e::Span;
using e2e::SpanLog;
using e2e::TopSpan;

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kSloS = 0.1;
constexpr double kIntervalS = 30.0;
constexpr double kCheckpointEveryS = 120.0;
constexpr double kCheckHorizonS = 300.0;
constexpr std::size_t kLearnerEvery = 8;
// chaos_durable replays one fixed "flaky" weather for every seed. The
// weather is shared by all tenants and decides when fallbacks trigger
// fine-tunes, so a weather that followed the seed made the learning work
// follow it too: 16 or 32 fine-tunes, and decisions/s 115-350 over six
// seeds. With the weather fixed, every seed ran 16.
constexpr std::uint64_t kFaultSeed = 7;
constexpr std::size_t kMaxShards = 4;
constexpr std::size_t kMinReps = 3;
// Set-ups per run: at least kMinSetups, and at least kMinSetupSeconds of
// them. chaos_durable sets up in about 7 ms; the median of nine set-ups
// ranged 7.5-11 ms over six seeds, the median of about 150 6.6-7.0 ms in
// five of them.
constexpr std::size_t kMinSetups = 9;
constexpr double kMinSetupSeconds = 1.0;
// Each tenant's first decisions are left out of the latency samples. The
// first sees an empty history, and on fleet_aligned the first two tick
// groups of a rep run while the runtime's fresh encode thread still grows
// its buffers. With a 4-thread OpenMP team, leaving out one decision, the
// p99 of fleet_aligned spread 9% over six seeds; leaving out two, 4%.
constexpr std::size_t kWarmupDecisions = 2;
// glibc's largest mmap threshold on 64-bit; a trim threshold of 1 GiB keeps
// freed heap memory mapped (see pin_malloc_thresholds).
constexpr int kMallocMmapThreshold = 32 << 20;
constexpr int kMallocTrimThreshold = 1 << 30;
const lambda::Config kInitialConfig{1024, 1, 0.0};

/// One benchmark workload. README.md's workload table lists the same
/// parameters and why each workload exists.
struct Workload {
  const char* name;
  std::size_t tenants;
  double exponent;   // Zipf skew of per-tenant request rates
  double top_rate;   // req/s of the rank-1 tenant
  double min_rate;   // rate floor of the tail (0 = pure Zipf)
  double horizon_s;  // simulated seconds replayed per rep
  bool staggered;    // tenant i ticks every 30 (1 + (i mod 1000) / 1000) s
  bool sharded;      // nproc - 1 shards, at most kMaxShards; stealing on
  bool chaos;        // flaky faults, learners, periodic checkpoints
};

constexpr Workload kWorkloads[] = {
    {"fleet_aligned", 1000, 1.2, 30.0, 0.0, 720.0, false, false, false},
    {"fleet_staggered", 1000, 1.2, 30.0, 0.0, 720.0, true, false, false},
    {"fleet_sharded", 1000, 1.2, 30.0, 0.0, 720.0, false, true, false},
    {"chaos_durable", 64, 1.0, 30.0, 0.05, 600.0, false, false, true},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// One core is left to the runtime's encode-overlap thread: the pool holds
/// shards - 1 executors plus that thread, beside the calling one. At four
/// shards on four vCPUs the five threads made reps bimodal (about 11k or 6k
/// decisions/s); at three, 138 of 140 reps read 7.1k-10.0k.
std::size_t shard_count(const Workload& w) {
  if (!w.sharded) return 1;
  const std::size_t cores = std::max(2U, std::thread::hardware_concurrency());
  return std::min(kMaxShards, cores - 1);
}

double control_interval(const Workload& w, std::size_t tenant) {
  if (!w.staggered) return kIntervalS;
  return kIntervalS * (1.0 + static_cast<double>(tenant % 1000) / 1000.0);
}

bool is_learner(const Workload& w, std::size_t tenant) {
  return w.chaos && tenant % kLearnerEvery == 0;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Type-7 quantile (common/stats), 0 for no samples.
double percentile(const std::vector<double>& xs, double q) {
  return xs.empty() ? 0.0 : quantile(xs, q);
}

double median(const std::vector<double>& xs) { return percentile(xs, 0.5); }

/// glibc adapts its mmap and trim thresholds to the sizes a process frees,
/// so a young process returns large tensor buffers to the kernel and faults
/// them back in, and an older one recycles them from its heap. A rep of a
/// young process ran up to twice as slow (chaos_durable decision p50 23-28
/// ms against 12-13 ms with a 4-thread OpenMP team), and which regime a run
/// landed in varied. Pinning both thresholds from the start measures every
/// rep in the recycling regime a long-running control plane settles into.
void pin_malloc_thresholds() {
#if defined(__GLIBC__)
  ::mallopt(M_MMAP_THRESHOLD, kMallocMmapThreshold);
  ::mallopt(M_TRIM_THRESHOLD, kMallocTrimThreshold);
#endif
}

/// Peak resident set of the process so far (getrusage ru_maxrss).
double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------------ environment --

/// What every rep of the process shares: the cache layout, the bench
/// fixture (Lambda model, grid, controller options), and the checkpoint
/// scratch path.
struct Env {
  std::filesystem::path cache_dir;
  std::filesystem::path weights_path;
  std::filesystem::path gamma_path;
  std::string checkpoint_path;
  core::PretrainSpec spec;
  std::optional<bench::Fixture> fx;
};

void init_env(Env& env, const std::string& cache_dir) {
  env.cache_dir = cache_dir;
  // bench::Fixture reads its cache location from the environment.
  ::setenv("DEEPBAT_CACHE_DIR", cache_dir.c_str(), 1);
  env.spec = core::bench_spec(env.cache_dir);
  env.weights_path = env.spec.cache_path;
  env.gamma_path = env.cache_dir / "deepbat_gamma_pretrained.txt";
  env.checkpoint_path =
      (env.cache_dir / ("e2e-" + std::to_string(::getpid()) + ".ckpt"))
          .string();
  env.fx.emplace();
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  DEEPBAT_CHECK(is.is_open(), "cannot read " + path.string());
  return std::string(std::istreambuf_iterator<char>(is), {});
}

double read_gamma(const Env& env) {
  std::istringstream is(read_file(env.gamma_path));
  double gamma = 0.0;
  DEEPBAT_CHECK(static_cast<bool>(is >> gamma),
                "malformed " + env.gamma_path.string());
  return gamma;
}

// ---------------------------------------------------------------- session --

struct SetupTimes {
  double surrogate_load_s = 0.0;
  double traces_s = 0.0;
  double controllers_s = 0.0;
  double register_s = 0.0;
  double total() const {
    return surrogate_load_s + traces_s + controllers_s + register_s;
  }
};

/// Everything one replay owns. Members are destroyed in reverse order: the
/// runtime first, then the probes, and the controllers and surrogate they
/// borrow last.
struct Session {
  std::unique_ptr<core::Surrogate> surrogate;
  std::vector<workload::Trace> traces;
  std::vector<std::unique_ptr<core::DeepBatController>> controllers;
  std::vector<learn::AdaptiveController*> learners;
  std::optional<lambda::CpuLambdaBackend> backend;
  std::optional<core::SurrogateBatchEncoder> encoder;
  std::optional<core::SurrogateBatchScorer> scorer;
  std::vector<std::unique_ptr<e2e::TenantProbe>> tenant_probes;
  std::vector<std::unique_ptr<e2e::BackendProbe>> backend_probes;
  std::optional<e2e::EncoderProbe> encoder_probe;
  std::optional<e2e::ScorerProbe> scorer_probe;
  std::optional<sim::Runtime> runtime;
};

/// Build a replay of `w` from the cached weights up, timing each set-up
/// step. `probed` = false registers the bare controllers, encoder, scorer
/// and Lambda model — the reference for the probe-transparency check.
void build_session(Session& s, const Env& env, const Workload& w,
                   std::uint64_t seed, double horizon_s, std::size_t shards,
                   bool probed, SetupTimes& times) {
  const bench::Fixture& fx = *env.fx;
  double gamma = 0.0;
  {
    TopSpan span("setup.surrogate_load");
    s.surrogate = std::make_unique<core::Surrogate>(env.spec.surrogate,
                                                    fx.grid());
    nn::load_module(env.weights_path.string(), *s.surrogate);
    s.surrogate->set_training(false);
    gamma = read_gamma(env);
    times.surrogate_load_s = span.stop();
  }
  {
    TopSpan span("setup.traces");
    workload::ZipfPopulationParams zp;
    zp.tenants = w.tenants;
    zp.horizon_s = horizon_s;
    zp.exponent = w.exponent;
    zp.top_rate = w.top_rate;
    zp.min_rate = w.min_rate;
    s.traces = workload::zipf_population(zp, seed);
    times.traces_s = span.stop();
  }
  const core::DeepBatControllerOptions copts =
      fx.controller_options(kSloS, gamma);
  const auto learner_of = [&](std::size_t i) -> learn::AdaptiveController* {
    return is_learner(w, i) ? static_cast<learn::AdaptiveController*>(
                                  s.controllers[i].get())
                            : nullptr;
  };
  {
    TopSpan span("setup.controllers");
    bench::ReplayArgs learn_args;
    learn_args.retrain_seed = seed + 2;
    s.controllers.reserve(w.tenants);
    for (std::size_t i = 0; i < w.tenants; ++i) {
      if (is_learner(w, i)) {
        auto learner = std::make_unique<learn::AdaptiveController>(
            *s.surrogate, bench::adaptive_controller_options(fx, kSloS, gamma,
                                                             learn_args));
        s.learners.push_back(learner.get());
        s.controllers.push_back(std::move(learner));
      } else {
        s.controllers.push_back(
            std::make_unique<core::DeepBatController>(*s.surrogate, copts));
      }
    }
    s.encoder.emplace(*s.surrogate);
    s.scorer.emplace(*s.surrogate, copts.grid.enumerate(),
                     core::ScoringPrecision::kFp32);
    if (probed) {
      s.backend.emplace(fx.model());
      for (std::size_t k = 0; k < shards; ++k) {
        s.backend_probes.push_back(
            std::make_unique<e2e::BackendProbe>(*s.backend));
      }
      s.tenant_probes.reserve(w.tenants);
      for (std::size_t i = 0; i < w.tenants; ++i) {
        s.tenant_probes.push_back(std::make_unique<e2e::TenantProbe>(
            *s.controllers[i], learner_of(i), static_cast<std::int64_t>(i)));
      }
      s.encoder_probe.emplace(*s.encoder);
      s.scorer_probe.emplace(*s.scorer);
    }
    times.controllers_s = span.stop();
  }
  {
    TopSpan span("setup.register");
    sim::RuntimeOptions ropts;
    ropts.shards = shards;
    sim::BatchEncoder* encoder =
        probed ? static_cast<sim::BatchEncoder*>(&*s.encoder_probe)
               : &*s.encoder;
    s.runtime.emplace(encoder, ropts);
    s.runtime->set_scorer(probed ? static_cast<sim::BatchScorer*>(
                                       &*s.scorer_probe)
                                 : &*s.scorer);
    s.runtime->reserve(w.tenants);
    const sim::FaultPlan faults =
        w.chaos ? sim::fault_scenario("flaky", kFaultSeed) : sim::FaultPlan{};
    for (std::size_t i = 0; i < w.tenants; ++i) {
      sim::TenantSpec spec;
      spec.name = "t" + std::to_string(i);
      spec.trace = &s.traces[i];
      spec.initial_config = kInitialConfig;
      spec.options.control_interval_s = control_interval(w, i);
      spec.options.fault_stream = i;
      spec.options.faults = faults;
      // Runtime partitions tenant i onto shard i mod S: one backend probe
      // per shard keeps each probe's counter on one executor at a time.
      if (probed) {
        spec.controller = s.tenant_probes[i].get();
        spec.backend = s.backend_probes[i % shards].get();
      } else {
        spec.controller = s.controllers[i].get();
        spec.model = &fx.model();
      }
      if (learn::AdaptiveController* learner = learner_of(i)) {
        spec.options.observer =
            probed ? static_cast<sim::TenantObserver*>(
                         s.tenant_probes[i].get())
                   : learner;
      }
      s.runtime->add_tenant(std::move(spec));
    }
    times.register_s = span.stop();
  }
}

// -------------------------------------------------------------------- rep --

/// One replay's outputs and the counts its layers reported.
struct Rep {
  SetupTimes setup;
  double setup_rss_mb = 0.0;  // process peak RSS when the set-up finished
  double run_s = 0.0;  // wall of run(), or of the run_until/save chain
  std::vector<sim::PlatformRun> runs;
  std::vector<std::size_t> offered;  // per tenant: arrivals in its trace
  sim::RuntimeStats stats;
  std::size_t decisions = 0;
  std::vector<double> decision_us;
  std::vector<double> wait_us;
  std::uint64_t begin_calls = 0;
  std::uint64_t finish_calls = 0;
  std::uint64_t on_tick_calls = 0;
  std::uint64_t encode_calls = 0;
  std::uint64_t encode_windows = 0;
  std::uint64_t score_calls = 0;
  std::uint64_t score_rows = 0;
  std::uint64_t backend_calls = 0;
  std::size_t retrain_runs = 0;
  std::size_t swaps = 0;
  std::size_t shadow_wins = 0;
  std::size_t shadow_losses = 0;
  std::size_t fallbacks = 0;
  std::size_t breaker_trips = 0;
  std::size_t saves = 0;
  std::uintmax_t checkpoint_bytes = 0;
};

void replay(Session& s, const Env& env, const Workload& w, double horizon_s,
            Rep& rep) {
  sim::Runtime& runtime = *s.runtime;
  if (!w.chaos) {
    TopSpan span("run");
    rep.runs = runtime.run();
    rep.run_s = span.stop();
    return;
  }
  const auto t0 = Clock::now();
  for (double t = kCheckpointEveryS; t < horizon_s; t += kCheckpointEveryS) {
    {
      TopSpan span("run_until");
      runtime.run_until(t);
    }
    {
      TopSpan span("save_checkpoint");
      runtime.save_checkpoint(env.checkpoint_path);
    }
    ++rep.saves;
    rep.checkpoint_bytes = std::filesystem::file_size(env.checkpoint_path);
  }
  {
    TopSpan span("run");
    rep.runs = runtime.run();
  }
  rep.run_s = seconds_since(t0);
}

Rep run_rep(const Env& env, const Workload& w, std::uint64_t seed,
            double horizon_s, std::size_t shards, bool probed) {
  Rep rep;
  Session s;
  build_session(s, env, w, seed, horizon_s, shards, probed, rep.setup);
  rep.setup_rss_mb = peak_rss_mb();
  replay(s, env, w, horizon_s, rep);

  rep.stats = s.runtime->stats();
  for (std::size_t i = 0; i < w.tenants; ++i) {
    rep.offered.push_back(s.traces[i].size());
    rep.decisions += rep.runs[i].decisions.size();
    rep.swaps += rep.runs[i].swaps.size();
  }
  for (const auto& c : s.controllers) {
    rep.fallbacks += c->fallback_decisions();
    rep.breaker_trips += c->breaker_trips();
  }
  for (const learn::AdaptiveController* a : s.learners) {
    rep.retrain_runs += a->retrain_runs();
    rep.shadow_wins += a->shadow_wins();
    rep.shadow_losses += a->shadow_losses();
  }
  if (probed) {
    rep.decision_us.reserve(rep.decisions);
    for (const auto& p : s.tenant_probes) {
      const std::vector<double>& us = p->decision_us();
      if (us.size() > kWarmupDecisions) {
        rep.decision_us.insert(rep.decision_us.end(),
                               us.begin() + kWarmupDecisions, us.end());
      }
      rep.wait_us.insert(rep.wait_us.end(), p->wait_us().begin(),
                         p->wait_us().end());
      rep.begin_calls += p->begin_calls();
      rep.finish_calls += p->finish_calls();
      rep.on_tick_calls += p->on_tick_calls();
    }
    for (const auto& b : s.backend_probes) rep.backend_calls += b->calls();
    rep.encode_calls = s.encoder->calls();
    rep.encode_windows = s.encoder->windows_encoded();
    rep.score_calls = s.scorer->calls();
    rep.score_rows = s.scorer->rows_scored();
  }
  return rep;
}

// ----------------------------------------------------------------- checks --

/// Per-tenant verdicts. A tenant that fails any check fails every decision
/// it made; failed_pct = failed decisions / decisions attempted.
class Checks {
 public:
  explicit Checks(const Workload& w) : failed_(w.tenants, false) {
    for (const lambda::Config& c : lambda::ConfigGrid::standard().enumerate()) {
      grid_.push_back(key(c));
    }
    std::sort(grid_.begin(), grid_.end());
  }

  /// served + dropped == offered, and every decided config is a grid point.
  void outputs(const Rep& rep, const char* label) {
    for (std::size_t i = 0; i < rep.runs.size(); ++i) {
      const sim::SimResult& r = rep.runs[i].result;
      if (r.requests.size() + r.dropped != rep.offered[i]) {
        fail(i, label, "served + dropped != offered");
      }
      for (const sim::ControlDecision& d : rep.runs[i].decisions) {
        if (!std::binary_search(grid_.begin(), grid_.end(), key(d.config))) {
          fail(i, label, "decided a config outside the grid");
          break;
        }
      }
    }
  }

  /// Per-tenant bit-identity of `got` against `want` (bench::run_identical).
  void identical(const std::vector<sim::PlatformRun>& want,
                 const std::vector<sim::PlatformRun>& got, const char* label) {
    for (std::size_t i = 0; i < failed_.size(); ++i) {
      if (i >= want.size() || i >= got.size() ||
          !bench::run_identical(want[i], got[i])) {
        fail(i, label, "differs");
      }
    }
  }

  void fail_all(const char* label, const char* what) {
    for (std::size_t i = 0; i < failed_.size(); ++i) fail(i, label, what);
  }

  bool tenant_failed(std::size_t i) const { return failed_[i]; }
  bool any() const {
    return std::find(failed_.begin(), failed_.end(), true) != failed_.end();
  }

 private:
  using Key = std::tuple<std::int64_t, std::int64_t, double>;
  static Key key(const lambda::Config& c) {
    return {c.memory_mb, c.batch_size, c.timeout_s};
  }

  void fail(std::size_t i, const char* label, const char* what) {
    if (!failed_[i] && reported_ < 5) {
      std::fprintf(stderr, "[check] %s: tenant %zu %s\n", label, i, what);
      ++reported_;
    }
    failed_[i] = true;
  }

  std::vector<bool> failed_;
  std::vector<Key> grid_;
  int reported_ = 0;
};

/// FNV-1a over every tenant's decision times, configs and total cost: the
/// replay's decision digest (shard-invariant by the runtime's contract).
std::uint64_t decision_digest(const std::vector<sim::PlatformRun>& runs) {
  sim::CheckpointWriter w;
  for (const sim::PlatformRun& run : runs) {
    for (const sim::ControlDecision& d : run.decisions) {
      w.f64(d.time);
      sim::save_config(w, d.config);
    }
    w.f64(run.result.total_cost);
  }
  return sim::checkpoint_checksum(w.bytes());
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------- metrics --

/// kEndToEnd and kLayer metrics are the ones BENCHMARK.json names; kInfo
/// ones are printed and recorded only.
enum class Group { kEndToEnd, kLayer, kInfo };

struct Metric {
  std::string name;
  double value;
  std::string unit;
  Group group;
};

class Metrics {
 public:
  void add(std::string name, double value, std::string unit,
           Group group = Group::kLayer) {
    all_.push_back({std::move(name), value, std::move(unit), group});
  }
  const std::vector<Metric>& all() const { return all_; }
  const Metric* find(const std::string& name) const {
    for (const Metric& m : all_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

 private:
  std::vector<Metric> all_;
};

/// Throughput and latency percentiles are taken per rep and reported as the
/// median over `reps`; set-up time is the median over every set-up of the
/// process. Cost and SLO outcomes are deterministic per seed, so the first
/// rep's stand for all.
void end_to_end_metrics(const std::vector<Rep>& reps,
                        const std::vector<SetupTimes>& setups, Metrics& m) {
  std::vector<double> setup_s;
  for (const SetupTimes& t : setups) setup_s.push_back(t.total());
  std::vector<double> dps;
  std::vector<double> p50;
  std::vector<double> p99;
  for (const Rep& r : reps) {
    dps.push_back(static_cast<double>(r.decisions) / r.run_s);
    p50.push_back(percentile(r.decision_us, 0.50));
    p99.push_back(percentile(r.decision_us, 0.99));
  }
  const Rep& first = reps.front();
  double cost = 0.0;
  std::size_t offered = 0;
  std::size_t met = 0;
  for (std::size_t i = 0; i < first.runs.size(); ++i) {
    const sim::SimResult& r = first.runs[i].result;
    cost += r.total_cost;
    offered += first.offered[i];
    // A dropped request is offered but never served, so it misses the SLO.
    for (const sim::RequestRecord& req : r.requests) {
      if (req.latency() <= kSloS) ++met;
    }
  }
  const double base = std::max<double>(1.0, static_cast<double>(offered));
  const Group e2e = Group::kEndToEnd;
  m.add("decisions_per_s", median(dps), "1/s", e2e);
  m.add("decision_p50_us", median(p50), "us", e2e);
  m.add("setup_s", median(setup_s), "s", e2e);
  m.add("setup_rss_mb", first.setup_rss_mb, "MB", e2e);
  m.add("cost_per_req_uusd", 1e6 * cost / base, "uUSD", e2e);
  m.add("slo_attainment_pct", 100.0 * static_cast<double>(met) / base, "%",
        e2e);
  // On fleet_aligned the p99 is the slowest tick group or two of a rep, so
  // one pause of the host moves it: over ten seeds its spread reached 19-38%
  // where the p50's stayed under 10%. It is reported, not bounded.
  m.add("decision_p99_us", median(p99), "us", Group::kInfo);
  // Whole-process peak memory grows with every rep (each rep's fresh pool
  // threads grow their own tensor arenas), so it is reported, not bounded.
  m.add("peak_rss_mb", peak_rss_mb(), "MB", Group::kInfo);
  m.add("decisions", static_cast<double>(first.decision_us.size()), "count",
        Group::kInfo);
  m.add("reps", static_cast<double>(reps.size()), "count", Group::kInfo);
  m.add("setups", static_cast<double>(setup_s.size()), "count", Group::kInfo);
}

/// Layer counts: identical in every rep of a seed (except the two
/// timing-dependent runtime stats), so they come from the first rep.
void count_metrics(const Rep& r, Metrics& m) {
  const sim::RuntimeStats& st = r.stats;
  std::size_t offered = 0;
  std::size_t dropped = 0;
  std::size_t retries = 0;
  std::size_t invocations = 0;
  for (std::size_t i = 0; i < r.runs.size(); ++i) {
    offered += r.offered[i];
    dropped += r.runs[i].result.dropped;
    retries += r.runs[i].result.retries;
    invocations += r.runs[i].result.invocations;
  }
  const auto n = [](auto v) { return static_cast<double>(v); };
  m.add("sim.runtime.tick_groups", n(st.tick_groups), "count");
  m.add("sim.runtime.steals", n(st.steals), "count");
  m.add("sim.runtime.max_queue_depth", n(st.max_queue_depth), "count");
  m.add("sim.requests_offered", n(offered), "count");
  m.add("sim.requests_dropped", n(dropped), "count");
  m.add("sim.retries", n(retries), "count");
  m.add("sim.invocations", n(invocations), "count");
  m.add("core.begin_tick.calls", n(r.begin_calls), "count");
  m.add("core.finish_tick.calls", n(r.finish_calls), "count");
  const std::size_t probes = st.cache_hits + st.cache_misses;
  m.add("core.encoder.cache_hits", n(st.cache_hits), "count");
  m.add("core.encoder.cache_misses", n(st.cache_misses), "count");
  m.add("core.encoder.cache_hit_ratio",
        probes > 0 ? n(st.cache_hits) / n(probes) : 0.0, "ratio");
  m.add("core.bypassed_ticks", n(st.bypassed_ticks), "count");
  m.add("core.encode.calls", n(r.encode_calls), "count");
  m.add("core.encode.windows", n(r.encode_windows), "count");
  m.add("core.encode.windows_per_call",
        r.encode_calls > 0 ? n(r.encode_windows) / n(r.encode_calls) : 0.0,
        "count");
  m.add("core.score.calls", n(r.score_calls), "count");
  m.add("core.score.rows", n(r.score_rows), "count");
  m.add("learn.on_tick.calls", n(r.on_tick_calls), "count");
  m.add("learn.retrain_runs", n(r.retrain_runs), "count");
  m.add("learn.swaps", n(r.swaps), "count");
  m.add("learn.shadow_wins", n(r.shadow_wins), "count");
  m.add("learn.shadow_losses", n(r.shadow_losses), "count");
  m.add("core.fallback_decisions", n(r.fallbacks), "count");
  m.add("core.breaker_trips", n(r.breaker_trips), "count");
  m.add("sim.checkpoint.saves", n(r.saves), "count");
  m.add("sim.checkpoint.bytes", n(r.checkpoint_bytes), "B");
  m.add("lambda.backend.calls", n(r.backend_calls), "count");
}

void setup_metrics(const std::vector<SetupTimes>& setups, Metrics& m) {
  std::vector<double> load, traces, controllers, reg;
  for (const SetupTimes& t : setups) {
    load.push_back(t.surrogate_load_s);
    traces.push_back(t.traces_s);
    controllers.push_back(t.controllers_s);
    reg.push_back(t.register_s);
  }
  m.add("setup.surrogate_load_s", median(load), "s");
  m.add("setup.traces_s", median(traces), "s");
  m.add("setup.controllers_s", median(controllers), "s");
  m.add("setup.register_s", median(reg), "s");
}

/// Total length, in nanoseconds, of the union of [start, end) intervals.
std::int64_t union_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (open && a <= hi) {
      hi = std::max(hi, b);
      continue;
    }
    if (open) total += hi - lo;
    lo = a;
    hi = b;
    open = true;
  }
  if (open) total += hi - lo;
  return total;
}

/// Busy time and latency percentiles per layer, from the spans of the
/// traced rep's replay (set-up spans are left out). Shares are of the rep's
/// run wall time; on a multi-shard replay layers run in parallel, so shares
/// may sum past 100.
void span_metrics(const Rep& traced, const std::vector<Span>& spans,
                  double untraced_dps, double restore_s, Metrics& m) {
  // Checkpoint saves are calls the benchmark makes inside the replay, so
  // they count as layer time next to the probed calls.
  std::vector<std::uint32_t> replay_scopes;
  for (const Span& s : spans) {
    const std::string_view name(s.name);
    if (s.top && (name == "run" || name == "run_until" ||
                  name == "save_checkpoint")) {
      replay_scopes.push_back(static_cast<std::uint32_t>(s.seq));
    }
  }
  struct Layer {
    std::int64_t busy_ns = 0;
    std::vector<double> us;
  };
  std::map<std::string, Layer> layers;
  std::vector<std::pair<std::int64_t, std::int64_t>> calls;
  std::int64_t busy_total_ns = 0;
  for (const Span& s : spans) {
    const bool in_replay =
        s.top ? std::string_view(s.name) == "save_checkpoint"
              : std::find(replay_scopes.begin(), replay_scopes.end(),
                          s.parent) != replay_scopes.end();
    if (!in_replay) continue;
    const std::int64_t d = s.end_ns - s.start_ns;
    Layer& l = layers[s.name];
    l.busy_ns += d;
    l.us.push_back(static_cast<double>(d) * 1e-3);
    busy_total_ns += d;
    calls.emplace_back(s.start_ns, s.end_ns);
  }
  const double wall = traced.run_s;
  const std::int64_t covered_ns = union_ns(calls);
  const double covered = static_cast<double>(covered_ns) * 1e-9;
  const auto busy = [&](const char* name) {
    return static_cast<double>(layers[name].busy_ns) * 1e-9;
  };
  const auto pct = [&](const char* name, double q) {
    return percentile(layers[name].us, q);
  };
  const auto share = [&](double s) { return 100.0 * s / wall; };

  m.add("sim.runtime.self_s", wall - covered, "s");
  m.add("sim.runtime.self_share_pct", share(wall - covered), "%");
  m.add("core.begin_tick.busy_s", busy("core.begin_tick"), "s");
  m.add("core.begin_tick.p50_us", pct("core.begin_tick", 0.5), "us");
  m.add("core.finish_tick.busy_s", busy("core.finish_tick"), "s");
  m.add("core.finish_tick.p50_us", pct("core.finish_tick", 0.5), "us");
  m.add("core.decision.wait_p50_us", percentile(traced.wait_us, 0.5), "us");
  m.add("core.decision.wait_p99_us", percentile(traced.wait_us, 0.99), "us");
  const double encode_s = busy("core.encode");
  const double score_s = busy("core.score");
  m.add("core.encode.busy_s", encode_s, "s");
  m.add("core.encode.us_per_window",
        traced.encode_windows > 0
            ? 1e6 * encode_s / static_cast<double>(traced.encode_windows)
            : 0.0,
        "us");
  m.add("core.score.busy_s", score_s, "s");
  m.add("core.score.us_per_row",
        traced.score_rows > 0
            ? 1e6 * score_s / static_cast<double>(traced.score_rows)
            : 0.0,
        "us");
  m.add("learn.on_tick.busy_s", busy("learn.on_tick"), "s");
  m.add("learn.on_tick.p99_us", pct("learn.on_tick", 0.99), "us");
  m.add("sim.checkpoint.save_s", busy("save_checkpoint"), "s");
  m.add("sim.checkpoint.restore_s", restore_s, "s");
  m.add("lambda.backend.busy_s", busy("lambda.backend"), "s");
  m.add("core.begin_tick.share_pct", share(busy("core.begin_tick")), "%");
  m.add("core.finish_tick.share_pct", share(busy("core.finish_tick")), "%");
  m.add("core.encode.share_pct", share(encode_s), "%");
  m.add("core.score.share_pct", share(score_s), "%");
  m.add("learn.on_tick.share_pct", share(busy("learn.on_tick")), "%");
  m.add("sim.checkpoint.share_pct", share(busy("save_checkpoint")), "%");
  m.add("lambda.backend.share_pct", share(busy("lambda.backend")), "%");
  const double traced_dps =
      static_cast<double>(traced.decisions) / traced.run_s;
  m.add("trace.overhead_pct", 100.0 * (1.0 - traced_dps / untraced_dps), "%");
  m.add("trace.overlap_s",
        static_cast<double>(busy_total_ns - covered_ns) * 1e-9, "s");
}

// ------------------------------------------------------------- provenance --

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000U, nullptr) >= 0x80000004U) {
    for (unsigned k = 0; k < 3; ++k) {
      __get_cpuid(0x80000002U + k, &regs[4 * k], &regs[4 * k + 1],
                  &regs[4 * k + 2], &regs[4 * k + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.c_str();  // cut at the terminating NUL
    const auto first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}

/// The ISA extensions the kernels' speed depends on.
std::string isa_json() {
  bool avx2 = false;
  bool avx512f = false;
  bool fma = false;
#if defined(__x86_64__) || defined(__i386__)
  avx2 = __builtin_cpu_supports("avx2") != 0;
  avx512f = __builtin_cpu_supports("avx512f") != 0;
  fma = __builtin_cpu_supports("fma") != 0;
#endif
  const auto b = [](bool v) { return v ? "true" : "false"; };
  return std::string("\"avx2\": ") + b(avx2) + ", \"avx512f\": " +
         b(avx512f) + ", \"fma\": " + b(fma);
}

std::string provenance_json(const Env& env, const Workload& w,
                            std::uint64_t seed, const std::string& git_rev) {
  const std::string weights = read_file(env.weights_path);
  const std::uint64_t weights_fnv = sim::checkpoint_checksum(
      {reinterpret_cast<const std::uint8_t*>(weights.data()), weights.size()});
  const auto env_or_unset = [](const char* name) {
    const char* v = std::getenv(name);
    return e2e::quote(v != nullptr ? v : "unset");
  };
  using e2e::number;
  using e2e::quote;
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": " << quote(cpu_model())
     << ", " << isa_json()
     << ", \"omp_num_threads\": " << env_or_unset("OMP_NUM_THREADS")
     << ", \"omp_wait_policy\": " << env_or_unset("OMP_WAIT_POLICY")
     << ", \"malloc_mmap_threshold\": " << kMallocMmapThreshold
     << ", \"malloc_trim_threshold\": " << kMallocTrimThreshold
     << ", \"seed\": " << seed << ", \"git_rev\": " << quote(git_rev)
     << ", \"weights_fnv1a\": " << quote(hex(weights_fnv))
     << ",\n  \"params\": {\"tenants\": " << w.tenants
     << ", \"zipf_exponent\": " << number(w.exponent)
     << ", \"top_rate\": " << number(w.top_rate)
     << ", \"min_rate\": " << number(w.min_rate)
     << ", \"horizon_s\": " << number(w.horizon_s)
     << ", \"interval_s\": " << number(kIntervalS)
     << ", \"staggered\": " << (w.staggered ? "true" : "false")
     << ", \"shards\": " << shard_count(w)
     << ", \"faults\": " << quote(w.chaos ? "flaky" : "none")
     << ", \"fault_seed\": " << (w.chaos ? kFaultSeed : 0)
     << ", \"learner_every\": " << (w.chaos ? kLearnerEvery : 0)
     << ", \"retrain_seed\": " << (w.chaos ? seed + 2 : 0)
     << ", \"retrain\": " << quote(w.chaos ? "inline" : "none")
     << ", \"checkpoint_every_s\": "
     << number(w.chaos ? kCheckpointEveryS : 0.0)
     << ", \"slo_s\": " << number(kSloS)
     << ", \"precision\": \"fp32\", \"initial_config\": "
     << quote(kInitialConfig.to_string()) << "}}";
  return os.str();
}

void write_result(const std::string& out_dir, const Env& env,
                  const Workload& w, std::uint64_t seed, bool traced,
                  const std::string& git_rev, bool correct,
                  std::size_t attempted, std::size_t failed,
                  std::uint64_t digest, const Metrics& m) {
  std::filesystem::create_directories(out_dir);
  const auto now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::system_clock::now().time_since_epoch())
                          .count();
  using e2e::number;
  using e2e::quote;
  std::ostringstream os;
  os << "{\"workload\": " << quote(w.name) << ", \"seed\": " << seed
     << ", \"trace\": " << (traced ? "true" : "false")
     << ", \"started_unix_ns\": " << now_ns
     << ",\n \"provenance\": " << provenance_json(env, w, seed, git_rev)
     << ",\n \"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"decision_digest\": " << quote(hex(digest))
     << ",\n \"metrics\": {";
  for (std::size_t i = 0; i < m.all().size(); ++i) {
    const Metric& x = m.all()[i];
    os << (i > 0 ? ",\n   " : "\n   ") << quote(x.name)
       << ": {\"value\": " << number(x.value)
       << ", \"unit\": " << quote(x.unit) << "}";
  }
  os << "}}\n";
  const std::string path = out_dir + "/" + w.name + "-s" +
                           std::to_string(seed) + (traced ? "-trace-" : "-") +
                           std::to_string(now_ns) + ".json";
  write_file_atomic(path, os.str());
}

// ------------------------------------------------------------------ modes --

struct Options {
  std::string workload;
  std::uint64_t seed = 9001;
  double seconds = 20.0;
  bool trace = false;
  std::string trace_dir;
  std::string out_dir;
  std::string cache_dir;
  std::string git_rev;
};

int measure(const Options& opt, const Env& env, const Workload& w) {
  const std::size_t shards = shard_count(w);
  Checks checks(w);
  // Every rep is timed. The first one's outputs are the reference every
  // later rep must reproduce bit for bit; the medians absorb the first
  // rep's cold start (thread pools, allocator, tensor arenas).
  std::vector<Rep> reps;
  std::vector<SetupTimes> setups;
  const auto t0 = Clock::now();
  double last_rep_s = 0.0;
  while (reps.size() < kMinReps ||
         seconds_since(t0) + last_rep_s <= opt.seconds) {
    const auto r0 = Clock::now();
    Rep rep = run_rep(env, w, opt.seed, w.horizon_s, shards, true);
    last_rep_s = seconds_since(r0);
    std::fprintf(stderr,
                 "[%s rep %zu] %.1f decisions/s, p50 %.0f us, p99 %.0f us, "
                 "set-up %.4f s, run %.2f s\n",
                 w.name, reps.size() + 1,
                 static_cast<double>(rep.decisions) / rep.run_s,
                 percentile(rep.decision_us, 0.5),
                 percentile(rep.decision_us, 0.99), rep.setup.total(),
                 rep.run_s);
    checks.outputs(rep, "outputs");
    if (!reps.empty()) {
      checks.identical(reps.front().runs, rep.runs, "rerun");
      rep.runs = {};
    }
    setups.push_back(rep.setup);
    reps.push_back(std::move(rep));
  }
  const Rep& first = reps.front();
  const std::uint64_t digest = decision_digest(first.runs);
  // More set-ups without a replay, so the set-up median rests on enough
  // samples (see kMinSetupSeconds).
  double setup_total_s = 0.0;
  for (const SetupTimes& t : setups) setup_total_s += t.total();
  while (setups.size() < kMinSetups || setup_total_s < kMinSetupSeconds) {
    Session s;
    build_session(s, env, w, opt.seed, w.horizon_s, shards, true,
                  setups.emplace_back());
    setup_total_s += setups.back().total();
  }

  // Untimed correctness passes over the same seed. fleet_sharded is
  // fleet_aligned's fleet, so its 1-shard reference is fleet_aligned's
  // replay, and both record the same decision digest.
  if (w.sharded) {
    const Rep one = run_rep(env, w, opt.seed, w.horizon_s, 1, true);
    checks.identical(one.runs, first.runs, "1-shard reference");
    if (decision_digest(one.runs) != digest) {
      checks.fail_all("1-shard reference", "decision digest differs");
    }
  }
  double restore_s = 0.0;
  if (w.chaos) {
    Session s;
    SetupTimes ignored;
    build_session(s, env, w, opt.seed, w.horizon_s, shards, true, ignored);
    {
      TopSpan span("restore_checkpoint");
      s.runtime->restore_checkpoint(env.checkpoint_path);
      restore_s = span.stop();
    }
    checks.identical(first.runs, s.runtime->run(), "restored tail");
  }

  std::optional<Rep> traced;
  std::vector<Span> spans;
  if (opt.trace) {
    SpanLog& log = SpanLog::instance();
    log.clear();
    log.set_on(true);
    traced = run_rep(env, w, opt.seed, w.horizon_s, shards, true);
    log.set_on(false);
    spans = log.collect();
    checks.outputs(*traced, "traced");
    checks.identical(first.runs, traced->runs, "traced");
    std::filesystem::create_directories(opt.trace_dir);
    log.write_chrome(opt.trace_dir + "/" + w.name + ".trace.json");
  }
  std::remove(env.checkpoint_path.c_str());

  // Attempted = every decision replayed; a failed tenant fails all of its.
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const std::size_t rep_count = reps.size() + (traced.has_value() ? 1 : 0);
  for (std::size_t i = 0; i < w.tenants; ++i) {
    const std::size_t n = first.runs[i].decisions.size() * rep_count;
    attempted += n;
    if (checks.tenant_failed(i)) failed += n;
  }

  Metrics m;
  end_to_end_metrics(reps, setups, m);
  m.add("failed_pct",
        100.0 * static_cast<double>(failed) /
            std::max<double>(1.0, static_cast<double>(attempted)),
        "%", Group::kInfo);
  setup_metrics(setups, m);
  count_metrics(first, m);
  if (traced.has_value()) {
    span_metrics(*traced, spans, m.find("decisions_per_s")->value, restore_s,
                 m);
  } else {
    m.add("sim.checkpoint.restore_s", restore_s, "s");
  }

  for (const Metric& x : m.all()) {
    std::printf("%s %s %.17g %s\n", w.name, x.name.c_str(), x.value,
                x.unit.c_str());
  }
  const bool correct = !checks.any() && attempted > 0;
  write_result(opt.out_dir, env, w, opt.seed, opt.trace, opt.git_rev, correct,
               attempted, failed, digest, m);

  // The JSON line carries exactly the metric set BENCHMARK.json names for
  // this mode: end-to-end untraced, per-layer traced.
  const Group shown = opt.trace ? Group::kLayer : Group::kEndToEnd;
  std::vector<const Metric*> listed;
  for (const Metric& x : m.all()) {
    if (x.group == shown) listed.push_back(&x);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < listed.size(); ++i) {
    std::printf("%s%s: {\"value\": %s, \"unit\": %s}", i > 0 ? ", " : "",
                e2e::quote(listed[i]->name).c_str(),
                e2e::number(listed[i]->value).c_str(),
                e2e::quote(listed[i]->unit).c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

/// Probe transparency: the first kCheckHorizonS seconds of every workload,
/// replayed bare, with probes, and with probes recording spans, must be
/// bit-identical.
int check(const Options& opt, const Env& env) {
  const auto t0 = Clock::now();
  bool ok = true;
  for (const Workload& w : kWorkloads) {
    const std::size_t shards = shard_count(w);
    Checks checks(w);
    const Rep bare = run_rep(env, w, opt.seed, kCheckHorizonS, shards, false);
    checks.outputs(bare, "bare");
    const Rep probed =
        run_rep(env, w, opt.seed, kCheckHorizonS, shards, true);
    checks.identical(bare.runs, probed.runs, "probes on");
    SpanLog& log = SpanLog::instance();
    log.clear();
    log.set_on(true);
    const Rep traced =
        run_rep(env, w, opt.seed, kCheckHorizonS, shards, true);
    log.set_on(false);
    log.clear();
    checks.identical(bare.runs, traced.runs, "probes tracing");
    std::printf("check %s %s (%zu decisions)\n", w.name,
                checks.any() ? "DIVERGED" : "identical", bare.decisions);
    ok &= !checks.any();
  }
  std::remove(env.checkpoint_path.c_str());
  std::printf("check total_s %.2f\n", seconds_since(t0));
  return ok ? 0 : 1;
}

int prepare(Env& env) {
  env.fx->pretrained();
  env.fx->pretrained_gamma();
  std::printf("[prepare] surrogate ready in %s\n", env.cache_dir.c_str());
  return 0;
}

int usage(const char* argv0, const std::string& why) {
  std::fprintf(stderr,
               "%s\nusage: %s --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-dir DIR] [--out DIR] [--cache DIR] "
               "[--git-rev REV]\n       %s --prepare | --check [--seed N]\n"
               "workloads:",
               why.c_str(), argv0, argv0);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pin_malloc_thresholds();
  Options opt;
  bool prepare_mode = false;
  bool check_mode = false;
  try {
    const CliFlags flags(argc, argv);
    flags.check_known({"workload", "seed", "seconds", "trace", "trace-dir",
                       "out", "cache", "git-rev", "prepare", "check"});
    opt.workload = flags.get("workload", "");
    opt.seed = static_cast<std::uint64_t>(flags.get_int("seed", 9001));
    opt.seconds = flags.get_double("seconds", opt.seconds);
    const std::string trace = flags.get("trace", "0");
    DEEPBAT_CHECK(trace == "0" || trace == "1", "--trace must be 0 or 1");
    opt.trace = trace == "1";
    opt.cache_dir = flags.get("cache", ".bench-cache");
    opt.trace_dir = flags.get("trace-dir", opt.cache_dir + "/traces");
    opt.out_dir = flags.get("out", opt.cache_dir + "/results");
    opt.git_rev = flags.get("git-rev", "unknown");
    prepare_mode = flags.get_bool("prepare", false);
    check_mode = flags.get_bool("check", false);
    DEEPBAT_CHECK(opt.seconds > 0.0, "--seconds must be positive");
    DEEPBAT_CHECK(prepare_mode || check_mode || !opt.workload.empty(),
                  "--workload is required");
    DEEPBAT_CHECK(opt.workload.empty() || find_workload(opt.workload),
                  "unknown workload '" + opt.workload + "'");
  } catch (const Error& e) {
    return usage(argv[0], e.what());
  }

  try {
    Env env;
    init_env(env, opt.cache_dir);
    if (prepare_mode) return prepare(env);
    DEEPBAT_CHECK(std::filesystem::exists(env.weights_path) &&
                      std::filesystem::exists(env.gamma_path),
                  "no cached surrogate in " + opt.cache_dir +
                      " (run e2e --prepare first)");
    if (check_mode) return check(opt, env);
    return measure(opt, env, *find_workload(opt.workload));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e: %s\n", e.what());
    return 1;
  }
}
