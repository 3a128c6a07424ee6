// Million-tenant runtime scaling (DESIGN.md §15): Zipf-skewed tenant
// populations replayed through sim::Runtime at increasing fleet sizes and
// shard counts. Control intervals are STAGGERED across tenants (1000
// distinct values), so tick groups stay small and every control tick pays
// the scheduler's next_group cost — an O(tenants) scan would make per-tick
// cost grow with the fleet; the O(log tenants) heap must keep it roughly
// flat. That flatness is this bench's pass/fail gate, together with shard
// invariance of the replayed decisions.
//
// The controller is a shared FixedController: decisions cost O(1), so
// wall-clock isolates the runtime's own overheads — scheduler, event
// delivery, registration (tenant table + validation memo). Shard speedup
// is reported but INFORMATIONAL on hosts without enough cores to show one.
//
// Writes BENCH_runtime_scaling.json (this bench owns the file; the
// decision-level divergence checks against solo replays live in
// tests/sim/test_runtime.cpp).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/fileio.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "workload/synth.hpp"

using namespace deepbat;

namespace {

double wall_seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Staggered control interval of tenant i: 1000 distinct values in
/// [base, 2 * base), so coinciding tick instants — and therefore tick
/// groups — stay small at any fleet size.
double staggered_interval(std::size_t i, double base) {
  return base * (1.0 + static_cast<double>(i % 1000) / 1000.0);
}

struct Point {
  std::size_t tenants = 0;
  std::size_t shards = 0;
  double skew = 0.0;
  std::size_t live = 0;        // tenants with at least one arrival
  std::size_t arrivals = 0;
  double register_seconds = 0.0;
  double wall_seconds = 0.0;
  std::size_t tick_groups = 0;
  std::size_t control_ticks = 0;
  std::size_t max_queue_depth = 0;
  double us_per_tick = 0.0;
  double speedup_vs_1shard = 1.0;
};

bool runs_identical(const std::vector<sim::PlatformRun>& a,
                    const std::vector<sim::PlatformRun>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].decisions.size() != b[i].decisions.size()) return false;
    for (std::size_t k = 0; k < a[i].decisions.size(); ++k) {
      const auto& x = a[i].decisions[k];
      const auto& y = b[i].decisions[k];
      if (x.time != y.time || x.config.memory_mb != y.config.memory_mb ||
          x.config.batch_size != y.config.batch_size ||
          x.config.timeout_s != y.config.timeout_s) {
        return false;
      }
    }
    if (a[i].result.total_cost != b[i].result.total_cost ||
        a[i].result.invocations != b[i].result.invocations) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t max_tenants = 0;
  double horizon_s = 0.0;
  double base_interval_s = 0.0;
  double top_rate = 0.0;
  std::uint64_t seed = 0;
  std::string out_path;
  try {
    CliFlags flags(argc, argv);
    flags.check_known(
        {"max-tenants", "horizon", "interval", "top-rate", "seed", "out"});
    max_tenants =
        static_cast<std::size_t>(flags.get_int("max-tenants", 100000));
    horizon_s = flags.get_double("horizon", 300.0);
    base_interval_s = flags.get_double("interval", 2.0);
    top_rate = flags.get_double("top-rate", 30.0);
    seed = static_cast<std::uint64_t>(flags.get_int("seed", 9001));
    out_path = flags.get("out", "BENCH_runtime_scaling.json");
  } catch (const Error& e) {
    std::fprintf(stderr,
                 "%s\nusage: %s [--max-tenants N] [--horizon S] "
                 "[--interval S] [--top-rate R] [--seed N] [--out PATH]\n",
                 e.what(), argc > 0 ? argv[0] : "runtime_scale");
    return 2;
  }

  bench::preamble(
      "Runtime scale — Zipf fleets, static shards, heap tick scheduler",
      "per-tick scheduler cost must stay flat as the fleet grows; decisions "
      "must be shard-invariant; shard speedup is informational");

  const unsigned hardware = std::thread::hardware_concurrency();
  std::printf("[host] hardware_concurrency=%u\n", hardware);

  const lambda::LambdaModel model;
  const lambda::Config config{1024, 1, 0.0};
  sim::FixedController controller(config);  // stateless: shared fleet-wide

  std::vector<std::size_t> ladder;
  for (const std::size_t n : {std::size_t{1000}, std::size_t{10000},
                              std::size_t{100000}, std::size_t{1000000}}) {
    if (n <= max_tenants) ladder.push_back(n);
  }
  const std::vector<double> skews = {0.8, 1.2};
  const std::vector<std::size_t> shard_counts = {1, 2};

  std::vector<Point> points;
  bool shard_invariant = true;
  for (const double skew : skews) {
    for (const std::size_t tenants : ladder) {
      workload::ZipfPopulationParams zp;
      zp.tenants = tenants;
      zp.horizon_s = horizon_s;
      zp.exponent = skew;
      zp.top_rate = top_rate;
      const std::vector<workload::Trace> traces =
          workload::zipf_population(zp, seed);
      std::size_t live = 0;
      std::size_t arrivals = 0;
      for (const auto& tr : traces) {
        if (!tr.empty()) ++live;
        arrivals += tr.size();
      }

      std::vector<sim::PlatformRun> one_shard_runs;
      for (const std::size_t shards : shard_counts) {
        sim::RuntimeOptions ropts;
        ropts.shards = shards;
        sim::Runtime runtime(nullptr, ropts);
        runtime.reserve(tenants);
        const auto t_reg = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < tenants; ++i) {
          sim::TenantSpec spec;
          spec.trace = &traces[i];
          spec.controller = &controller;
          spec.model = &model;
          spec.initial_config = config;
          spec.options.control_interval_s =
              staggered_interval(i, base_interval_s);
          spec.options.fault_stream = i;
          runtime.add_tenant(std::move(spec));
        }
        const double register_seconds = wall_seconds(t_reg);
        const auto t_run = std::chrono::steady_clock::now();
        auto runs = runtime.run();
        const double wall = wall_seconds(t_run);
        const sim::RuntimeStats& stats = runtime.stats();

        Point p;
        p.tenants = tenants;
        p.shards = shards;
        p.skew = skew;
        p.live = live;
        p.arrivals = arrivals;
        p.register_seconds = register_seconds;
        p.wall_seconds = wall;
        p.tick_groups = stats.tick_groups;
        p.control_ticks = stats.control_ticks;
        p.max_queue_depth = stats.max_queue_depth;
        p.us_per_tick = stats.control_ticks > 0
                            ? 1e6 * wall / static_cast<double>(
                                               stats.control_ticks)
                            : 0.0;
        if (shards == shard_counts.front()) {
          one_shard_runs = std::move(runs);
        } else {
          if (!runs_identical(one_shard_runs, runs)) {
            shard_invariant = false;
            std::printf("[scale] DIVERGENCE: %zu tenants skew %.1f at %zu "
                        "shards\n",
                        tenants, skew, shards);
          }
          for (const Point& q : points) {
            if (q.tenants == tenants && q.skew == skew && q.shards == 1) {
              p.speedup_vs_1shard =
                  p.wall_seconds > 0.0 ? q.wall_seconds / p.wall_seconds
                                       : 0.0;
            }
          }
        }
        std::printf("[scale] skew %.1f, %7zu tenants (%6zu live), %zu "
                    "shard(s): reg %.2fs, run %.2fs, %zu ticks, %.2f "
                    "us/tick\n",
                    skew, tenants, live, shards, register_seconds, wall,
                    p.control_ticks, p.us_per_tick);
        points.push_back(p);
      }
    }
  }

  // --- gates ---------------------------------------------------------------
  // Per-tick scheduler cost must not grow with the fleet: compare the
  // 1-shard us/tick at the smallest vs largest fleet per skew. The bound is
  // deliberately loose (noise, cache effects); an O(tenants) scheduler
  // regresses this by ~100x at the 1k -> 100k step, not 8x.
  constexpr double kFlatnessBound = 8.0;
  bool cost_flat = true;
  double worst_ratio = 0.0;
  for (const double skew : skews) {
    const Point* smallest = nullptr;
    const Point* largest = nullptr;
    for (const Point& p : points) {
      if (p.skew != skew || p.shards != 1 || p.control_ticks == 0) continue;
      if (smallest == nullptr || p.tenants < smallest->tenants) smallest = &p;
      if (largest == nullptr || p.tenants > largest->tenants) largest = &p;
    }
    if (smallest == nullptr || largest == nullptr || smallest == largest) {
      continue;
    }
    const double ratio = largest->us_per_tick /
                         std::max(smallest->us_per_tick, 1e-9);
    worst_ratio = std::max(worst_ratio, ratio);
    if (ratio > kFlatnessBound) cost_flat = false;
    std::printf("[gate] skew %.1f per-tick cost: %.2f us (%zu tenants) -> "
                "%.2f us (%zu tenants), ratio %.2f (bound %.1f)\n",
                skew, smallest->us_per_tick, smallest->tenants,
                largest->us_per_tick, largest->tenants, ratio,
                kFlatnessBound);
  }

  // Shard speedup: informational. A 1-core host cannot show one (the
  // shard threads time-slice one CPU), so the flat curve there is
  // expected, not a failure; multi-core hosts print the observed ratio.
  double best_speedup = 0.0;
  for (const Point& p : points) {
    best_speedup = std::max(best_speedup, p.speedup_vs_1shard);
  }
  if (hardware < 2) {
    std::printf("[speedup] informational: single-core host, best observed "
                "%.2fx (flat curve expected)\n",
                best_speedup);
  } else {
    std::printf("[speedup] best observed %.2fx across the sweep (%u cores; "
                "informational)\n",
                best_speedup, hardware);
  }

  Table t({"skew", "tenants", "shards", "ticks", "us_per_tick",
           "queue_depth"});
  for (const Point& p : points) {
    t.add_row({fmt(p.skew, 1), std::to_string(p.tenants),
               std::to_string(p.shards), std::to_string(p.control_ticks),
               fmt(p.us_per_tick, 2), std::to_string(p.max_queue_depth)});
  }
  t.print(std::cout);

  {
    std::ostringstream out;
    out << "{\n  \"bench\": \"runtime_scale\",\n"
        << "  \"hardware_concurrency\": " << hardware << ",\n"
        << "  \"horizon_s\": " << horizon_s << ",\n"
        << "  \"base_interval_s\": " << base_interval_s << ",\n"
        << "  \"top_rate\": " << top_rate << ",\n"
        << "  \"identical_across_shards\": "
        << (shard_invariant ? "true" : "false") << ",\n"
        << "  \"per_event_cost_flat\": " << (cost_flat ? "true" : "false")
        << ",\n"
        << "  \"per_event_cost_worst_ratio\": " << worst_ratio << ",\n"
        << "  \"speedup_informational\": " << (hardware < 2 ? "true" : "false")
        << ",\n  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      out << "    {\"tenants\": " << p.tenants << ", \"shards\": " << p.shards
          << ", \"skew\": " << p.skew << ", \"live_tenants\": " << p.live
          << ", \"arrivals\": " << p.arrivals
          << ", \"register_seconds\": " << p.register_seconds
          << ", \"wall_seconds\": " << p.wall_seconds
          << ", \"tick_groups\": " << p.tick_groups
          << ", \"control_ticks\": " << p.control_ticks
          << ", \"us_per_tick\": " << p.us_per_tick
          << ", \"max_queue_depth\": " << p.max_queue_depth
          << ", \"speedup_vs_1shard\": " << p.speedup_vs_1shard << "}"
          << (i + 1 < points.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    write_file_atomic(out_path, out.str());
  }
  std::printf("[scale] wrote %s (flat=%s, invariant=%s)\n", out_path.c_str(),
              cost_flat ? "yes" : "NO", shard_invariant ? "yes" : "NO");

  return cost_flat && shard_invariant ? 0 : 1;
}
