// compare — judge a change against its parent from two directories of e2e
// result records (bench/e2e/README.md).
//
//   compare PARENT_DIR CHANGE_DIR [--bounds BENCHMARK.json]
//   compare DIR [--bounds BENCHMARK.json]     (summary as baseline JSON)
//
// Runs pair by seed: each parent run meets the change run of the same seed.
// Both sides must have run the same seeds with the same surrogate weights
// (the weights_fnv1a of every record), or compare exits 2. For every
// workload x end-to-end metric named in BENCHMARK.json it prints each side's
// median and quartiles, the pairs the change won (ties counting for
// neither), and a verdict. cost_per_req_uusd and slo_attainment_pct are a
// function of the seed, so their pairs compare exactly:
//   improved    no pair worse and at least one better;
//   regressed   any pair worse;
//   unchanged   every pair equal.
// The timed metrics compare against their bound:
//   improved    the change won at least 9/10 of the pairs and the medians
//               differ, in its favour, by more than the parent's
//               interquartile range;
//   regressed   the change's median is worse than the parent's by more than
//               the metric's bound;
//   unresolved  the spread (interquartile range over median) of either side
//               is wider than the bound, unless every change run beats every
//               parent run;
//   unchanged   otherwise.
// Quartiles follow Python's statistics.quantiles(n=4) ("exclusive").
// Exits 1 when any metric regressed, 2 on bad usage, unreadable input, or
// runs that do not pair.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "json.hpp"

using deepbat::e2e::Json;
using deepbat::e2e::number;

namespace {

struct Bound {
  std::string name;
  std::string unit;
  bool lower_is_better = true;
  double bound = 0.0;
};

std::vector<Bound> read_bounds(const std::string& path) {
  const Json doc = deepbat::e2e::read_json_file(path);
  std::vector<Bound> out;
  for (const Json& m : doc.at("end_to_end").array) {
    Bound b;
    b.name = m.at("name").string;
    b.unit = m.at("unit").string;
    b.lower_is_better = m.at("better").string == "lower";
    b.bound = m.at("bound").number;
    out.push_back(b);
  }
  return out;
}

/// One untraced result record: its start time and metric values.
struct Run {
  double started = 0.0;
  double seed = 0.0;
  std::map<std::string, double> values;
  const Json* provenance = nullptr;
};

/// workload -> runs in start order (runs of one seed pair in this order).
/// Traced records are skipped: end-to-end
/// metrics come from untraced runs only.
std::map<std::string, std::vector<Run>> read_runs(const std::string& dir,
                                                  std::vector<Json>& keep) {
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".json") files.push_back(e.path());
  }
  keep.reserve(files.size());  // provenance pointers stay valid
  std::map<std::string, std::vector<Run>> out;
  for (const auto& f : files) {
    keep.push_back(deepbat::e2e::read_json_file(f.string()));
    const Json& doc = keep.back();
    if (doc.at("trace").boolean) continue;
    Run run;
    run.started = doc.at("started_unix_ns").number;
    run.seed = doc.at("seed").number;
    run.provenance = &doc.at("provenance");
    for (const auto& [name, m] : doc.at("metrics").object) {
      run.values[name] = m.at("value").number;
    }
    out[doc.at("workload").string].push_back(std::move(run));
  }
  for (auto& [w, runs] : out) {
    std::sort(runs.begin(), runs.end(),
              [](const Run& a, const Run& b) { return a.started < b.started; });
  }
  return out;
}

struct Summary {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

/// statistics.quantiles(data, n=4, method="exclusive").
Summary summarize(std::vector<double> xs) {
  Summary s;
  s.n = xs.size();
  if (xs.empty()) return s;
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) {
    s.q1 = s.median = s.q3 = xs[0];
    return s;
  }
  const long ld = static_cast<long>(xs.size());
  const long m = ld + 1;
  double q[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[i - 1] = (xs[j - 1] * static_cast<double>(4 - delta) +
                xs[j] * static_cast<double>(delta)) /
               4.0;
  }
  s.q1 = q[0];
  s.median = q[1];
  s.q3 = q[2];
  return s;
}

std::vector<double> values_of(const std::vector<Run>& runs,
                              const std::string& metric) {
  std::vector<double> out;
  for (const Run& r : runs) {
    const auto it = r.values.find(metric);
    if (it != r.values.end()) out.push_back(it->second);
  }
  return out;
}

double spread(const Summary& s) {
  return s.median != 0.0 ? (s.q3 - s.q1) / std::fabs(s.median) : 0.0;
}

int summary_mode(const std::string& dir, const std::vector<Bound>& bounds) {
  std::vector<Json> keep;
  const auto runs = read_runs(dir, keep);
  using deepbat::e2e::quote;
  std::printf("{\"workloads\": {");
  bool first_w = true;
  for (const auto& [workload, rs] : runs) {
    std::string seeds;
    for (const Run& r : rs) {
      seeds += (seeds.empty() ? "" : ", ") + number(r.seed);
    }
    // Provenance is the first run's; its seed is one of `seeds`.
    std::printf("%s\n  %s: {\"runs\": %zu, \"seeds\": [%s],\n   "
                "\"provenance\": %s,\n   \"metrics\": {",
                first_w ? "" : ",", quote(workload).c_str(), rs.size(),
                seeds.c_str(),
                deepbat::e2e::dump(*rs.front().provenance).c_str());
    first_w = false;
    bool first_m = true;
    for (const Bound& b : bounds) {
      const Summary s = summarize(values_of(rs, b.name));
      std::printf("%s\n    %s: {\"unit\": %s, \"median\": %s, \"q1\": %s, "
                  "\"q3\": %s, \"n\": %zu}",
                  first_m ? "" : ",", quote(b.name).c_str(),
                  quote(b.unit).c_str(), number(s.median).c_str(),
                  number(s.q1).c_str(), number(s.q3).c_str(), s.n);
      first_m = false;
    }
    std::printf("}}");
  }
  std::printf("\n}}\n");
  return 0;
}

std::string weights_of(const Run& r) {
  return r.provenance->at("weights_fnv1a").string;
}

/// Metrics that are a function of the seed alone: the same seed must give
/// the same value, so pairs compare exactly instead of against a bound.
bool is_deterministic(const std::string& metric) {
  return metric == "cost_per_req_uusd" || metric == "slo_attainment_pct";
}

/// Pairs of parent and change runs, matched by seed (runs of one seed pair
/// in start order). Throws when the two sides did not run the same seeds,
/// or ran different surrogate weights: such runs do not compare.
std::vector<std::pair<const Run*, const Run*>> pair_by_seed(
    const std::string& workload, const std::vector<Run>& parent,
    const std::vector<Run>& change) {
  std::map<double, std::vector<const Run*>> p;
  std::map<double, std::vector<const Run*>> c;
  for (const Run& r : parent) p[r.seed].push_back(&r);
  for (const Run& r : change) c[r.seed].push_back(&r);
  std::vector<std::pair<const Run*, const Run*>> pairs;
  for (const auto& [seed, ps] : p) {
    const auto it = c.find(seed);
    DEEPBAT_CHECK(it != c.end() && it->second.size() == ps.size(),
                  workload + ": seed " + number(seed) +
                      " has a different number of runs on each side");
    for (std::size_t k = 0; k < ps.size(); ++k) {
      pairs.emplace_back(ps[k], it->second[k]);
    }
  }
  DEEPBAT_CHECK(p.size() == c.size(),
                workload + ": the change ran seeds the parent did not");
  const std::string weights = weights_of(*pairs.front().first);
  for (const auto& [pr, cr] : pairs) {
    DEEPBAT_CHECK(weights_of(*pr) == weights && weights_of(*cr) == weights,
                  workload + ": runs used different surrogate weights");
  }
  return pairs;
}

int compare_mode(const std::string& parent_dir, const std::string& change_dir,
                 const std::vector<Bound>& bounds) {
  std::vector<Json> keep_p;
  std::vector<Json> keep_c;
  const auto parent = read_runs(parent_dir, keep_p);
  const auto change = read_runs(change_dir, keep_c);
  bool regressed = false;
  std::printf("%-16s %-18s %-34s %-34s %-7s %s\n", "workload", "metric",
              "parent median [q1, q3]", "change median [q1, q3]", "won",
              "verdict");
  for (const auto& [workload, pruns] : parent) {
    const auto it = change.find(workload);
    if (it == change.end()) {
      std::printf("%-16s (no change runs)\n", workload.c_str());
      continue;
    }
    const auto pairs = pair_by_seed(workload, pruns, it->second);
    for (const Bound& b : bounds) {
      std::vector<double> pv;
      std::vector<double> cv;
      for (const auto& [pr, cr] : pairs) {
        const auto pi = pr->values.find(b.name);
        const auto ci = cr->values.find(b.name);
        if (pi == pr->values.end() || ci == cr->values.end()) continue;
        pv.push_back(pi->second);
        cv.push_back(ci->second);
      }
      if (pv.empty()) continue;
      const Summary p = summarize(pv);
      const Summary c = summarize(cv);
      // Positive gain = the change is better.
      const double sign = b.lower_is_better ? -1.0 : 1.0;
      const double gain = sign * (c.median - p.median);
      std::size_t won = 0;
      std::size_t lost = 0;
      for (std::size_t k = 0; k < pv.size(); ++k) {
        const double d = sign * (cv[k] - pv[k]);
        if (d > 0.0) ++won;
        if (d < 0.0) ++lost;
      }
      const std::size_t n = pv.size();
      const char* verdict = "unchanged";
      if (is_deterministic(b.name)) {
        // Same seed, same outputs: any difference is the change's doing.
        if (lost > 0) {
          verdict = "regressed";
          regressed = true;
        } else if (won > 0) {
          verdict = "improved";
        }
      } else {
        const double worst_change =
            b.lower_is_better ? *std::max_element(cv.begin(), cv.end())
                              : *std::min_element(cv.begin(), cv.end());
        const double best_parent =
            b.lower_is_better ? *std::min_element(pv.begin(), pv.end())
                              : *std::max_element(pv.begin(), pv.end());
        const bool all_better = sign * (worst_change - best_parent) > 0.0;
        if (10 * won >= 9 * n && gain > p.q3 - p.q1) {
          verdict = "improved";
        } else if (-gain > b.bound * std::fabs(p.median)) {
          verdict = "regressed";
          regressed = true;
        } else if ((spread(p) > b.bound || spread(c) > b.bound) &&
                   !all_better) {
          verdict = "unresolved";
        }
      }
      char ps[64];
      char cs[64];
      std::snprintf(ps, sizeof(ps), "%.6g [%.6g, %.6g]", p.median, p.q1, p.q3);
      std::snprintf(cs, sizeof(cs), "%.6g [%.6g, %.6g]", c.median, c.q1, c.q3);
      std::printf("%-16s %-18s %-34s %-34s %3zu/%-3zu %s\n", workload.c_str(),
                  b.name.c_str(), ps, cs, won, n, verdict);
    }
  }
  return regressed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> dirs;
  std::string bounds_path = "BENCHMARK.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--bounds" && i + 1 < argc) {
      bounds_path = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      dirs.clear();
      break;
    } else {
      dirs.push_back(arg);
    }
  }
  if (dirs.empty() || dirs.size() > 2) {
    std::fprintf(stderr,
                 "usage: %s PARENT_DIR CHANGE_DIR [--bounds BENCHMARK.json]\n"
                 "       %s DIR [--bounds BENCHMARK.json]\n",
                 argv[0], argv[0]);
    return 2;
  }
  try {
    const std::vector<Bound> bounds = read_bounds(bounds_path);
    return dirs.size() == 1 ? summary_mode(dirs[0], bounds)
                            : compare_mode(dirs[0], dirs[1], bounds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "compare: %s\n", e.what());
    return 2;
  }
}
