#include "common/rng.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace deepbat {

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  DEEPBAT_CHECK(lo <= hi, "uniform_int: empty range");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  std::uint64_t r;
  do {
    r = next_u64();
  } while (r >= limit);
  return lo + static_cast<std::int64_t>(r % span);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 1e-300) u1 = uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(theta);
  has_cached_normal_ = true;
  return radius * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::exponential(double rate) {
  DEEPBAT_CHECK(rate > 0.0, "exponential: rate must be positive");
  double u = uniform();
  while (u <= 1e-300) u = uniform();
  return -std::log(u) / rate;
}

std::int64_t Rng::poisson(double mean) {
  DEEPBAT_CHECK(mean >= 0.0, "poisson: mean must be non-negative");
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    // Knuth's multiplication method.
    const double limit = std::exp(-mean);
    std::int64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= uniform();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation with continuity correction; adequate for trace
  // synthesis at high rates.
  const double x = normal(mean, std::sqrt(mean));
  return x < 0.0 ? 0 : static_cast<std::int64_t>(std::llround(x));
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  DEEPBAT_CHECK(!weights.empty(), "categorical: no weights");
  double total = 0.0;
  for (double w : weights) {
    DEEPBAT_CHECK(w >= 0.0, "categorical: negative weight");
    total += w;
  }
  DEEPBAT_CHECK(total > 0.0, "categorical: all weights zero");
  double r = uniform() * total;
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    if (r < weights[i]) return i;
    r -= weights[i];
  }
  return weights.size() - 1;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const auto j =
        static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

Rng Rng::split() { return Rng(next_u64() ^ 0xD1B54A32D192ED03ULL); }

}  // namespace deepbat
