#pragma once
// Deterministic random-number generation.
//
// Every stochastic component in DeepBAT (trace synthesis, MAP simulation,
// dataset sampling, weight init, dropout) draws from an explicitly seeded
// `Rng`. Two instances with the same seed produce identical streams on all
// platforms, which keeps tests and benchmark tables reproducible.

#include <cstdint>
#include <vector>

namespace deepbat {

/// SplitMix64 — used to expand a user seed into xoshiro state.
struct SplitMix64 {
  std::uint64_t state;
  explicit SplitMix64(std::uint64_t seed) : state(seed) {}
  std::uint64_t next();
};

/// xoshiro256** PRNG wrapped with the distribution helpers DeepBAT needs.
/// Cheaper and more portable than std::mt19937_64 + std::*_distribution
/// (whose outputs are implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Raw 64 random bits. Inline, with uniform(): dropout draws one per
  /// attention element on every training step.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (cached second sample).
  double normal();

  /// Normal with mean/stddev.
  double normal(double mean, double stddev);

  /// Exponential with given rate (mean 1/rate).
  double exponential(double rate);

  /// Poisson-distributed count with given mean (Knuth for small, normal
  /// approximation for large means).
  std::int64_t poisson(double mean);

  /// Pick index in [0, weights.size()) proportionally to weights.
  std::size_t categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle of an index permutation [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  /// Derive an independent child stream (for per-worker determinism).
  Rng split();

  /// Complete generator state (xoshiro words + the Box-Muller cache) for
  /// checkpoint/restore: set_state(state()) resumes the exact stream.
  struct State {
    std::uint64_t s[4] = {0, 0, 0, 0};
    double cached_normal = 0.0;
    bool has_cached_normal = false;
  };
  State state() const {
    State st;
    for (int i = 0; i < 4; ++i) st.s[i] = s_[i];
    st.cached_normal = cached_normal_;
    st.has_cached_normal = has_cached_normal_;
    return st;
  }
  void set_state(const State& st) {
    for (int i = 0; i < 4; ++i) s_[i] = st.s[i];
    cached_normal_ = st.cached_normal;
    has_cached_normal_ = st.has_cached_normal;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace deepbat
