// Golden-value and determinism tests for the optimized kernel layer
// (src/nn/kernels) plus the arena allocator it feeds. The naive seed
// kernels are the ground truth: the optimized paths must match them within
// 1e-4 relative tolerance and be bit-identical across thread counts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "core/surrogate.hpp"
#include "nn/arena.hpp"
#include "nn/attention.hpp"
#include "nn/autograd.hpp"
#include "nn/kernels.hpp"
#include "nn/tensor.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace deepbat::nn {
namespace {

constexpr float kRelTol = 1e-4F;
constexpr float kAbsTol = 1e-6F;

void expect_allclose(const float* a, const float* b, std::int64_t n,
                     float rel_tol = kRelTol, float abs_tol = kAbsTol) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float bound =
        abs_tol + rel_tol * std::max(std::abs(a[i]), std::abs(b[i]));
    ASSERT_LE(std::abs(a[i] - b[i]), bound)
        << "mismatch at " << i << ": " << a[i] << " vs " << b[i];
  }
}

std::vector<float> random_vec(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.normal(0.0, 0.7));
  return v;
}

/// Restores reference mode and the arena kill switch even if a test fails.
struct ModeGuard {
  ~ModeGuard() {
    kernels::set_reference_mode(false);
    arena::set_enabled(true);
  }
};

// ---------------------------------------------------------------------------
// GEMM golden values
// ---------------------------------------------------------------------------

TEST(Kernels, GemmMatchesNaiveAcrossShapes) {
  // Odd, rectangular, and tile-edge shapes: exercise the kMr/kNr edge
  // micro-kernel, the packing paths, and the row-block split.
  const struct {
    std::int64_t m, k, n;
  } shapes[] = {{1, 1, 1},   {3, 5, 7},     {4, 16, 16},  {5, 17, 16},
                {16, 4, 16}, {17, 9, 33},   {64, 16, 16}, {65, 31, 47},
                {128, 3, 5}, {256, 4, 256}, {130, 64, 20},
                // Skinny-output kernel shapes (n <= kSmallNMax, k >=
                // kSmallNMinK), including row-tile and block edges.
                {256, 256, 4}, {16, 2048, 16}, {65, 128, 8}, {33, 100, 5},
                {1, 64, 1}, {3, 200, 7}};
  for (const auto& s : shapes) {
    const auto a = random_vec(s.m * s.k, 1);
    const auto b = random_vec(s.k * s.n, 2);
    for (const bool trans_a : {false, true}) {
      for (const bool trans_b : {false, true}) {
        for (const bool accumulate : {false, true}) {
          auto c_ref = random_vec(s.m * s.n, 3);
          auto c_opt = c_ref;
          kernels::gemm_naive(a.data(), b.data(), c_ref.data(), s.m, s.k,
                              s.n, trans_a, trans_b, accumulate);
          kernels::gemm(a.data(), b.data(), c_opt.data(), s.m, s.k, s.n,
                        trans_a, trans_b, accumulate);
          SCOPED_TRACE(testing::Message()
                       << "m=" << s.m << " k=" << s.k << " n=" << s.n
                       << " tA=" << trans_a << " tB=" << trans_b
                       << " acc=" << accumulate);
          // Rounding error accumulates with the reduction length, and a
          // near-cancelled output can be far smaller than its k terms, so
          // the absolute floor scales with k.
          expect_allclose(c_ref.data(), c_opt.data(), s.m * s.n, kRelTol,
                          kAbsTol * static_cast<float>(s.k));
        }
      }
    }
  }
}

TEST(Kernels, GemmHandlesEmptyInnerDimension) {
  auto c_ref = random_vec(12, 4);
  auto c_opt = c_ref;
  kernels::gemm_naive(nullptr, nullptr, c_ref.data(), 3, 0, 4, false, false,
                      false);
  kernels::gemm(nullptr, nullptr, c_opt.data(), 3, 0, 4, false, false, false);
  expect_allclose(c_ref.data(), c_opt.data(), 12);
  for (float x : c_opt) EXPECT_EQ(x, 0.0F);

  // accumulate=true with k=0 must leave C untouched.
  auto c_keep = random_vec(12, 5);
  auto expected = c_keep;
  kernels::gemm(nullptr, nullptr, c_keep.data(), 3, 0, 4, false, false, true);
  EXPECT_EQ(std::memcmp(c_keep.data(), expected.data(), sizeof(float) * 12),
            0);
}

TEST(Kernels, ReferenceModeRoutesGemmToNaive) {
  ModeGuard guard;
  const auto a = random_vec(65 * 31, 6);
  const auto b = random_vec(31 * 47, 7);
  std::vector<float> c_naive(65 * 47), c_routed(65 * 47);
  kernels::gemm_naive(a.data(), b.data(), c_naive.data(), 65, 31, 47, false,
                      false, false);
  kernels::set_reference_mode(true);
  kernels::gemm(a.data(), b.data(), c_routed.data(), 65, 31, 47, false,
                false, false);
  EXPECT_EQ(std::memcmp(c_naive.data(), c_routed.data(),
                        sizeof(float) * c_naive.size()),
            0);
}

// ---------------------------------------------------------------------------
// Fused attention golden values
// ---------------------------------------------------------------------------

/// Naive scalar SDPA used as ground truth for the fused kernel.
void sdpa_reference(const float* q, const float* k, const float* v,
                    float* out, std::int64_t batch, std::int64_t lq,
                    std::int64_t lk, std::int64_t heads, std::int64_t dim,
                    float scale, const float* mask) {
  const std::int64_t dh = dim / heads;
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t h = 0; h < heads; ++h) {
      for (std::int64_t i = 0; i < lq; ++i) {
        std::vector<double> scores(static_cast<std::size_t>(lk));
        double mx = -std::numeric_limits<double>::infinity();
        for (std::int64_t j = 0; j < lk; ++j) {
          double s = 0.0;
          for (std::int64_t d = 0; d < dh; ++d) {
            s += static_cast<double>(q[(b * lq + i) * dim + h * dh + d]) *
                 static_cast<double>(k[(b * lk + j) * dim + h * dh + d]);
          }
          s *= scale;
          if (mask) s += mask[i * lk + j];
          scores[static_cast<std::size_t>(j)] = s;
          mx = std::max(mx, s);
        }
        double sum = 0.0;
        for (auto& s : scores) {
          s = std::exp(s - mx);
          sum += s;
        }
        for (std::int64_t d = 0; d < dh; ++d) {
          double acc = 0.0;
          for (std::int64_t j = 0; j < lk; ++j) {
            acc += scores[static_cast<std::size_t>(j)] *
                   static_cast<double>(v[(b * lk + j) * dim + h * dh + d]);
          }
          out[(b * lq + i) * dim + h * dh + d] =
              static_cast<float>(acc / sum);
        }
      }
    }
  }
}

TEST(Kernels, FusedSdpaMatchesReference) {
  const struct {
    std::int64_t batch, lq, lk, heads, dim;
    bool masked;
  } cases[] = {{1, 8, 8, 2, 8, false},    {2, 33, 33, 4, 16, false},
               {1, 37, 21, 4, 16, false},  {1, 16, 16, 1, 4, true},
               {2, 40, 40, 4, 16, true},   {1, 1, 5, 2, 8, false},
               // head_dim 4 with lk % 16 == 0: the vectorised pass where the
               // build has it (the last case is the encoder's l = 256 shape).
               {2, 16, 16, 4, 16, false},  {2, 128, 128, 4, 16, false},
               {1, 37, 128, 2, 8, false},  {1, 256, 256, 4, 16, false}};
  for (const auto& c : cases) {
    const auto q = random_vec(c.batch * c.lq * c.dim, 11);
    const auto k = random_vec(c.batch * c.lk * c.dim, 12);
    const auto v = random_vec(c.batch * c.lk * c.dim, 13);
    std::vector<float> mask;
    if (c.masked) {
      // Causal-style mask with -inf above the diagonal band.
      mask.assign(static_cast<std::size_t>(c.lq * c.lk), 0.0F);
      for (std::int64_t i = 0; i < c.lq; ++i) {
        for (std::int64_t j = 0; j < c.lk; ++j) {
          if (j > i) {
            mask[static_cast<std::size_t>(i * c.lk + j)] =
                -std::numeric_limits<float>::infinity();
          }
        }
      }
    }
    const float scale =
        1.0F / std::sqrt(static_cast<float>(c.dim / c.heads));
    std::vector<float> out_ref(static_cast<std::size_t>(c.batch * c.lq * c.dim));
    std::vector<float> out_fused(out_ref.size());
    sdpa_reference(q.data(), k.data(), v.data(), out_ref.data(), c.batch,
                   c.lq, c.lk, c.heads, c.dim, scale,
                   c.masked ? mask.data() : nullptr);
    kernels::fused_sdpa(q.data(), k.data(), v.data(), out_fused.data(),
                        c.batch, c.lq, c.lk, c.heads, c.dim, scale,
                        c.masked ? mask.data() : nullptr);
    SCOPED_TRACE(testing::Message() << "B=" << c.batch << " lq=" << c.lq
                                    << " lk=" << c.lk << " H=" << c.heads
                                    << " masked=" << c.masked);
    expect_allclose(out_ref.data(), out_fused.data(),
                    static_cast<std::int64_t>(out_ref.size()));
  }
}

TEST(Kernels, FusedSdpaFastPathMatchesGenericLoopBitwise) {
  if (!kernels::detail::fused_sdpa_has_fast_path()) {
    GTEST_SKIP() << "this build has no vectorised head_dim-4 SDPA pass";
  }
  const struct {
    std::int64_t batch, lq, lk, heads, dim;
    double spread;  // std of q and k; wide spreads underflow expf
  } cases[] = {{2, 16, 16, 4, 16, 0.7},   {2, 128, 128, 4, 16, 0.7},
               {3, 37, 256, 4, 16, 0.7},  {2, 9, 128, 2, 8, 0.7},
               {2, 128, 128, 4, 16, 12.0}, {2, 64, 256, 4, 16, 30.0}};
  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message() << "B=" << c.batch << " lq=" << c.lq
                                    << " lk=" << c.lk << " H=" << c.heads
                                    << " spread=" << c.spread);
    Rng rng(static_cast<std::uint64_t>(c.lk * 7 + c.lq));
    const auto draw = [&](std::int64_t n, double sd) {
      std::vector<float> x(static_cast<std::size_t>(n));
      for (auto& e : x) e = static_cast<float>(rng.normal(0.0, sd));
      return x;
    };
    const auto q = draw(c.batch * c.lq * c.dim, c.spread);
    const auto k = draw(c.batch * c.lk * c.dim, c.spread);
    const auto v = draw(c.batch * c.lk * c.dim, 0.7);
    const float scale = 0.5F;
    std::vector<float> fast(static_cast<std::size_t>(c.batch * c.lq * c.dim));
    std::vector<float> generic(fast.size());
    kernels::fused_sdpa(q.data(), k.data(), v.data(), fast.data(), c.batch,
                        c.lq, c.lk, c.heads, c.dim, scale);
    kernels::detail::fused_sdpa_generic(q.data(), k.data(), v.data(),
                                        generic.data(), c.batch, c.lq, c.lk,
                                        c.heads, c.dim, scale);
    if (c.spread > 1.0) {
      // The wide inputs must really reach expf's underflow range, where
      // libmvec takes its special-case lanes.
      double widest = 0.0;
      for (std::int64_t j = 0; j < c.lk; ++j) {
        double s = 0.0;
        for (int d = 0; d < 4; ++d) {
          s += static_cast<double>(q[static_cast<std::size_t>(d)]) *
               k[static_cast<std::size_t>(j * c.dim + d)];
        }
        widest = std::max(widest, std::abs(s * scale));
      }
      EXPECT_GT(widest, 110.0);
    }
    for (std::size_t i = 0; i < fast.size(); ++i) {
      ASSERT_EQ(std::memcmp(&fast[i], &generic[i], sizeof(float)), 0)
          << "element " << i << ": " << fast[i] << " vs " << generic[i];
    }
  }
}

TEST(Kernels, FusedAttentionMatchesComposedPath) {
  ModeGuard guard;
  Rng rng(21);
  MultiHeadAttention mha(16, 4, rng, 0.0F, 99);
  mha.set_training(false);
  const Var x = make_leaf(Tensor::randn({2, 33, 16}, rng, 0.5F), false);
  NoGradGuard no_grad;

  // Reference mode forces the composed split-heads/softmax path.
  kernels::set_reference_mode(true);
  const Tensor composed = mha.forward(x, x, x)->value.clone();
  kernels::set_reference_mode(false);
  const Tensor fused = mha.forward(x, x, x)->value.clone();

  ASSERT_EQ(composed.numel(), fused.numel());
  expect_allclose(composed.data(), fused.data(), composed.numel());
}

TEST(Kernels, FusedAttentionMatchesComposedPathWithMask) {
  ModeGuard guard;
  Rng rng(22);
  MultiHeadAttention mha(16, 4, rng, 0.0F, 99);
  mha.set_training(false);
  const std::int64_t L = 19;
  const Var x = make_leaf(Tensor::randn({1, L, 16}, rng, 0.5F), false);
  Tensor mask({L, L});
  for (std::int64_t i = 0; i < L; ++i) {
    for (std::int64_t j = i + 1; j < L; ++j) {
      mask.at(i, j) = -std::numeric_limits<float>::infinity();
    }
  }
  const Var mask_var = make_leaf(std::move(mask), false);
  NoGradGuard no_grad;

  kernels::set_reference_mode(true);
  const Tensor composed = mha.forward(x, x, x, mask_var)->value.clone();
  kernels::set_reference_mode(false);
  const Tensor fused = mha.forward(x, x, x, mask_var)->value.clone();
  expect_allclose(composed.data(), fused.data(), composed.numel());
}

// ---------------------------------------------------------------------------
// Determinism across thread counts
// ---------------------------------------------------------------------------

#ifdef _OPENMP
TEST(Kernels, GemmBitIdenticalAcrossThreadCounts) {
  const auto a = random_vec(256 * 32, 31);
  const auto b = random_vec(32 * 48, 32);
  std::vector<float> c1(256 * 48), c4(256 * 48);
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  kernels::gemm(a.data(), b.data(), c1.data(), 256, 32, 48, false, false,
                false);
  omp_set_num_threads(4);
  kernels::gemm(a.data(), b.data(), c4.data(), 256, 32, 48, false, false,
                false);
  omp_set_num_threads(saved);
  EXPECT_EQ(
      std::memcmp(c1.data(), c4.data(), sizeof(float) * c1.size()), 0);
}

TEST(Kernels, FusedSdpaBitIdenticalAcrossThreadCounts) {
  const std::int64_t B = 2, L = 64, H = 4, D = 16;
  const auto q = random_vec(B * L * D, 41);
  const auto k = random_vec(B * L * D, 42);
  const auto v = random_vec(B * L * D, 43);
  std::vector<float> o1(static_cast<std::size_t>(B * L * D));
  std::vector<float> o4(o1.size());
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  kernels::fused_sdpa(q.data(), k.data(), v.data(), o1.data(), B, L, L, H, D,
                      0.5F, nullptr);
  omp_set_num_threads(4);
  kernels::fused_sdpa(q.data(), k.data(), v.data(), o4.data(), B, L, L, H, D,
                      0.5F, nullptr);
  omp_set_num_threads(saved);
  EXPECT_EQ(
      std::memcmp(o1.data(), o4.data(), sizeof(float) * o1.size()), 0);
}
#endif  // _OPENMP

// ---------------------------------------------------------------------------
// Arena allocator
// ---------------------------------------------------------------------------

TEST(Arena, ScopeRewindReusesMemory) {
  const float* first = nullptr;
  {
    arena::Scope scope;
    Tensor t({1024});
    EXPECT_TRUE(t.arena_backed());
    first = t.data();
  }
  {
    arena::Scope scope;
    Tensor t({1024});
    EXPECT_TRUE(t.arena_backed());
    // The scope rewound, so the same storage is handed out again.
    EXPECT_EQ(t.data(), first);
  }
}

TEST(Arena, NestedScopeRewindsToItsOwnWatermark) {
  arena::Scope outer;
  Tensor kept({64});
  const float* inner_ptr = nullptr;
  {
    arena::Scope inner;
    Tensor tmp({64});
    inner_ptr = tmp.data();
    EXPECT_NE(inner_ptr, kept.data());
  }
  Tensor next({64});
  // The inner scope's storage is reusable, the outer allocation is not.
  EXPECT_EQ(next.data(), inner_ptr);
  EXPECT_NE(next.data(), kept.data());
}

TEST(Arena, PauseEscapesToHeap) {
  arena::Scope scope;
  Tensor inside({16});
  EXPECT_TRUE(inside.arena_backed());
  arena::Pause pause;
  Tensor escaped({16});
  EXPECT_FALSE(escaped.arena_backed());
}

TEST(Arena, DisabledArenaAllocatesOnHeap) {
  ModeGuard guard;
  arena::set_enabled(false);
  arena::Scope scope;
  Tensor t({16});
  EXPECT_FALSE(t.arena_backed());
}

TEST(Arena, CloneInsideScopeCopiesValues) {
  arena::Scope scope;
  Tensor t({2, 2}, {1, 2, 3, 4});
  const Tensor c = t.clone();
  EXPECT_EQ(c.at(1, 1), 4.0F);
}

// ---------------------------------------------------------------------------
// End-to-end: surrogate forward and attention recording
// ---------------------------------------------------------------------------

core::Surrogate small_surrogate() {
  core::SurrogateConfig cfg;
  cfg.sequence_length = 32;
  return core::Surrogate(cfg, lambda::ConfigGrid::standard());
}

TEST(Kernels, PredictGridMatchesReferenceKernels) {
  ModeGuard guard;
  auto model = small_surrogate();
  model.set_training(false);
  const auto window = random_vec(32, 55);
  const auto all_configs = lambda::ConfigGrid::standard().enumerate();
  const std::span<const lambda::Config> configs(all_configs.data(), 8);

  kernels::set_reference_mode(true);
  arena::set_enabled(false);
  const auto ref = model.predict_grid(window, configs);
  kernels::set_reference_mode(false);
  arena::set_enabled(true);
  const auto opt = model.predict_grid(window, configs);

  ASSERT_EQ(ref.size(), opt.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double denom =
        std::max(std::abs(ref[i].cost_usd_per_request), 1e-6);
    EXPECT_LE(std::abs(ref[i].cost_usd_per_request -
                       opt[i].cost_usd_per_request) /
                  denom,
              1e-3)
        << "config " << i;
    for (std::size_t p = 0; p < ref[i].latency_s.size(); ++p) {
      const double ldenom = std::max(std::abs(ref[i].latency_s[p]), 1e-6);
      EXPECT_LE(
          std::abs(ref[i].latency_s[p] - opt[i].latency_s[p]) / ldenom, 1e-3)
          << "config " << i << " percentile " << p;
    }
  }
}

TEST(Kernels, AttentionRecordingStillProducesProfile) {
  auto model = small_surrogate();
  model.set_training(false);
  model.set_record_attention(true);
  const auto window = random_vec(32, 56);
  const auto all_configs = lambda::ConfigGrid::standard().enumerate();
  (void)model.predict_grid(window,
                           std::span<const lambda::Config>(
                               all_configs.data(), 4));
  const auto profile = model.last_attention_profile();
  ASSERT_EQ(profile.size(), 32U);
  float sum = 0.0F;
  for (float p : profile) {
    EXPECT_TRUE(std::isfinite(p));
    EXPECT_GE(p, 0.0F);
    sum += p;
  }
  // Rows of a softmax sum to 1, and the profile averages over rows.
  EXPECT_NEAR(sum, 1.0F, 1e-3F);
}

}  // namespace
}  // namespace deepbat::nn
