#include "nn/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/parallel.hpp"
#include "obs/metrics.hpp"

// fused_sdpa's vectorised head_dim-4 pass (DESIGN.md §7) is built where the
// generic row loop's `::expf` vectorises to glibc libmvec's 16-lane AVX-512
// variant: x86-64 AVX-512 builds with glibc, under GCC (src/nn/CMakeLists.txt
// enables the simd declarations for this file there).
#if defined(__AVX512F__) && defined(__x86_64__) && defined(__GLIBC__) && \
    defined(__GNUC__) && !defined(__clang__)
#define DEEPBAT_SDPA_DH4_AVX512 1
#include <immintrin.h>
// libmvec's unmasked 16-lane expf, by its x86-64 vector-ABI name: the
// function GCC calls for the generic loop's `::expf` on this ISA.
extern "C" __m512 _ZGVeN16v_expf(__m512 x);
#endif

namespace deepbat::nn::kernels {

namespace {

std::atomic<bool> g_reference_mode{false};

// Kernel wall-time histograms (nn.kernels.*, DESIGN.md §9). Timed at the
// kernel entry point on the calling thread, so a batched matmul issued from
// a parallel region records one sample per caller. Handles are function-
// local statics: thread-safe init once, then a guard load per call.
obs::Histogram& gemm_hist() {
  static obs::Histogram& h =
      obs::MetricsRegistry::instance().histogram("nn.kernels.gemm_seconds");
  return h;
}

obs::Histogram& sdpa_hist() {
  static obs::Histogram& h = obs::MetricsRegistry::instance().histogram(
      "nn.kernels.attention_seconds");
  return h;
}

// Packing scratch, one buffer pair per thread so batched matmuls can pack
// concurrently. Capacity is retained across calls.
thread_local std::vector<float> tl_pack_a;
thread_local std::vector<float> tl_pack_b;
thread_local std::vector<float> tl_sdpa_row;
thread_local std::vector<float> tl_sdpa_kt;
thread_local std::vector<float> tl_sdpa_vt;

/// dst (cols x rows, row-major) = transpose of src (rows x cols, row-major),
/// tiled so both sides stay cache-resident.
void transpose_pack(const float* src, std::int64_t rows, std::int64_t cols,
                    float* dst) {
  constexpr std::int64_t kTile = 32;
  for (std::int64_t r0 = 0; r0 < rows; r0 += kTile) {
    const std::int64_t r1 = std::min(rows, r0 + kTile);
    for (std::int64_t c0 = 0; c0 < cols; c0 += kTile) {
      const std::int64_t c1 = std::min(cols, c0 + kTile);
      for (std::int64_t r = r0; r < r1; ++r) {
        for (std::int64_t c = c0; c < c1; ++c) {
          dst[c * rows + r] = src[r * cols + c];
        }
      }
    }
  }
}

/// Full kMr x kNr register tile of C at (i0, j0): constant trip counts so the
/// accumulators live in vector registers and the j-loop vectorizes.
inline void micro_full(const float* a, const float* b, float* c,
                       std::int64_t k, std::int64_t n, std::int64_t i0,
                       std::int64_t j0, bool accumulate) {
  float acc[kMr][kNr];
  for (std::int64_t r = 0; r < kMr; ++r) {
    float* crow = c + (i0 + r) * n + j0;
    for (std::int64_t j = 0; j < kNr; ++j) {
      acc[r][j] = accumulate ? crow[j] : 0.0F;
    }
  }
  const float* a0 = a + i0 * k;
  const float* a1 = a0 + k;
  const float* a2 = a1 + k;
  const float* a3 = a2 + k;
  for (std::int64_t l = 0; l < k; ++l) {
    const float* brow = b + l * n + j0;
    const float v0 = a0[l];
    const float v1 = a1[l];
    const float v2 = a2[l];
    const float v3 = a3[l];
    for (std::int64_t j = 0; j < kNr; ++j) {
      const float bj = brow[j];
      acc[0][j] += v0 * bj;
      acc[1][j] += v1 * bj;
      acc[2][j] += v2 * bj;
      acc[3][j] += v3 * bj;
    }
  }
  for (std::int64_t r = 0; r < kMr; ++r) {
    float* crow = c + (i0 + r) * n + j0;
    for (std::int64_t j = 0; j < kNr; ++j) crow[j] = acc[r][j];
  }
}

/// Partial tile at the m/n edges; same accumulation order, runtime bounds.
inline void micro_edge(const float* a, const float* b, float* c,
                       std::int64_t k, std::int64_t n, std::int64_t i0,
                       std::int64_t j0, std::int64_t mr, std::int64_t nr,
                       bool accumulate) {
  float acc[kMr][kNr];
  for (std::int64_t r = 0; r < mr; ++r) {
    const float* crow = c + (i0 + r) * n + j0;
    for (std::int64_t j = 0; j < nr; ++j) {
      acc[r][j] = accumulate ? crow[j] : 0.0F;
    }
  }
  for (std::int64_t l = 0; l < k; ++l) {
    const float* brow = b + l * n + j0;
    for (std::int64_t r = 0; r < mr; ++r) {
      const float av = a[(i0 + r) * k + l];
      for (std::int64_t j = 0; j < nr; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (std::int64_t r = 0; r < mr; ++r) {
    float* crow = c + (i0 + r) * n + j0;
    for (std::int64_t j = 0; j < nr; ++j) crow[j] = acc[r][j];
  }
}

/// Blocked C[m,n] (+)= a[m,k] * b[k,n], both row-major and contiguous.
/// Parallel over kRowBlock row blocks; each output element is written by
/// exactly one task, so results are thread-count independent.
/// Row-block grain for an [m, k] x [k, n] product: flop-derived as before,
/// but a GEMM under kMinFlopsParallel total flops is forced serial (grain =
/// block count) — see the constant's comment in kernels.hpp.
std::size_t row_block_grain(std::int64_t blocks, std::int64_t m, std::int64_t k,
                            std::int64_t n) {
  if (2 * m * k * n < kMinFlopsParallel) {
    return static_cast<std::size_t>(std::max<std::int64_t>(blocks, 1));
  }
  const std::int64_t flops_per_block = 2 * kRowBlock * k * n;
  return static_cast<std::size_t>(std::max<std::int64_t>(
      1, kMinFlopsPerTask / std::max<std::int64_t>(flops_per_block, 1)));
}

void gemm_blocked_nn(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t n, bool accumulate) {
  const std::int64_t blocks = (m + kRowBlock - 1) / kRowBlock;
  const std::size_t grain = row_block_grain(blocks, m, k, n);
  parallel_for(
      static_cast<std::size_t>(blocks),
      [&](std::size_t blk) {
        const std::int64_t begin =
            static_cast<std::int64_t>(blk) * kRowBlock;
        const std::int64_t end = std::min(m, begin + kRowBlock);
        for (std::int64_t i0 = begin; i0 < end; i0 += kMr) {
          const std::int64_t mr = std::min<std::int64_t>(kMr, end - i0);
          for (std::int64_t j0 = 0; j0 < n; j0 += kNr) {
            const std::int64_t nr = std::min<std::int64_t>(kNr, n - j0);
            if (mr == kMr && nr == kNr) {
              micro_full(a, b, c, k, n, i0, j0, accumulate);
            } else {
              micro_edge(a, b, c, k, n, i0, j0, mr, nr, accumulate);
            }
          }
        }
      },
      grain);
}

// GCC's -O3 loop vectorizer rewrites the skinny-tile l-loops below into a
// permute-heavy form (vpermt2ps gathers across iterations) that runs ~10x
// SLOWER than the straightforward SLP code the same compiler emits at -O2:
// broadcast each a-value, one FMA per accumulator row. Pin these functions
// to SLP-only vectorization. Per-element math is unchanged (each output is
// still the same l-sequential fma chain), so this is codegen-only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC push_options
#pragma GCC optimize("no-tree-loop-vectorize")
#endif

/// One full kMr x N register tile anchored at row i0 (rows [i0, i0 + kMr)
/// must all be in range). N is a compile-time constant so the j-loops fully
/// unroll and vectorize; the per-element accumulation is the same
/// l-sequential multiply-add chain as micro_full/micro_edge. Rows below
/// `store_from` are computed and discarded — see gemm_small_n_rows.
template <int N>
inline void small_n_tile(const float* a, const float* b, float* c,
                         std::int64_t k, std::int64_t i0,
                         std::int64_t store_from, bool accumulate) {
  float acc[kMr][N];
  if (accumulate) {
    for (std::int64_t r = 0; r < kMr; ++r) {
      const float* crow = c + (i0 + r) * N;
      for (int j = 0; j < N; ++j) acc[r][j] = crow[j];
    }
  } else {
    for (std::int64_t r = 0; r < kMr; ++r) {
      for (int j = 0; j < N; ++j) acc[r][j] = 0.0F;
    }
  }
  for (std::int64_t l = 0; l < k; ++l) {
    const float* brow = b + l * N;
    const float v0 = a[(i0 + 0) * k + l];
    const float v1 = a[(i0 + 1) * k + l];
    const float v2 = a[(i0 + 2) * k + l];
    const float v3 = a[(i0 + 3) * k + l];
    for (int j = 0; j < N; ++j) {
      const float bj = brow[j];
      acc[0][j] += v0 * bj;
      acc[1][j] += v1 * bj;
      acc[2][j] += v2 * bj;
      acc[3][j] += v3 * bj;
    }
  }
  for (std::int64_t r = store_from; r < kMr; ++r) {
    float* crow = c + (i0 + r) * N;
    for (int j = 0; j < N; ++j) crow[j] = acc[r][j];
  }
}

/// Skinny-output row span over [begin, end). Every row runs through the
/// SAME full-tile code: a trailing partial tile is re-anchored at
/// end - kMr so it overlaps the previous tile, recomputes the overlap rows
/// bit-identically, and only stores the genuinely new ones (store_from).
/// This matters because a row's result must not depend on which tile phase
/// it lands in — a separate smaller tail loop compiles with its own FP
/// contraction and then scoring row r inside a fused multi-tenant batch
/// (m = tenants * grid) can differ in the last ulp from scoring it alone
/// (m = grid), which is exactly the batched-scoring invariance the runtime
/// promises. In accumulate mode the overlap rows' C values are already
/// final, so their recomputed accumulators are garbage — and discarded.
/// Callers guarantee end - begin >= kMr except when the whole GEMM has
/// fewer than kMr rows; that remnant runs the one-row kernel below (a
/// sub-kMr GEMM can never batch, so phase invariance is moot for it).
template <int N>
void gemm_small_n_rows(const float* a, const float* b, float* c,
                       std::int64_t k, std::int64_t begin, std::int64_t end,
                       bool accumulate) {
  if (end - begin < kMr) {
    for (std::int64_t i = begin; i < end; ++i) {
      float acc[N];
      const float* crow = c + i * N;
      for (int j = 0; j < N; ++j) acc[j] = accumulate ? crow[j] : 0.0F;
      for (std::int64_t l = 0; l < k; ++l) {
        const float* brow = b + l * N;
        const float av = a[i * k + l];
        for (int j = 0; j < N; ++j) acc[j] += av * brow[j];
      }
      float* out = c + i * N;
      for (int j = 0; j < N; ++j) out[j] = acc[j];
    }
    return;
  }
  std::int64_t i0 = begin;
  for (; i0 + kMr <= end; i0 += kMr) {
    small_n_tile<N>(a, b, c, k, i0, 0, accumulate);
  }
  if (i0 < end) {
    small_n_tile<N>(a, b, c, k, end - kMr, kMr - (end - i0), accumulate);
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC pop_options
#endif

/// Skinny-output kernel: C[m,n] (+)= a[m,k] * b[k,n] with B in its natural
/// [k, n] layout (no pack — reading row l of B touches one cache line when
/// n <= kSmallNMax), n dispatched to a compile-time-width row kernel.
void gemm_small_n(const float* a, const float* b, float* c, std::int64_t m,
                  std::int64_t k, std::int64_t n, bool accumulate) {
  std::int64_t blocks = (m + kRowBlock - 1) / kRowBlock;
  // Fold a sub-kMr trailing block into its neighbor so every task spans at
  // least one full tile; the overlap trick above reads only rows inside the
  // task's span, so tasks stay write- AND read-disjoint on C (no races in
  // accumulate mode).
  if (blocks > 1 && m - (blocks - 1) * kRowBlock < kMr) --blocks;
  const std::size_t grain = row_block_grain(blocks, m, k, n);
  parallel_for(
      static_cast<std::size_t>(blocks),
      [&](std::size_t blk) {
        const std::int64_t begin = static_cast<std::int64_t>(blk) * kRowBlock;
        const std::int64_t end = static_cast<std::int64_t>(blk) + 1 ==
                                         static_cast<std::int64_t>(blocks)
                                     ? m
                                     : begin + kRowBlock;
        switch (n) {
          case 1: gemm_small_n_rows<1>(a, b, c, k, begin, end, accumulate); break;
          case 2: gemm_small_n_rows<2>(a, b, c, k, begin, end, accumulate); break;
          case 3: gemm_small_n_rows<3>(a, b, c, k, begin, end, accumulate); break;
          case 4: gemm_small_n_rows<4>(a, b, c, k, begin, end, accumulate); break;
          case 5: gemm_small_n_rows<5>(a, b, c, k, begin, end, accumulate); break;
          case 6: gemm_small_n_rows<6>(a, b, c, k, begin, end, accumulate); break;
          case 7: gemm_small_n_rows<7>(a, b, c, k, begin, end, accumulate); break;
          default: gemm_small_n_rows<8>(a, b, c, k, begin, end, accumulate); break;
        }
      },
      grain);
}

/// Direct trans_a kernel: C[m,n] (+)= a^T * b with a stored [k, m] and m at
/// most kDirectTransAMaxM. For a fixed l the mr operand values a[l*m + i0 +
/// r] sit contiguously, so no transpose pack is needed — the pack is pure
/// overhead at these row counts (the m16_k2048_n16_tA gradient shape spent
/// more time packing the [2048, 16] panel than multiplying). Dispatch only
/// routes serial-regime GEMMs here; accumulation order per element matches
/// the packed path (l-sequential), so results are bit-identical to it.
void gemm_ta_direct(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n, bool accumulate) {
  for (std::int64_t i0 = 0; i0 < m; i0 += kMr) {
    const std::int64_t mr = std::min<std::int64_t>(kMr, m - i0);
    for (std::int64_t j0 = 0; j0 < n; j0 += kNr) {
      const std::int64_t nr = std::min<std::int64_t>(kNr, n - j0);
      float acc[kMr][kNr];
      for (std::int64_t r = 0; r < mr; ++r) {
        const float* crow = c + (i0 + r) * n + j0;
        for (std::int64_t j = 0; j < nr; ++j) {
          acc[r][j] = accumulate ? crow[j] : 0.0F;
        }
      }
      if (mr == kMr && nr == kNr) {
        for (std::int64_t l = 0; l < k; ++l) {
          const float* arow = a + l * m + i0;
          const float* brow = b + l * n + j0;
          const float v0 = arow[0];
          const float v1 = arow[1];
          const float v2 = arow[2];
          const float v3 = arow[3];
          for (std::int64_t j = 0; j < kNr; ++j) {
            const float bj = brow[j];
            acc[0][j] += v0 * bj;
            acc[1][j] += v1 * bj;
            acc[2][j] += v2 * bj;
            acc[3][j] += v3 * bj;
          }
        }
      } else {
        for (std::int64_t l = 0; l < k; ++l) {
          const float* arow = a + l * m + i0;
          const float* brow = b + l * n + j0;
          for (std::int64_t r = 0; r < mr; ++r) {
            const float av = arow[r];
            for (std::int64_t j = 0; j < nr; ++j) acc[r][j] += av * brow[j];
          }
        }
      }
      for (std::int64_t r = 0; r < mr; ++r) {
        float* crow = c + (i0 + r) * n + j0;
        for (std::int64_t j = 0; j < nr; ++j) crow[j] = acc[r][j];
      }
    }
  }
}

}  // namespace

void set_reference_mode(bool on) {
  g_reference_mode.store(on, std::memory_order_relaxed);
}

bool reference_mode() {
  return g_reference_mode.load(std::memory_order_relaxed);
}

void gemm_naive(const float* A, const float* B, float* C, std::int64_t m,
                std::int64_t k, std::int64_t n, bool trans_a, bool trans_b,
                bool accumulate) {
  if (!accumulate) std::fill(C, C + m * n, 0.0F);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t l = 0; l < k; ++l) {
      const float aval = trans_a ? A[l * m + i] : A[i * k + l];
      if (aval == 0.0F) continue;
      const float* brow = trans_b ? nullptr : B + l * n;
      float* crow = C + i * n;
      if (trans_b) {
        for (std::int64_t j = 0; j < n; ++j) {
          crow[j] += aval * B[j * k + l];
        }
      } else {
        for (std::int64_t j = 0; j < n; ++j) {
          crow[j] += aval * brow[j];
        }
      }
    }
  }
}

namespace {

void gemm_dispatch(const float* A, const float* B, float* C, std::int64_t m,
                   std::int64_t k, std::int64_t n, bool trans_a, bool trans_b,
                   bool accumulate) {
  if (reference_mode()) {
    gemm_naive(A, B, C, m, k, n, trans_a, trans_b, accumulate);
    return;
  }
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate) std::fill(C, C + m * n, 0.0F);
    return;
  }
  // Skinny outputs: compile-time-width row kernel over B in its natural
  // [k, n] layout (no pack); a trans_b operand is packed back to [k, n].
  if (n <= kSmallNMax && k >= kSmallNMinK) {
    const float* a = A;
    if (trans_a) {
      const auto need = static_cast<std::size_t>(m * k);
      if (tl_pack_a.size() < need) tl_pack_a.resize(need);
      transpose_pack(A, k, m, tl_pack_a.data());
      a = tl_pack_a.data();
    }
    const float* b = B;
    if (trans_b) {
      const auto need = static_cast<std::size_t>(k * n);
      if (tl_pack_b.size() < need) tl_pack_b.resize(need);
      transpose_pack(B, n, k, tl_pack_b.data());
      b = tl_pack_b.data();
    }
    gemm_small_n(a, b, C, m, k, n, accumulate);
    return;
  }
  // Few-row trans_a products in the serial regime read A [k, m] in place
  // instead of paying for a strided transpose pack.
  if (trans_a && m <= kDirectTransAMaxM && 2 * m * k * n < kMinFlopsParallel) {
    const float* b = B;
    if (trans_b) {
      const auto need = static_cast<std::size_t>(k * n);
      if (tl_pack_b.size() < need) tl_pack_b.resize(need);
      transpose_pack(B, n, k, tl_pack_b.data());
      b = tl_pack_b.data();
    }
    gemm_ta_direct(A, b, C, m, k, n, accumulate);
    return;
  }
  // Pack transposed operands into contiguous row-major panels so the inner
  // j-loop always streams unit-stride memory.
  const float* a = A;
  if (trans_a) {
    const auto need = static_cast<std::size_t>(m * k);
    if (tl_pack_a.size() < need) tl_pack_a.resize(need);
    transpose_pack(A, k, m, tl_pack_a.data());
    a = tl_pack_a.data();
  }
  const float* b = B;
  if (trans_b) {
    const auto need = static_cast<std::size_t>(k * n);
    if (tl_pack_b.size() < need) tl_pack_b.resize(need);
    transpose_pack(B, n, k, tl_pack_b.data());
    b = tl_pack_b.data();
  }
  gemm_blocked_nn(a, b, C, m, k, n, accumulate);
}

}  // namespace

void gemm(const float* A, const float* B, float* C, std::int64_t m,
          std::int64_t k, std::int64_t n, bool trans_a, bool trans_b,
          bool accumulate) {
  if (!obs::enabled()) {
    gemm_dispatch(A, B, C, m, k, n, trans_a, trans_b, accumulate);
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  gemm_dispatch(A, B, C, m, k, n, trans_a, trans_b, accumulate);
  gemm_hist().observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
}

namespace {

/// Query rows per block of fused_sdpa's vectorised pass: three rows' five
/// lane-order sums (softmax sum + four context columns) fill one 16-lane
/// transpose.
constexpr std::int64_t kSdpaRows = 3;

#ifdef DEEPBAT_SDPA_DH4_AVX512

/// In-register 16 x 16 transpose: afterwards a[l] holds lane l of every
/// input vector, input vector c in lane c.
inline void transpose16(__m512 a[16]) {
  __m512 t[16];
  for (int i = 0; i < 16; i += 2) {
    t[i] = _mm512_unpacklo_ps(a[i], a[i + 1]);
    t[i + 1] = _mm512_unpackhi_ps(a[i], a[i + 1]);
  }
  for (int i = 0; i < 16; i += 4) {
    const __m512d t0 = _mm512_castps_pd(t[i]);
    const __m512d t1 = _mm512_castps_pd(t[i + 1]);
    const __m512d t2 = _mm512_castps_pd(t[i + 2]);
    const __m512d t3 = _mm512_castps_pd(t[i + 3]);
    a[i] = _mm512_castpd_ps(_mm512_unpacklo_pd(t0, t2));
    a[i + 1] = _mm512_castpd_ps(_mm512_unpackhi_pd(t0, t2));
    a[i + 2] = _mm512_castpd_ps(_mm512_unpacklo_pd(t1, t3));
    a[i + 3] = _mm512_castpd_ps(_mm512_unpackhi_pd(t1, t3));
  }
  for (int i = 0; i < 4; ++i) {
    t[i] = _mm512_shuffle_f32x4(a[i], a[i + 4], 0x88);
    t[i + 4] = _mm512_shuffle_f32x4(a[i], a[i + 4], 0xdd);
    t[i + 8] = _mm512_shuffle_f32x4(a[i + 8], a[i + 12], 0x88);
    t[i + 12] = _mm512_shuffle_f32x4(a[i + 8], a[i + 12], 0xdd);
  }
  for (int i = 0; i < 4; ++i) {
    a[i] = _mm512_shuffle_f32x4(t[i], t[i + 8], 0x88);
    a[i + 8] = _mm512_shuffle_f32x4(t[i], t[i + 8], 0xdd);
    a[i + 4] = _mm512_shuffle_f32x4(t[i + 4], t[i + 12], 0x88);
    a[i + 12] = _mm512_shuffle_f32x4(t[i + 4], t[i + 12], 0xdd);
  }
}

// GCC 12 reports the self-initialised _mm512_undefined_ps() inside
// _mm512_max_ps as maybe-uninitialized; the unmasked max never reads it.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/// The vectorised pass structure for head_dim 4, lk % 16 == 0, no mask:
/// R query rows (starting at qb / ob, row stride `dim`) against the packed
/// [4, lk] K^T / V^T panels of one (batch, head) task; `srow` holds R * lk
/// floats. Each row reproduces the generic row loop's arithmetic op for op,
/// so the output is bitwise the same:
///   1. scores: q0*k0 then three FMAs (the generic loop's `srow += qd*ktd`
///      contracts to an FMA), with a lane-wise max;
///   2. the max lanes folded with std::max in lane order, as the generic
///      loop folds its lane array;
///   3. expf(s - max) through the same libmvec call, 16 lanes at a time;
///   4. one pass accumulating the softmax sum and the four context columns
///      as 16 lane partials each, then every partial vector summed in lane
///      order onto 0.0F — the epilogue GCC emits for the generic loop's
///      16-wide `omp simd reduction` loops. The 5 * R lane-order sums run
///      together: a transpose puts sum c in lane c, and 16 vector adds
///      accumulate lanes 0..15 in order.
/// Rows are independent, so blocking R of them only overlaps their latency
/// chains.
template <int R>
void sdpa_block_dh4(const float* qb, const float* kt, const float* vt,
                    float* ob, float* srow, std::int64_t lk, std::int64_t dim,
                    float scale) {
  static_assert(R >= 1 && 5 * R <= 16, "the sums must fit one transpose");
  const float* k[4] = {kt, kt + lk, kt + 2 * lk, kt + 3 * lk};
  const float* v[4] = {vt, vt + lk, vt + 2 * lk, vt + 3 * lk};
  __m512 q[R][4];
  __m512 mxv[R];
  for (int r = 0; r < R; ++r) {
    for (int d = 0; d < 4; ++d) {
      q[r][d] = _mm512_set1_ps(qb[r * dim + d] * scale);
    }
    mxv[r] = _mm512_set1_ps(-std::numeric_limits<float>::infinity());
  }
  for (std::int64_t j = 0; j < lk; j += 16) {
    const __m512 k0 = _mm512_loadu_ps(k[0] + j);
    const __m512 k1 = _mm512_loadu_ps(k[1] + j);
    const __m512 k2 = _mm512_loadu_ps(k[2] + j);
    const __m512 k3 = _mm512_loadu_ps(k[3] + j);
    for (int r = 0; r < R; ++r) {
      __m512 s = _mm512_mul_ps(q[r][0], k0);
      s = _mm512_fmadd_ps(q[r][1], k1, s);
      s = _mm512_fmadd_ps(q[r][2], k2, s);
      s = _mm512_fmadd_ps(q[r][3], k3, s);
      _mm512_storeu_ps(srow + r * lk + j, s);
      mxv[r] = _mm512_max_ps(s, mxv[r]);  // std::max(lane, s)
    }
  }
  for (int r = 0; r < R; ++r) {
    alignas(64) float lanes[16];
    _mm512_store_ps(lanes, mxv[r]);
    float mx = lanes[0];
    for (int l = 1; l < 16; ++l) mx = std::max(mx, lanes[l]);
    const __m512 mxb = _mm512_set1_ps(mx);
    float* sr = srow + r * lk;
    for (std::int64_t j = 0; j < lk; j += 16) {
      const __m512 x = _mm512_sub_ps(_mm512_loadu_ps(sr + j), mxb);
      _mm512_storeu_ps(sr + j, _ZGVeN16v_expf(x));
    }
  }
  // acc[5r] is row r's softmax sum, acc[5r + 1 + d] its context column d.
  __m512 acc[16];
  for (__m512& a : acc) a = _mm512_setzero_ps();
  for (std::int64_t j = 0; j < lk; j += 16) {
    const __m512 v0 = _mm512_loadu_ps(v[0] + j);
    const __m512 v1 = _mm512_loadu_ps(v[1] + j);
    const __m512 v2 = _mm512_loadu_ps(v[2] + j);
    const __m512 v3 = _mm512_loadu_ps(v[3] + j);
    for (int r = 0; r < R; ++r) {
      const __m512 e = _mm512_loadu_ps(srow + r * lk + j);
      __m512* a = acc + 5 * r;
      a[0] = _mm512_add_ps(a[0], e);
      a[1] = _mm512_fmadd_ps(e, v0, a[1]);
      a[2] = _mm512_fmadd_ps(e, v1, a[2]);
      a[3] = _mm512_fmadd_ps(e, v2, a[3]);
      a[4] = _mm512_fmadd_ps(e, v3, a[4]);
    }
  }
  transpose16(acc);
  __m512 total = _mm512_setzero_ps();
  for (const __m512& lane : acc) total = _mm512_add_ps(total, lane);
  alignas(64) float sums[16];
  _mm512_store_ps(sums, total);
  for (int r = 0; r < R; ++r) {
    const float inv = 1.0F / sums[5 * r];
    for (int d = 0; d < 4; ++d) ob[r * dim + d] = sums[5 * r + 1 + d] * inv;
  }
}

#pragma GCC diagnostic pop

/// Every query row of one (batch, head) task through sdpa_block_dh4.
void sdpa_rows_dh4(const float* qb, const float* kt, const float* vt,
                   float* ob, float* srow, std::int64_t lq, std::int64_t lk,
                   std::int64_t dim, float scale) {
  std::int64_t i = 0;
  for (; i + kSdpaRows <= lq; i += kSdpaRows) {
    sdpa_block_dh4<kSdpaRows>(qb + i * dim, kt, vt, ob + i * dim, srow, lk,
                              dim, scale);
  }
  for (; i < lq; ++i) {
    sdpa_block_dh4<1>(qb + i * dim, kt, vt, ob + i * dim, srow, lk, dim,
                      scale);
  }
}
#endif

/// Which row loop fused_sdpa_impl runs: kAuto takes the vectorised pass
/// where the shape allows it and this build reproduces the generic loop
/// with it; the other two force a loop (the build's probe and tests).
enum class SdpaPass { kAuto, kGeneric, kVectorised };

#ifdef DEEPBAT_SDPA_DH4_AVX512
bool sdpa_pass_matches_generic_loop();
#endif

void fused_sdpa_impl(const float* q, const float* k, const float* v,
                     float* out, std::int64_t batch, std::int64_t lq,
                     std::int64_t lk, std::int64_t heads, std::int64_t dim,
                     float scale, const float* mask, SdpaPass pass) {
  const std::int64_t dh = dim / heads;
#ifdef DEEPBAT_SDPA_DH4_AVX512
  const bool fast = pass != SdpaPass::kGeneric && dh == 4 && lk % 16 == 0 &&
                    mask == nullptr &&
                    (pass == SdpaPass::kVectorised ||
                     sdpa_pass_matches_generic_loop());
#else
  (void)pass;
  constexpr bool fast = false;
#endif
  const std::int64_t tasks = batch * heads;
  // ~4 flops per (i, j, d) triple: QK^T dot plus the PV accumulation.
  const std::int64_t flops_per_task = 4 * lq * lk * dh;
  const auto grain = static_cast<std::size_t>(std::max<std::int64_t>(
      1, kMinFlopsPerTask / std::max<std::int64_t>(flops_per_task, 1)));
  parallel_for(
      static_cast<std::size_t>(tasks),
      [&](std::size_t t) {
        const auto b = static_cast<std::int64_t>(t) / heads;
        const auto h = static_cast<std::int64_t>(t) % heads;
        auto& row = tl_sdpa_row;
        auto& kt = tl_sdpa_kt;
        auto& vt = tl_sdpa_vt;
        // The vectorised pass keeps a score row per query row of a block.
        const std::int64_t row_len = fast ? kSdpaRows * lk : lk;
        if (row.size() < static_cast<std::size_t>(row_len)) row.resize(row_len);
        const auto panel = static_cast<std::size_t>(dh * lk);
        if (kt.size() < panel) kt.resize(panel);
        if (vt.size() < panel) vt.resize(panel);
        const float* qb = q + b * lq * dim + h * dh;
        const float* kb = k + b * lk * dim + h * dh;
        const float* vb = v + b * lk * dim + h * dh;
        float* ob = out + b * lq * dim + h * dh;
        // Pack this head's K and V slices as [dh, lk] panels so every
        // per-query pass below streams unit-stride memory over lk.
        for (std::int64_t d = 0; d < dh; ++d) {
          float* ktd = kt.data() + d * lk;
          float* vtd = vt.data() + d * lk;
          for (std::int64_t j = 0; j < lk; ++j) {
            ktd[j] = kb[j * dim + d];
            vtd[j] = vb[j * dim + d];
          }
        }
#ifdef DEEPBAT_SDPA_DH4_AVX512
        if (fast) {
          sdpa_rows_dh4(qb, kt.data(), vt.data(), ob, row.data(), lq, lk, dim,
                        scale);
          return;
        }
#endif
        for (std::int64_t i = 0; i < lq; ++i) {
          const float* qi = qb + i * dim;
          float* srow = row.data();
          // Score row (the only per-query state; the full score tensor is
          // never materialized), built as dh rank-1 updates over lk.
          {
            const float q0 = qi[0] * scale;
            const float* kt0 = kt.data();
            for (std::int64_t j = 0; j < lk; ++j) srow[j] = q0 * kt0[j];
          }
          for (std::int64_t d = 1; d < dh; ++d) {
            const float qd = qi[d] * scale;
            const float* ktd = kt.data() + d * lk;
            for (std::int64_t j = 0; j < lk; ++j) srow[j] += qd * ktd[j];
          }
          if (mask) {
            const float* mrow = mask + i * lk;
            for (std::int64_t j = 0; j < lk; ++j) srow[j] += mrow[j];
          }
          // Lane-array max: fixed 16-wide blocks vectorize as straight-line
          // code, which GCC handles much better than a `reduction(max:)`
          // loop. The lane count is a compile-time constant, so results stay
          // identical across thread counts.
          float lanes[16];
          for (int l = 0; l < 16; ++l) {
            lanes[l] = -std::numeric_limits<float>::infinity();
          }
          std::int64_t j = 0;
          for (; j + 16 <= lk; j += 16) {
            for (int l = 0; l < 16; ++l) {
              lanes[l] = std::max(lanes[l], srow[j + l]);
            }
          }
          float mx = lanes[0];
          for (int l = 1; l < 16; ++l) mx = std::max(mx, lanes[l]);
          for (; j < lk; ++j) mx = std::max(mx, srow[j]);
          // Streaming softmax: exponentiate in place, normalize via 1/sum.
          // This file is compiled with glibc's simd declaration for expf
          // enabled (see src/nn/CMakeLists.txt), so the loop calls the
          // vectorized libmvec kernel; expf(-inf) = 0 handles masked
          // positions exactly like the reference softmax.
          float sum = 0.0F;
#pragma omp simd reduction(+ : sum)
          for (std::int64_t j = 0; j < lk; ++j) {
            const float e = ::expf(srow[j] - mx);
            srow[j] = e;
            sum += e;
          }
          const float inv = 1.0F / sum;
          float* oi = ob + i * dim;
          for (std::int64_t d = 0; d < dh; ++d) {
            const float* vtd = vt.data() + d * lk;
            float ctx = 0.0F;
#pragma omp simd reduction(+ : ctx)
            for (std::int64_t j = 0; j < lk; ++j) ctx += srow[j] * vtd[j];
            oi[d] = ctx * inv;
          }
        }
      },
      grain);
}

#ifdef DEEPBAT_SDPA_DH4_AVX512
/// Whether this build's generic row loop is the one the vectorised pass
/// reproduces. It is when GCC vectorises the loop 16 wide on 512-bit vectors
/// with libmvec's expf, as -O2/-O3 -march=native builds do on AVX-512 hosts;
/// -O0/-O1, ASan or UBSan instrumentation and 256-bit vector tuning compile
/// it differently, and the two would differ.
/// Decided once per process from a fixed probe, so a build either always or
/// never takes the pass and fused_sdpa's bits never depend on which loop
/// ran. The probe's query rows range from near-flat softmax rows (where the
/// summation order shows in the last bits) to rows whose scores span expf's
/// underflow range (libmvec's special-case lanes).
bool sdpa_pass_matches_generic_loop() {
  static const bool matches = [] {
    constexpr std::int64_t kBatch = 2, kLq = 4, kLk = 64, kHeads = 4;
    constexpr std::int64_t kDim = 16;
    std::vector<float> q(static_cast<std::size_t>(kBatch * kLq * kDim));
    std::vector<float> k(static_cast<std::size_t>(kBatch * kLk * kDim));
    std::vector<float> v(k.size());
    std::uint32_t state = 0x9E3779B9U;  // xorshift32: values in [-1, 1)
    const auto next = [&state] {
      state ^= state << 13;
      state ^= state >> 17;
      state ^= state << 5;
      return static_cast<float>(state >> 8) / 8388608.0F - 1.0F;
    };
    constexpr float kRowScale[kLq] = {0.5F, 4.0F, 32.0F, 128.0F};
    for (std::size_t i = 0; i < q.size(); ++i) {
      q[i] = kRowScale[(i / kDim) % kLq] * next();
    }
    for (float& e : k) e = next();
    for (float& e : v) e = next();
    std::vector<float> vectorised(q.size());
    std::vector<float> generic(q.size());
    fused_sdpa_impl(q.data(), k.data(), v.data(), vectorised.data(), kBatch,
                    kLq, kLk, kHeads, kDim, 0.5F, nullptr,
                    SdpaPass::kVectorised);
    fused_sdpa_impl(q.data(), k.data(), v.data(), generic.data(), kBatch, kLq,
                    kLk, kHeads, kDim, 0.5F, nullptr, SdpaPass::kGeneric);
    return std::memcmp(vectorised.data(), generic.data(),
                       vectorised.size() * sizeof(float)) == 0;
  }();
  return matches;
}
#endif

}  // namespace

void fused_sdpa(const float* q, const float* k, const float* v, float* out,
                std::int64_t batch, std::int64_t lq, std::int64_t lk,
                std::int64_t heads, std::int64_t dim, float scale,
                const float* mask) {
  if (!obs::enabled()) {
    fused_sdpa_impl(q, k, v, out, batch, lq, lk, heads, dim, scale, mask,
                    SdpaPass::kAuto);
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  fused_sdpa_impl(q, k, v, out, batch, lq, lk, heads, dim, scale, mask,
                  SdpaPass::kAuto);
  sdpa_hist().observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
}

namespace detail {

bool fused_sdpa_has_fast_path() {
#ifdef DEEPBAT_SDPA_DH4_AVX512
  return sdpa_pass_matches_generic_loop();
#else
  return false;
#endif
}

void fused_sdpa_generic(const float* q, const float* k, const float* v,
                        float* out, std::int64_t batch, std::int64_t lq,
                        std::int64_t lk, std::int64_t heads, std::int64_t dim,
                        float scale, const float* mask) {
  fused_sdpa_impl(q, k, v, out, batch, lq, lk, heads, dim, scale, mask,
                  SdpaPass::kGeneric);
}

}  // namespace detail

}  // namespace deepbat::nn::kernels
