#pragma once
// Hand-optimized float kernels for the hot paths of the surrogate model:
// a cache-blocked, register-tiled GEMM (used by every matmul forward and
// backward) and a fused scaled-dot-product attention that never
// materializes the [B, H, Lq, Lk] score tensor.
//
// Determinism contract: for a fixed input, every kernel produces
// bit-identical output regardless of the number of OpenMP threads. This
// holds because each output element is computed by exactly one task and the
// accumulation order within an element never depends on the thread count.
//
// The naive reference kernels (the seed implementations) stay available for
// golden-value tests and for the regression harness's before/after
// comparison; `set_reference_mode(true)` routes the optimized entry points
// back to them at runtime.

#include <cstdint>

namespace deepbat::nn::kernels {

/// When true, gemm() falls through to gemm_naive() and fused attention is
/// disabled (attention.cpp checks this). Used by bench/nn_kernels and the
/// golden tests to time/compare the seed kernels inside the full model.
void set_reference_mode(bool on);
bool reference_mode();

/// Reference kernel: C[m,n] = A * B (optionally transposed operands),
/// accumulating into C when `accumulate` is set. A is [m,k] row-major, or
/// [k,m] when trans_a; B is [k,n] row-major, or [n,k] when trans_b.
/// This is the seed's triple loop, kept verbatim as ground truth.
void gemm_naive(const float* A, const float* B, float* C, std::int64_t m,
                std::int64_t k, std::int64_t n, bool trans_a, bool trans_b,
                bool accumulate);

/// Optimized GEMM with the same semantics as gemm_naive: packs transposed
/// operands into contiguous panels, register-tiles the inner j-loop
/// (kMr x kNr accumulator tiles), and parallelizes over row blocks with a
/// flop-derived grain.
void gemm(const float* A, const float* B, float* C, std::int64_t m,
          std::int64_t k, std::int64_t n, bool trans_a, bool trans_b,
          bool accumulate);

/// Fused scaled-dot-product attention over head-split projections stored
/// inline in [*, L, dim] tensors (head h occupies columns
/// [h*dh, (h+1)*dh), dh = dim / heads):
///
///   out[b, i, h*dh:*] = sum_j softmax_j(scale * q[b,i,h]·k[b,j,h]
///                                       + mask[i,j]) * v[b, j, h*dh:*]
///
/// Softmax is computed row-streaming (max-subtract, exp, normalize in one
/// pass over a single Lk-length row buffer); the [B, H, Lq, Lk] score
/// tensor is never materialized. `mask`, if non-null, is an additive
/// [lq, lk] row-major matrix shared across batch and heads.
///
/// On optimised AVX-512 builds (x86-64, glibc, GCC) the shape head_dim 4,
/// lk % 16 == 0, no mask runs a vectorised pass structure instead of the
/// generic row loop; its output is bitwise the generic loop's, which a
/// one-time probe confirms for the build before the pass is used
/// (DESIGN.md §7).
void fused_sdpa(const float* q, const float* k, const float* v, float* out,
                std::int64_t batch, std::int64_t lq, std::int64_t lk,
                std::int64_t heads, std::int64_t dim, float scale,
                const float* mask = nullptr);

namespace detail {
/// True when fused_sdpa takes its vectorised head_dim-4 pass in this build:
/// the pass is compiled in and reproduces the generic loop.
bool fused_sdpa_has_fast_path();
/// fused_sdpa through the generic row loop only, for every shape: the
/// reference the vectorised pass must match bit for bit.
void fused_sdpa_generic(const float* q, const float* k, const float* v,
                        float* out, std::int64_t batch, std::int64_t lq,
                        std::int64_t lk, std::int64_t heads, std::int64_t dim,
                        float scale, const float* mask = nullptr);
}  // namespace detail


// Blocking parameters, exposed so tests can probe the edge cases around
// them (shapes that are not multiples of the tile sizes).
inline constexpr std::int64_t kMr = 4;         // rows per register tile
inline constexpr std::int64_t kNr = 16;        // columns per register tile
inline constexpr std::int64_t kRowBlock = 64;  // rows per parallel task unit
/// Minimum flops a parallel task should amortize; grains are derived from
/// this so tiny GEMMs never pay the fork/join overhead.
inline constexpr std::int64_t kMinFlopsPerTask = 1 << 16;
/// GEMMs below this many total flops run serially even when OpenMP threads
/// are available: at these sizes the fork/join barrier costs more than the
/// math, which is exactly how 2-thread runs used to LOSE to 1-thread on the
/// tall-skinny shapes (m256_k256_n4 and friends). Serial execution makes
/// thread count irrelevant for them, and per-element results were
/// thread-count independent to begin with.
inline constexpr std::int64_t kMinFlopsParallel = std::int64_t{1} << 21;
/// n at or below this routes to the compile-time-width skinny-output kernel
/// (B read in natural [k, n] layout, no pack) instead of the kMr x kNr
/// tile, whose j-vectorized inner loop is mostly idle lanes for skinny
/// outputs; k must be at least kSmallNMinK so the per-tile setup amortizes.
/// The grid-scoring output GEMM (n = output_dim = 8, k = ffn_hidden = 32)
/// is the shape this threshold must admit. Per-element accumulation order
/// is identical to the generic micro kernels, so the cutover never changes
/// result bits — only speed.
inline constexpr std::int64_t kSmallNMax = 8;
inline constexpr std::int64_t kSmallNMinK = 16;
/// trans_a GEMMs with at most this many output rows skip the A transpose
/// pack: with A stored [k, m] and m tiny, the pack writes a strided panel
/// that costs more than it saves (the worst case is the m16_k2048_n16_tA
/// gradient shape), while reading A[l*m + i] directly is contiguous in i.
inline constexpr std::int64_t kDirectTransAMaxM = 64;

}  // namespace deepbat::nn::kernels
