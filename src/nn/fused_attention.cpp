#include "nn/fused_attention.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "nn/kernels.hpp"

// The pass is built on x86-64 AVX-512. Unlike kernels.cpp, this file gets
// no simd declarations for libm, so its std::exp stays glibc's scalar expf:
// the function softmax_last calls.
#if defined(__AVX512F__) && defined(__x86_64__)
#define DEEPBAT_FUSED_ATTENTION_AVX512 1
#include "nn/avx512.hpp"
#endif

namespace deepbat::nn {

namespace {

constexpr std::int64_t kHeadDim = 4;
/// Query rows per block, one per vector lane.
constexpr std::int64_t kRows = 16;

#ifdef DEEPBAT_FUSED_ATTENTION_AVX512

// GCC 12 reports the self-initialised _mm512_undefined_ps() inside unmasked
// AVX-512 intrinsics (max, set1, shuffles) as maybe-uninitialized; they
// never read it.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

struct Dims {
  std::int64_t batch;
  std::int64_t lq;
  std::int64_t lk;
  std::int64_t heads;
  std::int64_t dim;
  std::int64_t blocks() const { return lq / kRows; }
};

// The keep flags of a block of query rows are one 16-bit word per key: bit
// r of word (task, block, j) is set when row 16 * block + r keeps key j.
// The words live in a float tensor's bytes, so the arena can hold them, and
// are read and written through memcpy.
std::uint16_t load_word(const unsigned char* words, std::int64_t j) {
  std::uint16_t word = 0;
  std::memcpy(&word, words + 2 * j, sizeof(word));
  return word;
}

/// Draws one keep flag per attention element from `rng`, in the flat
/// [b, h, i, j] order and with the test Dropout::forward applies to the
/// composed graph's [B, H, Lq, Lk] tensor.
void draw_keep_flags(const Dims& d, float p, Rng& rng, unsigned char* flags) {
  const float keep = 1.0F - p;
  // Drawn from a local copy: the byte stores below may alias the caller's
  // generator, which would force its state through memory on every draw.
  Rng stream = rng;
  for (std::int64_t t = 0; t < d.batch * d.heads; ++t) {
    for (std::int64_t i = 0; i < d.lq; ++i) {
      const auto bit = static_cast<std::uint16_t>(1U << (i % kRows));
      unsigned char* words = flags + 2 * (t * d.blocks() + i / kRows) * d.lk;
      for (std::int64_t j = 0; j < d.lk; ++j) {
        std::uint16_t word = load_word(words, j);
        if (stream.uniform() < keep) word |= bit;
        std::memcpy(words + 2 * j, &word, sizeof(word));
      }
    }
  }
  rng = stream;
}

/// Columns 0..3 of 16 rows of a row-major [*, dim] matrix, column c as one
/// vector with row r in lane r.
void load_columns(const float* rows, std::int64_t dim, __m512 cols[kHeadDim]) {
  alignas(64) float buf[kHeadDim][kRows];
  for (std::int64_t r = 0; r < kRows; ++r) {
    for (std::int64_t c = 0; c < kHeadDim; ++c) buf[c][r] = rows[r * dim + c];
  }
  for (std::int64_t c = 0; c < kHeadDim; ++c) cols[c] = _mm512_load_ps(buf[c]);
}

void store_columns(const __m512 cols[kHeadDim], float* rows, std::int64_t dim) {
  alignas(64) float buf[kHeadDim][kRows];
  for (std::int64_t c = 0; c < kHeadDim; ++c) _mm512_store_ps(buf[c], cols[c]);
  for (std::int64_t r = 0; r < kRows; ++r) {
    for (std::int64_t c = 0; c < kHeadDim; ++c) rows[r * dim + c] = buf[c][r];
  }
}

/// Forward pass of one (batch, head) task. For each block of 16 query rows,
/// every step is the composed graph's arithmetic on 16 rows at once, each
/// row in its own lane: the scores as the q·kᵀ GEMM's FMA chain over the
/// head columns from 0.0F, then × scale; the row max folded in key order;
/// softmax_last's scalar std::exp and its sum in key order; P = e × (1 /
/// sum); the dropout's P × {inv_keep, 0}; and the context as the A·v GEMM's
/// FMA chain over keys from 0.0F. P is kept in `panels`, one [lk][16] panel
/// per block.
void forward_task(const Dims& d, std::int64_t t, float scale, const float* q,
                  const float* k, const float* v, const unsigned char* flags,
                  float inv_keep, float* panels, float* ctx) {
  const std::int64_t b = t / d.heads;
  const std::int64_t col = (t % d.heads) * kHeadDim;
  const float* kb = k + b * d.lk * d.dim + col;
  const float* vb = v + b * d.lk * d.dim + col;
  const __m512 zero = _mm512_setzero_ps();
  const __m512 scale_v = _mm512_set1_ps(scale);
  const __m512 keep_v = _mm512_set1_ps(inv_keep);
  for (std::int64_t blk = 0; blk < d.blocks(); ++blk) {
    const std::int64_t row0 = b * d.lq + blk * kRows;
    float* panel = panels + (t * d.blocks() + blk) * d.lk * kRows;
    const unsigned char* words =
        flags ? flags + 2 * (t * d.blocks() + blk) * d.lk : nullptr;
    __m512 qc[kHeadDim];
    load_columns(q + row0 * d.dim + col, d.dim, qc);
    __m512 mx = zero;
    for (std::int64_t j = 0; j < d.lk; ++j) {
      const float* kj = kb + j * d.dim;
      __m512 s = zero;
      for (std::int64_t c = 0; c < kHeadDim; ++c) {
        s = _mm512_fmadd_ps(qc[c], _mm512_set1_ps(kj[c]), s);
      }
      s = _mm512_mul_ps(s, scale_v);
      _mm512_storeu_ps(panel + j * kRows, s);
      mx = _mm512_max_ps(s, j == 0 ? s : mx);  // std::max(mx, s)
    }
    alignas(64) float row_max[kRows];
    _mm512_store_ps(row_max, mx);
    __m512 sum = zero;
    for (std::int64_t j = 0; j < d.lk; ++j) {
      float* e = panel + j * kRows;
      for (std::int64_t r = 0; r < kRows; ++r) {
        e[r] = std::exp(e[r] - row_max[r]);
      }
      sum = _mm512_add_ps(sum, _mm512_loadu_ps(e));
    }
    const __m512 inv = _mm512_div_ps(_mm512_set1_ps(1.0F), sum);
    __m512 acc[kHeadDim] = {zero, zero, zero, zero};
    for (std::int64_t j = 0; j < d.lk; ++j) {
      const __m512 p = _mm512_mul_ps(_mm512_loadu_ps(panel + j * kRows), inv);
      _mm512_storeu_ps(panel + j * kRows, p);
      const __m512 a =
          words ? _mm512_mul_ps(p, _mm512_mask_blend_ps(load_word(words, j),
                                                        zero, keep_v))
                : p;
      const float* vj = vb + j * d.dim;
      for (std::int64_t c = 0; c < kHeadDim; ++c) {
        acc[c] = _mm512_fmadd_ps(a, _mm512_set1_ps(vj[c]), acc[c]);
      }
    }
    store_columns(acc, ctx + row0 * d.dim + col, d.dim);
  }
}

// Per-thread scratch of the backward pass: dL/dP of one block ([lk][16]),
// and the dK and dV accumulators of one task ([lk / 16][4][16] each).
thread_local std::vector<float> tl_grad_panel;
thread_local std::vector<float> tl_key_grads;

/// Backward pass of one (batch, head) task, the composed graph's backward
/// op for op. Per block of 16 query rows, in increasing order: dA = dC·vᵀ as
/// the GEMM's FMA chain over the head columns; dP through the dropout mask;
/// softmax_last's dot(dP, P) as rounded products added in key order (GCC
/// compiles that loop's 16-wide body as vmulps plus in-order vaddss); dS =
/// P × (dP − dot), then × scale; dQ as the FMA chain over keys in
/// increasing order. dK and dV are chains over query rows, so each 16 x 16
/// tile of A and of dS is transposed and its rows are added in increasing
/// order onto accumulators that live across the blocks. Every gradient an
/// accumulate_grad receives on the composed graph passes through its
/// `0.0F +` here too.
void backward_task(const Dims& d, std::int64_t t, float scale, const float* q,
                   const float* k, const float* v, const float* panels,
                   const unsigned char* flags, float inv_keep,
                   const float* dctx, float* dq, float* dk, float* dv) {
  const std::int64_t b = t / d.heads;
  const std::int64_t col = (t % d.heads) * kHeadDim;
  const std::int64_t key_blocks = d.lk / kRows;
  const float* kb = k + b * d.lk * d.dim + col;
  const float* vb = v + b * d.lk * d.dim + col;
  auto& grad_panel = tl_grad_panel;
  auto& key_grads = tl_key_grads;
  const auto panel_len = static_cast<std::size_t>(d.lk * kRows);
  if (grad_panel.size() < panel_len) grad_panel.resize(panel_len);
  key_grads.assign(2 * static_cast<std::size_t>(d.lk * kHeadDim), 0.0F);
  float* dk_acc = key_grads.data();
  float* dv_acc = key_grads.data() + d.lk * kHeadDim;
  float* gp = grad_panel.data();
  const __m512 zero = _mm512_setzero_ps();
  const __m512 scale_v = _mm512_set1_ps(scale);
  const __m512 keep_v = _mm512_set1_ps(inv_keep);
  for (std::int64_t blk = 0; blk < d.blocks(); ++blk) {
    const std::int64_t row0 = b * d.lq + blk * kRows;
    const float* panel = panels + (t * d.blocks() + blk) * d.lk * kRows;
    const unsigned char* words =
        flags ? flags + 2 * (t * d.blocks() + blk) * d.lk : nullptr;
    const float* g_rows = dctx + row0 * d.dim + col;
    const float* q_rows = q + row0 * d.dim + col;
    __m512 gc[kHeadDim];
    load_columns(g_rows, d.dim, gc);

    __m512 dot = zero;
    for (std::int64_t kblk = 0; kblk < key_blocks; ++kblk) {
      __m512 a[kRows];
      for (std::int64_t jj = 0; jj < kRows; ++jj) {
        const std::int64_t j = kblk * kRows + jj;
        const float* vj = vb + j * d.dim;
        __m512 da = zero;
        for (std::int64_t c = 0; c < kHeadDim; ++c) {
          da = _mm512_fmadd_ps(gc[c], _mm512_set1_ps(vj[c]), da);
        }
        da = _mm512_add_ps(zero, da);
        const __m512 p = _mm512_loadu_ps(panel + j * kRows);
        __m512 dp = da;
        a[jj] = p;
        if (words) {
          const __m512 m =
              _mm512_mask_blend_ps(load_word(words, j), zero, keep_v);
          dp = _mm512_add_ps(zero, _mm512_mul_ps(da, m));
          a[jj] = _mm512_mul_ps(p, m);
        }
        dot = _mm512_add_ps(dot, _mm512_mul_ps(dp, p));
        _mm512_storeu_ps(gp + j * kRows, dp);
      }
      avx512::transpose16(a);  // a[r]: row r of A over this block's keys
      float* acc = dv_acc + kblk * kHeadDim * kRows;
      __m512 dv_c[kHeadDim];
      for (std::int64_t c = 0; c < kHeadDim; ++c) {
        dv_c[c] = _mm512_loadu_ps(acc + c * kRows);
      }
      for (std::int64_t r = 0; r < kRows; ++r) {
        for (std::int64_t c = 0; c < kHeadDim; ++c) {
          dv_c[c] = _mm512_fmadd_ps(a[r], _mm512_set1_ps(g_rows[r * d.dim + c]),
                                    dv_c[c]);
        }
      }
      for (std::int64_t c = 0; c < kHeadDim; ++c) {
        _mm512_storeu_ps(acc + c * kRows, dv_c[c]);
      }
    }

    __m512 dq_c[kHeadDim] = {zero, zero, zero, zero};
    for (std::int64_t kblk = 0; kblk < key_blocks; ++kblk) {
      __m512 ds[kRows];
      for (std::int64_t jj = 0; jj < kRows; ++jj) {
        const std::int64_t j = kblk * kRows + jj;
        const __m512 p = _mm512_loadu_ps(panel + j * kRows);
        __m512 s = _mm512_mul_ps(
            p, _mm512_sub_ps(_mm512_loadu_ps(gp + j * kRows), dot));
        s = _mm512_add_ps(zero, _mm512_mul_ps(_mm512_add_ps(zero, s), scale_v));
        const float* kj = kb + j * d.dim;
        for (std::int64_t c = 0; c < kHeadDim; ++c) {
          dq_c[c] = _mm512_fmadd_ps(s, _mm512_set1_ps(kj[c]), dq_c[c]);
        }
        ds[jj] = s;
      }
      avx512::transpose16(ds);  // ds[r]: row r of dS over this block's keys
      float* acc = dk_acc + kblk * kHeadDim * kRows;
      __m512 dk_c[kHeadDim];
      for (std::int64_t c = 0; c < kHeadDim; ++c) {
        dk_c[c] = _mm512_loadu_ps(acc + c * kRows);
      }
      for (std::int64_t r = 0; r < kRows; ++r) {
        for (std::int64_t c = 0; c < kHeadDim; ++c) {
          dk_c[c] = _mm512_fmadd_ps(_mm512_set1_ps(q_rows[r * d.dim + c]),
                                    ds[r], dk_c[c]);
        }
      }
      for (std::int64_t c = 0; c < kHeadDim; ++c) {
        _mm512_storeu_ps(acc + c * kRows, dk_c[c]);
      }
    }
    store_columns(dq_c, dq + row0 * d.dim + col, d.dim);
  }
  for (std::int64_t j = 0; j < d.lk; ++j) {
    const std::int64_t at = (j / kRows) * kHeadDim * kRows + j % kRows;
    float* dk_row = dk + (b * d.lk + j) * d.dim + col;
    float* dv_row = dv + (b * d.lk + j) * d.dim + col;
    for (std::int64_t c = 0; c < kHeadDim; ++c) {
      dk_row[c] = dk_acc[at + c * kRows];
      dv_row[c] = dv_acc[at + c * kRows];
    }
  }
}

#pragma GCC diagnostic pop

#endif  // DEEPBAT_FUSED_ATTENTION_AVX512

}  // namespace

bool fused_attention_fits(std::int64_t lq, std::int64_t lk,
                          std::int64_t heads, std::int64_t dim) {
#ifdef DEEPBAT_FUSED_ATTENTION_AVX512
  return heads > 0 && dim == kHeadDim * heads && lq > 0 && lk > 0 &&
         lq % kRows == 0 && lk % kRows == 0;
#else
  (void)lq, (void)lk, (void)heads, (void)dim;
  return false;
#endif
}

Var fused_attention(const Var& q, const Var& k, const Var& v,
                    std::int64_t heads, float scale, const Dropout& dropout) {
  DEEPBAT_CHECK(q && k && v, "fused_attention: null input");
  DEEPBAT_CHECK(q->value.ndim() == 3 && k->value.shape() == v->value.shape() &&
                    k->value.ndim() == 3 &&
                    k->value.dim(0) == q->value.dim(0) &&
                    k->value.dim(2) == q->value.dim(2) &&
                    fused_attention_fits(q->value.dim(1), k->value.dim(1),
                                         heads, q->value.dim(2)),
                "fused_attention: unsupported shape " +
                    shape_to_string(q->value.shape()) + " x " +
                    shape_to_string(k->value.shape()));
#ifdef DEEPBAT_FUSED_ATTENTION_AVX512
  const Dims d{q->value.dim(0), q->value.dim(1), k->value.dim(1), heads,
               q->value.dim(2)};
  const std::int64_t tasks = d.batch * d.heads;
  const bool drop = dropout.is_active();
  const float inv_keep = drop ? 1.0F / (1.0F - dropout.p()) : 1.0F;
  // Two 16-bit words per float slot.
  Tensor flags({drop ? (tasks * d.blocks() * d.lk + 1) / 2 : 0});
  if (drop) {
    draw_keep_flags(d, dropout.p(), dropout.stream(),
                    reinterpret_cast<unsigned char*>(flags.data()));
  }
  Tensor panels({tasks * d.lq * d.lk});
  Tensor ctx({d.batch, d.lq, d.dim});
  // ~4 flops per (i, j, c) triple, as fused_sdpa counts them.
  const auto grain = static_cast<std::size_t>(std::max<std::int64_t>(
      1, kernels::kMinFlopsPerTask / (4 * d.lq * d.lk * kHeadDim)));
  parallel_for(
      static_cast<std::size_t>(tasks),
      [&](std::size_t t) {
        forward_task(d, static_cast<std::int64_t>(t), scale, q->value.data(),
                     k->value.data(), v->value.data(),
                     drop ? reinterpret_cast<const unsigned char*>(flags.data())
                          : nullptr,
                     inv_keep, panels.data(), ctx.data());
      },
      grain);
  return make_node(
      std::move(ctx), {q, k, v},
      [q, k, v, d, scale, drop, inv_keep, flags, panels, grain](Node& self) {
        Tensor dq(q->value.shape());
        Tensor dk(k->value.shape());
        Tensor dv(v->value.shape());
        parallel_for(
            static_cast<std::size_t>(d.batch * d.heads),
            [&](std::size_t t) {
              backward_task(
                  d, static_cast<std::int64_t>(t), scale, q->value.data(),
                  k->value.data(), v->value.data(), panels.data(),
                  drop ? reinterpret_cast<const unsigned char*>(flags.data())
                       : nullptr,
                  inv_keep, self.grad.data(), dq.data(), dk.data(), dv.data());
            },
            grain);
        if (q->requires_grad) q->accumulate_grad(dq);
        if (k->requires_grad) k->accumulate_grad(dk);
        if (v->requires_grad) v->accumulate_grad(dv);
      },
      "fused_attention");
#else
  (void)scale, (void)dropout;
  return nullptr;  // unreachable: fused_attention_fits() is false
#endif
}

}  // namespace deepbat::nn
