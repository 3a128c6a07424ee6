#include "nn/attention.hpp"

#include <array>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "nn/arena.hpp"
#include "nn/fused_attention.hpp"
#include "nn/kernels.hpp"

namespace deepbat::nn {

namespace {

/// The composed reference path (autograd-capable for every shape and mask):
/// split heads, materialize scores, softmax, optional recording into
/// `*record`, dropout, context, merge heads.
Var composed_sdpa(const Var& q_proj, const Var& k_proj, const Var& v_proj,
                  const Var& mask, std::int64_t heads, float score_scale,
                  const Dropout& dropout, std::optional<Tensor>* record) {
  const std::int64_t B = q_proj->value.dim(0);
  const std::int64_t Lq = q_proj->value.dim(1);
  const std::int64_t Lk = k_proj->value.dim(1);
  const std::int64_t dim = q_proj->value.dim(2);
  auto split_heads = [&](const Var& x, std::int64_t L) {
    return permute_0213(reshape(x, {B, L, heads, dim / heads}));
  };
  const Var q = split_heads(q_proj, Lq);
  const Var k = split_heads(k_proj, Lk);
  const Var v = split_heads(v_proj, Lk);

  // Scaled dot-product: [B, H, Lq, Lk].
  Var scores = scale(matmul(q, transpose_last(k)), score_scale);
  if (mask) scores = add(scores, mask);
  Var attn = softmax_last(scores);
  if (record != nullptr) {
    // The recorded tensor is read after the forward's arena scope has been
    // rewound (e.g. Fig. 14's profile), so it must live on the heap.
    arena::Pause heap_alloc;
    *record = attn->value.clone();
  }
  attn = dropout.forward(attn);

  // Context: [B, H, Lq, dh] -> [B, Lq, D].
  return reshape(permute_0213(matmul(attn, v)), {B, Lq, dim});
}

/// Whether fused_attention reproduces this build's composed graph. It does
/// where GCC compiles the composed graph's kernels as the fused pass
/// assumes: the GEMMs' multiply-adds contracted to FMAs, softmax_last's
/// backward dot as rounded products added in order, and glibc's scalar
/// expf on both sides, as -O3 -march=native builds on AVX-512 hosts do.
/// Decided once per process from a fixed probe that runs both paths
/// forward and backward, with and without dropout, so a build either always
/// or never takes the fused pass and its bits never depend on which path
/// ran. The probe's query rows range from near-flat softmax rows to rows
/// whose scores underflow expf, so P holds exact zeros.
bool fused_training_matches_composed() {
  static const bool matches = [] {
    constexpr std::int64_t kBatch = 2, kLq = 32, kLk = 48, kHeads = 4;
    constexpr std::int64_t kDim = 16;
    if (!fused_attention_fits(kLq, kLk, kHeads, kDim)) return false;
    arena::Scope scope;
    std::uint32_t state = 0x9E3779B9U;  // xorshift32: values in [-1, 1)
    const auto next = [&state] {
      state ^= state << 13;
      state ^= state >> 17;
      state ^= state << 5;
      return static_cast<float>(state >> 8) / 8388608.0F - 1.0F;
    };
    constexpr float kRowScale[4] = {0.5F, 4.0F, 32.0F, 128.0F};
    const auto draw = [&](std::int64_t rows, bool row_scaled) {
      Tensor t({kBatch, rows, kDim});
      float* x = t.data();
      for (std::int64_t i = 0; i < t.numel(); ++i) {
        x[i] = (row_scaled ? kRowScale[(i / kDim) % 4] : 1.0F) * next();
      }
      return t;
    };
    const Tensor q = draw(kLq, true);
    const Tensor k = draw(kLk, false);
    const Tensor v = draw(kLk, false);
    const Tensor upstream = draw(kLq, false);
    const auto same = [](const Tensor& a, const Tensor& b) {
      return a.numel() == b.numel() &&
             std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()) == 0;
    };
    for (const float p : {0.1F, 0.0F}) {
      std::array<std::array<Tensor, 4>, 2> out;
      std::array<Rng::State, 2> rng;
      for (int fused = 0; fused < 2; ++fused) {
        Dropout dropout(p, 0x5EED);
        const Var qv = make_leaf(q, true);
        const Var kv = make_leaf(k, true);
        const Var vv = make_leaf(v, true);
        const Var ctx =
            fused ? fused_attention(qv, kv, vv, kHeads, 0.5F, dropout)
                  : composed_sdpa(qv, kv, vv, nullptr, kHeads, 0.5F, dropout,
                                  nullptr);
        backward(sum_all(mul(ctx, make_leaf(upstream, false))));
        out[fused] = {ctx->value, qv->grad, kv->grad, vv->grad};
        rng[fused] = dropout.stream().state();
      }
      for (std::size_t i = 0; i < out[0].size(); ++i) {
        if (!same(out[0][i], out[1][i])) return false;
      }
      if (std::memcmp(rng[0].s, rng[1].s, sizeof(rng[0].s)) != 0) return false;
    }
    return true;
  }();
  return matches;
}

}  // namespace

MultiHeadAttention::MultiHeadAttention(std::int64_t model_dim,
                                       std::int64_t num_heads, Rng& rng,
                                       float dropout_p,
                                       std::uint64_t dropout_seed)
    : dim_(model_dim),
      heads_(num_heads),
      head_dim_(model_dim / num_heads),
      wq_(model_dim, model_dim, rng),
      wk_(model_dim, model_dim, rng),
      wv_(model_dim, model_dim, rng),
      wo_(model_dim, model_dim, rng),
      attn_dropout_(dropout_p, dropout_seed) {
  DEEPBAT_CHECK(model_dim % num_heads == 0,
                "MultiHeadAttention: model_dim must be divisible by heads");
  register_module("wq", &wq_);
  register_module("wk", &wk_);
  register_module("wv", &wv_);
  register_module("wo", &wo_);
  register_module("attn_dropout", &attn_dropout_);
}

Var MultiHeadAttention::forward(const Var& query, const Var& key,
                                const Var& value, const Var& mask) const {
  DEEPBAT_CHECK(query && key && value, "MultiHeadAttention: null input");
  DEEPBAT_CHECK(query->value.ndim() == 3, "MultiHeadAttention: expect [B,L,D]");
  const std::int64_t B = query->value.dim(0);
  const std::int64_t Lq = query->value.dim(1);
  const std::int64_t Lk = key->value.dim(1);
  const float inv_sqrt_dh =
      1.0F / std::sqrt(static_cast<float>(head_dim_));

  const Var q_proj = wq_.forward(query);
  const Var k_proj = wk_.forward(key);
  const Var v_proj = wv_.forward(value);

  // Fast path: fused scaled-dot-product attention. The head split stays
  // implicit (head h lives in columns [h*dh, (h+1)*dh) of the projections)
  // and softmax streams one score row at a time, so neither the permuted
  // Q/K/V copies nor the [B, H, Lq, Lk] score tensor are materialized.
  // Requires: no gradient flow (inference under NoGradGuard), no attention
  // recording, inactive dropout, and a mask the kernel understands.
  const std::array<Var, 3> proj{q_proj, k_proj, v_proj};
  const bool fusable = !record_attention_ && !kernels::reference_mode();
  const bool mask_fusable =
      !mask || (mask->value.ndim() == 2 && mask->value.dim(0) == Lq &&
                mask->value.dim(1) == Lk && !mask->requires_grad);
  const bool trains = any_requires_grad(proj);
  if (fusable && mask_fusable && !attn_dropout_.is_active() && !trains) {
    Tensor ctx({B, Lq, dim_});
    kernels::fused_sdpa(q_proj->value.data(), k_proj->value.data(),
                        v_proj->value.data(), ctx.data(), B, Lq, Lk, heads_,
                        dim_, inv_sqrt_dh,
                        mask ? mask->value.data() : nullptr);
    return wo_.forward(make_leaf(std::move(ctx), false, "fused_sdpa"));
  }
  // Training: one fused node over the projections, where the shape allows
  // it and this build's fused pass reproduces the composed graph bit for
  // bit.
  if (fusable && !mask && trains &&
      fused_attention_fits(Lq, Lk, heads_, dim_) &&
      fused_training_matches_composed()) {
    return wo_.forward(fused_attention(q_proj, k_proj, v_proj, heads_,
                                       inv_sqrt_dh, attn_dropout_));
  }
  return wo_.forward(composed_sdpa(q_proj, k_proj, v_proj, mask, heads_,
                                   inv_sqrt_dh, attn_dropout_,
                                   record_attention_ ? &last_attention_
                                                     : nullptr));
}

namespace detail {

bool fused_training_attention_available() {
  return fused_training_matches_composed();
}

}  // namespace detail

}  // namespace deepbat::nn
