#pragma once
// Fused scaled-dot-product attention for training: one autograd node from
// the head-split projections to the merged context, bitwise equal to the
// composed op graph MultiHeadAttention builds otherwise (split heads,
// scores, scale, softmax, dropout, context, merge heads), without its
// [B, H, Lq, Lk] score, softmax, dropout and mask tensors or their
// gradients. It keeps only the softmax P and the dropout keep flags for the
// backward pass (DESIGN.md §7).

#include "nn/layers.hpp"

namespace deepbat::nn {

/// Whether fused_attention() takes projections of shape [B, lq, dim] /
/// [B, lk, dim] split into `heads` heads: head_dim 4, lq and lk multiples
/// of 16, on a build with the AVX-512 pass compiled in.
bool fused_attention_fits(std::int64_t lq, std::int64_t lk,
                          std::int64_t heads, std::int64_t dim);

/// ctx[b, i, h*4 : h*4+4] = sum_j A[b, h, i, j] * v[b, j, h*4 : h*4+4] with
/// A = dropout(softmax_j(scale * (q·k)[b, h, i, j])), as one node over
/// {q, k, v}. While `dropout` is active its keep flags come from
/// dropout.stream() in flat [b, h, i, j] order, the draws Dropout::forward
/// makes on the composed graph. Requires fused_attention_fits(); whether the
/// result equals the composed graph bit for bit on this build is what
/// MultiHeadAttention's probe establishes before routing here.
Var fused_attention(const Var& q, const Var& k, const Var& v,
                    std::int64_t heads, float scale, const Dropout& dropout);

}  // namespace deepbat::nn
