// MultiHeadAttention's fused training pass against the composed op graph it
// replaces: output, input and parameter gradients and the dropout stream
// must match bit for bit, at any OpenMP thread count, and every shape the
// pass does not take must keep the composed graph.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/rng.hpp"
#include "nn/attention.hpp"
#include "nn/autograd.hpp"
#include "nn/kernels.hpp"
#include "nn/ops.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace deepbat::nn {
namespace {

constexpr std::int64_t kDim = 16;
constexpr std::int64_t kHeads = 4;

/// The op that produced the context wo projects: MultiHeadAttention's
/// output is add(matmul(context, wo.weight), wo.bias).
std::string context_op(const Var& out) {
  return out->parents.at(0)->parents.at(0)->op_name;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()) == 0;
}

/// One forward + backward step of a freshly initialised attention layer on
/// fixed inputs; identical arguments give identical parameters and streams.
struct Step {
  Tensor out;
  Tensor dq, dk, dv;
  std::vector<Tensor> param_grads;
  Rng::State dropout_rng;
  std::string context_op;
};

Step run_step(std::int64_t batch, std::int64_t len, float dropout,
              bool record, int threads, const Tensor* mask = nullptr) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
  Rng init(1234);
  MultiHeadAttention mha(kDim, kHeads, init, dropout, 4321);
  mha.set_record_attention(record);
  Rng data(static_cast<std::uint64_t>(batch * 1000 + len));
  const Var q = make_leaf(Tensor::randn({batch, len, kDim}, data, 0.8F), true);
  const Var k = make_leaf(Tensor::randn({batch, len, kDim}, data, 0.8F), true);
  const Var v = make_leaf(Tensor::randn({batch, len, kDim}, data, 0.8F), true);
  const Var upstream =
      make_leaf(Tensor::randn({batch, len, kDim}, data, 1.0F), false);
  const Var out =
      mha.forward(q, k, v, mask ? make_leaf(*mask, false) : nullptr);
  backward(sum_all(mul(out, upstream)));
  Step step{out->value, q->grad, k->grad, v->grad, {},
            mha.attention_dropout().stream().state(), context_op(out)};
  for (const auto& p : mha.parameters()) step.param_grads.push_back(p->grad);
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
  return step;
}

void expect_same(const Step& a, const Step& b) {
  EXPECT_TRUE(same_bits(a.out, b.out)) << "output";
  EXPECT_TRUE(same_bits(a.dq, b.dq)) << "query gradient";
  EXPECT_TRUE(same_bits(a.dk, b.dk)) << "key gradient";
  EXPECT_TRUE(same_bits(a.dv, b.dv)) << "value gradient";
  ASSERT_EQ(a.param_grads.size(), 8u);  // wq, wk, wv, wo: weight and bias
  ASSERT_EQ(a.param_grads.size(), b.param_grads.size());
  for (std::size_t i = 0; i < a.param_grads.size(); ++i) {
    EXPECT_TRUE(same_bits(a.param_grads[i], b.param_grads[i]))
        << "parameter gradient " << i;
  }
  EXPECT_EQ(std::memcmp(a.dropout_rng.s, b.dropout_rng.s,
                        sizeof(a.dropout_rng.s)),
            0)
      << "dropout stream";
}

TEST(FusedAttention, MatchesComposedGraphBitwise) {
  if (!detail::fused_training_attention_available()) {
    GTEST_SKIP() << "this build has no fused training attention pass";
  }
  for (const std::int64_t batch : {1, 3, 8}) {
    for (const std::int64_t len : {16, 128}) {
      for (const float dropout : {0.0F, 0.1F}) {
        SCOPED_TRACE(testing::Message() << "B=" << batch << " L=" << len
                                        << " dropout=" << dropout);
        // Recording the attention forces the composed graph.
        const Step composed = run_step(batch, len, dropout, true, 1);
        ASSERT_EQ(composed.context_op, "reshape");
        for (const int threads : {1, 4}) {
          SCOPED_TRACE(testing::Message() << threads << " threads");
          const Step fused = run_step(batch, len, dropout, false, threads);
          ASSERT_EQ(fused.context_op, "fused_attention");
          expect_same(composed, fused);
        }
      }
    }
  }
}

TEST(FusedAttention, ShapesItDoesNotTakeKeepTheComposedGraph) {
  // Length 5 is no multiple of 16; a mask and recording are composed-only.
  Tensor causal({16, 16});
  for (std::int64_t i = 0; i < 16; ++i) {
    for (std::int64_t j = i + 1; j < 16; ++j) causal.at(i, j) = -1e9F;
  }
  struct Case {
    const char* name;
    std::int64_t len;
    const Tensor* mask;
  };
  for (const Case& c : {Case{"L=5", 5, nullptr}, Case{"mask", 16, &causal}}) {
    SCOPED_TRACE(c.name);
    const Step plain = run_step(2, c.len, 0.1F, false, 1, c.mask);
    const Step recorded = run_step(2, c.len, 0.1F, true, 1, c.mask);
    EXPECT_EQ(plain.context_op, "reshape");
    expect_same(recorded, plain);
  }
  EXPECT_EQ(run_step(2, 16, 0.1F, true, 1).context_op, "reshape");
}

/// Whether this build computes softmax_last's backward dot as rounded
/// products added in order, the form the fused training pass reproduces.
/// -O3 builds vectorise the loop that way; -O2 builds contract it into a
/// scalar FMA chain.
bool softmax_dot_rounds_products() {
  Rng rng(3);
  const Var x = make_leaf(Tensor::randn({8, 16}, rng, 1.0F), true);
  const Var y = softmax_last(x);
  const Tensor g = Tensor::randn({8, 16}, rng, 1.0F);
  backward(sum_all(mul(y, make_leaf(g, false))));
  for (std::int64_t r = 0; r < 8; ++r) {
    float dot = 0.0F;
    for (std::int64_t c = 0; c < 16; ++c) {
      const volatile float product = g.at(r, c) * y->value.at(r, c);
      dot += product;
    }
    for (std::int64_t c = 0; c < 16; ++c) {
      const float expected = y->value.at(r, c) * (g.at(r, c) - dot);
      if (std::memcmp(&expected, &x->grad.at(r, c), sizeof(float)) != 0) {
        return false;
      }
    }
  }
  return true;
}

TEST(FusedAttention, OnWhereverTheBuildAllowsIt) {
  // The pass holds where the build compiles the composed graph as it
  // assumes, as -O3 -march=native builds on AVX-512 hosts do; a pass that
  // stops reproducing the composed graph would otherwise only show as
  // slower training.
  if (!kernels::detail::fused_sdpa_has_fast_path() ||
      !softmax_dot_rounds_products()) {
    GTEST_SKIP() << "this build compiles the composed graph differently";
  }
  EXPECT_TRUE(detail::fused_training_attention_available());
}

}  // namespace
}  // namespace deepbat::nn
