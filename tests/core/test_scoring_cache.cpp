// Fused grid-scoring path (DESIGN.md §12): bit-identity with the composed
// autograd head, multi-row == per-row determinism at any thread count, and
// the lazy GridScorer cache across surrogate rebinds.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/decision_engine.hpp"
#include "core/surrogate.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace deepbat::core {
namespace {

SurrogateConfig tiny_config() {
  SurrogateConfig cfg;
  cfg.sequence_length = 32;
  cfg.dropout = 0.0F;
  return cfg;
}

lambda::ConfigGrid grid() { return lambda::ConfigGrid::small(); }

std::vector<float> random_window(std::size_t l, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> w(l);
  for (float& x : w) x = static_cast<float>(rng.uniform(0.0, 3.0));
  return w;
}

std::vector<float> encode_row(const Surrogate& model,
                              std::span<const float> window) {
  nn::Tensor seq({1, model.config().sequence_length, 1});
  std::copy(window.begin(), window.end(), seq.data());
  const nn::Tensor e1 = model.encode_sequence(seq);
  return {e1.data(), e1.data() + model.config().model_dim};
}

/// The seed's scoring path, reconstructed: broadcast one E_1 row over the
/// grid and run the composed autograd head.
std::vector<float> composed_raw(const Surrogate& model,
                                std::span<const float> e1_row,
                                std::span<const lambda::Config> configs) {
  const auto n = static_cast<std::int64_t>(configs.size());
  const std::int64_t d = model.config().model_dim;
  const std::int64_t f = model.config().feature_dim;
  const std::int64_t o = model.config().output_dim;
  nn::Tensor e1({n, d});
  for (std::int64_t r = 0; r < n; ++r) {
    std::copy(e1_row.begin(), e1_row.end(), e1.data() + r * d);
  }
  nn::Tensor feats({n, f});
  for (std::int64_t r = 0; r < n; ++r) {
    const auto enc = encode_features(configs[static_cast<std::size_t>(r)]);
    std::copy(enc.begin(), enc.end(), feats.data() + r * f);
  }
  const nn::Tensor out = model.predict_with_features(e1, feats);
  return {out.data(), out.data() + n * o};
}

TEST(ScoringCache, Fp32BitIdenticalToComposedHead) {
  Surrogate model(tiny_config(), grid());
  model.set_training(false);
  const auto configs = grid().enumerate();
  const auto cache = model.make_scoring_cache(configs);
  const std::int64_t o = model.config().output_dim;

  for (std::uint64_t seed : {7ULL, 19ULL, 23ULL}) {
    const auto window = random_window(32, seed);
    const auto e1 = encode_row(model, window);
    const auto reference = composed_raw(model, e1, configs);
    std::vector<float> fused(configs.size() * static_cast<std::size_t>(o));
    model.predict_grid_from_e1_batch(e1, 1, cache, fused);
    ASSERT_EQ(fused.size(), reference.size());
    for (std::size_t i = 0; i < fused.size(); ++i) {
      // Bitwise: the fused pass replays the composed head's exact op
      // sequence, so even the last ulp must agree.
      EXPECT_EQ(fused[i], reference[i]) << "element " << i;
    }
  }
}

TEST(ScoringCache, MultiRowMatchesPerRowBitwise) {
  // Batching R tenants into one call must be invisible bit-for-bit, and
  // every row must equal the composed autograd head (the carried-split head
  // fc1 reproduces its FMA chains exactly).
  Surrogate model(tiny_config(), grid());
  model.set_training(false);
  const auto configs = grid().enumerate();
  const std::int64_t o = model.config().output_dim;
  const std::size_t row_out = configs.size() * static_cast<std::size_t>(o);

  const auto cache = model.make_scoring_cache(configs);
  for (const std::size_t rows : {1U, 3U, 37U}) {
    std::vector<float> e1_rows;
    std::vector<std::vector<float>> references;
    for (std::size_t r = 0; r < rows; ++r) {
      const auto e1 = encode_row(model, random_window(32, 3 + 2 * r));
      e1_rows.insert(e1_rows.end(), e1.begin(), e1.end());
      references.push_back(composed_raw(model, e1, configs));
    }
    std::vector<float> batched(rows * row_out);
    model.predict_grid_from_e1_batch(e1_rows, rows, cache, batched);
    for (std::size_t r = 0; r < rows; ++r) {
      ASSERT_EQ(references[r].size(), row_out);
      for (std::size_t i = 0; i < row_out; ++i) {
        ASSERT_EQ(batched[r * row_out + i], references[r][i])
            << "rows " << rows << " row " << r << " element " << i;
      }
    }
  }
}

#ifdef _OPENMP
TEST(ScoringCache, Fp32BatchBitIdenticalAcrossThreadCounts) {
  // The exact fp32 pass scores tenants in parallel with per-thread scratch;
  // no row may depend on the thread that scored it or on the team size.
  // The standard grid gives each tenant enough work for threads to overlap.
  Surrogate model(tiny_config(), grid());
  model.set_training(false);
  const auto configs = lambda::ConfigGrid::standard().enumerate();
  const auto cache = model.make_scoring_cache(configs);
  const std::size_t rows = 37;
  std::vector<float> e1_rows;
  for (std::size_t r = 0; r < rows; ++r) {
    const auto e1 = encode_row(model, random_window(32, 5 + r));
    e1_rows.insert(e1_rows.end(), e1.begin(), e1.end());
  }
  const std::size_t out_size =
      rows * configs.size() *
      static_cast<std::size_t>(model.config().output_dim);
  std::vector<float> one(out_size);
  std::vector<float> four(out_size);
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  model.predict_grid_from_e1_batch(e1_rows, rows, cache, one);
  omp_set_num_threads(4);
  model.predict_grid_from_e1_batch(e1_rows, rows, cache, four);
  omp_set_num_threads(saved);
  EXPECT_EQ(std::memcmp(one.data(), four.data(), out_size * sizeof(float)),
            0);
}
#endif  // _OPENMP

TEST(ScoringCache, GridScorerScoreMatchesEngineUnpack) {
  // GridScorer::score (solo) and GridScorer::unpack (fed by a batch
  // scorer's raw output) must agree exactly.
  Surrogate model(tiny_config(), grid());
  model.set_training(false);
  const auto configs = grid().enumerate();
  GridScorer scorer(model, configs);
  SurrogateBatchScorer batch(model, configs);
  const auto e1 = encode_row(model, random_window(32, 77));
  const auto solo = scorer.score(e1);
  std::vector<PredictionTarget> solo_copy(solo.begin(), solo.end());
  std::vector<float> raw(configs.size() * batch.target_dim());
  batch.score(e1, 1, raw);
  const auto unpacked = scorer.unpack(raw);
  ASSERT_EQ(unpacked.size(), solo_copy.size());
  for (std::size_t i = 0; i < solo_copy.size(); ++i) {
    EXPECT_EQ(unpacked[i].cost_usd_per_request,
              solo_copy[i].cost_usd_per_request);
    for (std::size_t p = 0; p < solo_copy[i].latency_s.size(); ++p) {
      EXPECT_EQ(unpacked[i].latency_s[p], solo_copy[i].latency_s[p]);
    }
  }
  EXPECT_EQ(batch.encoding_dim(),
            static_cast<std::size_t>(model.config().model_dim));
}

TEST(ScoringCache, LazyGridScorerRebuildsAfterRebind) {
  // GridScorer builds its scoring cache on first use and drops it on
  // rebind(): after a rebind it must score exactly like a scorer built on
  // the new surrogate.
  Surrogate model(tiny_config(), grid());
  model.set_training(false);
  SurrogateConfig other_cfg = tiny_config();
  other_cfg.init_seed = 4242;
  Surrogate other(other_cfg, grid());
  other.set_training(false);
  const auto configs = grid().enumerate();
  const auto e1 = encode_row(model, random_window(32, 91));
  const auto expect_same = [](std::span<const PredictionTarget> got,
                              std::span<const PredictionTarget> want,
                              const char* what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].cost_usd_per_request, want[i].cost_usd_per_request)
          << what << " config " << i;
      for (std::size_t p = 0; p < got[i].latency_s.size(); ++p) {
        ASSERT_EQ(got[i].latency_s[p], want[i].latency_s[p])
            << what << " config " << i;
      }
    }
  };
  const auto scored_on = [&](const Surrogate& m) {
    std::vector<PredictionTarget> t;
    m.predict_grid_from_e1_batch(e1, 1, m.make_scoring_cache(configs), t);
    return t;
  };
  const auto on_model = scored_on(model);
  const auto on_other = scored_on(other);

  GridScorer scorer(model, configs);
  expect_same(scorer.score(e1), on_model, "first score");
  scorer.rebind(other);
  expect_same(scorer.score(e1), on_other, "after rebind");
  scorer.rebind(model);
  expect_same(scorer.score(e1), on_model, "after rebind back");
}

}  // namespace
}  // namespace deepbat::core
