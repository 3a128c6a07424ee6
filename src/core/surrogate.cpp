#include "core/surrogate.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "nn/arena.hpp"
#include "nn/kernels.hpp"

namespace deepbat::core {

namespace {

// Per-thread scratch of the exact fp32 grid score, reused across calls:
// one tenant's E_1 row repeated over a kMr tile, the E_1 half of its head
// fc1 sums, and its [grid, hidden] activations. Every element is written
// before it is read.
thread_local std::vector<float> tl_score_e1_tile;
thread_local std::vector<float> tl_score_e1_half;
thread_local std::vector<float> tl_score_hidden;

nn::TransformerConfig encoder_config(const SurrogateConfig& cfg) {
  nn::TransformerConfig tc;
  tc.model_dim = cfg.model_dim;
  tc.num_heads = cfg.num_heads;
  tc.ffn_hidden = cfg.ffn_hidden;
  tc.num_layers = cfg.encoder_layers;
  tc.dropout = cfg.dropout;
  tc.max_len = std::max<std::int64_t>(cfg.sequence_length, 16);
  return tc;
}

}  // namespace

FeatureStandardizer FeatureStandardizer::from_grid(
    const lambda::ConfigGrid& grid) {
  const auto configs = grid.enumerate();
  DEEPBAT_CHECK(!configs.empty(), "FeatureStandardizer: empty grid");
  FeatureStandardizer st;
  const std::size_t f = 3;
  st.mean.assign(f, 0.0F);
  st.inv_std.assign(f, 1.0F);
  std::vector<double> sum(f, 0.0);
  std::vector<double> sq(f, 0.0);
  for (const auto& c : configs) {
    const auto feats = encode_features(c);
    for (std::size_t i = 0; i < f; ++i) {
      sum[i] += feats[i];
      sq[i] += static_cast<double>(feats[i]) * feats[i];
    }
  }
  const auto n = static_cast<double>(configs.size());
  for (std::size_t i = 0; i < f; ++i) {
    const double mu = sum[i] / n;
    const double var = std::max(sq[i] / n - mu * mu, 1e-12);
    st.mean[i] = static_cast<float>(mu);
    st.inv_std[i] = static_cast<float>(1.0 / std::sqrt(var));
  }
  return st;
}

nn::Tensor FeatureStandardizer::apply(const nn::Tensor& raw) const {
  DEEPBAT_CHECK(raw.ndim() == 2 &&
                    raw.dim(1) == static_cast<std::int64_t>(mean.size()),
                "FeatureStandardizer: shape mismatch");
  nn::Tensor out(raw.shape());
  const std::int64_t rows = raw.dim(0);
  const std::int64_t cols = raw.dim(1);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      out.at(r, c) = (raw.at(r, c) - mean[ci]) * inv_std[ci];
    }
  }
  return out;
}

Surrogate::Surrogate(const SurrogateConfig& config,
                     const lambda::ConfigGrid& grid)
    : config_(config),
      standardizer_(FeatureStandardizer::from_grid(grid)),
      init_rng_(config.init_seed),
      seq_embed_(1, config.model_dim, init_rng_),
      pos_enc_(config.model_dim, std::max<std::int64_t>(config.sequence_length,
                                                        16)),
      encoder_(encoder_config(config), init_rng_, config.init_seed + 17),
      pooled_attention_(config.model_dim, config.num_heads, init_rng_,
                        config.dropout, config.init_seed + 29),
      feature_ff_(config.feature_dim, config.ffn_hidden,
                  config.feature_embed_dim, init_rng_),
      output_ff_(config.model_dim + config.feature_embed_dim,
                 config.ffn_hidden, config.output_dim, init_rng_) {
  DEEPBAT_CHECK(config.sequence_length > 0,
                "Surrogate: sequence length must be positive");
  register_module("seq_embed", &seq_embed_);
  if (config_.encoder == EncoderType::kLstm) {
    Rng lstm_rng(config.init_seed + 41);
    lstm_ = std::make_unique<nn::Lstm>(config.model_dim, config.model_dim,
                                       lstm_rng);
    register_module("lstm", lstm_.get());
  } else {
    register_module("pos_enc", &pos_enc_);
    register_module("encoder", &encoder_);
  }
  register_module("pooled_attention", &pooled_attention_);
  register_module("feature_ff", &feature_ff_);
  register_module("output_ff", &output_ff_);
}

nn::Var Surrogate::sequence_branch(const nn::Var& sequences) const {
  DEEPBAT_CHECK(sequences && sequences->value.ndim() == 3 &&
                    sequences->value.dim(2) == 1,
                "Surrogate: sequences must be [batch, l, 1]");
  const std::int64_t batch = sequences->value.dim(0);
  nn::Var embedded = seq_embed_.forward(sequences);  // Eq. 1
  nn::Var summary;  // E_p: [batch, model_dim]
  if (config_.encoder == EncoderType::kLstm) {
    // Recurrent baseline: the final hidden state summarizes the sequence.
    summary = lstm_->encode(embedded);
  } else {
    // Eq. 2 + mean pooling to E_p.
    summary =
        nn::mean_axis1(encoder_.forward(pos_enc_.forward(embedded)));
  }
  // Eq. 4: self-attention over the pooled vector (length-1 sequence; the
  // Mask is the identity at this length).
  if (!config_.use_pooled_attention) {
    return summary;
  }
  nn::Var pooled = nn::reshape(summary, {batch, 1, config_.model_dim});
  nn::Var e1 = pooled_attention_.forward(pooled, pooled, pooled);
  return nn::reshape(e1, {batch, config_.model_dim});
}

nn::Var Surrogate::head(const nn::Var& e1, const nn::Var& raw_features) const {
  // Eq. 5: standardize + feed-forward the features.
  nn::Var std_feats =
      nn::make_leaf(standardizer_.apply(raw_features->value), false,
                    "std_features");
  nn::Var e2 = feature_ff_.forward(std_feats);
  // Eq. 6: concat and project to the output vector.
  return output_ff_.forward(nn::concat_last(e1, e2));
}

nn::Var Surrogate::forward(const nn::Var& sequences, const nn::Var& features) {
  return head(sequence_branch(sequences), features);
}

nn::Tensor Surrogate::encode_sequence(const nn::Tensor& sequences) const {
  nn::NoGradGuard no_grad;  // also forces dropout off (Dropout::is_active)
  DEEPBAT_CHECK(sequences.ndim() == 3 && sequences.dim(2) == 1,
                "Surrogate: sequences must be [batch, l, 1]");
  // Recording attention keeps one forward over the whole batch, so
  // last_attention_profile() averages over every window of it.
  if (config_.encoder != EncoderType::kLstm &&
      encoder_.layer(0).self_attention().record_attention()) {
    return sequence_branch(nn::make_leaf(sequences, false, "sequences"))
        ->value;
  }
  // Tile by tile, each tile's activations rewound with its own arena scope,
  // so every op of the forward works on a cache-resident working set.
  const std::int64_t batch = sequences.dim(0);
  const std::int64_t l = sequences.dim(1);
  const std::int64_t d = config_.model_dim;
  nn::Tensor out({batch, d});
  for (std::int64_t t0 = 0; t0 < batch; t0 += kEncodeTile) {
    const std::int64_t rows = std::min(kEncodeTile, batch - t0);
    nn::arena::Scope scope;
    nn::Tensor tile({rows, l, 1});
    std::copy(sequences.data() + t0 * l, sequences.data() + (t0 + rows) * l,
              tile.data());
    const nn::Tensor e1 =
        sequence_branch(nn::make_leaf(std::move(tile), false, "sequences"))
            ->value;
    std::copy(e1.data(), e1.data() + rows * d, out.data() + t0 * d);
  }
  return out;
}

nn::Tensor Surrogate::predict_with_features(
    const nn::Tensor& e1, const nn::Tensor& raw_features) const {
  nn::NoGradGuard no_grad;
  nn::Var e1v = nn::make_leaf(e1, false, "e1");
  nn::Var fv = nn::make_leaf(raw_features, false, "features");
  return head(e1v, fv)->value;
}

std::vector<PredictionTarget> Surrogate::predict_grid_from_e1(
    std::span<const float> e1_row,
    std::span<const lambda::Config> configs) const {
  DEEPBAT_CHECK(!configs.empty(), "predict_grid_from_e1: no configs");
  DEEPBAT_CHECK(static_cast<std::int64_t>(e1_row.size()) == config_.model_dim,
                "predict_grid_from_e1: E_1 dimension mismatch");
  // Compatibility wrapper: one-shot fused pass through a throwaway cache
  // (bit-identical to the composed head it used to call). Persistent
  // callers hold their own GridScoringCache.
  const GridScoringCache cache = make_scoring_cache(configs);
  std::vector<PredictionTarget> targets;
  predict_grid_from_e1_batch(e1_row, 1, cache, targets);
  return targets;
}

GridScoringCache Surrogate::make_scoring_cache(
    std::span<const lambda::Config> configs) const {
  DEEPBAT_CHECK(!configs.empty(), "make_scoring_cache: no configs");
  GridScoringCache cache;
  const auto n = static_cast<std::int64_t>(configs.size());
  cache.n_ = n;
  const std::int64_t f = config_.feature_dim;
  const std::int64_t d = config_.model_dim;
  const std::int64_t fe = config_.feature_embed_dim;
  const std::int64_t h = config_.ffn_hidden;
  nn::NoGradGuard no_grad;

  // Plain copies (features, weight slices) go straight to stable storage:
  // the cache must outlive any caller arena scope.
  {
    nn::arena::Pause heap;
    cache.features_ = nn::Tensor({n, f});
    for (std::int64_t r = 0; r < n; ++r) {
      const auto feats = encode_features(configs[static_cast<std::size_t>(r)]);
      std::copy(feats.begin(), feats.end(), cache.features_.data() + r * f);
    }
    const nn::Tensor& w1 = output_ff_.fc1().weight()->value;  // [d + fe, h]
    DEEPBAT_CHECK(w1.dim(0) == d + fe && w1.dim(1) == h,
                  "make_scoring_cache: head fc1 shape mismatch");
    cache.w1_top_ = nn::Tensor({d, h});
    std::memcpy(cache.w1_top_.data(), w1.data(),
                static_cast<std::size_t>(d * h) * sizeof(float));
    cache.w1_bot_ = nn::Tensor({fe, h});
    std::memcpy(cache.w1_bot_.data(), w1.data() + d * h,
                static_cast<std::size_t>(fe * h) * sizeof(float));
    cache.b1_ = output_ff_.fc1().bias()->value.clone();
    cache.w2_ = output_ff_.fc2().weight()->value.clone();
    cache.b2_ = output_ff_.fc2().bias()->value.clone();
  }

  // E_2 through the same autograd ops as the composed head, so the fused
  // pass consumes bit-identical feature embeddings.
  {
    nn::arena::Scope scope;
    nn::Var std_feats =
        nn::make_leaf(standardizer_.apply(cache.features_), false,
                      "std_features");
    const nn::Var e2 = feature_ff_.forward(std_feats);
    nn::arena::Pause heap;
    cache.e2_ = e2->value.clone();
  }

  return cache;
}

void Surrogate::predict_grid_from_e1_batch(std::span<const float> e1_rows,
                                           std::size_t row_count,
                                           const GridScoringCache& cache,
                                           std::span<float> out) const {
  const auto R = static_cast<std::int64_t>(row_count);
  const std::int64_t n = cache.n_;
  const std::int64_t d = config_.model_dim;
  const std::int64_t fe = config_.feature_embed_dim;
  const std::int64_t h = config_.ffn_hidden;
  const std::int64_t o = config_.output_dim;
  DEEPBAT_CHECK(n > 0, "predict_grid_from_e1_batch: empty scoring cache");
  DEEPBAT_CHECK(static_cast<std::int64_t>(e1_rows.size()) == R * d,
                "predict_grid_from_e1_batch: E_1 buffer size mismatch");
  DEEPBAT_CHECK(static_cast<std::int64_t>(out.size()) == R * n * o,
                "predict_grid_from_e1_batch: output buffer size mismatch");
  if (R == 0) return;

  // Tenant by tenant. The composed head runs head fc1 as one gemm over
  // concat(E_1, E_2), and the kernel builds every hidden element as one
  // l-sequential FMA chain: the E_1 terms, then the E_2 terms. That chain
  // is split here without changing a bit: its E_1 half depends only on the
  // tenant, so it runs once per tenant, in a full kMr tile (the same
  // register-tile code the concat rows run in); every grid row then
  // continues the carried partial sums over its E_2 terms through
  // gemm(..., accumulate=true), which resumes the chain from C. No concat
  // matrix is built, and the E_1 half is not recomputed per config.
  // Tenants are independent, so they run in parallel: each GEMM below is
  // too small to split across threads on its own. Scratch is thread-local
  // plain memory, so the pass needs no arena or autograd scope.
  constexpr std::int64_t kMr = nn::kernels::kMr;
  const float* b1 = cache.b1_.data();
  const float* b2 = cache.b2_.data();
  parallel_for(
      static_cast<std::size_t>(R),
      [&](std::size_t tenant) {
        const auto r = static_cast<std::int64_t>(tenant);
        auto& e1_tile = tl_score_e1_tile;
        auto& e1_half = tl_score_e1_half;
        auto& hidden = tl_score_hidden;
        if (e1_tile.size() < static_cast<std::size_t>(kMr * d)) {
          e1_tile.resize(kMr * d);
        }
        if (e1_half.size() < static_cast<std::size_t>(kMr * h)) {
          e1_half.resize(kMr * h);
        }
        if (hidden.size() < static_cast<std::size_t>(n * h)) {
          hidden.resize(n * h);
        }
        const float* e1_row = e1_rows.data() + r * d;
        for (std::int64_t t = 0; t < kMr; ++t) {
          std::copy(e1_row, e1_row + d, e1_tile.data() + t * d);
        }
        nn::kernels::gemm(e1_tile.data(), cache.w1_top_.data(),
                          e1_half.data(), kMr, d, h, false, false, false);
        float* hp = hidden.data();
        for (std::int64_t i = 0; i < n; ++i) {
          std::copy(e1_half.data(), e1_half.data() + h, hp + i * h);
        }
        nn::kernels::gemm(cache.e2_.data(), cache.w1_bot_.data(), hp, n, fe,
                          h, false, false, true);
        for (std::int64_t i = 0; i < n; ++i) {
          float* row = hp + i * h;
          for (std::int64_t j = 0; j < h; ++j) {
            const float v = row[j] + b1[j];
            row[j] = v > 0.0F ? v : 0.0F;
          }
        }
        float* tenant_out = out.data() + r * n * o;
        nn::kernels::gemm(hp, cache.w2_.data(), tenant_out, n, h, o, false,
                          false, false);
        for (std::int64_t i = 0; i < n; ++i) {
          float* row = tenant_out + i * o;
          for (std::int64_t j = 0; j < o; ++j) row[j] += b2[j];
        }
      },
      1);
}

void Surrogate::predict_grid_from_e1_batch(
    std::span<const float> e1_rows, std::size_t row_count,
    const GridScoringCache& cache, std::vector<PredictionTarget>& out) const {
  const std::int64_t o = config_.output_dim;
  const auto total = static_cast<std::size_t>(cache.grid_size()) * row_count;
  thread_local std::vector<float> raw;
  raw.resize(total * static_cast<std::size_t>(o));
  predict_grid_from_e1_batch(e1_rows, row_count, cache, raw);
  out.resize(total);
  for (std::size_t r = 0; r < total; ++r) {
    out[r] = unpack_target(
        {raw.data() + static_cast<std::int64_t>(r) * o,
         static_cast<std::size_t>(o)});
  }
}

std::vector<PredictionTarget> Surrogate::predict_grid(
    std::span<const float> encoded_window,
    std::span<const lambda::Config> configs) const {
  DEEPBAT_CHECK(!configs.empty(), "predict_grid: no configs");
  DEEPBAT_CHECK(static_cast<std::int64_t>(encoded_window.size()) ==
                    config_.sequence_length,
                "predict_grid: window length mismatch");
  nn::NoGradGuard no_grad;
  nn::arena::Scope arena_scope;

  // Encode the sequence once, then score the whole grid off that row.
  nn::Tensor seq({1, config_.sequence_length, 1});
  std::copy(encoded_window.begin(), encoded_window.end(), seq.data());
  const nn::Tensor e1_single = encode_sequence(seq);
  return predict_grid_from_e1(
      {e1_single.data(), static_cast<std::size_t>(config_.model_dim)},
      configs);
}

std::unique_ptr<Surrogate> Surrogate::clone() const {
  // Constructing with the standard grid only seeds the feature
  // standardizer, which is overwritten right after — the clone serves
  // whatever grid its caller scores, exactly like the original.
  auto copy =
      std::make_unique<Surrogate>(config_, lambda::ConfigGrid::standard());
  copy->standardizer_ = standardizer_;
  copy->copy_parameters_from(*this);
  copy->set_training(false);
  return copy;
}

void Surrogate::copy_parameters_from(const Surrogate& other) {
  const auto dst = named_parameters();
  const auto src = other.named_parameters();
  DEEPBAT_CHECK(dst.size() == src.size(),
                "Surrogate: parameter count mismatch in copy_parameters_from");
  for (std::size_t i = 0; i < dst.size(); ++i) {
    DEEPBAT_CHECK(dst[i].first == src[i].first,
                  "Surrogate: parameter name mismatch in copy_parameters_from");
    nn::Tensor& d = dst[i].second->value;
    const nn::Tensor& s = src[i].second->value;
    DEEPBAT_CHECK(
        d.shape() == s.shape(),
        "Surrogate: parameter shape mismatch in copy_parameters_from");
    std::copy(s.data(), s.data() + s.numel(), d.data());
  }
}

void Surrogate::set_record_attention(bool record) {
  if (config_.encoder == EncoderType::kLstm) return;  // no attention maps
  for (std::int64_t i = 0; i < encoder_.num_layers(); ++i) {
    encoder_.layer(i).self_attention().set_record_attention(record);
  }
}

std::vector<float> Surrogate::last_attention_profile() const {
  if (config_.encoder == EncoderType::kLstm) return {};
  const auto& layer0 = encoder_.layer(0).self_attention();
  const auto& attn = layer0.last_attention();
  if (!attn.has_value()) return {};
  // attn: [batch, heads, L, L]; average received attention per key position
  // over batch, heads, and query positions. The reduction runs over flat
  // contiguous rows (one pass, unit stride) instead of bounds-checked
  // element accesses.
  const nn::Tensor& a = *attn;
  const std::int64_t L = a.dim(2);
  const std::int64_t rows = a.numel() / L;  // batch * heads * L query rows
  std::vector<float> profile(static_cast<std::size_t>(L), 0.0F);
  const float* src = a.data();
  float* prof = profile.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = src + r * L;
    for (std::int64_t k = 0; k < L; ++k) prof[k] += row[k];
  }
  const float norm = static_cast<float>(rows);  // batch * heads * L
  for (float& p : profile) p /= norm;
  return profile;
}

}  // namespace deepbat::core
