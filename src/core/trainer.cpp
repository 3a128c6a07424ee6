#include "core/trainer.hpp"

#include <chrono>
#include <cmath>

#include "common/error.hpp"
#include "common/log.hpp"
#include "nn/arena.hpp"
#include "nn/ops.hpp"

namespace deepbat::core {

namespace {

/// Per-element loss weights: rows whose true P95 exceeds the SLO get
/// up-weighted (the paper's SLO-violation penalty).
nn::Tensor make_weights(const nn::Tensor& targets, double slo_s,
                        float violation_weight) {
  nn::Tensor w(targets.shape());
  w.fill(1.0F);
  const std::int64_t rows = targets.dim(0);
  const std::int64_t cols = targets.dim(1);
  const auto p95_col = static_cast<std::int64_t>(1 + kSloPercentileIndex);
  for (std::int64_t r = 0; r < rows; ++r) {
    if (targets.at(r, p95_col) > static_cast<float>(slo_s)) {
      for (std::int64_t c = 0; c < cols; ++c) {
        w.at(r, c) = violation_weight;
      }
    }
  }
  return w;
}

double run_validation(Surrogate& model, const nn::Dataset& val) {
  if (val.empty()) return 0.0;
  model.set_training(false);
  nn::DataLoader loader(val, 32, /*shuffle=*/false, 0);
  nn::NoGradGuard no_grad;
  double mape_sum = 0.0;
  std::size_t count = 0;
  for (std::int64_t b = 0; b < loader.batches_per_epoch(); ++b) {
    nn::arena::Scope arena_scope;
    const nn::Batch batch = loader.batch(b);
    nn::Var pred = model.forward(nn::make_leaf(batch.sequences, false),
                                 nn::make_leaf(batch.features, false));
    const nn::Var m = nn::mape_loss(pred, nn::make_leaf(batch.targets, false));
    mape_sum += m->value.at(0) * static_cast<double>(batch.size);
    count += static_cast<std::size_t>(batch.size);
  }
  model.set_training(true);
  return count ? mape_sum / static_cast<double>(count) : 0.0;
}

TrainResult train_impl(Surrogate& model, const nn::Dataset& dataset,
                       const TrainOptions& options) {
  DEEPBAT_CHECK(!dataset.empty(), "train: empty dataset");
  const auto t0 = std::chrono::steady_clock::now();
  const auto [train_set, val_set] = dataset.split(options.validation_fraction);

  nn::Adam adam(model.parameters(), options.learning_rate);
  nn::DataLoader loader(train_set, options.batch_size, /*shuffle=*/true,
                        options.shuffle_seed);
  model.set_training(true);

  TrainResult result;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    if (options.lr_decay_every > 0 && epoch > 0 &&
        epoch % options.lr_decay_every == 0) {
      adam.set_lr(adam.lr() * options.lr_decay_factor);
    }
    double loss_sum = 0.0;
    std::size_t seen = 0;
    for (std::int64_t b = 0; b < loader.batches_per_epoch(); ++b) {
      // One arena scope per step: the batch, the activations, the interior
      // gradients and fused attention's saved P and keep flags bump-allocate
      // and are rewound before the next step. Parameter gradients and Adam's
      // moments stay on the heap (nn/arena.hpp).
      nn::arena::Scope step_scope;
      const nn::Batch batch = loader.batch(b);
      adam.zero_grad();
      nn::Var pred = model.forward(nn::make_leaf(batch.sequences, false),
                                   nn::make_leaf(batch.features, false));
      nn::Var targets = nn::make_leaf(batch.targets, false);
      nn::Var weights = nn::make_leaf(
          make_weights(batch.targets, options.slo_s,
                       options.slo_violation_weight),
          false);
      nn::Var loss = nn::combined_loss(pred, targets, options.alpha,
                                       options.huber_delta, weights);
      nn::backward(loss);
      adam.clip_grad_norm(options.grad_clip);
      adam.step();
      loss_sum += loss->value.at(0) * static_cast<double>(batch.size);
      seen += static_cast<std::size_t>(batch.size);
    }
    loader.next_epoch();

    EpochStats stats;
    stats.train_loss = seen ? loss_sum / static_cast<double>(seen) : 0.0;
    stats.validation_mape = run_validation(model, val_set);
    result.history.push_back(stats);
    if (options.on_epoch) {
      options.on_epoch(epoch, stats.train_loss, stats.validation_mape);
    }
    LOG_DEBUG("epoch " << epoch << " loss " << stats.train_loss << " val-MAPE "
                       << stats.validation_mape << "%");
  }
  result.final_validation_mape =
      result.history.empty() ? 0.0 : result.history.back().validation_mape;
  const auto t1 = std::chrono::steady_clock::now();
  result.seconds = std::chrono::duration<double>(t1 - t0).count();
  model.set_training(false);
  return result;
}

}  // namespace

TrainResult train(Surrogate& model, const nn::Dataset& dataset,
                  const TrainOptions& options) {
  return train_impl(model, dataset, options);
}

TrainResult fine_tune(Surrogate& model, const nn::Dataset& dataset,
                      int epochs, float learning_rate, double slo_s) {
  TrainOptions options;
  options.epochs = epochs;
  options.learning_rate = learning_rate;
  options.slo_s = slo_s;
  options.validation_fraction = 0.1;
  options.shuffle_seed = 13;
  return train_impl(model, dataset, options);
}

TrainResult fine_tune(Surrogate& model, const nn::Dataset& dataset,
                      const TrainOptions& options) {
  return train_impl(model, dataset, options);
}

double evaluate_mape(Surrogate& model, const nn::Dataset& dataset) {
  DEEPBAT_CHECK(!dataset.empty(), "evaluate_mape: empty dataset");
  model.set_training(false);
  nn::DataLoader loader(dataset, 32, /*shuffle=*/false, 0);
  nn::NoGradGuard no_grad;
  double mape_sum = 0.0;
  std::size_t count = 0;
  for (std::int64_t b = 0; b < loader.batches_per_epoch(); ++b) {
    // One arena scope per batch: the forward graph's tensors are bump-
    // allocated and rewound before the next batch.
    nn::arena::Scope arena_scope;
    const nn::Batch batch = loader.batch(b);
    nn::Var pred = model.forward(nn::make_leaf(batch.sequences, false),
                                 nn::make_leaf(batch.features, false));
    const nn::Var m = nn::mape_loss(pred, nn::make_leaf(batch.targets, false));
    mape_sum += m->value.at(0) * static_cast<double>(batch.size);
    count += static_cast<std::size_t>(batch.size);
  }
  return count ? mape_sum / static_cast<double>(count) : 0.0;
}

double estimate_gamma(Surrogate& model, const nn::Dataset& dataset) {
  DEEPBAT_CHECK(!dataset.empty(), "estimate_gamma: empty dataset");
  model.set_training(false);
  nn::DataLoader loader(dataset, 32, /*shuffle=*/false, 0);
  nn::NoGradGuard no_grad;
  double err_sum = 0.0;
  std::size_t count = 0;
  const auto p95_col = static_cast<std::int64_t>(1 + kSloPercentileIndex);
  for (std::int64_t b = 0; b < loader.batches_per_epoch(); ++b) {
    nn::arena::Scope arena_scope;
    const nn::Batch batch = loader.batch(b);
    nn::Var pred = model.forward(nn::make_leaf(batch.sequences, false),
                                 nn::make_leaf(batch.features, false));
    for (std::int64_t r = 0; r < batch.size; ++r) {
      const double truth = batch.targets.at(r, p95_col);
      if (std::abs(truth) < 1e-9) continue;
      const double guess = pred->value.at(r, p95_col);
      err_sum += std::abs(guess - truth) / std::abs(truth);
      ++count;
    }
  }
  return count ? err_sum / static_cast<double>(count) : 0.0;
}

}  // namespace deepbat::core
