#include "core/baselines.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/metrics.hpp"
#include "models/ensemble.hpp"

namespace leaf::core {

namespace {

/// Paired Learners: number of recent evaluation steps compared.
constexpr std::size_t kComparisonWindow = 20;
/// Replace when the reactive learner wins more than this fraction.
constexpr double kReplaceThreshold = 0.65;
/// The reactive learner is refit every `kRefitEvery` evaluation steps
/// (each refit costs one model training, like a periodic scheme's).
constexpr int kRefitEvery = 4;

/// AUE2: keeps member weights 1 / (MSE + kEps) finite on a perfect fit.
constexpr double kEps = 1e-12;

}  // namespace

// --- Paired Learners -------------------------------------------------------

void PairedLearnersScheme::reset() {
  reactive_.reset();
  steps_since_refit_ = 0;
  reactive_wins_.clear();
}

std::optional<data::SupervisedSet> PairedLearnersScheme::on_step(
    const SchemeContext& ctx) {
  // Refit the reactive learner periodically on the latest window.
  if (reactive_ == nullptr || ++steps_since_refit_ >= kRefitEvery) {
    const data::SupervisedSet window =
        latest_labeled_window(ctx.featurizer, ctx.eval_day, ctx.train_window);
    if (!window.empty() && ctx.prototype != nullptr) {
      reactive_ = ctx.prototype->clone_untrained();
      reactive_->fit(window.X, window.y);
      steps_since_refit_ = 0;
    }
  }
  if (reactive_ == nullptr || !reactive_->trained()) return std::nullopt;

  // Score the pair on the most recent labeled day (the freshest ground
  // truth available without leakage).
  const data::SupervisedSet probe =
      latest_labeled_window(ctx.featurizer, ctx.eval_day, 1);
  if (probe.empty()) return std::nullopt;
  const double range = ctx.featurizer.norm_range();
  const double stable_err =
      metrics::nrmse(ctx.model.predict(probe.X), probe.y, range);
  const double reactive_err =
      metrics::nrmse(reactive_->predict(probe.X), probe.y, range);

  reactive_wins_.push_back(reactive_err < stable_err);
  if (reactive_wins_.size() > kComparisonWindow) reactive_wins_.pop_front();
  if (reactive_wins_.size() < kComparisonWindow) return std::nullopt;

  int wins = 0;
  for (bool w : reactive_wins_) wins += w;
  const double frac =
      static_cast<double>(wins) / static_cast<double>(reactive_wins_.size());
  if (frac <= kReplaceThreshold) return std::nullopt;

  // Replace the stable learner: hand the engine the reactive window so it
  // refits the deployed model on it.
  reactive_wins_.clear();
  return latest_labeled_window(ctx.featurizer, ctx.eval_day,
                               ctx.train_window);
}

// --- AUE2 ---------------------------------------------------------------

void Aue2Scheme::reset() {
  last_chunk_day_ = -1;
  members_.clear();
  member_weights_.clear();
  pending_replacement_.reset();
}

std::optional<data::SupervisedSet> Aue2Scheme::on_step(
    const SchemeContext& ctx) {
  if (ctx.prototype == nullptr) return std::nullopt;
  if (last_chunk_day_ < 0) last_chunk_day_ = ctx.eval_day;  // clock start
  if (ctx.eval_day - last_chunk_day_ < kChunkDays) return std::nullopt;
  last_chunk_day_ = ctx.eval_day;

  const data::SupervisedSet chunk =
      latest_labeled_window(ctx.featurizer, ctx.eval_day, ctx.train_window);
  if (chunk.empty()) return std::nullopt;

  // Candidate trained on the newest chunk.
  std::shared_ptr<models::Regressor> candidate = ctx.prototype->clone_untrained();
  candidate->fit(chunk.X, chunk.y);
  if (!candidate->trained()) return std::nullopt;

  // Score every member and the candidate on the newest chunk.
  auto mse_on_chunk = [&](const models::Regressor& m) {
    const std::vector<double> pred = m.predict(chunk.X);
    double acc = 0.0;
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      const double d = pred[i] - chunk.y[i];
      acc += d * d;
    }
    return acc / static_cast<double>(chunk.size());
  };

  std::vector<std::shared_ptr<const models::Regressor>> pool = members_;
  pool.push_back(candidate);
  std::vector<double> weights(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i)
    weights[i] = 1.0 / (mse_on_chunk(*pool[i]) + kEps);

  // Keep the best kMaxMembers by weight.
  std::vector<std::size_t> order(pool.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return weights[a] > weights[b]; });
  members_.clear();
  member_weights_.clear();
  for (std::size_t i = 0; i < std::min(order.size(), kMaxMembers); ++i) {
    members_.push_back(pool[order[i]]);
    member_weights_.push_back(weights[order[i]]);
  }

  auto ensemble = std::make_unique<models::WeightedEnsemble>();
  for (std::size_t i = 0; i < members_.size(); ++i)
    ensemble->add_member(members_[i], member_weights_[i]);
  pending_replacement_ = std::move(ensemble);
  return std::nullopt;  // model delivered via take_replacement_model()
}

std::unique_ptr<models::Regressor> Aue2Scheme::take_replacement_model() {
  return std::move(pending_replacement_);
}

}  // namespace leaf::core
