// Literature mitigation baselines beyond the paper's main comparison.
//
// §7 ("Drift mitigation") surveys adaptation approaches and notes that
// "few mitigation approaches outperform frequent retraining": Paired
// Learners (Bach & Maloof 2008, ref [6]) and the Accuracy Updated
// Ensemble (AUE2; Brzeziński & Stefanowski 2011/2013, refs [11, 12]).
// Both are implemented here, adapted from their classification setting to
// this repository's regression task, so the extended-baselines bench can
// place LEAF against them the way the paper places it against periodic
// and triggered retraining.
#pragma once

#include <deque>
#include <memory>

#include "core/scheme.hpp"

namespace leaf::core {

/// Paired Learners: a *stable* learner (the deployed model) is challenged
/// by a *reactive* learner retrained on the most recent window.  When the
/// reactive learner has out-predicted the stable one on a sufficient
/// fraction of recent evaluation steps, the stable model is replaced with
/// a model trained on the reactive window.
class PairedLearnersScheme final : public MitigationScheme {
 public:
  void reset() override;
  std::optional<data::SupervisedSet> on_step(const SchemeContext& ctx) override;
  std::string name() const override { return "PairedLearners"; }

 private:
  std::unique_ptr<models::Regressor> reactive_;
  int steps_since_refit_ = 0;
  std::deque<bool> reactive_wins_;
};

/// AUE2 adapted to regression: every `kChunkDays` a candidate model is
/// trained on the latest window; all members plus the candidate are scored
/// on that window (weight = 1 / (MSE + eps)); the best `kMaxMembers`
/// survive and predict as a weighted ensemble.
class Aue2Scheme final : public MitigationScheme {
 public:
  static constexpr int kChunkDays = 30;
  static constexpr std::size_t kMaxMembers = 5;

  void reset() override;
  std::optional<data::SupervisedSet> on_step(const SchemeContext& ctx) override;
  std::unique_ptr<models::Regressor> take_replacement_model() override;
  std::string name() const override { return "AUE2"; }

  std::size_t member_count() const { return members_.size(); }

 private:
  int last_chunk_day_ = -1;
  std::vector<std::shared_ptr<const models::Regressor>> members_;
  std::vector<double> member_weights_;
  std::unique_ptr<models::Regressor> pending_replacement_;
};

}  // namespace leaf::core
