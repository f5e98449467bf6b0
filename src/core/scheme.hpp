// Drift-mitigation schemes.
//
// The paper compares four ways of maintaining a deployed forecasting
// model (§3.4, §6.1):
//   * Static          — train once, never retrain (the ΔNRMSE̅ baseline);
//   * Periodic(N)     — "naïve retraining": replace the model every N
//                       calendar days with one trained on the latest
//                       14-day window;
//   * Triggered       — retrain on the latest window whenever the drift
//                       detector fires;
//   * LEAF            — on detection, explain the drift and rebuild the
//                       training set by informed forgetting +
//                       over-sampling (leaf_scheme.hpp).
//
// A scheme is a policy object driven by the evaluation engine: after each
// evaluation step it may return a new training set, which the engine uses
// to refit a fresh clone of the model.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "data/features.hpp"
#include "models/regressor.hpp"

namespace leaf::obs {
class EventLog;
}

namespace leaf::core {

/// Everything a scheme may inspect when deciding whether / how to retrain.
struct SchemeContext {
  const data::Featurizer& featurizer;
  const models::Regressor& model;       ///< model currently in use
  const data::SupervisedSet& current_train;  ///< training set in use
  int eval_day = 0;       ///< target day just evaluated
  double nrmse = 0.0;     ///< NRMSE at this step
  bool drift = false;     ///< detector fired at this step
  int train_window = 14;  ///< length (days) of a standard training window
  /// Untrained prototype of the deployed model family; schemes that
  /// validate a candidate training set before proposing it (LEAF) fit a
  /// clone of this.  May be null for policies that don't validate.
  const models::Regressor* prototype = nullptr;
  /// Optional drift-event sink (leaf::obs) for scheme-level decisions —
  /// LEAF emits a `retrain_rejected` event when candidate validation
  /// vetoes a retrain.  Single-writer; may be null.
  obs::EventLog* events = nullptr;
  /// Serve shard index stamped on emitted events (-1 outside serve).
  int shard = -1;
};

class MitigationScheme {
 public:
  virtual ~MitigationScheme() = default;

  /// Resets policy state before an evaluation run.
  virtual void reset() = 0;

  /// Called after every evaluation step.  Returns the new training set if
  /// the policy wants a retrain, std::nullopt otherwise.
  virtual std::optional<data::SupervisedSet> on_step(
      const SchemeContext& ctx) = 0;

  /// Ensemble-style policies (AUE2) build the replacement model
  /// themselves instead of handing the engine a training set.  When this
  /// returns non-null after on_step, the engine installs the model
  /// directly (counted as a retrain) and ignores on_step's training set.
  virtual std::unique_ptr<models::Regressor> take_replacement_model() {
    return nullptr;
  }

  virtual std::string name() const = 0;

  /// Snapshot hooks (leaf::io): serialize / restore all policy state that
  /// evolves across steps.  Defaults throw io::SnapshotError so ensemble
  /// policies that keep unserialized model banks (PairedLearners, AUE2)
  /// fail snapshots loudly instead of resuming wrong.
  virtual void save_state(io::Serializer& out) const;
  virtual void load_state(io::Deserializer& in);
};

/// Never retrains.
class StaticScheme final : public MitigationScheme {
 public:
  void reset() override {}
  std::optional<data::SupervisedSet> on_step(const SchemeContext&) override {
    return std::nullopt;
  }
  std::string name() const override { return "Static"; }
  void save_state(io::Serializer&) const override {}  // stateless
  void load_state(io::Deserializer&) override {}
};

/// Retrains every `period_days` calendar days on the latest labeled
/// window, regardless of whether drift occurred (§3.4).
class PeriodicScheme final : public MitigationScheme {
 public:
  explicit PeriodicScheme(int period_days);
  void reset() override;
  std::optional<data::SupervisedSet> on_step(const SchemeContext& ctx) override;
  std::string name() const override;
  void save_state(io::Serializer& out) const override;
  void load_state(io::Deserializer& in) override;

 private:
  int period_;
  int last_retrain_day_ = -1;
};

/// Retrains on the latest labeled window whenever the detector fires.
class TriggeredScheme final : public MitigationScheme {
 public:
  void reset() override {}
  std::optional<data::SupervisedSet> on_step(const SchemeContext& ctx) override;
  std::string name() const override { return "Triggered"; }
  void save_state(io::Serializer&) const override {}  // stateless
  void load_state(io::Deserializer&) override {}
};

/// The most recent fully-labeled `window` days of supervised pairs as of
/// evaluation day `eval_day`: feature days
/// [eval_day - horizon - window + 1, eval_day - horizon].  Shared by the
/// periodic, triggered, and LEAF schemes (LEAF calls these "the latest
/// drifting samples").
data::SupervisedSet latest_labeled_window(const data::Featurizer& featurizer,
                                          int eval_day, int window);

}  // namespace leaf::core
