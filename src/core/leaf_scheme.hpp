// The LEAF mitigation scheme (§4.3, "Informed Mitigation").
//
// When the detector fires, LEAF:
//   1. takes the latest labeled window ("the latest drifting samples");
//   2. runs the explainer on it: permutation importance -> correlation
//      grouping -> the top `num_groups` representative features;
//   3. for each group in turn, computes the LEA error distribution E_L of
//      the current model over the representative feature's quantile bins
//      and restructures the training set:
//        - FORGETTING: old training samples falling into high-error bins
//          are dropped — with probability linear in the bin error when the
//          target KPI's dispersion (Std/Mean) is >= 1, or deterministically
//          for samples in the top-5%-error region when dispersion is < 1
//          ("we forget the samples of the original dataset with over 95%
//          error");
//        - OVER-SAMPLING: the freed slots are refilled by sampling the
//          latest drifting samples with per-bin weights that are *cubic*
//          in E_L for high-dispersion KPIs (focus hard on the worst
//          regions) and *linear* for low-dispersion KPIs;
//   4. retrains on the restructured set, which keeps the original size so
//      every scheme pays the same per-retrain cost (§6.1).
//
// Successive drift events operate on the previously restructured set
// ("each round of forgetting and over-sampling is based on the previous
// round of the restructured training set") — the engine feeds back
// current_train, so this falls out naturally.
#pragma once

#include "core/scheme.hpp"
#include "explain/lea.hpp"

namespace leaf::core {

struct LeafConfig {
  /// Number of feature groups used per mitigation (the paper evaluates 1,
  /// 3, and 5).
  int num_groups = 1;
  /// Low-dispersion forgetting strength: drift in these KPIs is
  /// homogeneous (§6.2 "more homogenous distribution changes"), so stale
  /// samples are dropped with probability `strength * normalized bin
  /// error` — wholesale replacement wherever the model is wrong.
  double forget_strength_low = 1.0;
  /// High-dispersion forgetting strength: bursty KPIs need history to
  /// resist overfitting transient spikes (the failure mode that makes
  /// triggered retraining *increase* GDR error by 44% in Table 4), so
  /// forgetting is much gentler and the focus shifts to cubic
  /// over-sampling from the months-long pool.
  double forget_strength_high = 0.3;
  /// Age-based forgetting (low-dispersion path): samples whose *target*
  /// day is older than the over-sampling pool's window also face this
  /// drop probability per mitigation round, regardless of bin error.
  /// Under multiplicative growth, very old samples sit in low-error bins
  /// (the fresh data dominates those bins) yet still drag the fitted level
  /// down; this term drains them over successive retrains.
  double forget_age_prob = 0.35;
  /// Over-sampling weight floor (fraction of the max bin error) so every
  /// region of the latest window keeps some representation.
  double oversample_floor = 0.05;
  /// Recency half-life (days) applied to pool samples on the
  /// high-dispersion path: the draw weight decays as exp(-age / tau).
  /// This is the continuous form of forgetting — old pool samples fade
  /// rather than being cut off — and is what lets LEAF track regime
  /// switches (e.g. the end of the PU data-loss outage, Fig. 9b) without
  /// giving up the burst robustness of a months-long pool.
  double recency_tau_days = 45.0;
  /// Candidate validation: before proposing the restructured set, LEAF
  /// fits a candidate model on it and compares candidate vs current model
  /// on the recency-weighted pool.  The retrain is *rejected* when the
  /// candidate's weighted NRMSE exceeds the current model's by more than
  /// this factor.  This enforces the paper's observed property that
  /// "LEAF consistently mitigates drift across all models, i.e., their
  /// ΔNRMSE̅s are always negative" — a retrain that would chase a
  /// transient burst regime fails validation and is skipped, which is also
  /// why LEAF needs fewer retrains than triggered on bursty KPIs.
  /// Low-dispersion KPIs tolerate a mildly worse candidate (gradual drift
  /// means the pool's older half flatters the old model); bursty
  /// high-dispersion KPIs demand strict improvement — that is where
  /// poisoned retrains happen and where the paper's LEAF spends far fewer
  /// retrains than triggered.  Set huge to disable validation.
  double validation_tolerance_low = 1.3;
  double validation_tolerance_high = 1.0;
  std::uint64_t seed = 99;
};

class LeafScheme final : public MitigationScheme {
 public:
  /// Permutation-importance evaluation rows / repeats.
  static constexpr std::size_t kImportanceMaxRows = 512;
  static constexpr int kImportanceRepeats = 2;

  /// `target_dispersion` is the Std/Mean of the target KPI over the
  /// dataset (Table 2), which selects the mitigation aggressiveness.
  LeafScheme(LeafConfig cfg, double target_dispersion);

  void reset() override;
  std::optional<data::SupervisedSet> on_step(const SchemeContext& ctx) override;
  std::string name() const override;

  void save_state(io::Serializer& out) const override;
  void load_state(io::Deserializer& in) override;

 private:
  /// One round of forgetting + over-sampling against a representative
  /// feature.  `el` is the error distribution E_L of `latest` over the
  /// bins of that feature (`el.feature`); `pool` is the collected data
  /// that over-sampling draws from.  Returns the restructured training
  /// set (same size as `train`).
  data::SupervisedSet restructure(const SchemeContext& ctx,
                                  const data::SupervisedSet& train,
                                  const data::SupervisedSet& latest,
                                  const data::SupervisedSet& pool,
                                  const explain::LeaResult& el,
                                  Rng& rng) const;

  LeafConfig cfg_;
  double dispersion_;
  Rng rng_;
};

}  // namespace leaf::core
