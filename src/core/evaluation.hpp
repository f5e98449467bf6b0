// Walk-forward evaluation engine.
//
// Reproduces the paper's measurement loop: train a model on a fixed-size
// window of history ending at the anchor date (July 1, 2018 by default),
// then advance day by day through the study, evaluating the model's NRMSE
// on each date's test slice (all eNodeBs whose 180-day-ahead target falls
// on that date), feeding the NRMSE stream to the drift detector, and
// letting the active mitigation scheme retrain when its policy says so.
//
// The engine produces the per-day NRMSE series behind Figures 1/2/9, the
// retrain counts of Tables 3/4/5, and — via metrics::delta_nrmse_pct
// against the Static run — the ΔNRMSE̅ values in every evaluation table.
//
// The loop itself is the steppable `Evaluation`: `run_scheme` drives one
// to completion, and every serve::FleetRuntime shard owns one and steps
// it once per fleet step, so offline evaluation and online serving share
// a single implementation of the measurement loop.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/scheme.hpp"
#include "data/features.hpp"
#include "drift/kswin.hpp"
#include "ingest/health.hpp"
#include "ingest/pipeline.hpp"
#include "io/serializer.hpp"
#include "models/regressor.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "simd/simd.hpp"

namespace leaf::core {

struct EvalConfig {
  /// Training window length in days (the paper settles on 14; Fig. 2a).
  int train_window = 14;
  /// Last day of the initial training window; -1 = July 1, 2018.
  int anchor_day = -1;
  /// Forecast horizon in days (§2.2).
  int horizon = 180;
  /// Evaluate every `stride` days (1 = daily, as in the paper; >1 shrinks
  /// runtime at small scale without changing any qualitative result).
  int stride = 1;
  /// Detector configuration (KSWIN on the NRMSE stream, Appendix B).
  drift::KswinConfig detector;
  std::uint64_t seed = 2024;

  // --- graceful degradation (leaf::ingest integration) --------------------
  /// Day-indexed health of the *target KPI* from the ingest pipeline.
  /// When provided, any evaluation step whose target day or feature day is
  /// in OUTAGE freezes the drift detector and suppresses retraining, so a
  /// collection outage is not misread as concept drift.  Empty = no guard.
  std::span<const ingest::HealthState> target_health = {};
  /// Suppress non-finite NRMSE values (skip the step, count it) instead of
  /// poisoning the series and the detector.  On by default; the robustness
  /// bench turns it off for its "unguarded" arm.
  bool guard_nonfinite = true;
  /// Optional ingest report whose quarantine/imputation counters are
  /// copied into EvalResult::degraded for end-to-end visibility.
  const ingest::IngestReport* ingest_report = nullptr;
  /// NRMSE normalization range override (<= 0: use the featurizer's own
  /// target range).  Runs over repaired or corrupted datasets must share
  /// the clean dataset's range, or a surviving spike silently deflates
  /// every error it normalizes.
  double norm_range_override = 0.0;

  // --- observability (leaf::obs integration) ------------------------------
  /// Optional structured drift-event sink: every detector firing, retrain,
  /// LEAF retrain rejection, OUTAGE freeze, and suppressed non-finite
  /// error is recorded with day/KPI/model/scheme context.  Single-writer:
  /// never share one log between concurrently running evaluations.
  obs::EventLog* events = nullptr;
  /// Serve shard index stamped on emitted events and labelling the
  /// per-shard retrain latency (-1 outside serve).
  int obs_shard = -1;
};

/// What the graceful-degradation guards did during a run (all zero on a
/// clean stream with no guards tripped).
struct DegradedStats {
  int days_skipped = 0;           ///< eval days skipped (no / degenerate data)
  int nonfinite_errors = 0;       ///< non-finite NRMSE values suppressed
  int frozen_detector_days = 0;   ///< steps with the detector frozen (OUTAGE)
  int suppressed_retrains = 0;    ///< scheme steps bypassed during OUTAGE
  // Copied from the ingest report by finalized_result(); never snapshotted.
  std::int64_t values_imputed = 0;
  std::int64_t quarantined_records = 0;

  bool any() const {
    return days_skipped || nonfinite_errors || frozen_detector_days ||
           suppressed_retrains || values_imputed || quarantined_records;
  }
};

struct EvalResult {
  std::string scheme;
  std::string model;
  std::vector<int> days;          ///< evaluated target days
  std::vector<double> nrmse;      ///< NRMSE per evaluated day
  std::vector<double> mean_ne;    ///< mean signed NE per evaluated day
  std::vector<int> retrain_days;  ///< days on which a retrain happened
  std::vector<int> drift_days;    ///< days on which the detector fired

  int retrain_count() const { return static_cast<int>(retrain_days.size()); }
  double avg_nrmse() const;
  /// 95th percentile of |NE| across all evaluated samples (Table 7 tracks
  /// the 95th percentile of normalized error); NaN when a run with
  /// guard_nonfinite off kept a NaN sample.
  double ne_p95 = 0.0;
  /// Graceful-degradation accounting (see DegradedStats).
  DegradedStats degraded;
};

/// Optional per-step prediction sink: receives the day's test slice and
/// the in-use model's predictions for it (used by the LEAgram bench,
/// which needs per-sample signed errors from the *evolving* model chain).
using PredictionSink = std::function<void(
    int day, const data::SupervisedSet& test, std::span<const double> pred)>;

/// Gate consulted when the scheme asks for a retrain on `day`; returning
/// false suppresses it (counted in DegradedStats::suppressed_retrains).
/// The serving fleet routes its retrain circuit breaker through this.
using RetrainGate = std::function<bool(int day)>;

/// One walk-forward run as a step machine: init() performs the initial
/// fit, each step() scores one evaluation day and lets the scheme retrain,
/// and save()/load() capture every bit of the run state, so a run can be
/// paused, snapshotted, and resumed into an identical continuation.
///
/// The featurizer, prototype, scheme and span sites are borrowed and must
/// outlive the evaluation, as must whatever `cfg` points at; the sink is
/// copied.  The span sites time the initial fit and every retrain fit
/// under caller-chosen names.
class Evaluation {
 public:
  Evaluation(const data::Featurizer& featurizer,
             const models::Regressor& prototype, MitigationScheme& scheme,
             const EvalConfig& cfg, obs::SpanSite& initial_fit_span,
             obs::SpanSite& retrain_fit_span,
             const PredictionSink& sink = {});

  /// Fits the initial model on the `train_window` days ending at the
  /// anchor and resets the scheme, detector and results.  Throws
  /// std::runtime_error when that window holds no supervised pairs.
  void init();

  /// Scores the next evaluation day and lets the scheme retrain.  `gate`
  /// (when set) may veto a requested retrain; `force_retrain` requests a
  /// retrain on the latest labeled window even when the scheme did not.
  /// No-op once done().
  void step(const RetrainGate& gate = {}, bool force_retrain = false);

  bool done() const { return done_; }
  int next_day() const { return next_day_; }
  std::uint64_t steps() const { return steps_; }
  /// Results so far (ne_p95 not yet computed).
  const EvalResult& result() const { return result_; }
  /// Results so far with ne_p95 and the ingest counters filled in.
  EvalResult finalized_result() const;

  /// True once a trained model is deployed.
  bool ready() const { return model_ != nullptr && model_->trained(); }
  /// The deployed model's forecasts for the rows of X.
  void predict(const Matrix& X, std::span<double> out) const {
    model_->predict_into(X, out);
  }

  /// The current training set: the initial window, or the set of the
  /// last accepted retrain.
  const data::SupervisedSet& training_set() const { return train_; }

  /// Snapshot hooks: the complete run state (detector, scheme, model,
  /// bin-edge cache, training set, cursor, partial results).  The
  /// training set travels as its row keys (feature day, eNodeB, target
  /// day): load() rebuilds every row through the featurizer, so it must
  /// read the same dataset the snapshot was taken over.  load()
  /// validates what it reads and throws io::SnapshotError on damage,
  /// including a key that names no pair of the featurizer's dataset.
  void save(io::Serializer& out) const;
  void load(io::Deserializer& in);

 private:
  const data::Featurizer* featurizer_;
  const models::Regressor* prototype_;
  MitigationScheme* scheme_;
  EvalConfig cfg_;
  obs::SpanSite* initial_fit_span_;
  obs::SpanSite* retrain_fit_span_;
  PredictionSink sink_;

  /// Heap-held so models keep a stable pointer to it across moves.
  std::unique_ptr<models::FitCaches> fit_caches_;
  std::unique_ptr<models::Regressor> model_;
  drift::Kswin detector_;
  data::SupervisedSet train_;
  EvalResult result_;
  std::vector<double> abs_ne_samples_;
  int next_day_ = 0;
  int num_days_ = 0;
  double norm_range_ = 0.0;
  bool done_ = false;
  std::uint64_t steps_ = 0;
  // Scratch, never snapshotted: the day's test slice and the reusable
  // aligned prediction buffer (sized by the high-water test-slice size).
  data::SupervisedSet test_local_;
  simd::AlignedBuffer pred_;
};

/// Runs one (model, scheme) pair over the dataset behind `featurizer`.
/// The model passed in is used as a prototype: the engine trains a fresh
/// clone for the initial fit and for every retrain.
EvalResult run_scheme(const data::Featurizer& featurizer,
                      const models::Regressor& prototype,
                      MitigationScheme& scheme, const EvalConfig& cfg,
                      const PredictionSink& sink = {});

/// ΔNRMSE̅ of `mitigated` against `static_run` in percent (Eq. 1).
double delta_vs_static(const EvalResult& mitigated,
                       const EvalResult& static_run);

}  // namespace leaf::core
