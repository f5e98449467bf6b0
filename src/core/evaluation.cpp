#include "core/evaluation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/calendar.hpp"
#include "common/csv.hpp"
#include "common/metrics.hpp"
#include "common/stats.hpp"
#include "io/snapshot.hpp"
#include "models/factory.hpp"

namespace leaf::core {

double EvalResult::avg_nrmse() const { return stats::mean(nrmse); }

namespace {

/// Skip evaluation days with fewer pairs than this (degenerate NRMSE).
constexpr std::size_t kMinSamplesPerDay = 3;

/// OUTAGE on either the day being scored or the day its features came
/// from means the step's error is dominated by collection loss, not by
/// the model: the detector must not see it.
bool outage_at_step(std::span<const ingest::HealthState> health, int day,
                    int horizon) {
  const auto state_at = [&health](int d) {
    return d >= 0 && d < static_cast<int>(health.size()) &&
           health[static_cast<std::size_t>(d)] == ingest::HealthState::kOutage;
  };
  return !health.empty() && (state_at(day) || state_at(day - horizon));
}

/// Registry handles for the loop, resolved once per process.
struct LoopMetrics {
  obs::Counter& steps;
  obs::Counter& scored;
  obs::Counter& skipped;
  obs::Counter& nonfinite;
  obs::Counter& drifts;
  obs::Counter& retrains;
  obs::Counter& scratch_grows;
  obs::Counter& scratch_reuses;
  obs::LatencyHistogram& retrain_latency;
};

const LoopMetrics& loop_metrics() {
  static const LoopMetrics m = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    return LoopMetrics{reg.counter("leaf_eval_steps_total"),
                       reg.counter("leaf_eval_days_scored_total"),
                       reg.counter("leaf_eval_days_skipped_total"),
                       reg.counter("leaf_eval_nonfinite_total"),
                       reg.counter("leaf_drift_events_total"),
                       reg.counter("leaf_retrains_total"),
                       reg.counter("leaf_shard_scratch_grows_total"),
                       reg.counter("leaf_shard_scratch_reuses_total"),
                       reg.latency("leaf_retrain_latency_seconds")};
  }();
  return m;
}

/// Rebuilds a training set from the row keys Evaluation::save writes:
/// each row is the featurizer's pair for (feature_day, enb), so X and y
/// come from the restoring fleet's own dataset, not from the snapshot.
/// `target_day` rides along as a check on the key.
data::SupervisedSet read_keyed_rows(io::Deserializer& in,
                                    const data::Featurizer& featurizer) {
  data::SupervisedSet s;
  s.feature_day = in.get_ints();
  s.enb = in.get_ints();
  s.target_day = in.get_ints();
  const std::size_t n = s.feature_day.size();
  if (s.enb.size() != n || s.target_day.size() != n)
    throw io::SnapshotError("training-set keys with inconsistent row counts");
  s.X = Matrix(n, static_cast<std::size_t>(featurizer.num_features()));
  s.y.resize(n);
  const auto bad_key = [&s](std::size_t r, const std::string& why) {
    return io::SnapshotError(
        "training row " + std::to_string(r) + " (feature day " +
        std::to_string(s.feature_day[r]) + ", eNodeB " +
        std::to_string(s.enb[r]) + ", target day " +
        std::to_string(s.target_day[r]) + ") " + why);
  };
  const int horizon = featurizer.horizon();
  for (std::size_t r = 0; r < n; ++r) {
    const int fd = s.feature_day[r];
    if (static_cast<std::int64_t>(s.target_day[r]) !=
        static_cast<std::int64_t>(fd) + horizon)
      throw bad_key(r, "has a target day not " + std::to_string(horizon) +
                         " days after its feature day");
    if (!featurizer.row(fd, s.enb[r], s.X.row(r), s.y[r]))
      throw bad_key(r, "names no pair of this dataset");
  }
  return s;
}

}  // namespace

Evaluation::Evaluation(const data::Featurizer& featurizer,
                       const models::Regressor& prototype,
                       MitigationScheme& scheme, const EvalConfig& cfg,
                       obs::SpanSite& initial_fit_span,
                       obs::SpanSite& retrain_fit_span,
                       const PredictionSink& sink)
    : featurizer_(&featurizer),
      prototype_(&prototype),
      scheme_(&scheme),
      cfg_(cfg),
      initial_fit_span_(&initial_fit_span),
      retrain_fit_span_(&retrain_fit_span),
      sink_(sink),
      fit_caches_(std::make_unique<models::FitCaches>()),
      detector_(cfg.detector) {}

void Evaluation::init() {
  result_ = EvalResult{};
  result_.scheme = scheme_->name();
  result_.model = prototype_->name();

  const int anchor =
      cfg_.anchor_day >= 0 ? cfg_.anchor_day : cal::anchor_2018_07_01();
  norm_range_ = cfg_.norm_range_override > 0.0 ? cfg_.norm_range_override
                                                : featurizer_->norm_range();
  num_days_ = featurizer_->dataset().num_days();

  // Initial model: trained on the `train_window` days ending at the
  // anchor.
  train_ = featurizer_->window(anchor - cfg_.train_window + 1, anchor);
  if (train_.empty()) {
    throw std::runtime_error(
        "evaluation: training window [" +
        cal::day_to_string(anchor - cfg_.train_window + 1) + " .. " +
        cal::day_to_string(anchor) + "] (anchor day " + std::to_string(anchor) +
        ", " + std::to_string(cfg_.train_window) +
        " days) produced no supervised pairs — no eNodeB reports on both a "
        "feature day and its +"
        + std::to_string(cfg_.horizon) + "-day target day");
  }
  // Run-scoped fit caches (bin-edge reuse across retrains): every clone
  // trained by this run attaches to the same instance, so consecutive
  // retrains on overlapping windows skip most of the quantile work.
  model_ = prototype_->clone_untrained();
  model_->attach_caches(fit_caches_.get());
  {
    const obs::ScopedSpan span(*initial_fit_span_);
    model_->fit(train_.X, train_.y);
  }

  scheme_->reset();
  detector_ = drift::Kswin(cfg_.detector);
  abs_ne_samples_.clear();
  // First forecastable day: the anchor's forecasts land at
  // anchor + horizon; evaluation starts there.
  next_day_ = anchor + cfg_.horizon;
  done_ = next_day_ >= num_days_;
  steps_ = 0;
}

void Evaluation::step(const RetrainGate& gate, bool force_retrain) {
  if (done_) return;
  const LoopMetrics& ctr = loop_metrics();
  ++steps_;
  ctr.steps.inc();
  const int day = next_day_;
  next_day_ += cfg_.stride;
  if (next_day_ >= num_days_) done_ = true;

  const auto emit = [&](obs::EventKind kind, std::string detail,
                        double seconds = 0.0) {
    if (cfg_.events == nullptr) return;
    cfg_.events->emit({kind, day, cfg_.obs_shard,
                       data::to_string(featurizer_->target()), result_.model,
                       result_.scheme, std::move(detail), seconds});
  };

  test_local_ = featurizer_->at_target_day(day);
  const data::SupervisedSet& test = test_local_;
  if (test.size() < kMinSamplesPerDay) {
    ++result_.degraded.days_skipped;
    ctr.skipped.inc();
    return;
  }

  (pred_.reserve(test.size()) ? ctr.scratch_grows : ctr.scratch_reuses)
      .inc();
  const std::span<double> pred = pred_.acquire(test.size());
  model_->predict_into(test.X, pred);
  const double err = metrics::nrmse(pred, test.y, norm_range_);
  if (cfg_.guard_nonfinite && !std::isfinite(err)) {
    // A corrupt test slice must poison neither the NRMSE series nor the
    // detector window; the step is skipped and accounted for.
    ++result_.degraded.nonfinite_errors;
    ctr.nonfinite.inc();
    emit(obs::EventKind::kNonFinite, "rows=" + std::to_string(test.size()));
    return;
  }
  // Collection outage on this step: labels and/or features are imputed
  // placeholders, so the error measures data loss, not the model.  The
  // step is not scored, the detector is frozen (no update, no
  // truncation), and the scheme is suppressed so the outage cannot
  // trigger a retrain on a fabricated window.
  if (outage_at_step(cfg_.target_health, day, cfg_.horizon)) {
    static obs::Counter& frozen_ctr =
        obs::MetricsRegistry::global().counter("leaf_eval_outage_frozen_total");
    ++result_.degraded.frozen_detector_days;
    ++result_.degraded.suppressed_retrains;
    frozen_ctr.inc();
    emit(obs::EventKind::kOutageFreeze, "nrmse=" + fmt(err));
    return;
  }
  if (sink_) sink_(day, test, pred);
  ctr.scored.inc();

  double ne_acc = 0.0;
  std::size_t ne_count = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const double ne = metrics::normalized_error(pred[i], test.y[i], norm_range_);
    if (cfg_.guard_nonfinite && !std::isfinite(ne)) continue;
    ne_acc += ne;
    ++ne_count;
    abs_ne_samples_.push_back(std::abs(ne));
  }

  result_.days.push_back(day);
  result_.nrmse.push_back(err);
  result_.mean_ne.push_back(
      ne_count > 0 ? ne_acc / static_cast<double>(ne_count) : 0.0);

  const bool drift = detector_.update(err);
  if (drift) {
    result_.drift_days.push_back(day);
    ctr.drifts.inc();
    emit(obs::EventKind::kDrift,
         "detector=KSWIN,p=" + fmt(detector_.last_p_value()) +
             ",nrmse=" + fmt(err));
  }

  SchemeContext ctx{.featurizer = *featurizer_,
                    .model = *model_,
                    .current_train = train_,
                    .eval_day = day,
                    .nrmse = err,
                    .drift = drift,
                    .train_window = cfg_.train_window,
                    .prototype = prototype_,
                    .events = cfg_.events,
                    .shard = cfg_.obs_shard};
  // Wall-clock on the trigger→fit→swap path (scheme decision + refit);
  // the clock is read only when obs is runtime-enabled.
  const double retrain_t0 = obs::enabled() ? obs::monotonic_seconds() : 0.0;
  std::optional<data::SupervisedSet> new_train = scheme_->on_step(ctx);
  // Ensemble-style schemes build the replacement model themselves.
  std::unique_ptr<models::Regressor> replacement =
      scheme_->take_replacement_model();
  if (force_retrain && replacement == nullptr &&
      (!new_train.has_value() || new_train->empty())) {
    data::SupervisedSet forced =
        latest_labeled_window(*featurizer_, day, cfg_.train_window);
    if (!forced.empty()) new_train = std::move(forced);
  }

  bool retrained = false;
  const bool wants_retrain =
      replacement != nullptr || (new_train.has_value() && !new_train->empty());
  if (wants_retrain && gate && !gate(day)) {
    ++result_.degraded.suppressed_retrains;
  } else if (replacement != nullptr) {
    model_ = std::move(replacement);
    retrained = true;
  } else if (wants_retrain) {
    train_ = std::move(*new_train);
    model_ = prototype_->clone_untrained();
    model_->attach_caches(fit_caches_.get());
    {
      const obs::ScopedSpan span(*retrain_fit_span_);
      model_->fit(train_.X, train_.y);
    }
    retrained = true;
  }
  if (retrained) {
    const double secs =
        obs::enabled() ? obs::monotonic_seconds() - retrain_t0 : 0.0;
    result_.retrain_days.push_back(day);
    ctr.retrains.inc();
    ctr.retrain_latency.observe(secs);
    if (cfg_.obs_shard >= 0)
      obs::MetricsRegistry::global()
          .latency("leaf_shard_retrain_seconds",
                   obs::label("shard", std::to_string(cfg_.obs_shard)))
          .observe(secs);
    emit(obs::EventKind::kRetrain,
         "train_rows=" + std::to_string(train_.size()), secs);
  }
}

EvalResult Evaluation::finalized_result() const {
  EvalResult out = result_;
  // An unguarded run can keep NaN samples.  NaN has no rank (sorting it
  // breaks strict weak ordering), so the percentile is NaN as well.
  const auto is_nan = [](double x) { return std::isnan(x); };
  if (abs_ne_samples_.empty())
    out.ne_p95 = 0.0;
  else if (std::ranges::any_of(abs_ne_samples_, is_nan))
    out.ne_p95 = std::numeric_limits<double>::quiet_NaN();
  else
    out.ne_p95 = stats::quantile(abs_ne_samples_, 0.95);
  if (cfg_.ingest_report != nullptr) {
    out.degraded.values_imputed = cfg_.ingest_report->values_imputed;
    out.degraded.quarantined_records = cfg_.ingest_report->quarantined_records;
  }
  return out;
}

void Evaluation::save(io::Serializer& out) const {
  detector_.save_state(out);
  scheme_->save_state(out);
  models::save_regressor(out, *model_);
  fit_caches_->bin_edges.save(out);
  // The training set travels as row keys only; load() rebuilds X and y.
  out.put_ints(train_.feature_day);
  out.put_ints(train_.enb);
  out.put_ints(train_.target_day);
  out.put_i32(next_day_);
  out.put_i32(num_days_);
  out.put_f64(norm_range_);
  out.put_bool(done_);
  out.put_u64(steps_);
  out.put_ints(result_.days);
  out.put_doubles(result_.nrmse);
  out.put_doubles(result_.mean_ne);
  out.put_ints(result_.retrain_days);
  out.put_ints(result_.drift_days);
  out.put_i32(result_.degraded.days_skipped);
  out.put_i32(result_.degraded.nonfinite_errors);
  out.put_i32(result_.degraded.frozen_detector_days);
  out.put_i32(result_.degraded.suppressed_retrains);
  out.put_doubles(abs_ne_samples_);
}

void Evaluation::load(io::Deserializer& in) {
  detector_.load_state(in);
  scheme_->reset();
  scheme_->load_state(in);
  model_ = models::load_regressor(in);
  if (model_->name() != prototype_->name())
    throw io::SnapshotError("shard model family mismatch: snapshot has '" +
                            model_->name() + "', runtime expects '" +
                            prototype_->name() + "'");
  fit_caches_->bin_edges.load(in);
  model_->attach_caches(fit_caches_.get());
  train_ = read_keyed_rows(in, *featurizer_);
  next_day_ = in.get_i32();
  num_days_ = in.get_i32();
  norm_range_ = in.get_f64();
  done_ = in.get_bool();
  steps_ = in.get_u64();
  result_ = EvalResult{};
  result_.scheme = scheme_->name();
  result_.model = prototype_->name();
  result_.days = in.get_ints();
  result_.nrmse = in.get_doubles();
  result_.mean_ne = in.get_doubles();
  result_.retrain_days = in.get_ints();
  result_.drift_days = in.get_ints();
  result_.degraded.days_skipped = in.get_i32();
  result_.degraded.nonfinite_errors = in.get_i32();
  result_.degraded.frozen_detector_days = in.get_i32();
  result_.degraded.suppressed_retrains = in.get_i32();
  abs_ne_samples_ = in.get_doubles();
  if (result_.nrmse.size() != result_.days.size() ||
      result_.mean_ne.size() != result_.days.size())
    throw io::SnapshotError("shard result series have inconsistent sizes");
}

EvalResult run_scheme(const data::Featurizer& featurizer,
                      const models::Regressor& prototype,
                      MitigationScheme& scheme, const EvalConfig& cfg,
                      const PredictionSink& sink) {
  static obs::SpanSite& initial_fit_span =
      obs::MetricsRegistry::global().span_site("run_scheme.initial_fit");
  static obs::SpanSite& retrain_fit_span =
      obs::MetricsRegistry::global().span_site("run_scheme.retrain_fit");
  Evaluation eval(featurizer, prototype, scheme, cfg, initial_fit_span,
                  retrain_fit_span, sink);
  eval.init();
  while (!eval.done()) eval.step();
  return eval.finalized_result();
}

double delta_vs_static(const EvalResult& mitigated,
                       const EvalResult& static_run) {
  return metrics::delta_nrmse_pct(mitigated.nrmse, static_run.nrmse);
}

}  // namespace leaf::core
