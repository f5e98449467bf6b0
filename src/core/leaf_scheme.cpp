#include "core/leaf_scheme.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/csv.hpp"
#include "common/stats.hpp"
#include "explain/grouping.hpp"
#include "explain/importance.hpp"
#include "explain/lea.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"

namespace leaf::core {

namespace {

/// LEA quantile bins for the error distribution E_L.
constexpr int kLeaBins = 10;
/// Dispersion (Std/Mean of the target over the dataset) at or above which
/// the high-dispersion strategy is used.
constexpr double kDispersionThreshold = 1.0;
/// Hard cap on any per-sample drop probability.
constexpr double kForgetCap = 0.95;
/// The over-sampling pool is "the existing collected dataset (including
/// the latest drifting samples)" (§4.3); it is truncated to the most recent
/// `kPoolWindow` labeled days for tractability.  A months-long pool is what
/// makes the cubic high-dispersion strategy robust: burst samples are a
/// minority inside every high-error bin, so focused over-sampling refreshes
/// the region without overfitting the transient.
constexpr int kPoolWindow = 120;

}  // namespace

LeafScheme::LeafScheme(LeafConfig cfg, double target_dispersion)
    : cfg_(cfg), dispersion_(target_dispersion), rng_(cfg.seed) {}

void LeafScheme::reset() {
  rng_ = Rng(cfg_.seed);
}

std::string LeafScheme::name() const {
  return cfg_.num_groups == 1 ? "LEAF"
                              : "LEAF(" + std::to_string(cfg_.num_groups) + ")";
}

std::optional<data::SupervisedSet> LeafScheme::on_step(
    const SchemeContext& ctx) {
  if (!ctx.drift) return std::nullopt;
  LEAF_SPAN("leaf.mitigate");

  const data::SupervisedSet latest =
      latest_labeled_window(ctx.featurizer, ctx.eval_day, ctx.train_window);
  if (latest.empty() || ctx.current_train.empty()) return std::nullopt;

  // --- Explain: rank features by sensitivity on the drifting samples,
  // then group correlated features and keep the top representatives.
  // Drift explanations are given in terms of KPIs (the paper's feature
  // groups are all KPI columns): temporal/area encodings score 0 and never
  // represent a group, since resampling on e.g. day-of-week bins would be
  // meaningless.
  explain::ImportanceConfig imp_cfg;
  imp_cfg.max_rows = kImportanceMaxRows;
  imp_cfg.repeats = kImportanceRepeats;
  imp_cfg.scored_columns =
      static_cast<std::size_t>(ctx.featurizer.num_kpi_features());
  Rng imp_rng = rng_.fork(static_cast<std::uint64_t>(ctx.eval_day));
  const std::vector<double> importance = explain::permutation_importance(
      ctx.model, latest.X, latest.y, ctx.featurizer.norm_range(), imp_rng,
      imp_cfg);

  const std::vector<explain::FeatureGroup> groups =
      explain::group_features(latest.X, importance, cfg_.num_groups);
  if (groups.empty()) {
    // No feature carries signal (can happen on tiny windows): fall back to
    // plain triggered behaviour rather than skipping mitigation.
    return latest;
  }

  // E_L per group: the deployed model's local error distribution over
  // quantile bins of the group's representative feature, measured on the
  // latest drifting samples.  Neither the model nor `latest` changes
  // between rounds, so each group's E_L is computed once.
  std::vector<explain::LeaResult> leas;
  leas.reserve(groups.size());
  for (const auto& group : groups)
    leas.push_back(explain::compute_lea(ctx.model, latest,
                                        group.representative, kLeaBins,
                                        ctx.featurizer.norm_range()));

  // Diagnostic: error contrast of the top group, 1 - weighted_mean(E_L) /
  // max(E_L): near 1 when the error concentrates in a few bins of the
  // representative feature, near 0 for homogeneous drift.  A veto event
  // records it; homogeneous drift legitimately produces flat profiles, so
  // this is not used as a retrain gate.
  double contrast = 0.0;
  {
    const explain::LeaResult& el = leas.front();
    double max_err = 0.0, sum_we = 0.0;
    std::size_t total = 0;
    for (std::size_t b = 0; b < el.error.size(); ++b) {
      max_err = std::max(max_err, el.error[b]);
      sum_we += el.error[b] * static_cast<double>(el.count[b]);
      total += el.count[b];
    }
    if (max_err > 0.0 && total > 0)
      contrast = 1.0 - sum_we / static_cast<double>(total) / max_err;
  }

  // Over-sampling pool: the collected dataset, truncated to the recent
  // kPoolWindow days (always contains the latest drifting samples).
  const data::SupervisedSet pool =
      latest_labeled_window(ctx.featurizer, ctx.eval_day, kPoolWindow);

  // --- Mitigate: iterate forgetting + over-sampling per feature group,
  // each round rebuilding from the previous round's restructured set.
  data::SupervisedSet train = ctx.current_train;
  for (const explain::LeaResult& el : leas) {
    Rng round_rng =
        rng_.fork(static_cast<std::uint64_t>(ctx.eval_day * 131 + el.feature));
    train = restructure(ctx, train, latest, pool, el, round_rng);
  }

  // --- Validate: fit a candidate on the restructured set and require it
  // to hold up against the current model on the recency-weighted pool.
  if (ctx.prototype != nullptr && !pool.empty()) {
    auto candidate = ctx.prototype->clone_untrained();
    candidate->fit(train.X, train.y);
    if (candidate->trained()) {
      std::vector<double> cur(pool.size()), cand(pool.size());
      ctx.model.predict_into(pool.X, cur);
      candidate->predict_into(pool.X, cand);
      double w_sum = 0.0, cur_sq = 0.0, cand_sq = 0.0;
      for (std::size_t i = 0; i < pool.size(); ++i) {
        const double age =
            static_cast<double>(ctx.eval_day - pool.target_day[i]);
        const double w = std::exp(-std::max(0.0, age) / cfg_.recency_tau_days);
        const double dc = cur[i] - pool.y[i];
        const double dn = cand[i] - pool.y[i];
        w_sum += w;
        cur_sq += w * dc * dc;
        cand_sq += w * dn * dn;
      }
      const double tolerance = dispersion_ >= kDispersionThreshold
                                   ? cfg_.validation_tolerance_high
                                   : cfg_.validation_tolerance_low;
      if (w_sum > 0.0 && std::sqrt(cand_sq) > tolerance * std::sqrt(cur_sq)) {
        // The retrain would make things worse: veto it (and record why).
        static obs::Counter& rejected_ctr =
            obs::MetricsRegistry::global().counter(
                "leaf_retrains_rejected_total");
        rejected_ctr.inc();
        if (ctx.events != nullptr) {
          ctx.events->emit({obs::EventKind::kRetrainRejected, ctx.eval_day,
                            ctx.shard,
                            data::to_string(ctx.featurizer.target()),
                            ctx.prototype->name(), name(),
                            "contrast=" + fmt(contrast) + ",groups=" +
                                std::to_string(groups.size())});
        }
        return std::nullopt;
      }
    }
  }
  return train;
}

data::SupervisedSet LeafScheme::restructure(const SchemeContext& ctx,
                                            const data::SupervisedSet& train,
                                            const data::SupervisedSet& latest,
                                            const data::SupervisedSet& pool,
                                            const explain::LeaResult& el,
                                            Rng& rng) const {
  const auto representative = static_cast<std::size_t>(el.feature);
  const std::vector<double>& edges = el.edges;
  const double max_err =
      el.error.empty() ? 0.0
                       : *std::max_element(el.error.begin(), el.error.end());
  if (max_err <= 0.0) return train;  // nothing to act on

  const bool high_dispersion = dispersion_ >= kDispersionThreshold;

  // --- Forgetting ------------------------------------------------------
  // Each training sample is weighted by the (normalized) E_L error of the
  // feature bin it falls into; samples in regions the model now gets
  // wrong are stale and dropped with probability proportional to that
  // weight.  Homogeneous (low-dispersion) KPIs replace stale regions
  // wholesale; bursty (high-dispersion) KPIs forget more gently so
  // transient spikes can't evict the whole history.
  const double strength =
      high_dispersion ? cfg_.forget_strength_high : cfg_.forget_strength_low;
  const std::vector<double> train_fv = train.X.col(representative);
  std::vector<std::size_t> kept;
  kept.reserve(train.size());
  for (std::size_t i = 0; i < train.size(); ++i) {
    const std::size_t b = explain::lea_bin_of(train_fv[i], edges);
    double p_drop = strength * el.error[b] / max_err;
    if (!high_dispersion &&
        ctx.eval_day - train.target_day[i] > kPoolWindow) {
      p_drop += cfg_.forget_age_prob;  // slow drain of very old samples
    }
    if (!rng.bernoulli(std::min(kForgetCap, p_drop))) kept.push_back(i);
  }
  // Never forget everything: keep at least an eighth of the set.
  if (kept.size() < train.size() / 8) {
    kept.resize(train.size() / 8);
    std::iota(kept.begin(), kept.end(), std::size_t{0});
  }
  data::SupervisedSet restructured = train.subset(kept);

  // --- Over-sampling -----------------------------------------------------
  // Refill to the original size from the collected pool, with per-bin
  // weights linear (low dispersion) or cubic (high dispersion) in E_L, so
  // high-error regions receive the most replacement data.  A small weight
  // floor keeps every region represented.  Within a high-error bin the
  // pool mixes months of samples, so focused over-sampling refreshes the
  // region without cloning a transient burst.
  // Low-dispersion KPIs over-sample "the latest drifting instances"
  // directly (homogeneous drift: fresh data is simply better everywhere);
  // high-dispersion KPIs draw from the months-long pool so cubic focusing
  // cannot clone a transient burst.
  const std::size_t refill = train.size() - restructured.size();
  const data::SupervisedSet& source =
      high_dispersion ? (pool.empty() ? latest : pool) : latest;
  if (refill > 0 && !source.empty()) {
    const std::vector<double> source_fv = source.X.col(representative);
    std::vector<double> weights(source.size());
    for (std::size_t i = 0; i < source.size(); ++i) {
      const std::size_t b = explain::lea_bin_of(source_fv[i], edges);
      const double e = el.error[b] / max_err;
      weights[i] =
          std::max(cfg_.oversample_floor, high_dispersion ? e * e * e : e);
      if (high_dispersion) {
        // Recency decay so a regime switch (e.g. an outage ending) isn't
        // drowned out by months of pre-switch pool samples.
        const double age =
            static_cast<double>(ctx.eval_day - source.target_day[i]);
        weights[i] *= std::exp(-std::max(0.0, age) / cfg_.recency_tau_days);
      }
    }
    const std::vector<std::size_t> drawn =
        rng.weighted_sample_with_replacement(weights, refill);
    restructured.append(source.subset(drawn));
  }
  return restructured;
}

void LeafScheme::save_state(io::Serializer& out) const {
  out.put_u64(cfg_.seed);
  out.put_i32(cfg_.num_groups);
  out.put_f64(dispersion_);
  io::write(out, rng_);
}

void LeafScheme::load_state(io::Deserializer& in) {
  const std::uint64_t seed = in.get_u64();
  const int num_groups = in.get_i32();
  const double dispersion = in.get_f64();
  if (seed != cfg_.seed || num_groups != cfg_.num_groups ||
      dispersion != dispersion_)
    throw io::SnapshotError(
        "LEAF scheme configuration mismatch between snapshot and scheme");
  Rng rng(cfg_.seed);
  io::read_rng(in, rng);
  rng_ = rng;
}

}  // namespace leaf::core
