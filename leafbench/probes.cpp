#include "probes.hpp"

#include <algorithm>

namespace leafbench {

double ShardProbe::total(Layer l) const {
  double sum = 0.0;
  for (const Interval& iv : at(l)) sum += iv.length();
  return sum;
}

double ShardProbe::mitigate_self() const {
  std::vector<Interval> children;
  for (Layer l :
       {Layer::kExplainPredict, Layer::kValidateFit, Layer::kValidatePredict})
    children.insert(children.end(), at(l).begin(), at(l).end());
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  // on_step spans are disjoint and ordered; hand each its children.
  double sum = 0.0;
  std::size_t c = 0;
  for (const Interval& parent : at(Layer::kMitigate)) {
    while (c < children.size() && children[c].end <= parent.start) ++c;
    std::vector<Interval> inside;
    for (std::size_t k = c;
         k < children.size() && children[k].start < parent.end; ++k)
      inside.push_back(children[k]);
    sum += self_time(parent, std::move(inside));
  }
  return sum;
}

void TimedRegressor::fit(const leaf::Matrix& X, std::span<const double> y,
                         std::span<const double> w) {
  const Layer layer = probe_->in_mitigate ? Layer::kValidateFit : Layer::kFit;
  const double t0 = now_s();
  inner_->fit(X, y, w);
  probe_->at(layer).push_back({t0, now_s()});
  if (caches_ != nullptr) {
    probe_->bin_reused = caches_->bin_edges.reused();
    probe_->bin_extended = caches_->bin_edges.extended();
    probe_->bin_rebuilt = caches_->bin_edges.rebuilt();
  }
}

double TimedRegressor::predict_one(std::span<const double> x) const {
  const double t0 = now_s();
  const double v = inner_->predict_one(x);
  if (probe_->in_mitigate) {
    probe_->at(Layer::kValidatePredict).push_back({t0, now_s()});
    ++probe_->validate_rows;
  } else {
    probe_->at(Layer::kPredict).push_back({t0, now_s()});
    ++probe_->predict_rows;
  }
  return v;
}

void TimedRegressor::predict_into(const leaf::Matrix& X,
                                  std::span<double> out) const {
  const double t0 = now_s();
  inner_->predict_into(X, out);
  if (probe_->in_mitigate) {
    probe_->at(Layer::kExplainPredict).push_back({t0, now_s()});
    probe_->explain_rows += X.rows();
  } else {
    probe_->at(Layer::kPredict).push_back({t0, now_s()});
    probe_->predict_rows += X.rows();
  }
}

void TimedRegressor::attach_caches(leaf::models::FitCaches* caches) {
  caches_ = caches;
  inner_->attach_caches(caches);
}

std::unique_ptr<leaf::models::Regressor> TimedRegressor::clone_untrained()
    const {
  return std::make_unique<TimedRegressor>(inner_->clone_untrained(), *probe_);
}

std::optional<leaf::data::SupervisedSet> TimedScheme::on_step(
    const leaf::core::SchemeContext& ctx) {
  const std::size_t fits_before = probe_->at(Layer::kValidateFit).size();
  probe_->in_mitigate = true;
  const double t0 = now_s();
  std::optional<leaf::data::SupervisedSet> out = inner_->on_step(ctx);
  probe_->at(Layer::kMitigate).push_back({t0, now_s()});
  probe_->in_mitigate = false;
  if (ctx.drift) ++probe_->mitigations;
  // A candidate was fitted and no training set came back: validation
  // vetoed the retrain, and the candidate fit was wasted work.
  if (probe_->at(Layer::kValidateFit).size() > fits_before &&
      (!out.has_value() || out->empty()))
    ++probe_->vetoes;
  return out;
}

}  // namespace leafbench
