#include "core/scheme.hpp"

namespace leaf::core {

data::SupervisedSet latest_labeled_window(const data::Featurizer& featurizer,
                                          int eval_day, int window) {
  const int last_feature_day = eval_day - featurizer.horizon();
  return featurizer.window(last_feature_day - window + 1, last_feature_day);
}

void MitigationScheme::save_state(io::Serializer& out) const {
  (void)out;
  throw io::SnapshotError("scheme '" + name() + "' does not support snapshots");
}

void MitigationScheme::load_state(io::Deserializer& in) {
  (void)in;
  throw io::SnapshotError("scheme '" + name() + "' does not support snapshots");
}

PeriodicScheme::PeriodicScheme(int period_days) : period_(period_days) {}

void PeriodicScheme::reset() { last_retrain_day_ = -1; }

std::optional<data::SupervisedSet> PeriodicScheme::on_step(
    const SchemeContext& ctx) {
  if (last_retrain_day_ < 0) last_retrain_day_ = ctx.eval_day;  // clock start
  if (ctx.eval_day - last_retrain_day_ < period_) return std::nullopt;
  last_retrain_day_ = ctx.eval_day;
  return latest_labeled_window(ctx.featurizer, ctx.eval_day,
                               ctx.train_window);
}

std::string PeriodicScheme::name() const {
  return "Naive" + std::to_string(period_);
}

void PeriodicScheme::save_state(io::Serializer& out) const {
  out.put_i32(period_);
  out.put_i32(last_retrain_day_);
}

void PeriodicScheme::load_state(io::Deserializer& in) {
  const int period = in.get_i32();
  if (period != period_)
    throw io::SnapshotError(
        "periodic scheme period mismatch between snapshot and scheme");
  last_retrain_day_ = in.get_i32();
}

std::optional<data::SupervisedSet> TriggeredScheme::on_step(
    const SchemeContext& ctx) {
  if (!ctx.drift) return std::nullopt;
  return latest_labeled_window(ctx.featurizer, ctx.eval_day,
                               ctx.train_window);
}

}  // namespace leaf::core
