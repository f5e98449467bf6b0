// Timing decorators that attribute a traced core::run_scheme replay to
// layers from the outside, through the public Regressor and
// MitigationScheme interfaces.
//
// TimedRegressor forwards every virtual, predict_into included, so the
// wrapped model's own batch path runs; clone_untrained() wraps the clone,
// so the fresh models run_scheme trains and the candidates LEAF validates
// are timed too.  TimedScheme marks the span of each on_step call.  Calls
// are classified by where they happen:
//
//   fit outside on_step          models.fit      (initial and retrain fits)
//   fit inside on_step           core.validate_fit (LEAF's candidate)
//   predict outside on_step      models.predict  (evaluation predicts)
//   predict_into inside on_step  explain.predict (importance, LEA)
//   predict_one inside on_step   core.validate_predict (LEAF validation)
//
// One ShardProbe serves one shard's replay, which runs on one thread (the
// fleet steps shards in parallel and nests their inner parallel loops
// inline), so a probe needs no synchronization.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/scheme.hpp"
#include "models/regressor.hpp"
#include "stats.hpp"

namespace leafbench {

enum class Layer {
  kFit,
  kPredict,
  kMitigate,
  kExplainPredict,
  kValidateFit,
  kValidatePredict,
};
inline constexpr std::size_t kNumLayers = 6;

struct ShardProbe {
  std::vector<Interval> spans[kNumLayers];
  std::size_t predict_rows = 0;
  std::size_t explain_rows = 0;
  std::size_t validate_rows = 0;
  std::size_t mitigations = 0;  ///< on_step calls on a drift step
  std::size_t vetoes = 0;
  bool in_mitigate = false;
  /// Bin-edge cache counters of the run's FitCaches, as of the last fit.
  std::size_t bin_reused = 0;
  std::size_t bin_extended = 0;
  std::size_t bin_rebuilt = 0;

  std::vector<Interval>& at(Layer l) {
    return spans[static_cast<std::size_t>(l)];
  }
  const std::vector<Interval>& at(Layer l) const {
    return spans[static_cast<std::size_t>(l)];
  }
  double total(Layer l) const;
  /// Sum over on_step spans of the span minus its timed children.
  double mitigate_self() const;
};

class TimedRegressor final : public leaf::models::Regressor {
 public:
  TimedRegressor(std::unique_ptr<leaf::models::Regressor> inner,
                 ShardProbe& probe)
      : inner_(std::move(inner)), probe_(&probe) {}

  void fit(const leaf::Matrix& X, std::span<const double> y,
           std::span<const double> w = {}) override;
  double predict_one(std::span<const double> x) const override;
  void predict_into(const leaf::Matrix& X,
                    std::span<double> out) const override;
  void attach_caches(leaf::models::FitCaches* caches) override;
  std::unique_ptr<leaf::models::Regressor> clone_untrained() const override;
  std::string name() const override { return inner_->name(); }
  bool trained() const override { return inner_->trained(); }
  std::string serial_key() const override { return inner_->serial_key(); }
  void save(leaf::io::Serializer& out) const override { inner_->save(out); }

 private:
  std::unique_ptr<leaf::models::Regressor> inner_;
  ShardProbe* probe_;
  leaf::models::FitCaches* caches_ = nullptr;
};

class TimedScheme final : public leaf::core::MitigationScheme {
 public:
  TimedScheme(std::unique_ptr<leaf::core::MitigationScheme> inner,
              ShardProbe& probe)
      : inner_(std::move(inner)), probe_(&probe) {}

  void reset() override { inner_->reset(); }
  std::optional<leaf::data::SupervisedSet> on_step(
      const leaf::core::SchemeContext& ctx) override;
  std::unique_ptr<leaf::models::Regressor> take_replacement_model() override {
    return inner_->take_replacement_model();
  }
  std::string name() const override { return inner_->name(); }
  void save_state(leaf::io::Serializer& out) const override {
    inner_->save_state(out);
  }
  void load_state(leaf::io::Deserializer& in) override {
    inner_->load_state(in);
  }

 private:
  std::unique_ptr<leaf::core::MitigationScheme> inner_;
  ShardProbe* probe_;
};

}  // namespace leafbench
