#include "core/experiment.hpp"

#include <cstdlib>
#include <stdexcept>

#include "common/stats.hpp"
#include "core/baselines.hpp"
#include "par/parallel.hpp"

namespace leaf::core {

double kpi_dispersion(const data::CellularDataset& ds, data::TargetKpi t) {
  const std::vector<double> values =
      ds.all_values(ds.schema().target_column(t));
  return stats::dispersion(values);
}

EvalConfig make_eval_config(const Scale& scale, std::uint64_t seed) {
  EvalConfig cfg;
  cfg.train_window = 14;
  cfg.anchor_day = -1;  // July 1, 2018
  cfg.horizon = 180;
  cfg.stride = scale.eval_stride_days;
  cfg.seed = seed;
  // KSWIN tuned for the strided daily NRMSE stream: a 60-sample window
  // with a 20-sample test slice re-arms quickly after a detection, which
  // matters for the *gradual* drift phases (growth, the post-2021 ramp)
  // where the error level keeps creeping after each mitigation.
  cfg.detector.window_size = 40;
  cfg.detector.stat_size = 14;
  cfg.detector.alpha = 0.025;
  cfg.detector.seed = seed ^ 0x5EED;
  return cfg;
}

std::unique_ptr<MitigationScheme> make_scheme(const std::string& spec,
                                              double dispersion,
                                              std::uint64_t seed) {
  if (spec == "Static") return std::make_unique<StaticScheme>();
  if (spec == "Triggered") return std::make_unique<TriggeredScheme>();
  if (spec == "PairedLearners") return std::make_unique<PairedLearnersScheme>();
  if (spec == "AUE2") return std::make_unique<Aue2Scheme>();
  if (spec.rfind("Naive", 0) == 0) {
    const int period = std::atoi(spec.c_str() + 5);
    if (period <= 0)
      throw std::invalid_argument("bad periodic scheme spec: " + spec);
    return std::make_unique<PeriodicScheme>(period);
  }
  if (spec.rfind("LEAF", 0) == 0) {
    LeafConfig cfg;
    cfg.seed = seed;
    if (spec.size() > 4) {
      const int groups = std::atoi(spec.c_str() + 4);
      if (groups <= 0)
        throw std::invalid_argument("bad LEAF scheme spec: " + spec);
      cfg.num_groups = groups;
    }
    return std::make_unique<LeafScheme>(cfg, dispersion);
  }
  throw std::invalid_argument("unknown scheme spec: " + spec);
}

std::span<const std::uint64_t> default_seeds() {
  static const std::uint64_t kSeeds[] = {11, 22, 33};
  return kSeeds;
}

std::vector<SchemeOutcome> compare_schemes(
    const data::CellularDataset& ds, data::TargetKpi target,
    models::ModelFamily family, const Scale& scale,
    std::span<const std::string> specs,
    std::span<const std::uint64_t> seeds) {
  const data::Featurizer featurizer(ds, target);
  const double dispersion = kpi_dispersion(ds, target);

  std::vector<SchemeOutcome> outcomes(specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s) outcomes[s].scheme = specs[s];

  // One read-only prototype + config per seed, shared by every run of
  // that seed (run_scheme only ever clones the prototype).
  const std::size_t n_seeds = seeds.size();
  std::vector<std::unique_ptr<models::Regressor>> prototypes(n_seeds);
  std::vector<EvalConfig> cfgs(n_seeds);
  for (std::size_t i = 0; i < n_seeds; ++i) {
    prototypes[i] = models::make_model(family, scale, seeds[i]);
    cfgs[i] = make_eval_config(scale, seeds[i]);
  }

  // Phase 1: the per-seed Static baselines (every ΔNRMSE̅ needs its
  // same-seed baseline, so these come first).
  std::vector<EvalResult> static_runs =
      par::parallel_map(n_seeds, [&](std::size_t i) {
        StaticScheme static_scheme;
        return run_scheme(featurizer, *prototypes[i], static_scheme, cfgs[i]);
      });

  // Phase 2: the flat seed × scheme grid.  A "Static" arm in `specs`
  // reuses the phase-1 run outright — same prototype, config, and
  // (stateless) scheme make the two runs identical by construction.
  const std::size_t n_tasks = n_seeds * specs.size();
  std::vector<EvalResult> runs =
      par::parallel_map(n_tasks, [&](std::size_t t) {
        const std::size_t i = t / specs.size();
        const std::size_t s = t % specs.size();
        if (specs[s] == "Static") return static_runs[i];
        const auto scheme = make_scheme(specs[s], dispersion, seeds[i] ^ 0x99);
        return run_scheme(featurizer, *prototypes[i], *scheme, cfgs[i]);
      });

  // Ordered accumulation in the historical (seed-outer, scheme-inner)
  // fold order, so the averages are bit-identical at any thread count.
  double static_nrmse_acc = 0.0, static_p95_acc = 0.0;
  for (std::size_t i = 0; i < n_seeds; ++i) {
    static_nrmse_acc += static_runs[i].avg_nrmse();
    static_p95_acc += static_runs[i].ne_p95;
    for (std::size_t s = 0; s < specs.size(); ++s) {
      const EvalResult& run = runs[i * specs.size() + s];
      outcomes[s].avg_nrmse += run.avg_nrmse();
      outcomes[s].delta_pct += delta_vs_static(run, static_runs[i]);
      outcomes[s].retrains += run.retrain_count();
      outcomes[s].ne_p95 += run.ne_p95;
    }
  }

  const double n = static_cast<double>(seeds.size());
  for (auto& o : outcomes) {
    o.avg_nrmse /= n;
    o.delta_pct /= n;
    o.retrains /= n;
    o.ne_p95 /= n;
    o.static_nrmse = static_nrmse_acc / n;
    o.static_ne_p95 = static_p95_acc / n;
  }
  return outcomes;
}

}  // namespace leaf::core
