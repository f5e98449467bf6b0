// fleet_leaf and fleet_triggered: a 6-shard GBDT fleet (one shard per
// target KPI) run to the end of the study under the LEAF or the Triggered
// scheme.  Every kSnapshotEvery steps and at the end the fleet is
// snapshotted and the snapshot restored into a fresh runtime.  Each pass
// uses the dataset and fleet of pass_seed(seed, pass), so a run averages
// over several networks.
//
// The traced run replays every shard through core::run_scheme with the
// timing decorators (probes.hpp), on the same thread layout as the fleet,
// and checks that the replay reproduces the fleet bit for bit.
#include <cmath>

#include "bench.hpp"
#include "build_info.hpp"
#include "common/calendar.hpp"
#include "core/experiment.hpp"
#include "drift/kswin.hpp"
#include "obs/metrics.hpp"
#include "par/parallel.hpp"
#include "probes.hpp"

namespace leafbench {

namespace {

using leaf::serve::FleetRuntime;
using leaf::serve::ShardSpec;

/// Nominal seconds of one pass, set-up and snapshots included, on the
/// reference host (4-core x86-64, two threads): passes = --seconds /
/// nominal, so a run lasts about --seconds there and does the same work
/// everywhere.
double nominal_pass_seconds(const std::string& scheme) {
  return scheme == "LEAF" ? 7.5 : 2.5;
}

/// p99 needs ten samples beyond it: 1000 steps, i.e. two passes.
constexpr int kMinPasses = 2;

struct Replay {
  std::vector<leaf::core::EvalResult> results;
  std::vector<ShardProbe> probes;
  std::vector<double> shard_s;  ///< each shard's run_scheme wall time
  double wall_s = 0.0;
  std::vector<double> featurize_s;
  std::vector<double> drift_s;
  std::vector<std::size_t> firings;
};

/// Replays each shard of the fleet (ds, specs, fleet_seed) through
/// core::run_scheme, in parallel over shards like FleetRuntime::step, with
/// the per-shard seeds, models and schemes the runtime derives.  With
/// `probed`, model and scheme are wrapped in the timing decorators and the
/// featurizer and detector calls are replayed and timed afterwards.
Replay replay(const leaf::data::CellularDataset& ds, const leaf::Scale& scale,
              const std::vector<ShardSpec>& specs, std::uint64_t fleet_seed,
              bool probed) {
  const std::size_t n = specs.size();
  Replay out;
  out.results.resize(n);
  out.probes.resize(n);
  out.shard_s.assign(n, 0.0);
  out.featurize_s.assign(n, 0.0);
  out.drift_s.assign(n, 0.0);
  out.firings.assign(n, 0);

  std::vector<std::unique_ptr<leaf::data::Featurizer>> featurizers;
  std::vector<double> dispersion;
  std::vector<leaf::core::EvalConfig> cfgs;
  const leaf::Rng fleet_rng(fleet_seed);
  for (std::size_t i = 0; i < n; ++i) {
    featurizers.push_back(
        std::make_unique<leaf::data::Featurizer>(ds, specs[i].kpi));
    dispersion.push_back(leaf::core::kpi_dispersion(ds, specs[i].kpi));
    cfgs.push_back(
        leaf::core::make_eval_config(scale, fleet_rng.substream(i)()));
  }

  // With two or more shards every shard runs inside the pool's parallel
  // region, so its nested parallel loops run inline on its thread and its
  // probe is only ever touched from that thread.
  const double t0 = now_s();
  leaf::par::parallel_for(n, [&](std::size_t i) {
    std::unique_ptr<leaf::models::Regressor> proto =
        leaf::models::make_model(specs[i].model, scale, cfgs[i].seed);
    std::unique_ptr<leaf::core::MitigationScheme> scheme =
        leaf::core::make_scheme(specs[i].scheme, dispersion[i],
                                cfgs[i].seed ^ 0x99);
    if (probed) {
      proto = std::make_unique<TimedRegressor>(std::move(proto), out.probes[i]);
      scheme = std::make_unique<TimedScheme>(std::move(scheme), out.probes[i]);
    }
    const double ts = now_s();
    out.results[i] = leaf::core::run_scheme(*featurizers[i], *proto, *scheme,
                                            cfgs[i]);
    out.shard_s[i] = now_s() - ts;
  });
  out.wall_s = now_s() - t0;
  if (!probed) return out;

  // run_scheme builds its featurizer slices and detector internally; replay
  // the same calls on the same days to time those layers.
  leaf::par::parallel_for(n, [&](std::size_t i) {
    const leaf::core::EvalConfig& cfg = cfgs[i];
    const leaf::data::Featurizer& f = *featurizers[i];
    const int anchor = leaf::cal::anchor_2018_07_01();
    double ts = now_s();
    (void)f.window(anchor - cfg.train_window + 1, anchor);
    for (int day = anchor + cfg.horizon; day < ds.num_days();
         day += cfg.stride)
      (void)f.at_target_day(day);
    out.featurize_s[i] = now_s() - ts;

    leaf::drift::Kswin detector(cfg.detector);
    std::size_t fired = 0;
    ts = now_s();
    for (double v : out.results[i].nrmse) fired += detector.update(v) ? 1 : 0;
    out.drift_s[i] = now_s() - ts;
    out.firings[i] = fired;
  });
  return out;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

void layer_metrics(const Replay& plain, const Replay& traced, Report& r) {
  double fit = 0, predict = 0, mitigate = 0, explain = 0, vfit = 0,
         vpredict = 0, mself = 0;
  std::size_t fit_calls = 0, predict_rows = 0, explain_rows = 0,
              validate_rows = 0, mitigations = 0, vetoes = 0, candidates = 0,
              reused = 0, binned = 0;
  for (const ShardProbe& p : traced.probes) {
    fit += p.total(Layer::kFit);
    predict += p.total(Layer::kPredict);
    mitigate += p.total(Layer::kMitigate);
    explain += p.total(Layer::kExplainPredict);
    vfit += p.total(Layer::kValidateFit);
    vpredict += p.total(Layer::kValidatePredict);
    mself += p.mitigate_self();
    fit_calls += p.at(Layer::kFit).size();
    predict_rows += p.predict_rows;
    explain_rows += p.explain_rows;
    validate_rows += p.validate_rows;
    mitigations += p.mitigations;
    vetoes += p.vetoes;
    candidates += p.at(Layer::kValidateFit).size();
    reused += p.bin_reused;
    binned += p.bin_reused + p.bin_extended + p.bin_rebuilt;
  }
  std::size_t firings = 0;
  for (std::size_t f : traced.firings) firings += f;

  LayerTable t;
  t.title = "fleet step: shard-busy ms of the traced run_scheme replay";
  t.total = sum(traced.shard_s) * 1e3;
  t.rows = {{"data.featurize_ms", sum(traced.featurize_s) * 1e3},
            {"drift.update_ms", sum(traced.drift_s) * 1e3},
            {"models.fit_ms", fit * 1e3},
            {"models.predict_ms", predict * 1e3},
            {"core.mitigate_ms", mitigate * 1e3}};
  record_layer_table(t, r);
  LayerTable m;
  m.title = "  core.mitigate_ms breakdown";
  m.total = mitigate * 1e3;
  m.rows = {{"explain.predict_ms", explain * 1e3},
            {"core.validate_fit_ms", vfit * 1e3},
            {"core.validate_predict_ms", vpredict * 1e3},
            {"core.mitigate_self_ms", mself * 1e3}};
  r.tables.push_back(m);
  for (const LayerRow& row : m.rows) r.set(row.name, row.value);

  r.set("drift.firings", static_cast<double>(firings));
  r.set("models.fit_calls", static_cast<double>(fit_calls));
  r.set("models.predict_rows", static_cast<double>(predict_rows));
  r.set("models.binedge_reuse_share",
        binned > 0 ? static_cast<double>(reused) / binned : 0.0);
  r.set("core.mitigate_calls", static_cast<double>(mitigations));
  r.set("explain.predict_rows", static_cast<double>(explain_rows));
  r.set("core.validate_predict_rows", static_cast<double>(validate_rows));
  r.set("core.veto_share",
        candidates > 0 ? static_cast<double>(vetoes) / candidates : 0.0);
  r.set("trace_overhead_share", traced.wall_s / plain.wall_s - 1.0);
}

}  // namespace

void run_fleet(const Options& o, Report& r) {
  const std::string scheme = o.workload == "fleet_leaf" ? "LEAF" : "Triggered";
  const std::size_t shards = o.smoke ? 2 : 6;
  const leaf::Scale scale = bench_scale();
  int passes = std::max(
      kMinPasses,
      static_cast<int>(std::lround(o.seconds / nominal_pass_seconds(scheme))));
  if (o.trace || o.smoke) passes = 1;
  const std::vector<ShardSpec> specs = fleet_specs(shards, scheme);
  const Goldens goldens(LEAFBENCH_GOLDENS);
  ScratchDir scratch(o, o.workload);

  std::vector<double> setup_s, step_ms, snapshot_ms, restore_ms;
  double step_s = 0.0, shard_days = 0.0;
  std::uint64_t snapshot_bytes = 0;
  std::size_t golden_shards = 0;
  std::vector<std::uint64_t> fleet_fps;

  const auto set_up = [&](std::uint64_t seed) {
    const double t0 = now_s();
    Deployed d = deploy(specs, seed);
    setup_s.push_back(now_s() - t0);
    return d;
  };

  std::unique_ptr<leaf::data::CellularDataset> last_ds;  // for the replays
  for (int pass = 0; pass < passes; ++pass) {
    const std::uint64_t seed = pass_seed(o.seed, pass);
    Deployed d = set_up(seed);
    FleetRuntime& fleet = *d.fleet;
    const std::string dir = scratch.sub("pass" + std::to_string(pass));
    const leaf::data::CellularDataset& ds = *d.ds;
    // Checkpoint, then restore the generation just written into a fresh
    // runtime: recovery times are sampled across the whole run, and every
    // restore must reproduce the fleet's results so far.
    const auto checkpoint = [&] {
      const std::uint64_t bytes = timed_snapshot(fleet, dir, snapshot_ms, r);
      const std::vector<std::uint64_t> fps = fingerprints(fleet.results());
      timed_restores(
          1, dir,
          [&] {
            return std::make_unique<FleetRuntime>(ds, scale, specs, seed);
          },
          [&](const FleetRuntime& f) {
            return fingerprints(f.results()) == fps;
          },
          restore_ms, r);
      return bytes;
    };
    while (!fleet.done()) {
      const double t0 = now_s();
      fleet.step();
      const double dt = now_s() - t0;
      step_ms.push_back(dt * 1e3);
      step_s += dt;
      if (fleet.steps_run() % kSnapshotEvery == 0) checkpoint();
    }
    snapshot_bytes = checkpoint();
    const leaf::serve::ServeStats stats = fleet.stats();
    shard_days += static_cast<double>(stats.total_steps * shards *
                                      scale.eval_stride_days);
    r.attempted += stats.total_steps * shards;
    r.failed += static_cast<std::uint64_t>(stats.total_faults);

    fleet_fps = fingerprints(fleet.results());
    golden_shards += goldens.verify(scheme, seed, fleet_fps, r);
    last_ds = std::move(d.ds);  // outlives d.fleet, which reads it
  }
  while (static_cast<int>(setup_s.size()) < kMinSetups) set_up(o.seed);

  r.set("setup_s", median(setup_s));
  r.set("work_per_s", shard_days / step_s);
  r.set("op_p50_ms", percentile(step_ms, 50));
  r.set("op_p99_ms", percentile(step_ms, 99));
  r.set("snapshot_write_ms", median(snapshot_ms));
  r.set("restore_ms", median(restore_ms));
  r.set("peak_rss_mb", peak_rss_mb());
  r.set("io.snapshot_bytes", static_cast<double>(snapshot_bytes));
  r.note("passes", std::to_string(passes));
  r.note("op", "fleet.step(); work = shard-days scored");
  r.note("op_samples", std::to_string(step_ms.size()) + " (" +
                           std::to_string(samples_beyond(step_ms.size(), 99)) +
                           " beyond p99)");
  r.note("golden_shards_checked", std::to_string(golden_shards));
  if (!o.trace && !o.smoke) {
    r.check(samples_beyond(step_ms.size(), 99) >= 10,
            "fewer than ten step samples beyond p99");
    return;
  }

  // Traced: the last pass's fleet, replayed plain (the overhead baseline and
  // a determinism check) and then with the probes.
  const std::uint64_t seed = pass_seed(o.seed, passes - 1);
  const Replay plain = replay(*last_ds, scale, specs, seed, false);
  r.check(fingerprints(plain.results) == fleet_fps,
          "run_scheme replay differs from the fleet");
  leaf::obs::MetricsRegistry::global().reset_values();
  const Replay traced = replay(*last_ds, scale, specs, seed, true);
  record_simd_calls(r);
  r.check(fingerprints(traced.results) == fleet_fps,
          "traced run_scheme replay differs from the fleet");
  for (std::size_t i = 0; i < shards; ++i)
    r.check(traced.firings[i] == traced.results[i].drift_days.size(),
            "replayed detector fired differently from run_scheme");
  layer_metrics(plain, traced, r);
}

}  // namespace leafbench
