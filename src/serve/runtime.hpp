// leaf::serve — sharded online serving runtime with versioned
// snapshot/restore (leaf::io) and fleet supervision / self-healing.
//
// A `FleetRuntime` owns N independent shards, one per (target KPI, model
// family, mitigation scheme) pipeline over a shared dataset — the
// deployment shape of §5: many concurrently maintained forecasting models
// walking the same telemetry stream.  Each shard owns a core::Evaluation
// — its own model, KSWIN detector and scheme — and steps it once
// per fleet step.  That is the very loop core::run_scheme drives, so a
// single-shard fleet reproduces run_scheme bit-for-bit; serving adds only
// the retrain circuit breaker (a retrain gate) and the chaos retrain
// storm (a forced retrain) as step arguments.
//
// Shards are stepped concurrently on the leaf::par pool.  Because every
// mutable object is shard-private and per-shard seeds are derived with
// Rng::substream (counter-based, order-independent), a fleet run is
// bit-identical at any thread count.  A step that throws is caught and
// handed to the shard's ShardSupervisor (serve/supervision.hpp); it never
// reaches the other shards, so the healthy subset of a faulted fleet
// produces byte-identical EvalResults and drift-event streams to the same
// fleet with no faults at all — the isolation invariant leaf::chaos
// exists to prove.
//
// The headline property is *crash-equivalence*: snapshot(dir) at any step
// boundary captures every bit of mutable shard state (model, detector
// window, scheme policy state, RNG streams, training set, partial
// results, bin-edge caches, supervision state) as the next generation of
// a SnapshotStore; killing the process, constructing an identically
// configured runtime over the same dataset, and restore(dir)-ing it
// continues the run to byte-identical EvalResults and an identical
// retrain timeline.  The training set is stored as row keys and rebuilt
// from that dataset, whose digest the snapshot carries.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chaos/chaos.hpp"
#include "common/config.hpp"
#include "core/evaluation.hpp"
#include "core/experiment.hpp"
#include "data/dataset.hpp"
#include "data/features.hpp"
#include "models/factory.hpp"
#include "obs/events.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "serve/supervision.hpp"
#include "tsdb/meta_drift.hpp"
#include "tsdb/store.hpp"

namespace leaf::serve {

/// One shard's pipeline: which KPI it forecasts, with which model family
/// and mitigation scheme.  `seed` = 0 derives the shard's seed from the
/// fleet seed via Rng::substream(shard_index).
struct ShardSpec {
  data::TargetKpi kpi = data::TargetKpi::kDVol;
  models::ModelFamily model = models::ModelFamily::kGbdt;
  std::string scheme = "LEAF";
  std::uint64_t seed = 0;
};

/// Fleet supervision configuration: recovery, retrain circuit breaking,
/// snapshot retention, the chaos schedule, and the SLO watchdog (the last
/// two disabled by default).
struct SupervisorConfig {
  RecoveryPolicy recovery;
  /// Per-shard retrain circuit breaker (0 max_retrains = disabled).
  core::BreakerConfig breaker;
  /// Snapshot generations to retain on disk (>= 1).
  int snapshot_keep = 3;
  /// Seeded fault-injection schedule (leaf::chaos); empty = no chaos.
  chaos::ChaosConfig chaos;
  /// SLO burn-rate thresholds (the `--slo` spec).  A spec with any
  /// threshold arms the fleet's watchdog; the default never alarms.
  obs::SloSpec slo;
};

/// Per-shard progress counters.
struct ShardStats {
  std::string kpi;
  std::string model;
  std::string scheme;
  std::uint64_t steps = 0;         ///< step() calls that reached this shard
  int days_evaluated = 0;          ///< days actually scored
  int retrains = 0;
  int drift_events = 0;
  int days_skipped = 0;            ///< thin test slices skipped
  int nonfinite_errors = 0;
  int next_day = 0;                ///< next target day this shard will score
  bool done = false;
  // --- supervision ------------------------------------------------------
  ShardHealth health = ShardHealth::kHealthy;
  int faults = 0;                  ///< total step failures caught
  int consecutive_failures = 0;
  std::uint64_t backoff_until = 0; ///< fleet step of the next retry
  std::string last_error;          ///< what() of the most recent failure
  std::string breaker_state;       ///< "closed" / "open" / "half_open"
  int breaker_trips = 0;
  int suppressed_retrains = 0;     ///< retrains the breaker suppressed
};

struct ServeStats {
  std::vector<ShardStats> shards;
  std::uint64_t total_steps = 0;
  int total_retrains = 0;
  int total_drift_events = 0;
  std::size_t shards_done = 0;
  // --- supervision ------------------------------------------------------
  std::size_t shards_quarantined = 0;
  int total_faults = 0;
  int total_breaker_trips = 0;
  int total_suppressed_retrains = 0;
  int snapshot_fallbacks = 0;  ///< shard rollbacks during the last restore
};

class FleetRuntime {
 public:
  /// The dataset and scale must outlive the runtime.  Shards sharing a KPI
  /// share one (const) Featurizer.
  FleetRuntime(const data::CellularDataset& ds, const Scale& scale,
               std::vector<ShardSpec> specs, std::uint64_t fleet_seed = 2024,
               SupervisorConfig supervisor = {});
  ~FleetRuntime();

  FleetRuntime(const FleetRuntime&) = delete;
  FleetRuntime& operator=(const FleetRuntime&) = delete;

  std::size_t num_shards() const { return shards_.size(); }
  /// True when every shard has either finished the dataset or been
  /// QUARANTINED (a quarantined shard will never progress again).
  bool done() const;
  std::uint64_t steps_run() const { return steps_run_; }

  /// Advances every unfinished shard by one evaluation step (one stride of
  /// days), in parallel over the leaf::par pool.  Lazily performs the
  /// initial fits on the first call.  A shard that throws is contained:
  /// marked FAULTED (eventually QUARANTINED) while the rest keep
  /// stepping.  Returns false when no shard can progress any further.
  bool step();

  /// Runs at most `n` steps (UINT64_MAX: to completion); stops early when
  /// done.  Returns the number of step() calls made.
  std::uint64_t run_steps(std::uint64_t n);

  /// Writes the next snapshot generation into SnapshotStore(dir)
  /// (versioned, checksummed; see io::SnapshotWriter), which prunes
  /// generations beyond supervisor().snapshot_keep.  Valid only at a step
  /// boundary, which is the only time the caller can observe the runtime
  /// anyway.  Returns the file size in bytes, or 0 when the write failed
  /// (the fleet keeps serving; the failure is logged and counted).
  std::uint64_t snapshot(const std::string& dir);

  /// Restores from the snapshot generations in `dir` into this runtime.
  /// The runtime must have been constructed with the same dataset, scale,
  /// specs, and fleet seed; a configuration mismatch, a dataset whose
  /// digest differs included, throws io::SnapshotError.  Damage in the
  /// newest generation (CRC mismatch, truncation, a training-row key that
  /// names no row) triggers per-shard fallback to the newest older
  /// generation whose section is intact — recorded as `snapshot_fallback`
  /// supervision events — and only when a shard has no readable section
  /// in any retained generation does the restore fail.  Everything is
  /// parsed before anything is committed: a failed restore leaves this
  /// runtime as it was.
  void restore(const std::string& dir);

  /// Finalized per-shard results (ne_p95 computed).  Call when done(), or
  /// mid-run for results-so-far.
  std::vector<core::EvalResult> results() const;

  ServeStats stats() const;

  /// Fleet-wide drift-event stream: per-shard logs merged with a stable
  /// (day, shard) sort — a pure function of the computation, bit-identical
  /// at any LEAF_THREADS and across a snapshot/restore cycle (shard logs
  /// are part of the snapshot).
  std::vector<obs::Event> merged_events() const;
  /// The merged stream as JSONL; with_timing=false omits the
  /// `elapsed_seconds` key (the form determinism checks compare).
  std::string events_jsonl(bool with_timing = true) const;

  /// Supervision event stream (shard faults, recoveries, quarantines,
  /// breaker transitions, snapshot fallbacks, telemetry-drift firings and
  /// SLO burn transitions), merged like merged_events().  Kept separate
  /// from the drift-event stream so the drift telemetry of a healthy shard
  /// is byte-identical whether or not *other* shards misbehaved.
  std::vector<obs::Event> supervision_events() const;
  std::string supervision_jsonl(bool with_timing = true) const;

  /// Prometheus text scrape: fleet-state-derived `leaf_fleet_*` series
  /// (deterministic and resume-safe, since they are recomputed from shard
  /// state) followed — when `include_process` — by the process-global
  /// registry scrape (spans, cache counters; process-lifetime values).
  std::string scrape(bool include_process = true) const;

  // --- telemetry store (leaf::tsdb) -------------------------------------

  /// The one telemetry tick: samples fleet state and the per-tick deltas
  /// of the leaf_net_* counters (every label set summed), records them in
  /// the embedded store, feeds the meta-drift recording rules, then — when
  /// armed — feeds the same sample, with the post-tick
  /// telemetry_drift_state(), to the SLO watchdog.  Both rate rules divide
  /// by predict requests only (type predict + batch_predict).  Called
  /// automatically at every step() boundary; the serving loop also calls
  /// it per idle tick once the fleet is done stepping so net-plane series
  /// keep flowing.  Timestamps are logical tick indices, never wall-clock.
  /// A chaos `tsdb-gap` decision skips the whole tick (store, rules and
  /// watchdog) but still advances it, leaving a deterministic gap.  No-op
  /// when observability is compiled out.
  void sample_telemetry();

  /// The embedded telemetry store.  Series derived from fleet state are
  /// deterministic (byte-identical at any LEAF_THREADS and across
  /// snapshot/restore); series sampled from the process-global registry
  /// (net-plane deltas, *_seconds*) are stored but excluded from
  /// Store::fingerprint().
  const tsdb::Store& telemetry() const { return tsdb_; }
  tsdb::Store& telemetry() { return tsdb_; }

  /// Number of recording rules currently in a fired (held) drift state —
  /// the value of the `leaf_telemetry_drift_state` gauge.
  int telemetry_drift_state() const {
    return meta_drift_.state(sample_tick_);
  }

  /// Logical sample tick (number of sample_telemetry() calls, snapshot-
  /// carried so resumed series continue seamlessly).
  std::uint64_t sample_tick() const { return sample_tick_; }

  /// The SLO burn-rate watchdog, or nullptr when supervisor().slo sets no
  /// threshold.  Process state like the net-delta baselines: never
  /// snapshotted, so a resumed process starts it fresh.
  const obs::SloWatchdog* slo_watchdog() const {
    return slo_ ? &*slo_ : nullptr;
  }

  // --- net-plane query surface (leaf::net) ------------------------------
  // Predictions are pure reads of a shard's current model: they never
  // mutate shard state, so serving queries between step() calls preserves
  // crash-equivalence bit-for-bit.  All three throw std::out_of_range on
  // a shard index outside the fleet.

  /// True when shard `i` holds a trained model and can answer predict
  /// requests (initialized, fitted, not quarantined; done shards keep
  /// serving their frozen model).
  bool shard_ready(std::size_t i) const;

  /// Feature-vector width shard `i` expects (its featurizer's columns).
  int shard_num_features(std::size_t i) const;

  /// Batch-predicts rows of X with shard `i`'s current model into `out`
  /// (out.size() must equal X.rows()).  Throws std::invalid_argument on a
  /// column-count mismatch and std::runtime_error when the shard is not
  /// ready.  Must not race a concurrent step(); the net plane calls it
  /// only between steps, from the thread driving the server.  Records
  /// the per-shard predict latency histogram and, when `spans` is set,
  /// opens a "shard-predict" child span in it around the model pass (the
  /// collector is caller-owned and shard-private, so this stays safe from
  /// the net pump's parallel phase).
  void predict_shard(std::size_t i, const Matrix& X, std::span<double> out,
                     obs::SpanCollector* spans = nullptr) const;

 private:
  struct Shard;

  void start();  // initial fits (idempotent)
  void step_shard(Shard& shard, std::uint64_t fleet_step);
  /// Records the per-tick net-plane deltas and their rate rules; returns
  /// them as the tick's SloSample (net fields only).
  obs::SloSample record_net_deltas(std::uint64_t tick);
  /// Fleet-average of each shard's most recent per-day NRMSE (the
  /// watchdog's nrmse-regression signal); NaN before any shard scored.
  double current_avg_nrmse() const;

  Scale scale_;
  std::uint64_t fleet_seed_;
  std::uint64_t dataset_digest_;  ///< of the dataset; checked on restore
  SupervisorConfig supervisor_;
  chaos::Engine chaos_;
  std::vector<std::unique_ptr<data::Featurizer>> featurizers_;  // one per KPI
  std::vector<std::unique_ptr<Shard>> shards_;
  bool started_ = false;
  std::uint64_t steps_run_ = 0;
  std::uint64_t snapshot_gen_ = 0;   ///< last generation written/restored
  int snapshot_fallbacks_ = 0;       ///< rollbacks in the last restore
  // --- telemetry store --------------------------------------------------
  tsdb::Store tsdb_;
  tsdb::MetaDrift meta_drift_;
  std::optional<obs::SloWatchdog> slo_;  ///< armed by supervisor_.slo
  std::uint64_t sample_tick_ = 0;
  /// Last seen totals of the process-lifetime net-plane counters, one per
  /// sampled counter plus the predict-request total (deltas since this
  /// runtime started / resumed).  Empty until the first tick.  Never
  /// snapshotted: a resumed process starts fresh deltas.
  std::vector<std::uint64_t> net_baselines_;
};

}  // namespace leaf::serve
