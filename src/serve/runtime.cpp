#include "serve/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <thread>
#include <utility>

#include "common/fnv.hpp"
#include "core/scheme.hpp"
#include "io/serializer.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "par/parallel.hpp"

namespace leaf::serve {

namespace {

/// Thrown when a snapshot's meta section parses cleanly but describes a
/// different fleet than this runtime — a configuration error, never
/// something generation fallback should paper over.
class FleetMismatch : public io::SnapshotError {
 public:
  using io::SnapshotError::SnapshotError;
};

/// Digest of everything a shard's snapshot indexes into: the schema
/// width, each profile's area, and every day's reporter list and KPI
/// values.  Shards rebuild their training rows from the restoring
/// dataset, so a snapshot must only restore onto the dataset it was taken
/// over.  One multiply-xorshift round per 64-bit word of the raw bytes;
/// days hash in parallel and combine in day order, so the digest is the
/// same at any thread count.
std::uint64_t dataset_digest(const data::CellularDataset& ds) {
  const auto mix = [](std::uint64_t& h, std::uint64_t w) {
    h = fnv1a_word(h, w);
    h ^= h >> 29;
  };
  const auto mix_bytes = [&mix](std::uint64_t& h, const void* data,
                                std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    mix(h, n);
    for (; n >= 8; p += 8, n -= 8) {
      std::uint64_t w;
      std::memcpy(&w, p, 8);
      mix(h, w);
    }
    std::uint64_t tail = 0;
    std::memcpy(&tail, p, n);
    mix(h, tail);
  };
  std::vector<std::uint64_t> days(static_cast<std::size_t>(ds.num_days()));
  par::parallel_for(days.size(), [&](std::size_t d) {
    std::uint64_t h = kFnvOffset;
    const int day = static_cast<int>(d);
    const std::span<const int> enbs = ds.enb_indices_on_day(day);
    mix_bytes(h, enbs.data(), enbs.size_bytes());
    for (int i = 0; i < static_cast<int>(enbs.size()); ++i) {
      const std::span<const float> kpis = ds.log_on_day(day, i);
      mix_bytes(h, kpis.data(), kpis.size_bytes());
    }
    days[d] = h;
  });
  std::uint64_t h = kFnvOffset;
  mix(h, static_cast<std::uint64_t>(ds.num_kpis()));
  for (const data::EnbProfile& p : ds.profiles())
    mix(h, static_cast<std::uint64_t>(p.area));
  mix_bytes(h, days.data(), days.size() * sizeof days[0]);
  return h;
}

}  // namespace

/// One shard = one (KPI, model family, scheme) pipeline: a core::Evaluation
/// (the same walk-forward loop core::run_scheme drives, so a shard's
/// EvalResult matches run_scheme exactly) plus the supervision state the
/// fleet keeps around it.
struct FleetRuntime::Shard {
  ShardSpec spec;
  int index = -1;  ///< position in the fleet; stamped on emitted events
  const data::Featurizer* featurizer = nullptr;
  double dispersion = 0.0;
  obs::EventLog events;  ///< single-writer: only this shard's step() emits
  core::EvalConfig cfg;
  std::unique_ptr<models::Regressor> prototype;
  std::unique_ptr<core::MitigationScheme> scheme;
  core::Evaluation eval;  ///< snapshotted
  bool initialized = false;  ///< snapshotted, like `supervisor`
  ShardSupervisor supervisor;

  Shard(ShardSpec s, int i, const data::Featurizer& f, double disp,
        const core::EvalConfig& c, const Scale& scale,
        const SupervisorConfig& sup)
      : spec(std::move(s)),
        index(i),
        featurizer(&f),
        dispersion(disp),
        cfg(with_shard_events(c, &events, i)),
        prototype(models::make_model(spec.model, scale, cfg.seed)),
        scheme(core::make_scheme(spec.scheme, dispersion, cfg.seed ^ 0x99)),
        eval(*featurizer, *prototype, *scheme, cfg,
             obs::MetricsRegistry::global().span_site("serve.init_fit"),
             obs::MetricsRegistry::global().span_site("serve.retrain_fit")),
        supervisor(sup.recovery, sup.breaker,
                   {obs::EventKind{}, -1, i, data::to_string(spec.kpi),
                    prototype->name(), scheme->name(), "", 0.0}) {}

  static core::EvalConfig with_shard_events(core::EvalConfig c,
                                            obs::EventLog* log, int i) {
    c.events = log;
    c.obs_shard = i;
    return c;
  }

  void save(io::Serializer& out) const {
    // Supervision state leads, so even a shard that never initialized
    // (init threw, quarantined) snapshots cleanly.
    out.put_bool(initialized);
    supervisor.save(out);
    if (!initialized) return;
    eval.save(out);
    // The shard's event log rides along, so a resumed run's merged event
    // stream is identical to an uninterrupted one.
    events.save(out);
  }

  /// Reads what save() wrote into this shard, which restore builds fresh
  /// so that a snapshot that fails to parse never touches the fleet.
  void load(io::Deserializer& in) {
    initialized = in.get_bool();
    supervisor.load(in);
    if (!initialized) {
      if (!supervisor.quarantined())
        throw io::SnapshotError(
            "shard snapshotted uninitialized but not quarantined");
    } else {
      eval.load(in);
      events.load(in);
    }
    if (!in.exhausted())
      throw io::SnapshotError("trailing bytes after shard state");
  }
};

FleetRuntime::FleetRuntime(const data::CellularDataset& ds, const Scale& scale,
                           std::vector<ShardSpec> specs,
                           std::uint64_t fleet_seed,
                           SupervisorConfig supervisor)
    : scale_(scale), fleet_seed_(fleet_seed),
      dataset_digest_(dataset_digest(ds)),
      supervisor_(std::move(supervisor)), chaos_(supervisor_.chaos) {
  if (specs.empty())
    throw std::invalid_argument("FleetRuntime: at least one shard required");
  if (supervisor_.snapshot_keep < 1)
    throw std::invalid_argument("FleetRuntime: snapshot_keep must be >= 1");
  if (supervisor_.slo.any()) slo_.emplace(supervisor_.slo);

  // One featurizer (and dispersion) per distinct KPI, shared read-only by
  // the shards forecasting it.
  std::map<data::TargetKpi, std::pair<const data::Featurizer*, double>> by_kpi;
  for (const ShardSpec& spec : specs) {
    if (by_kpi.count(spec.kpi)) continue;
    featurizers_.push_back(std::make_unique<data::Featurizer>(ds, spec.kpi));
    by_kpi[spec.kpi] = {featurizers_.back().get(),
                        core::kpi_dispersion(ds, spec.kpi)};
  }

  // Per-shard seeds: explicit when given, otherwise a counter-based
  // substream of the fleet seed — order-independent, so the derivation is
  // identical no matter how shards are scheduled.
  const Rng fleet_rng(fleet_seed_);
  shards_.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ShardSpec& spec = specs[i];
    std::uint64_t seed = spec.seed;
    if (seed == 0) seed = fleet_rng.substream(i)();
    const auto [featurizer, dispersion] = by_kpi[spec.kpi];
    core::EvalConfig cfg = core::make_eval_config(scale_, seed);
    shards_.push_back(std::make_unique<Shard>(spec, static_cast<int>(i),
                                              *featurizer, dispersion, cfg,
                                              scale_, supervisor_));
  }
}

FleetRuntime::~FleetRuntime() = default;

bool FleetRuntime::done() const {
  for (const auto& s : shards_)
    if (!s->eval.done() && !s->supervisor.quarantined())
      return false;
  return true;
}

void FleetRuntime::start() {
  if (started_) return;
  started_ = true;
  par::parallel_for(shards_.size(), [&](std::size_t i) {
    Shard& shard = *shards_[i];
    try {
      shard.eval.init();
      shard.initialized = true;
    } catch (const std::exception& e) {
      shard.supervisor.on_failure(0, shard.eval.next_day(), e.what(),
                                  /*init=*/true);
    }
  });
}

void FleetRuntime::step_shard(Shard& shard, std::uint64_t fleet_step) {
  if (shard.eval.done() || !shard.initialized ||
      !shard.supervisor.due(fleet_step))
    return;
  try {
    bool storm = false;
    if (chaos_.enabled()) {
      if (chaos_.slow_step(shard.index, fleet_step))
        std::this_thread::sleep_for(
            std::chrono::milliseconds(chaos_.config().slow_ms));
      if (chaos_.throw_step(shard.index, fleet_step))
        throw chaos::Fault("injected step fault (shard " +
                           std::to_string(shard.index) + ", fleet step " +
                           std::to_string(fleet_step) + ")");
      storm = chaos_.retrain_storm(shard.index, fleet_step);
    }
    {
      // Every retrain request, the chaos storm's included, passes the
      // circuit breaker first.
      LEAF_SPAN("serve.step");
      const obs::Stopwatch sw;
      shard.eval.step(
          [&shard](int day) { return shard.supervisor.allow_retrain(day); },
          storm);
      obs::MetricsRegistry::global()
          .latency("leaf_shard_step_seconds",
                   obs::label("shard", std::to_string(shard.index)))
          .observe(sw.seconds());
    }
    shard.supervisor.on_success(fleet_step, shard.eval.next_day());
  } catch (const std::exception& e) {
    shard.supervisor.on_failure(fleet_step, shard.eval.next_day(), e.what());
  }
}

bool FleetRuntime::step() {
  start();
  if (done()) return false;
  const std::uint64_t fleet_step = steps_run_;
  par::parallel_for(shards_.size(),
                    [&](std::size_t i) { step_shard(*shards_[i], fleet_step); });
  ++steps_run_;
  // Serial epilogue: sample fleet telemetry into the embedded store.  The
  // parallel phase is over, so the sample is a pure function of the
  // post-step fleet state — bit-identical at any LEAF_THREADS.
  sample_telemetry();
  return !done();
}

obs::SloSample FleetRuntime::record_net_deltas(std::uint64_t tick) {
  // Net-plane counters are process-lifetime registry state, so their
  // per-tick deltas depend on process history (a resumed process restarts
  // the baselines): stored for operators, excluded from fingerprint().
  // Each total sums every label set (ServerCore labels requests and
  // responses by type, errors by code).
  static constexpr const char* kNetCounters[] = {
      "leaf_net_requests_total",  "leaf_net_responses_total",
      "leaf_net_sheds_total",     "leaf_net_retries_total",
      "leaf_net_errors_total",    "leaf_net_malformed_frames_total",
  };
  constexpr std::size_t kSheds = 2, kRetries = 3;
  // The slot after kNetCounters is the rate rules' denominator: predict
  // requests only (type="predict" and type="batch_predict").
  constexpr std::size_t kPredicts = std::size(kNetCounters);
  const obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  std::uint64_t deltas[kPredicts + 1];
  for (std::size_t i = 0; i <= kPredicts; ++i) {
    const std::uint64_t total =
        i < kPredicts ? reg.counter_sum(kNetCounters[i])
                      : reg.counter_sum("leaf_net_requests_total", "predict\"");
    if (net_baselines_.size() <= i) net_baselines_.push_back(total);
    // A total below its baseline means the registry was reset: the whole
    // current value is this tick's delta.
    deltas[i] = total >= net_baselines_[i] ? total - net_baselines_[i] : total;
    net_baselines_[i] = total;
    if (i < kPredicts)
      tsdb_.record(std::string(kNetCounters[i]) + "_per_tick", "", tick,
                   static_cast<double>(deltas[i]), /*deterministic=*/false);
  }

  // Recording rules: deadline-miss and shed rates per tick.  Sheds fire
  // exactly when a request's deadline lapsed in queue, so the shed delta
  // *is* the deadline-miss count; the shed rate also folds in RETRYs.
  obs::SloSample s;
  s.requests = deltas[kPredicts];
  s.deadline_misses = deltas[kSheds];
  s.sheds = deltas[kSheds];
  s.retries = deltas[kRetries];
  const double denom =
      static_cast<double>(std::max<std::uint64_t>(s.requests, 1));
  const double miss_rate = static_cast<double>(s.deadline_misses) / denom;
  const double shed_rate = static_cast<double>(s.sheds + s.retries) / denom;
  tsdb_.record("leaf_rule_deadline_miss_rate", "", tick, miss_rate,
               /*deterministic=*/false);
  tsdb_.record("leaf_rule_shed_rate", "", tick, shed_rate,
               /*deterministic=*/false);
  meta_drift_.observe("deadline_miss_rate", -1, tick, miss_rate);
  meta_drift_.observe("shed_rate", -1, tick, shed_rate);
  return s;
}

void FleetRuntime::sample_telemetry() {
  if constexpr (!obs::kCompiledIn) return;
  const std::uint64_t tick = sample_tick_++;
  // A chaos tsdb-gap skips the sample but the tick still advanced, so the
  // gap is visible (and deterministic) in every stored series.
  if (chaos_.enabled() && chaos_.tsdb_gap(tick)) return;

  // Deterministic series: pure functions of shard state, resume-safe.
  std::uint64_t quarantined = 0;
  double faults = 0.0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = *shards_[i];
    const core::EvalResult& result = s.eval.result();
    const std::string labels = obs::label("shard", std::to_string(i));
    if (!result.nrmse.empty()) {
      const double nrmse = result.nrmse.back();
      tsdb_.record("leaf_fleet_shard_nrmse", labels, tick, nrmse);
      meta_drift_.observe("shard" + std::to_string(i) + "_nrmse",
                          static_cast<int>(i), tick, nrmse);
    }
    tsdb_.record("leaf_fleet_shard_health", labels, tick,
                 static_cast<double>(s.supervisor.health()));
    tsdb_.record("leaf_fleet_shard_retrains", labels, tick,
                 static_cast<double>(result.retrain_count()));
    tsdb_.record("leaf_fleet_shard_drift_events", labels, tick,
                 static_cast<double>(result.drift_days.size()));
    tsdb_.record("leaf_fleet_shard_days_evaluated", labels, tick,
                 static_cast<double>(result.days.size()));
    if (s.supervisor.quarantined()) ++quarantined;
    faults += static_cast<double>(s.supervisor.total_failures());
  }
  const double avg_nrmse = current_avg_nrmse();
  tsdb_.record("leaf_fleet_steps", "", tick,
               static_cast<double>(steps_run_));
  tsdb_.record("leaf_fleet_avg_nrmse", "", tick, avg_nrmse);
  tsdb_.record("leaf_fleet_shards_quarantined", "", tick,
               static_cast<double>(quarantined));
  tsdb_.record("leaf_fleet_faults", "", tick, faults);
  const double qrate = static_cast<double>(quarantined) /
                       static_cast<double>(shards_.size());
  tsdb_.record("leaf_rule_quarantine_rate", "", tick, qrate);
  meta_drift_.observe("quarantine_rate", -1, tick, qrate);

  // Volatile net-plane deltas + their recording rules, completed into the
  // tick's one sample.
  obs::SloSample sample = record_net_deltas(tick);
  sample.shards = shards_.size();
  sample.quarantined = quarantined;
  sample.telemetry_drift =
      static_cast<std::uint64_t>(telemetry_drift_state());
  sample.nrmse = avg_nrmse;

  obs::MetricsRegistry::global()
      .gauge("leaf_telemetry_drift_state")
      .set(static_cast<double>(sample.telemetry_drift));
  if (slo_) slo_->observe(sample);
}

std::uint64_t FleetRuntime::run_steps(std::uint64_t n) {
  std::uint64_t ran = 0;
  start();
  for (; ran < n && !done(); ++ran) step();
  return ran;
}

std::uint64_t FleetRuntime::snapshot(const std::string& dir) {
  if (!started_)
    throw io::SnapshotError("cannot snapshot before the fleet has started");
  static obs::Counter& failures_ctr =
      obs::MetricsRegistry::global().counter("leaf_snapshot_failures_total");
  io::SnapshotWriter writer;

  io::Serializer& meta = writer.section("meta");
  meta.put_u64(fleet_seed_);
  meta.put_u64(dataset_digest_);
  meta.put_u64(steps_run_);
  meta.put_u64(shards_.size());
  for (const auto& shard : shards_) {
    meta.put_string(data::to_string(shard->spec.kpi));
    meta.put_string(models::to_string(shard->spec.model));
    meta.put_string(shard->spec.scheme);
    meta.put_u64(shard->cfg.seed);
  }

  for (std::size_t i = 0; i < shards_.size(); ++i)
    shards_[i]->save(writer.section("shard" + std::to_string(i)));

  // The telemetry store + meta-drift detector state ride along, so a
  // resumed run's stored series and detection trajectory continue
  // byte-identically.
  io::Serializer& ts = writer.section("tsdb");
  ts.put_u64(sample_tick_);
  tsdb_.save(ts);
  meta_drift_.save(ts);

  // Generation counter advances even when the write fails (an unwritable
  // directory included): the failed generation number is burned, like a
  // crashed deployment's would be.
  const std::uint64_t gen = ++snapshot_gen_;

  std::vector<std::uint8_t> bytes = writer.encode();
  if (chaos_.enabled() && chaos_.corrupt_snapshot(gen)) {
    const int target =
        chaos_.corrupt_target(shards_.size(), gen);
    const auto [offset, length] = io::SnapshotReader(bytes).payload_range(
        "shard" + std::to_string(target));
    if (length > 0) {
      bytes[offset + length / 2] ^= 0x01;
      LEAF_LOG_WARN("serve: chaos corrupted shard %d in snapshot gen %llu",
                    target, static_cast<unsigned long long>(gen));
    }
  }

  const obs::Stopwatch sw;
  std::uint64_t written = 0;
  try {
    std::optional<io::ScopedWriteFault> fault;
    if (chaos_.enabled() && chaos_.partial_write(gen))
      fault.emplace(bytes.size() / 2);
    written = SnapshotStore(dir, static_cast<std::size_t>(
                                     supervisor_.snapshot_keep))
                  .write(gen, bytes);
  } catch (const io::SnapshotError& e) {
    // A failed snapshot must not take the fleet down: serving continues on
    // the previous generations.
    failures_ctr.inc();
    LEAF_LOG_ERROR("serve: snapshot gen %llu failed: %s",
                   static_cast<unsigned long long>(gen), e.what());
    return 0;
  }

  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.counter("leaf_snapshots_total").inc();
  reg.latency("leaf_snapshot_seconds").observe(sw.seconds());
  reg.gauge("leaf_snapshot_bytes").set(static_cast<double>(written));
  // Operational message: deliberately NOT an event-log entry, or a resumed
  // run's event stream could never match an uninterrupted one.
  LEAF_LOG_INFO("serve: snapshot gen %llu at step %llu -> %s (%llu bytes)",
                static_cast<unsigned long long>(gen),
                static_cast<unsigned long long>(steps_run_), dir.c_str(),
                static_cast<unsigned long long>(written));
  return written;
}

void FleetRuntime::restore(const std::string& dir) {
  // Walk generations newest-first.  The newest generation with a valid,
  // matching meta section anchors steps_run; each shard restores from the
  // newest generation whose section parses, falling back per shard.
  std::vector<std::unique_ptr<Shard>> restored(shards_.size());
  int fallbacks = 0;
  std::uint64_t anchor_gen = 0;  // generations are numbered from 1
  std::uint64_t steps_run = 0;
  bool tsdb_ok = false;
  tsdb::Store restored_store;
  tsdb::MetaDrift restored_md;
  std::uint64_t restored_tick = 0;
  std::string first_error;
  std::size_t remaining = shards_.size();
  const auto note_error = [&first_error](const std::string& what) {
    if (first_error.empty()) first_error = what;
  };

  const auto visit = [&](std::uint64_t gen, const io::SnapshotReader& reader) {
    std::uint64_t gen_steps = 0;
    try {
      io::Deserializer meta = reader.section("meta");
      if (meta.get_u64() != fleet_seed_)
        throw FleetMismatch(
            "fleet seed mismatch between snapshot and runtime");
      if (meta.get_u64() != dataset_digest_)
        throw FleetMismatch(
            "dataset digest mismatch between snapshot and runtime (the "
            "snapshot was taken over a different dataset)");
      gen_steps = meta.get_u64();
      if (meta.get_u64() != shards_.size())
        throw FleetMismatch(
            "shard count mismatch between snapshot and runtime");
      for (const auto& shard : shards_) {
        const std::string kpi = meta.get_string();
        const std::string model = meta.get_string();
        const std::string scheme = meta.get_string();
        const std::uint64_t seed = meta.get_u64();
        if (kpi != data::to_string(shard->spec.kpi) ||
            model != models::to_string(shard->spec.model) ||
            scheme != shard->spec.scheme || seed != shard->cfg.seed)
          throw FleetMismatch(
              "shard configuration mismatch between snapshot and runtime "
              "(snapshot: " + kpi + "/" + model + "/" + scheme + ")");
      }
    } catch (const FleetMismatch&) {
      throw;  // a *different* fleet is never something fallback repairs
    } catch (const io::SnapshotError& e) {
      note_error(e.what());  // damaged meta: this generation is unusable
      return true;
    }
    if (anchor_gen == 0) {
      anchor_gen = gen;
      steps_run = gen_steps;
      // Telemetry rides with the anchor generation only (mixing store
      // history across generations would fabricate a timeline no run
      // produced).  A damaged "tsdb" section is demoted by the lenient
      // reader and restores as an empty store — telemetry loss is never
      // fatal to the fleet.
      if (reader.has("tsdb")) {
        try {
          io::Deserializer ts = reader.section("tsdb");
          restored_tick = ts.get_u64();
          restored_store.load(ts);
          restored_md.load(ts);
          tsdb_ok = true;
        } catch (const io::SnapshotError& e) {
          note_error(std::string("tsdb section: ") + e.what());
        }
      }
    }
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (restored[i]) continue;
      try {
        io::Deserializer in = reader.section("shard" + std::to_string(i));
        const Shard& s = *shards_[i];
        auto fresh = std::make_unique<Shard>(s.spec, s.index, *s.featurizer,
                                             s.dispersion, s.cfg, scale_,
                                             supervisor_);
        fresh->load(in);
        if (gen != anchor_gen) {
          ++fallbacks;
          fresh->supervisor.emit(obs::EventKind::kSnapshotFallback, -1,
                                 "gen=" + std::to_string(gen) +
                                     ",newest=" + std::to_string(anchor_gen));
        }
        restored[i] = std::move(fresh);
        --remaining;
      } catch (const io::SnapshotError& e) {
        note_error("shard " + std::to_string(i) + " gen " +
                   std::to_string(gen) + ": " + e.what());
      }
    }
    return remaining > 0;
  };
  const std::uint64_t newest = SnapshotStore(dir).walk(visit, note_error);

  if (anchor_gen == 0)
    throw io::SnapshotError("no readable snapshot generation in '" + dir +
                            "' (" + first_error + ")");
  if (remaining > 0) {
    std::string missing;
    for (std::size_t i = 0; i < shards_.size(); ++i)
      if (!restored[i])
        missing.append(missing.empty() ? "" : ",").append(std::to_string(i));
    throw io::SnapshotError("shard(s) " + missing +
                            " unreadable in every retained generation (" +
                            first_error + ")");
  }

  // Only a fully restorable fleet mutates the runtime.
  shards_ = std::move(restored);
  steps_run_ = steps_run;
  started_ = true;
  snapshot_gen_ = newest;
  if (tsdb_ok) {
    tsdb_ = std::move(restored_store);
    meta_drift_ = std::move(restored_md);
    sample_tick_ = restored_tick;
  } else {
    tsdb_.clear();
    meta_drift_.clear();
    sample_tick_ = steps_run_;  // ticks re-anchor to the step boundary
  }
  // Net-delta baselines are process state, never snapshot state: a
  // resumed process restarts them at the current counter values.  The
  // SLO watchdog is process state too and simply keeps its window.
  net_baselines_.clear();

  snapshot_fallbacks_ = fallbacks;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  if (fallbacks > 0) {
    reg.counter("leaf_snapshot_fallbacks_total")
        .inc(static_cast<std::uint64_t>(fallbacks));
    LEAF_LOG_WARN("serve: %d shard(s) fell back to older snapshot "
                  "generations (newest %llu damaged)",
                  fallbacks, static_cast<unsigned long long>(anchor_gen));
  }
  reg.counter("leaf_restores_total").inc();
  LEAF_LOG_INFO("serve: restored %zu shards at step %llu from %s (gen %llu)",
                shards_.size(), static_cast<unsigned long long>(steps_run_),
                dir.c_str(), static_cast<unsigned long long>(anchor_gen));
}

std::vector<core::EvalResult> FleetRuntime::results() const {
  std::vector<core::EvalResult> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_)
    out.push_back(shard->eval.finalized_result());
  return out;
}

ServeStats FleetRuntime::stats() const {
  ServeStats stats;
  stats.total_steps = steps_run_;
  stats.snapshot_fallbacks = snapshot_fallbacks_;
  for (const auto& shard : shards_) {
    ShardStats s;
    s.kpi = data::to_string(shard->spec.kpi);
    s.model = shard->prototype->name();
    s.scheme = shard->scheme->name();
    const core::EvalResult& result = shard->eval.result();
    s.steps = shard->eval.steps();
    s.days_evaluated = static_cast<int>(result.days.size());
    s.retrains = result.retrain_count();
    s.drift_events = static_cast<int>(result.drift_days.size());
    s.days_skipped = result.degraded.days_skipped;
    s.nonfinite_errors = result.degraded.nonfinite_errors;
    s.next_day = shard->eval.next_day();
    s.done = shard->eval.done();
    shard->supervisor.fill(s);
    s.suppressed_retrains = result.degraded.suppressed_retrains;
    stats.total_retrains += s.retrains;
    stats.total_drift_events += s.drift_events;
    stats.total_faults += s.faults;
    stats.total_breaker_trips += s.breaker_trips;
    stats.total_suppressed_retrains += s.suppressed_retrains;
    if (s.done) ++stats.shards_done;
    if (s.health == ShardHealth::kQuarantined) ++stats.shards_quarantined;
    stats.shards.push_back(std::move(s));
  }
  return stats;
}

bool FleetRuntime::shard_ready(std::size_t i) const {
  const Shard& shard = *shards_.at(i);
  return shard.initialized && !shard.supervisor.quarantined() &&
         shard.eval.ready();
}

int FleetRuntime::shard_num_features(std::size_t i) const {
  return shards_.at(i)->featurizer->num_features();
}

void FleetRuntime::predict_shard(std::size_t i, const Matrix& X,
                                 std::span<double> out,
                                 obs::SpanCollector* spans) const {
  std::size_t span = 0;
  if (spans != nullptr) {
    span = spans->begin("shard-predict", static_cast<int>(i) + 1);
    spans->annotate(span, "\"shard\": " + std::to_string(i) +
                              ", \"rows\": " + std::to_string(X.rows()));
  }
  const obs::Stopwatch sw;
  const Shard& shard = *shards_.at(i);
  if (!shard_ready(i))
    throw std::runtime_error("serve: shard " + std::to_string(i) +
                             " is not ready to serve predictions (" +
                             to_string(shard.supervisor.health()) + ")");
  if (static_cast<int>(X.cols()) != shard.featurizer->num_features())
    throw std::invalid_argument(
        "serve: predict expects " +
        std::to_string(shard.featurizer->num_features()) +
        " features, got " + std::to_string(X.cols()));
  if (out.size() != X.rows())
    throw std::invalid_argument("serve: predict output size mismatch");
  shard.eval.predict(X, out);
  obs::MetricsRegistry::global()
      .latency("leaf_shard_predict_seconds",
               obs::label("shard", std::to_string(i)))
      .observe(sw.seconds());
  if (spans != nullptr) spans->end(span);
}

double FleetRuntime::current_avg_nrmse() const {
  double acc = 0.0;
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    const std::vector<double>& nrmse = shard->eval.result().nrmse;
    if (nrmse.empty()) continue;
    const double err = nrmse.back();
    if (!std::isfinite(err)) continue;
    acc += err;
    ++n;
  }
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  return acc / static_cast<double>(n);
}

std::vector<obs::Event> FleetRuntime::merged_events() const {
  std::vector<const obs::EventLog*> logs;
  logs.reserve(shards_.size());
  for (const auto& shard : shards_) logs.push_back(&shard->events);
  return obs::EventLog::merge(logs);
}

std::string FleetRuntime::events_jsonl(bool with_timing) const {
  return obs::EventLog::to_jsonl(merged_events(), with_timing);
}

std::vector<obs::Event> FleetRuntime::supervision_events() const {
  std::vector<const obs::EventLog*> logs;
  logs.reserve(shards_.size() + 2);
  for (const auto& shard : shards_) logs.push_back(&shard->supervisor.events());
  logs.push_back(&meta_drift_.events());
  if (slo_) logs.push_back(&slo_->events());
  return obs::EventLog::merge(logs);
}

std::string FleetRuntime::supervision_jsonl(bool with_timing) const {
  return obs::EventLog::to_jsonl(supervision_events(), with_timing);
}

std::string FleetRuntime::scrape(bool include_process) const {
  // Fleet-state-derived series: recomputed from shard state on every call,
  // so they are deterministic across LEAF_THREADS *and* across a
  // SIGKILL + restore cycle (unlike process-global registry counters,
  // which are process-lifetime).
  const ServeStats st = stats();
  std::string out;
  const auto gauge = [&out](const char* name) {
    out += std::string("# TYPE ") + name + " gauge\n";
  };
  const auto per_shard = [&](const char* name, auto get) {
    gauge(name);
    for (std::size_t i = 0; i < st.shards.size(); ++i) {
      const ShardStats& s = st.shards[i];
      out += std::string(name) + "{" + obs::label("shard", std::to_string(i)) +
             "," + obs::label("kpi", s.kpi) + "," +
             obs::label("model", s.model) + "," +
             obs::label("scheme", s.scheme) + "} " +
             std::to_string(static_cast<long long>(get(s))) + "\n";
    }
  };
  using S = const ShardStats&;
  per_shard("leaf_fleet_shard_steps", [](S s) { return s.steps; });
  per_shard("leaf_fleet_shard_days_evaluated",
            [](S s) { return s.days_evaluated; });
  per_shard("leaf_fleet_shard_retrains", [](S s) { return s.retrains; });
  per_shard("leaf_fleet_shard_drift_events",
            [](S s) { return s.drift_events; });
  per_shard("leaf_fleet_shard_days_skipped",
            [](S s) { return s.days_skipped; });
  per_shard("leaf_fleet_shard_done", [](S s) { return s.done; });
  per_shard("leaf_fleet_shard_health", [](S s) { return s.health; });
  per_shard("leaf_fleet_shard_faults", [](S s) { return s.faults; });
  per_shard("leaf_fleet_shard_suppressed_retrains",
            [](S s) { return s.suppressed_retrains; });
  per_shard("leaf_fleet_shard_breaker_open",
            [](S s) { return s.breaker_state == "open"; });
  const auto total = [&](const char* name, long long v) {
    gauge(name);
    out += std::string(name) + " " + std::to_string(v) + "\n";
  };
  total("leaf_fleet_steps", static_cast<long long>(st.total_steps));
  total("leaf_fleet_shards", static_cast<long long>(st.shards.size()));
  total("leaf_fleet_shards_done", static_cast<long long>(st.shards_done));
  total("leaf_fleet_shards_quarantined",
        static_cast<long long>(st.shards_quarantined));
  total("leaf_fleet_retrains", st.total_retrains);
  total("leaf_fleet_drift_events", st.total_drift_events);
  total("leaf_fleet_faults", st.total_faults);
  total("leaf_fleet_breaker_trips", st.total_breaker_trips);
  total("leaf_fleet_suppressed_retrains", st.total_suppressed_retrains);
  total("leaf_fleet_snapshot_fallbacks", st.snapshot_fallbacks);
  if (include_process) out += obs::MetricsRegistry::global().scrape();
  return out;
}

}  // namespace leaf::serve
