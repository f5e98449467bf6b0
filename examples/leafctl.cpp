// leafctl — command-line driver for the LEAF library.
//
// Classic mode runs one (dataset, KPI, model, scheme) evaluation and
// prints the summary plus, optionally, the full NRMSE time-series as CSV.
// Useful for scripting sweeps beyond the canned benches.
//
//   leafctl [--dataset fixed|evolving] [--kpi DVol|PU|DTP|REst|CDR|GDR]
//           [--model GBDT|LightGBDT|RandomForest|ExtraTrees|KNeighbors|
//                    LSTM|Ridge]
//           [--scheme Static|Naive<N>|Triggered|LEAF|LEAF<k>|
//                     PairedLearners|AUE2]
//           [--seed N] [--stride N] [--train-window N] [--horizon N]
//           [--csv out.csv] [--threads N] [--snapshot-dir DIR] [--list]
//
// Serve mode drives a sharded fleet (leaf::serve) with periodic
// snapshots and crash recovery:
//
//   leafctl serve [--dataset fixed|evolving] [--kpis DVol,PU,...|all]
//                 [--model MODEL] [--scheme SCHEME] [--shards N]
//                 [--seed N] [--threads N]
//                 [--snapshot-every K] [--snapshot-dir DIR] [--resume]
//                 [--snapshot-keep K] [--max-shard-retries N]
//                 [--breaker-max-retrains N] [--breaker-window DAYS]
//                 [--breaker-cooldown DAYS] [--chaos SPEC]
//                 [--listen HOST:PORT] [--serve-requests N]
//                 [--net-queue-depth N] [--net-max-batch N]
//                 [--net-deadline-ms N] [--trace-out FILE]
//                 [--trace-sample-every N] [--slo SPEC]
//
// `--listen` additionally runs the leaf::net RPC front end on the same
// thread as the fleet: the socket event loop is polled between fleet
// steps, and once the fleet completes the process keeps serving queries
// against the finished models (forever, or until `--serve-requests N`
// responses have been sent — the CI smoke's termination condition).
//
// `--trace-out FILE` (requires --listen) records every sampled RPC's
// span tree — request → decode / admission / batch / shard-predict /
// respond — as a Chrome trace-event JSON file (load it in
// chrome://tracing or Perfetto).  `--trace-sample-every N` keeps every
// N-th trace id (deterministic: the decision is a pure function of the
// id, never of wall clock).  `--slo SPEC` arms the fleet's burn-rate
// watchdog (obs/slo.hpp spec grammar, e.g. "window=8,deadline-miss=0.3"):
// the fleet's telemetry tick — every step, then every idle poll once the
// fleet is done — feeds it one sample of serving-plane counter deltas,
// and state transitions emit slo-burn-warning / slo-burn-critical /
// slo-recovered supervision events and trip the leaf_slo_state gauge.
// With -DLEAF_OBS=OFF there is no telemetry tick, so `--slo` does nothing.
//
// Query mode is the matching client:
//
//   leafctl query --connect HOST:PORT [--status] [--metrics [--json]]
//                 [--slo]
//                 [--series NAME [--labels SUBSTR] [--from N] [--to N]
//                  [--resolution raw|10|100] [--max-series N]]
//                 [--predict --shard N [--rows K] [--deadline-ms N]
//                  [--seed N]]
//
// `--metrics` prints the server's scrape verbatim: Prometheus text by
// default, the full JSON registry dump with `--json`.  `--slo` prints
// the SLO slice only — the leaf_slo_state gauge and the latency summary
// quantile lines (leaf_rpc_latency_seconds and friends).  `--series`
// range-queries the server's embedded telemetry store (leaf::tsdb) —
// NAME is exact or a trailing-'*' prefix, steps are logical fleet-step
// indices, and `--resolution 10|100` returns the downsampled
// mean/min/max/count tiers instead of raw points.
//
// Top mode is a live fleet view — a periodic poll of status + scrape +
// telemetry series over one connection:
//
//   leafctl top --connect HOST:PORT [--interval-ms N] [--iterations N]
//
// Each refresh prints fleet progress, per-shard health, throughput and
// shed/deadline-miss deltas, the p99 RPC latency quantiles, the SLO and
// telemetry-drift gauges, and sparkline trends of the recording-rule
// series.  `--iterations N` stops after N refreshes (the CI smoke runs
// one); the default polls until killed.
//
// `--events-out FILE` (classic and serve modes) writes the drift-event
// JSONL; `--events-max-mb N` caps it with size-based rotation (newest
// tail in FILE, older chunks in FILE.1 / FILE.2, oldest lines dropped).
//
// `--resume` with an empty or missing snapshot directory starts fresh
// with a warning; genuinely malformed on-disk state exits with code 2.
// `--chaos` (or the LEAF_CHAOS environment variable) enables the seeded
// fault-injection schedule of leaf::chaos; see chaos/chaos.hpp for the
// spec grammar.
//
// Unknown flags are rejected with usage() and exit code 2 in all modes.
// The LEAF_SCALE environment variable controls dataset size as usual.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "chaos/chaos.hpp"
#include "common/calendar.hpp"
#include "common/csv.hpp"
#include "common/rng.hpp"
#include "common/spec.hpp"
#include "core/experiment.hpp"
#include "data/generator.hpp"
#include "models/factory.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/tcp.hpp"
#include "obs/events.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "par/parallel.hpp"
#include "serve/runtime.hpp"

using namespace leaf;

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--dataset fixed|evolving] [--kpi KPI] "
               "[--model MODEL] [--scheme SCHEME] [--seed N] [--stride N] "
               "[--train-window N] [--horizon N] [--csv FILE] [--threads N] "
               "[--snapshot-dir DIR] [--metrics-out FILE] [--events-out FILE] "
               "[--events-max-mb N] [--list]\n"
               "       %s serve [--dataset fixed|evolving] [--kpis A,B|all] "
               "[--model MODEL] [--scheme SCHEME] [--shards N] [--seed N] "
               "[--threads N] [--snapshot-every K] [--snapshot-dir DIR] "
               "[--resume] [--snapshot-keep K] [--max-shard-retries N] "
               "[--breaker-max-retrains N] [--breaker-window DAYS] "
               "[--breaker-cooldown DAYS] [--chaos SPEC] "
               "[--metrics-out FILE] [--events-out FILE] "
               "[--events-max-mb N] "
               "[--summary-every N] [--listen HOST:PORT] "
               "[--serve-requests N] [--net-queue-depth N] "
               "[--net-max-batch N] [--net-deadline-ms N] "
               "[--trace-out FILE] [--trace-sample-every N] [--slo SPEC]\n"
               "       %s query --connect HOST:PORT [--status] "
               "[--metrics [--json]] [--slo] [--series NAME "
               "[--labels SUBSTR] [--from N] [--to N] "
               "[--resolution raw|10|100] [--max-series N]] "
               "[--predict --shard N "
               "[--rows K] [--deadline-ms N] [--seed N]]\n"
               "       %s top --connect HOST:PORT [--interval-ms N] "
               "[--iterations N]\n"
               "flags: --metrics-out writes a Prometheus text scrape "
               "(.json suffix: JSON); --events-out writes the drift-event "
               "JSONL (--events-max-mb N rotates it across FILE FILE.1 "
               "FILE.2); --listen serves the leaf::net RPC protocol; "
               "--trace-out records Chrome trace-event spans for sampled "
               "RPCs (--trace-sample-every N keeps every N-th trace); "
               "--slo SPEC arms the burn-rate watchdog (serve) / prints "
               "the SLO scrape slice (query); query --series queries the "
               "embedded telemetry store; query --metrics --json "
               "dumps the full JSON registry; top polls a live fleet "
               "view every --interval-ms; "
               "LEAF_LOG_LEVEL=error|warn|info|debug controls stderr "
               "verbosity\n",
               argv0, argv0, argv0, argv0);
}

/// Writes `content` to `path`; false (with an error log) on failure.
bool write_text_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    LEAF_LOG_ERROR("cannot write '%s'", path.c_str());
    return false;
  }
  const bool ok =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  std::fclose(f);
  if (!ok) LEAF_LOG_ERROR("short write to '%s'", path.c_str());
  return ok;
}

bool wants_json(const std::string& path) {
  return path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
}

/// Writes the drift-event JSONL, size-capped when `max_mb` > 0 (rotation
/// across path / path.1 / path.2).  False (with an error log) on failure.
bool write_events(const std::string& path,
                  const std::vector<obs::Event>& events,
                  std::uint64_t max_mb) {
  try {
    obs::EventLog::write_jsonl_rotated(path, events, /*with_timing=*/true,
                                       max_mb * 1024 * 1024);
  } catch (const io::SnapshotError& e) {
    LEAF_LOG_ERROR("cannot write '%s': %s", path.c_str(), e.what());
    return false;
  }
  LEAF_LOG_INFO("%zu event(s) written to %s", events.size(), path.c_str());
  return true;
}

void list_options() {
  std::printf("datasets: fixed evolving\nKPIs:     ");
  for (data::TargetKpi t : data::kAllTargets)
    std::printf("%s ", data::to_string(t).c_str());
  std::printf("\nmodels:   GBDT LightGBDT RandomForest ExtraTrees "
              "KNeighbors LSTM Ridge\n");
  std::printf("schemes:  Static Naive<N> Triggered LEAF LEAF<k> "
              "PairedLearners AUE2\n");
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

// --- shared flag parsing ---------------------------------------------------
//
// One option table serves every mode: a FlagSpec binds a flag name to the
// variable it fills, so the per-mode "parse loop" is just the table.
// Value-taking flags with a missing value and unknown flags keep the
// historical strict behavior: usage() and exit code 2.  Numeric values
// follow the spec::uint_in rules (digits only, in range); a bad one
// names its flag and exits 2.

enum class FlagKind { kString, kInt, kU64, kU32, kBool };

struct FlagSpec {
  const char* name;
  FlagKind kind;
  void* target;
};

/// Tries argv[i] against the table; consumes the flag's value (advancing
/// i) on a match.  Exits 2 when a value-taking flag ends the argv or its
/// numeric value is malformed or out of range.
bool parse_flag(const std::vector<FlagSpec>& flags, int argc, char** argv,
                int& i) {
  const std::string arg = argv[i];
  for (const FlagSpec& f : flags) {
    if (arg != f.name) continue;
    if (f.kind == FlagKind::kBool) {
      *static_cast<bool*>(f.target) = true;
      return true;
    }
    if (i + 1 >= argc) {
      usage(argv[0]);
      std::exit(2);
    }
    const std::string value = argv[++i];
    const auto number = [&](std::uint64_t hi) {
      try {
        return spec::uint_in("leafctl", f.name, value, 0, hi);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(2);
      }
    };
    switch (f.kind) {
      case FlagKind::kString:
        *static_cast<std::string*>(f.target) = value;
        break;
      case FlagKind::kInt:
        *static_cast<int*>(f.target) =
            static_cast<int>(number(std::numeric_limits<int>::max()));
        break;
      case FlagKind::kU64:
        *static_cast<std::uint64_t*>(f.target) =
            number(std::numeric_limits<std::uint64_t>::max());
        break;
      case FlagKind::kU32:
        *static_cast<std::uint32_t*>(f.target) = static_cast<std::uint32_t>(
            number(std::numeric_limits<std::uint32_t>::max()));
        break;
      case FlagKind::kBool:
        break;  // handled above
    }
    return true;
  }
  return false;
}

/// Runs the table over argv[start..].  Returns -1 when parsing completed
/// and the caller should proceed; otherwise the exit code to return
/// (--help => 0, unknown flag => 2).  `special` lets a mode intercept
/// flags with immediate behavior (--list): it returns an exit code, or
/// -1 to fall through to the table.
int parse_args(int argc, char** argv, int start,
               const std::vector<FlagSpec>& flags,
               const std::function<int(const std::string&)>& special = {}) {
  for (int i = start; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    }
    if (special) {
      const int rc = special(arg);
      if (rc >= 0) return rc;
    }
    if (parse_flag(flags, argc, argv, i)) continue;
    std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
    usage(argv[0]);
    return 2;
  }
  return -1;
}

/// Options both evaluation modes share, with their table rows.
struct CommonOpts {
  std::string dataset = "fixed";
  std::string model = "GBDT";
  std::string scheme = "LEAF";
  std::string snapshot_dir;
  std::string metrics_out;
  std::string events_out;
  std::uint64_t events_max_mb = 0;  ///< 0 = uncapped
  std::uint64_t seed = 2024;
  int threads = -1;
};

std::vector<FlagSpec> common_flag_table(CommonOpts& o) {
  return {
      {"--dataset", FlagKind::kString, &o.dataset},
      {"--model", FlagKind::kString, &o.model},
      {"--scheme", FlagKind::kString, &o.scheme},
      {"--seed", FlagKind::kU64, &o.seed},
      {"--threads", FlagKind::kInt, &o.threads},
      {"--snapshot-dir", FlagKind::kString, &o.snapshot_dir},
      {"--metrics-out", FlagKind::kString, &o.metrics_out},
      {"--events-out", FlagKind::kString, &o.events_out},
      {"--events-max-mb", FlagKind::kU64, &o.events_max_mb},
  };
}

/// Shared post-parse validation: thread override, model family, dataset
/// name.  Returns -1 to proceed, else the exit code.
int validate_common(const CommonOpts& o, models::ModelFamily& family) {
  if (o.threads >= 0) par::set_threads(o.threads);
  if (!models::parse_model_family(o.model, family)) {
    std::fprintf(stderr, "unknown model '%s' (--list to enumerate)\n",
                 o.model.c_str());
    return 2;
  }
  if (o.dataset != "fixed" && o.dataset != "evolving") {
    std::fprintf(stderr, "unknown dataset '%s'\n", o.dataset.c_str());
    return 2;
  }
  return -1;
}

/// Writes the scrape selected by the path's suffix (net::scrape_output
/// is the one shared selection used by both CLI modes and the RPC scrape
/// path).  Returns false on write failure.
bool write_metrics(const std::string& path, const serve::FleetRuntime* fleet) {
  if (!write_text_file(path, net::scrape_output(fleet, wants_json(path))))
    return false;
  LEAF_LOG_INFO("metrics written to %s", path.c_str());
  return true;
}

// --- serve mode ------------------------------------------------------------

int run_serve(int argc, char** argv) {
  CommonOpts common;
  std::string kpis = "DVol";
  std::string chaos_spec;
  std::string listen_addr;
  std::string trace_out;
  std::string slo_spec;
  std::uint64_t trace_sample_every = 1;
  int shards = 0;  // 0 = one per KPI
  int snapshot_every = 0;
  int summary_every = 20;
  int serve_requests = 0;  // 0 = serve until killed
  bool resume = false;
  serve::SupervisorConfig supervisor;
  net::NetConfig net_cfg;
  std::uint32_t net_deadline_ms = 0;

  std::vector<FlagSpec> flags = common_flag_table(common);
  const std::vector<FlagSpec> serve_flags = {
      {"--kpis", FlagKind::kString, &kpis},
      {"--shards", FlagKind::kInt, &shards},
      {"--snapshot-every", FlagKind::kInt, &snapshot_every},
      {"--resume", FlagKind::kBool, &resume},
      {"--snapshot-keep", FlagKind::kInt, &supervisor.snapshot_keep},
      {"--max-shard-retries", FlagKind::kInt,
       &supervisor.recovery.max_retries},
      {"--breaker-max-retrains", FlagKind::kInt,
       &supervisor.breaker.max_retrains},
      {"--breaker-window", FlagKind::kInt, &supervisor.breaker.window_days},
      {"--breaker-cooldown", FlagKind::kInt,
       &supervisor.breaker.cooldown_days},
      {"--chaos", FlagKind::kString, &chaos_spec},
      {"--summary-every", FlagKind::kInt, &summary_every},
      {"--listen", FlagKind::kString, &listen_addr},
      {"--serve-requests", FlagKind::kInt, &serve_requests},
      {"--net-queue-depth", FlagKind::kInt, &net_cfg.queue_depth},
      {"--net-max-batch", FlagKind::kInt, &net_cfg.max_batch_rows},
      {"--net-deadline-ms", FlagKind::kU32, &net_deadline_ms},
      {"--trace-out", FlagKind::kString, &trace_out},
      {"--trace-sample-every", FlagKind::kU64, &trace_sample_every},
      {"--slo", FlagKind::kString, &slo_spec},
  };
  flags.insert(flags.end(), serve_flags.begin(), serve_flags.end());

  const int parse_rc = parse_args(argc, argv, 2, flags);
  if (parse_rc >= 0) return parse_rc;

  models::ModelFamily family;
  const int common_rc = validate_common(common, family);
  if (common_rc >= 0) return common_rc;

  if ((snapshot_every > 0 || resume) && common.snapshot_dir.empty()) {
    std::fprintf(stderr,
                 "--snapshot-every / --resume require --snapshot-dir\n");
    return 2;
  }

  std::vector<data::TargetKpi> targets;
  if (kpis == "all") {
    targets.assign(data::kAllTargets.begin(), data::kAllTargets.end());
  } else {
    for (const std::string& name : split_csv(kpis)) {
      data::TargetKpi t;
      if (!data::parse_target(name, t)) {
        std::fprintf(stderr, "unknown KPI '%s' (--list to enumerate)\n",
                     name.c_str());
        return 2;
      }
      targets.push_back(t);
    }
  }
  if (targets.empty()) {
    std::fprintf(stderr, "no KPIs given\n");
    return 2;
  }

  // --chaos takes precedence over the LEAF_CHAOS environment variable.
  try {
    supervisor.chaos = chaos_spec.empty()
                           ? chaos::ChaosConfig::from_env()
                           : chaos::ChaosConfig::parse(chaos_spec);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (supervisor.snapshot_keep < 1 || supervisor.recovery.max_retries < 0 ||
      supervisor.breaker.max_retrains < 0) {
    std::fprintf(stderr,
                 "--snapshot-keep must be >= 1, --max-shard-retries and "
                 "--breaker-max-retrains >= 0\n");
    return 2;
  }
  try {
    supervisor.slo = obs::SloSpec::parse(slo_spec);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (!trace_out.empty() && listen_addr.empty()) {
    std::fprintf(stderr, "--trace-out requires --listen (it traces RPCs)\n");
    return 2;
  }
  if (trace_sample_every == 0) {
    std::fprintf(stderr, "--trace-sample-every must be >= 1\n");
    return 2;
  }
  net_cfg.default_deadline_ms = net_deadline_ms;

  const Scale scale = Scale::from_env();
  const data::CellularDataset ds =
      common.dataset == "fixed" ? data::generate_fixed_dataset(scale)
                                : data::generate_evolving_dataset(scale);

  // Shard list: cycle through the KPI list until `shards` shards exist
  // (default: one per KPI).  Seeds are left at 0 so the runtime derives
  // them from the fleet seed via Rng::substream.
  const std::size_t n_shards =
      shards > 0 ? static_cast<std::size_t>(shards) : targets.size();
  std::vector<serve::ShardSpec> specs;
  specs.reserve(n_shards);
  for (std::size_t i = 0; i < n_shards; ++i)
    specs.push_back({targets[i % targets.size()], family, common.scheme, 0});

  serve::FleetRuntime fleet(ds, scale, std::move(specs), common.seed,
                            supervisor);
  std::printf("leafctl serve: %zu shard(s), %s / %s / %s (scale=%s, "
              "seed=%llu)\n",
              fleet.num_shards(), common.dataset.c_str(),
              common.model.c_str(), common.scheme.c_str(),
              scale.name().c_str(),
              static_cast<unsigned long long>(common.seed));
  if (supervisor.chaos.any())
    LEAF_LOG_WARN("chaos enabled: %s", supervisor.chaos.to_string().c_str());
  if (fleet.slo_watchdog() != nullptr)
    LEAF_LOG_INFO("slo watchdog armed: %s",
                  supervisor.slo.to_string().c_str());

  if (resume) {
    if (serve::SnapshotStore(common.snapshot_dir).generations().empty()) {
      // An empty (or not yet created) snapshot directory is the normal
      // first boot of a service configured to resume — start fresh.
      LEAF_LOG_WARN("no snapshot in %s; starting fresh",
                    common.snapshot_dir.c_str());
    } else {
      try {
        fleet.restore(common.snapshot_dir);
      } catch (const io::SnapshotError& e) {
        // There IS on-disk state but it cannot be trusted (wrong fleet,
        // unreadable everywhere): refuse to guess, distinct exit code.
        LEAF_LOG_ERROR("resume from %s failed: %s",
                       common.snapshot_dir.c_str(), e.what());
        return 2;
      }
      LEAF_LOG_INFO("resumed from %s at step %llu",
                    common.snapshot_dir.c_str(),
                    static_cast<unsigned long long>(fleet.steps_run()));
      if (fleet.stats().snapshot_fallbacks > 0)
        LEAF_LOG_WARN("%d shard(s) restored from an older generation",
                      fleet.stats().snapshot_fallbacks);
    }
  }

  std::unique_ptr<net::TcpServer> server;
  if (!listen_addr.empty()) {
    try {
      const auto [host, port] = net::parse_host_port(listen_addr);
      server = std::make_unique<net::TcpServer>(fleet, host, port, net_cfg);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    // Port on stdout so scripts against an ephemeral bind can find it.
    std::printf("leafctl serve: listening on %s (port %u)\n",
                listen_addr.c_str(), server->port());
    std::fflush(stdout);
  }
  const auto served_enough = [&]() {
    return server != nullptr && serve_requests > 0 &&
           server->requests_served() >=
               static_cast<std::uint64_t>(serve_requests);
  };

  std::unique_ptr<obs::Tracer> tracer;
  if (!trace_out.empty()) {
    tracer = std::make_unique<obs::Tracer>(trace_out, trace_sample_every);
    if (!tracer->ok()) {
      std::fprintf(stderr, "cannot open trace sink: %s\n",
                   tracer->error().c_str());
      return 2;
    }
    server->core().set_tracer(tracer.get());
    LEAF_LOG_INFO("tracing to %s (sample-every=%llu)", trace_out.c_str(),
                  static_cast<unsigned long long>(trace_sample_every));
  }

  // The fleet and the RPC front end share this one thread: queries are
  // answered between steps, so predictions never race shard mutation and
  // crash-equivalence is preserved.  Each step() ends with one telemetry
  // tick, which also feeds the SLO watchdog when --slo armed it.
  while (!served_enough() && fleet.step()) {
    if (snapshot_every > 0 && fleet.steps_run() % snapshot_every == 0)
      fleet.snapshot(common.snapshot_dir);  // logs at INFO internally
    if (summary_every > 0 && fleet.steps_run() % summary_every == 0) {
      const serve::ServeStats s = fleet.stats();
      LEAF_LOG_INFO(
          "serve: step %llu, shards %zu/%zu done, %d drift events, "
          "%d retrains",
          static_cast<unsigned long long>(s.total_steps), s.shards_done,
          s.shards.size(), s.total_drift_events, s.total_retrains);
    }
    if (server != nullptr) server->poll_once(0);
  }
  if (!common.snapshot_dir.empty()) fleet.snapshot(common.snapshot_dir);

  // Fleet finished (or the request budget ended stepping early): keep
  // serving the frozen models until the budget is spent — or forever
  // when no budget was set (a real server runs until killed).
  while (server != nullptr && !served_enough()) {
    server->poll_once(50);
    // The fleet is frozen but the serving plane is not: keep sampling
    // telemetry each idle tick so the net-plane series (and the
    // watchdogs watching them) track the query traffic.
    fleet.sample_telemetry();
  }
  if (server != nullptr)
    std::printf("leafctl serve: answered %llu request(s)\n",
                static_cast<unsigned long long>(server->requests_served()));
  if (tracer != nullptr) {
    tracer->close();
    if (!tracer->ok()) {
      std::fprintf(stderr, "trace sink failed: %s\n", tracer->error().c_str());
      return 1;
    }
    std::printf("leafctl serve: %llu trace span(s) written to %s\n",
                static_cast<unsigned long long>(tracer->spans_written()),
                tracer->path().c_str());
  }
  if (const obs::SloWatchdog* watchdog = fleet.slo_watchdog())
    LEAF_LOG_INFO("slo watchdog final state: %s",
                  obs::to_string(watchdog->state()));

  const serve::ServeStats stats = fleet.stats();
  const std::vector<core::EvalResult> results = fleet.results();
  std::printf("\nfleet complete: %llu steps\n",
              static_cast<unsigned long long>(stats.total_steps));
  std::printf("%-6s %-12s %-10s %8s %8s %8s %8s  %s\n", "kpi", "model",
              "scheme", "days", "nrmse", "drifts", "retrains", "health");
  for (std::size_t i = 0; i < stats.shards.size(); ++i) {
    const serve::ShardStats& s = stats.shards[i];
    std::printf("%-6s %-12s %-10s %8d %8.4f %8d %8d  %s\n", s.kpi.c_str(),
                s.model.c_str(), s.scheme.c_str(), s.days_evaluated,
                results[i].avg_nrmse(), s.drift_events, s.retrains,
                serve::to_string(s.health));
  }
  if (stats.total_faults > 0 || stats.total_breaker_trips > 0)
    std::printf("supervision: %d fault(s), %zu quarantined, %d breaker "
                "trip(s), %d suppressed retrain(s)\n",
                stats.total_faults, stats.shards_quarantined,
                stats.total_breaker_trips, stats.total_suppressed_retrains);
  if (!common.snapshot_dir.empty())
    LEAF_LOG_INFO("final snapshot in %s", common.snapshot_dir.c_str());
  if (!common.metrics_out.empty() && !write_metrics(common.metrics_out, &fleet))
    return 1;
  if (!common.events_out.empty() &&
      !write_events(common.events_out, fleet.merged_events(),
                    common.events_max_mb))
    return 1;
  return 0;
}

// --- query mode ------------------------------------------------------------

/// One RPC round trip expecting a `Body` reply.  A kError reply throws
/// "server error (CODE): MESSAGE", which the query and top modes print
/// to stderr before exiting 1.
template <typename Body>
Body checked_call(net::TcpClient& client, const net::Frame& request) {
  const net::Frame resp = net::call(client, request);
  if (resp.type == net::MsgType::kError) {
    const auto err = net::decode_body<net::ErrorResponse>(resp);
    throw std::runtime_error(std::string("server error (") +
                             net::to_string(err.code) + "): " + err.message);
  }
  return net::decode_body<Body>(resp);
}

int run_query(int argc, char** argv) {
  std::string connect_addr;
  bool do_status = false;
  bool do_metrics = false;
  bool do_slo = false;
  bool json = false;
  bool do_predict = false;
  int shard = 0;
  int rows = 1;
  std::uint32_t deadline_ms = 0;
  std::uint64_t seed = 2024;
  std::string series_name;
  std::string series_labels;
  std::string resolution = "raw";
  std::uint64_t from_step = 0;
  std::uint64_t to_step = ~0ULL;
  std::uint32_t max_series = 16;

  const std::vector<FlagSpec> flags = {
      {"--connect", FlagKind::kString, &connect_addr},
      {"--status", FlagKind::kBool, &do_status},
      {"--metrics", FlagKind::kBool, &do_metrics},
      {"--slo", FlagKind::kBool, &do_slo},
      {"--json", FlagKind::kBool, &json},
      {"--predict", FlagKind::kBool, &do_predict},
      {"--shard", FlagKind::kInt, &shard},
      {"--rows", FlagKind::kInt, &rows},
      {"--deadline-ms", FlagKind::kU32, &deadline_ms},
      {"--seed", FlagKind::kU64, &seed},
      {"--series", FlagKind::kString, &series_name},
      {"--labels", FlagKind::kString, &series_labels},
      {"--resolution", FlagKind::kString, &resolution},
      {"--from", FlagKind::kU64, &from_step},
      {"--to", FlagKind::kU64, &to_step},
      {"--max-series", FlagKind::kU32, &max_series},
  };
  const int parse_rc = parse_args(argc, argv, 2, flags);
  if (parse_rc >= 0) return parse_rc;

  if (connect_addr.empty()) {
    std::fprintf(stderr, "query requires --connect HOST:PORT\n");
    return 2;
  }
  const bool do_series = !series_name.empty();
  if (!do_status && !do_metrics && !do_slo && !do_predict && !do_series)
    do_status = true;
  if (shard < 0 || rows < 1) {
    std::fprintf(stderr, "--shard must be >= 0, --rows >= 1\n");
    return 2;
  }
  tsdb::Resolution tier = tsdb::Resolution::kRaw;
  if (resolution == "raw" || resolution == "0") {
    tier = tsdb::Resolution::kRaw;
  } else if (resolution == "10") {
    tier = tsdb::Resolution::kTenStep;
  } else if (resolution == "100") {
    tier = tsdb::Resolution::kHundredStep;
  } else {
    std::fprintf(stderr, "--resolution must be raw, 10, or 100\n");
    return 2;
  }

  try {
    const auto [host, port] = net::parse_host_port(connect_addr);
    net::TcpClient client(host, port);
    std::uint64_t request_id = 1;

    // Status first in every case: predict needs the shard's feature
    // count to build a valid request.
    const auto status = checked_call<net::StatusResponse>(
        client, net::Frame{net::MsgType::kFleetStatus, request_id++, {}});

    if (do_status) {
      std::printf("fleet: %llu steps, %zu shard(s)\n",
                  static_cast<unsigned long long>(status.fleet_steps),
                  status.shards.size());
      std::printf("%-5s %-6s %-12s %-10s %8s %6s %8s %6s\n", "shard", "kpi",
                  "model", "scheme", "features", "ready", "days", "done");
      for (std::size_t i = 0; i < status.shards.size(); ++i) {
        const net::ShardStatus& s = status.shards[i];
        std::printf("%-5zu %-6s %-12s %-10s %8u %6s %8d %6s\n", i,
                    s.kpi.c_str(), s.model.c_str(), s.scheme.c_str(),
                    s.num_features, s.ready ? "yes" : "no", s.days_evaluated,
                    s.done ? "yes" : "no");
      }
    }

    if (do_metrics) {
      std::fputs(checked_call<net::ScrapeResponse>(
                     client, net::make_frame(net::MsgType::kScrapeMetrics,
                                             request_id++,
                                             net::ScrapeRequest{json}))
                     .body.c_str(),
                 stdout);
    }

    if (do_slo) {
      // The SLO slice of the text scrape: the leaf_slo_state gauge plus
      // every latency-summary quantile line.
      const std::string body =
          checked_call<net::ScrapeResponse>(
              client, net::make_frame(net::MsgType::kScrapeMetrics,
                                      request_id++, net::ScrapeRequest{false}))
              .body;
      std::size_t start = 0;
      while (start < body.size()) {
        const std::size_t nl = body.find('\n', start);
        const std::size_t end = nl == std::string::npos ? body.size() : nl;
        const std::string line = body.substr(start, end - start);
        if (line.compare(0, 9, "leaf_slo_") == 0 ||
            (!line.empty() && line[0] != '#' &&
             line.find("quantile=") != std::string::npos))
          std::printf("%s\n", line.c_str());
        start = end + 1;
      }
    }

    if (do_series) {
      net::SeriesRequest req;
      req.query.name = series_name;
      req.query.labels_contains = series_labels;
      req.query.start_step = from_step;
      req.query.end_step = to_step;
      req.query.resolution = tier;
      req.query.max_series = max_series;
      const auto body = checked_call<net::SeriesResponse>(
          client,
          net::make_frame(net::MsgType::kQuerySeries, request_id++, req));
      std::printf("%zu series (store at step %llu)%s\n", body.series.size(),
                  static_cast<unsigned long long>(body.last_step),
                  body.truncated ? ", truncated" : "");
      for (const tsdb::SeriesData& sp : body.series) {
        std::printf("%s{%s} %s: %zu point(s)\n", sp.name.c_str(),
                    sp.labels.c_str(), tsdb::to_string(sp.resolution),
                    sp.steps.size());
        for (std::size_t i = 0; i < sp.steps.size(); ++i) {
          if (sp.resolution == tsdb::Resolution::kRaw)
            std::printf("  %8llu  %.6g\n",
                        static_cast<unsigned long long>(sp.steps[i]),
                        sp.values[i]);
          else
            std::printf("  %8llu  mean=%.6g min=%.6g max=%.6g count=%llu\n",
                        static_cast<unsigned long long>(sp.steps[i]),
                        sp.values[i], sp.min[i], sp.max[i],
                        static_cast<unsigned long long>(sp.counts[i]));
        }
      }
    }

    if (do_predict) {
      if (static_cast<std::size_t>(shard) >= status.shards.size()) {
        std::fprintf(stderr, "shard %d outside the fleet of %zu\n", shard,
                     status.shards.size());
        return 1;
      }
      const std::uint32_t cols = status.shards[shard].num_features;
      net::PredictRequest req;
      req.shard = static_cast<std::uint32_t>(shard);
      req.deadline_ms = deadline_ms;
      req.rows = Matrix(static_cast<std::size_t>(rows), cols);
      // Deterministic probe rows: same --seed, same request bytes.
      Rng rng(seed);
      for (auto& v : req.rows.flat()) v = rng.uniform();
      const net::MsgType type = rows == 1 ? net::MsgType::kPredict
                                          : net::MsgType::kBatchPredict;
      const auto pred = checked_call<net::PredictResponse>(
          client, net::make_frame(type, request_id++, req));
      std::printf("shard %d predictions (%zu row(s), seed %llu):\n", shard,
                  pred.values.size(), static_cast<unsigned long long>(seed));
      for (double v : pred.values) std::printf("  %.6f\n", v);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}

// --- top mode --------------------------------------------------------------

/// Sum of every label set of `name` in a Prometheus text scrape (a line
/// must start with the exact series name followed by '{' or ' ').  NaN
/// when the series is absent.
double scrape_value(const std::string& body, const std::string& name) {
  double total = std::numeric_limits<double>::quiet_NaN();
  std::size_t start = 0;
  while (start < body.size()) {
    const std::size_t nl = body.find('\n', start);
    const std::size_t end = nl == std::string::npos ? body.size() : nl;
    if (end - start > name.size() &&
        body.compare(start, name.size(), name) == 0 &&
        (body[start + name.size()] == ' ' ||
         body[start + name.size()] == '{')) {
      const std::size_t sp = body.rfind(' ', end);
      if (sp != std::string::npos && sp > start) {
        const double v = std::strtod(body.c_str() + sp + 1, nullptr);
        total = std::isnan(total) ? v : total + v;
      }
    }
    start = end + 1;
  }
  return total;
}

/// Renders a value window as an 8-level block sparkline, scaled to the
/// window's own min..max (a flat nonzero window renders mid-level).
std::string sparkline(const std::vector<double>& values) {
  static const char* const kLevels[] = {"▁", "▂", "▃", "▄",
                                        "▅", "▆", "▇", "█"};
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (double v : values)
    if (std::isfinite(v)) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  std::string out;
  for (double v : values) {
    if (!std::isfinite(v)) {
      out += "·";
      continue;
    }
    int idx = 0;
    if (hi > lo)
      idx = static_cast<int>((v - lo) / (hi - lo) * 7.0 + 0.5);
    else if (v != 0.0)
      idx = 3;
    out += kLevels[std::clamp(idx, 0, 7)];
  }
  return out;
}

/// `leafctl top`: a periodic status + scrape + telemetry-series poll of a
/// running server, rendered as a compact live fleet view.
int run_top(int argc, char** argv) {
  std::string connect_addr;
  int interval_ms = 1000;
  int iterations = 0;  // 0 = poll until killed

  const std::vector<FlagSpec> flags = {
      {"--connect", FlagKind::kString, &connect_addr},
      {"--interval-ms", FlagKind::kInt, &interval_ms},
      {"--iterations", FlagKind::kInt, &iterations},
  };
  const int parse_rc = parse_args(argc, argv, 2, flags);
  if (parse_rc >= 0) return parse_rc;

  if (connect_addr.empty()) {
    std::fprintf(stderr, "top requires --connect HOST:PORT\n");
    return 2;
  }
  if (interval_ms < 1) {
    std::fprintf(stderr, "--interval-ms must be >= 1\n");
    return 2;
  }

  try {
    const auto [host, port] = net::parse_host_port(connect_addr);
    net::TcpClient client(host, port);
    std::uint64_t request_id = 1;
    double prev_responses = std::numeric_limits<double>::quiet_NaN();
    double prev_sheds = 0.0, prev_retries = 0.0;

    for (int iter = 0; iterations == 0 || iter < iterations; ++iter) {
      if (iter > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));

      const auto status = checked_call<net::StatusResponse>(
          client, net::Frame{net::MsgType::kFleetStatus, request_id++, {}});
      const std::string scrape =
          checked_call<net::ScrapeResponse>(
              client, net::make_frame(net::MsgType::kScrapeMetrics,
                                      request_id++, net::ScrapeRequest{false}))
              .body;

      net::SeriesRequest sreq;
      sreq.query.name = "leaf_rule_*";
      sreq.query.max_series = 8;
      const net::Frame series_resp = net::call(
          client,
          net::make_frame(net::MsgType::kQuerySeries, request_id++, sreq));
      net::SeriesResponse series;  // tolerate servers without a tsdb
      if (series_resp.type == net::MsgType::kQuerySeriesOk)
        series = net::decode_body<net::SeriesResponse>(series_resp);

      // ServerCore registers its shed / retry counters on first use.
      const auto count = [&scrape](const char* name) {
        const double v = scrape_value(scrape, name);
        return std::isnan(v) ? 0.0 : v;
      };
      const double responses = scrape_value(scrape, "leaf_net_responses_total");
      const double sheds = count("leaf_net_sheds_total");
      const double retries = count("leaf_net_retries_total");
      const double slo_state = scrape_value(scrape, "leaf_slo_state");
      const double drift_state =
          scrape_value(scrape, "leaf_telemetry_drift_state");

      std::size_t ready = 0, done = 0;
      for (const net::ShardStatus& s : status.shards) {
        ready += s.ready ? 1 : 0;
        done += s.done ? 1 : 0;
      }

      if (iterations != 1)
        std::printf("\x1b[2J\x1b[H");  // clear + home between refreshes
      std::string refresh = std::to_string(iter + 1);
      if (iterations > 0) {
        refresh += '/';
        refresh += std::to_string(iterations);
      }
      std::printf("leaf top — %s  refresh %s  interval %dms\n",
                  connect_addr.c_str(), refresh.c_str(), interval_ms);
      std::printf("fleet: step %llu, %zu shard(s) (%zu ready, %zu done)",
                  static_cast<unsigned long long>(status.fleet_steps),
                  status.shards.size(), ready, done);
      if (std::isfinite(slo_state))
        std::printf("  slo=%s",
                    obs::to_string(static_cast<obs::SloWatchdog::State>(
                        static_cast<int>(slo_state))));
      if (std::isfinite(drift_state))
        std::printf("  telemetry-drift=%d", static_cast<int>(drift_state));
      std::printf("\n");

      if (std::isfinite(responses)) {
        std::printf("net:   %.0f response(s)", responses);
        if (std::isfinite(prev_responses)) {
          const double dt = static_cast<double>(interval_ms) / 1000.0;
          std::printf("  qps %.1f  shed/s %.1f  retry/s %.1f",
                      (responses - prev_responses) / dt,
                      (sheds - prev_sheds) / dt,
                      (retries - prev_retries) / dt);
        }
        std::printf("\n");
        prev_responses = responses;
        prev_sheds = sheds;
        prev_retries = retries;
      }
      // Every p99 latency quantile line, verbatim (one per RPC type).
      std::size_t start = 0;
      while (start < scrape.size()) {
        const std::size_t nl = scrape.find('\n', start);
        const std::size_t end = nl == std::string::npos ? scrape.size() : nl;
        const std::string line = scrape.substr(start, end - start);
        if (line.compare(0, 25, "leaf_rpc_latency_seconds{") == 0 &&
            line.find("quantile=\"0.99\"") != std::string::npos)
          std::printf("p99:   %s\n", line.c_str());
        start = end + 1;
      }

      std::printf("%-5s %-6s %-12s %-10s %-11s %6s %8s %6s\n", "shard",
                  "kpi", "model", "scheme", "health", "ready", "days",
                  "done");
      for (std::size_t i = 0; i < status.shards.size(); ++i) {
        const net::ShardStatus& s = status.shards[i];
        std::printf("%-5zu %-6s %-12s %-10s %-11s %6s %8d %6s\n", i,
                    s.kpi.c_str(), s.model.c_str(), s.scheme.c_str(),
                    serve::to_string(
                        static_cast<serve::ShardHealth>(s.health)),
                    s.ready ? "yes" : "no", s.days_evaluated,
                    s.done ? "yes" : "no");
      }

      if (!series.series.empty()) {
        std::printf("telemetry (raw tail, store at step %llu):\n",
                    static_cast<unsigned long long>(series.last_step));
        for (const tsdb::SeriesData& sp : series.series) {
          std::vector<double> tail = sp.values;
          if (tail.size() > 32)
            tail.erase(tail.begin(),
                       tail.end() - static_cast<std::ptrdiff_t>(32));
          std::printf("  %-32s %s  last=%.6g\n", sp.name.c_str(),
                      sparkline(tail).c_str(),
                      tail.empty() ? 0.0 : tail.back());
        }
      }
      std::fflush(stdout);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "serve") == 0)
    return run_serve(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "query") == 0)
    return run_query(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "top") == 0)
    return run_top(argc, argv);

  CommonOpts common;
  std::string kpi = "DVol";
  std::string csv_path;
  int stride = -1, train_window = -1, horizon = -1;

  std::vector<FlagSpec> flags = common_flag_table(common);
  const std::vector<FlagSpec> classic_flags = {
      {"--kpi", FlagKind::kString, &kpi},
      {"--stride", FlagKind::kInt, &stride},
      {"--train-window", FlagKind::kInt, &train_window},
      {"--horizon", FlagKind::kInt, &horizon},
      {"--csv", FlagKind::kString, &csv_path},
  };
  flags.insert(flags.end(), classic_flags.begin(), classic_flags.end());

  const int parse_rc =
      parse_args(argc, argv, 1, flags, [](const std::string& arg) -> int {
        if (arg == "--list") {
          list_options();
          return 0;
        }
        return -1;
      });
  if (parse_rc >= 0) return parse_rc;

  models::ModelFamily family;
  const int common_rc = validate_common(common, family);
  if (common_rc >= 0) return common_rc;

  data::TargetKpi target;
  if (!data::parse_target(kpi, target)) {
    std::fprintf(stderr, "unknown KPI '%s' (--list to enumerate)\n",
                 kpi.c_str());
    return 2;
  }

  const Scale scale = Scale::from_env();
  std::printf("leafctl: %s / %s / %s / %s (scale=%s, seed=%llu)\n",
              common.dataset.c_str(), kpi.c_str(), common.model.c_str(),
              common.scheme.c_str(), scale.name().c_str(),
              static_cast<unsigned long long>(common.seed));

  const data::CellularDataset ds =
      common.dataset == "fixed" ? data::generate_fixed_dataset(scale)
                                : data::generate_evolving_dataset(scale);
  core::EvalConfig cfg = core::make_eval_config(scale, common.seed);
  if (stride > 0) cfg.stride = stride;
  if (train_window > 0) cfg.train_window = train_window;
  if (horizon > 0) cfg.horizon = horizon;

  const data::Featurizer featurizer(ds, target, cfg.horizon);
  const auto model = models::make_model(family, scale, common.seed);
  const double dispersion = core::kpi_dispersion(ds, target);

  core::StaticScheme static_scheme;
  const core::EvalResult static_run =
      core::run_scheme(featurizer, *model, static_scheme, cfg);

  // Drift events are recorded for the mitigated run only (the static
  // baseline never drifts or retrains by construction).
  obs::EventLog event_log;
  core::EvalResult run = static_run;
  if (common.scheme != "Static") {
    std::unique_ptr<core::MitigationScheme> scheme;
    try {
      scheme = core::make_scheme(common.scheme, dispersion, common.seed ^ 0x99);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    cfg.events = &event_log;
    run = core::run_scheme(featurizer, *model, *scheme, cfg);
    cfg.events = nullptr;
  }

  std::printf("\nevaluated %zu days (%s .. %s)\n", run.days.size(),
              cal::day_to_string(run.days.front()).c_str(),
              cal::day_to_string(run.days.back()).c_str());
  std::printf("avg NRMSE:   %.4f  (static %.4f)\n", run.avg_nrmse(),
              static_run.avg_nrmse());
  std::printf("ΔNRMSE̅:      %+.2f%% vs static\n",
              core::delta_vs_static(run, static_run));
  std::printf("retrains:    %d (drift detections: %zu)\n",
              run.retrain_count(), run.drift_days.size());
  std::printf("p95 |NE|:    %.4f  (static %.4f)\n", run.ne_p95,
              static_run.ne_p95);
  std::printf("dispersion:  %.2f (%s mitigation path)\n", dispersion,
              dispersion >= 1.0 ? "high" : "low");

  if (!common.snapshot_dir.empty()) {
    // A single-shard fleet snapshot of this (KPI, model, scheme) pipeline
    // at its end state, resumable with `leafctl serve --resume`.  Uses the
    // scale's standard evaluation config, as serve mode does.
    serve::FleetRuntime fleet(
        ds, scale, {{target, family, common.scheme, common.seed}},
        common.seed);
    fleet.run_steps(UINT64_MAX);
    const std::uint64_t bytes = fleet.snapshot(common.snapshot_dir);
    std::printf("snapshot:    %s (%llu bytes)\n", common.snapshot_dir.c_str(),
                static_cast<unsigned long long>(bytes));
  }

  if (!csv_path.empty()) {
    CsvWriter w(csv_path);
    if (!w.ok()) {
      std::fprintf(stderr, "cannot write '%s'\n", csv_path.c_str());
      return 1;
    }
    w.row({"date", "nrmse", "static_nrmse", "mean_ne", "drift", "retrain"});
    for (std::size_t i = 0; i < run.days.size(); ++i) {
      const int d = run.days[i];
      const bool drift = std::find(run.drift_days.begin(),
                                   run.drift_days.end(),
                                   d) != run.drift_days.end();
      const bool retrain = std::find(run.retrain_days.begin(),
                                     run.retrain_days.end(),
                                     d) != run.retrain_days.end();
      w.row({cal::day_to_string(d), fmt(run.nrmse[i]),
             i < static_run.nrmse.size() ? fmt(static_run.nrmse[i]) : "",
             fmt(run.mean_ne[i]), drift ? "1" : "0", retrain ? "1" : "0"});
    }
    std::printf("series written to %s\n", csv_path.c_str());
  }
  if (!common.metrics_out.empty() &&
      !write_metrics(common.metrics_out, nullptr))
    return 1;
  if (!common.events_out.empty() &&
      !write_events(common.events_out, event_log.events(),
                    common.events_max_mb))
    return 1;
  return 0;
}
