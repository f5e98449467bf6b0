// leaf::obs — SLO burn-rate watchdog for the serving plane.
//
// An `SloWatchdog` turns the serving plane's raw counters into an
// operator-facing alarm: each logical tick (a fleet step or an idle
// serving tick — never a wall-clock timer) FleetRuntime::sample_telemetry
// feeds it one `SloSample` of deltas, the watchdog evaluates
// rolling-window burn rates against the declarative thresholds of an
// `SloSpec`, and state transitions emit typed supervision events
// (`slo-burn-warning` / `slo-burn-critical` / `slo-recovered`) and trip
// the `leaf_slo_state` gauge (0 = ok, 1 = warning, 2 = critical) that the
// chaos harness asserts on.
//
// Burn signals:
//   * deadline-miss rate — deadline sheds / predict requests
//   * shed rate          — (sheds + retries) / predict requests
//   * quarantine rate    — quarantined shards / shards
//   * nrmse-regression   — (nrmse - baseline) / baseline, against a
//                          pinned baseline (spec `nrmse-baseline=X`, or
//                          the first finite NRMSE the watchdog sees)
//   * telemetry-drift    — meta-drift rules currently in the fired state
//                          (FleetRuntime::telemetry_drift_state), window
//                          max; alarms when the telemetry plane itself
//                          reports a distribution shift
//
// Determinism: ticks are logical, samples are integer deltas of logical
// counters, and rates are ratios of their window sums, so the state
// trajectory and the emitted event stream are pure functions of the
// request/fleet schedule — bit-identical at any LEAF_THREADS.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <string>

#include "obs/events.hpp"

namespace leaf::obs {

/// Declarative SLO thresholds.  Parses from a comma-separated k=v spec
/// (the `--slo` flag / chaos-spec grammar):
///
///   window=N             rolling window in ticks (default 20)
///   deadline-miss=P      critical deadline-miss rate in [0, 1]
///   shed=P               critical shed (+retry) rate in [0, 1]
///   quarantine=P         critical quarantined-shard rate in [0, 1]
///   nrmse-regression=P   critical relative NRMSE regression (>= 0)
///   nrmse-baseline=X     pinned baseline NRMSE (default: first observed)
///   telemetry-drift=N    critical count of fired meta-drift rules (>= 1)
///   warn=F               warning fraction of each threshold (default 0.5)
///   recover=N            clean ticks required to step down (default 2)
///
/// Omitted thresholds never alarm.  Example:
///   --slo "window=8,deadline-miss=0.3,shed=0.5,warn=0.5,recover=2"
struct SloSpec {
  static constexpr double kDisabled = std::numeric_limits<double>::infinity();

  int window = 20;
  double deadline_miss = kDisabled;
  double shed = kDisabled;
  double quarantine = kDisabled;
  double nrmse_regression = kDisabled;
  double nrmse_baseline = std::numeric_limits<double>::quiet_NaN();
  double telemetry_drift = kDisabled;
  double warn_fraction = 0.5;
  int recover_ticks = 2;

  /// True when at least one threshold is set (a spec that can alarm).
  bool any() const;

  /// Throws std::invalid_argument on unknown keys, malformed numbers, or
  /// out-of-range values.  An empty spec string is a valid no-op spec.
  static SloSpec parse(const std::string& spec);

  /// Canonical spec string (round-trips through parse).
  std::string to_string() const;
};

/// One logical tick of serving-plane deltas.  All fields are counts since
/// the previous tick, except `shards`/`quarantined` (current levels) and
/// `nrmse` (current fleet average; NaN when unknown).
struct SloSample {
  std::uint64_t requests = 0;         ///< predict requests answered
  std::uint64_t deadline_misses = 0;  ///< requests shed past deadline
  std::uint64_t sheds = 0;            ///< all load-shedding responses
  std::uint64_t retries = 0;          ///< queue-full RETRY responses
  std::uint64_t shards = 0;           ///< fleet size
  std::uint64_t quarantined = 0;      ///< shards currently quarantined
  std::uint64_t telemetry_drift = 0;  ///< fired meta-drift rules (level)
  double nrmse = std::numeric_limits<double>::quiet_NaN();
};

class SloWatchdog {
 public:
  enum class State { kOk = 0, kWarning = 1, kCritical = 2 };

  explicit SloWatchdog(SloSpec spec);

  /// Feeds one tick and returns the (possibly new) state.  `day` scopes
  /// any emitted event to a study day (-1 = not day-scoped).
  State observe(const SloSample& sample, int day = -1);

  State state() const { return state_; }
  const SloSpec& spec() const { return spec_; }
  /// Typed supervision events emitted on state transitions (a fleet-owned
  /// watchdog's merge into FleetRuntime::supervision_events()).
  const EventLog& events() const { return events_; }

  /// Current rolling-window burn rates (for tests and the --slo view).
  struct Burn {
    double deadline_miss = 0.0;
    double shed = 0.0;
    double quarantine = 0.0;
    double nrmse_regression = 0.0;
    double telemetry_drift = 0.0;
  };
  Burn burn() const;

 private:
  SloSpec spec_;
  std::deque<SloSample> window_;
  State state_ = State::kOk;
  int ok_streak_ = 0;
  int ticks_ = 0;
  double baseline_nrmse_;
  EventLog events_;
};

const char* to_string(SloWatchdog::State s);

}  // namespace leaf::obs
