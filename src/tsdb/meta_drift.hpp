// leaf::tsdb — meta-drift detection on the fleet's own telemetry.
//
// LEAF runs KSWIN over model NRMSE streams to catch concept drift in the
// *data*; this watchdog dogfoods the same detectors on the *serving
// plane's* telemetry.  Recording rules derive one scalar per logical
// tick from the fleet/net state — deadline-miss rate, shed rate,
// quarantine rate, and each shard's NRMSE — and each rule feeds its own
// `drift::Kswin` instance.  A detector firing means the telemetry's
// distribution changed: a deadline storm starting, a quarantine wave, a
// shard's error regime shifting — exactly the trend breaks a
// point-in-time scrape cannot see.
//
// Firings emit `telemetry-drift` supervision events (merged into the
// fleet supervision stream) and raise `state()` — the number of rules
// that fired within the last `kHoldTicks` ticks — which the runtime
// exports as the `leaf_telemetry_drift_state` gauge and the SloWatchdog
// can escalate on (spec key `telemetry-drift=N`).
//
// Determinism: ticks are logical, rule inputs are pure functions of the
// fleet/request schedule, per-rule detector seeds are derived from the
// rule name, and detector state snapshots alongside the store — so the
// event stream and state trajectory are bit-identical at any
// LEAF_THREADS and across SIGKILL + --resume.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "drift/kswin.hpp"
#include "io/serializer.hpp"
#include "obs/events.hpp"

namespace leaf::tsdb {

class MetaDrift {
 public:
  /// Ticks a fired rule keeps contributing to state().
  static constexpr std::uint64_t kHoldTicks = 50;

  /// One recording-rule tick.  Feeds `value` into the rule's detector
  /// (lazily created, seeded from the rule name); a non-finite value is
  /// skipped.  On a firing, emits a `telemetry-drift` event carrying the
  /// rule name and tick (`shard` scopes per-shard rules; -1 otherwise)
  /// and refreshes the rule's hold window.  Returns true when the
  /// detector fired at this tick.
  bool observe(const std::string& rule, int shard, std::uint64_t tick,
               double value);

  /// Number of rules that fired within the last kHoldTicks ticks as of
  /// `tick` — the `leaf_telemetry_drift_state` gauge value.
  int state(std::uint64_t tick) const;

  /// Total firings across all rules.
  std::uint64_t firings() const { return firings_; }

  /// The telemetry-drift supervision events (merged into
  /// FleetRuntime::supervision_events()).
  const obs::EventLog& events() const { return events_; }

  /// Snapshot support: detector state, hold windows, and the event log,
  /// so a resumed run continues the exact detection trajectory.
  void save(io::Serializer& out) const;
  void load(io::Deserializer& in);

  void clear();

 private:
  struct Rule {
    int shard = -1;
    drift::Kswin detector;
    std::uint64_t fired_at = 0;
    bool ever_fired = false;
  };

  static drift::Kswin make_detector(const std::string& rule);

  std::map<std::string, Rule> rules_;
  std::uint64_t firings_ = 0;
  obs::EventLog events_;
};

}  // namespace leaf::tsdb
