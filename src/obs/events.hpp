// Structured drift-event telemetry (JSONL).
//
// Every operationally meaningful moment in a run — a detector firing, a
// retrain (or a LEAF retrain rejected by candidate validation), an ingest
// health-FSM transition, an OUTAGE-frozen evaluation step, a quarantine —
// is recorded as one `Event` with its shard/KPI/model/scheme/window
// context.  An `EventLog` is strictly single-writer (one per evaluation
// run or per serve shard), so event order within a log is the logical
// execution order; fleets merge shard logs with a stable (day, shard)
// sort, which is a pure function of the computation and therefore
// bit-identical at any LEAF_THREADS setting.
//
// Wall-clock readings live only in the `seconds` field, rendered as
// `"elapsed_seconds"` — the one JSONL key determinism tests mask (or drop
// wholesale via to_jsonl(events, /*with_timing=*/false)).
//
// Logs are snapshot-aware (save/load via leaf::io), so a SIGKILL +
// --resume serve cycle replays to a byte-identical event stream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/serializer.hpp"

namespace leaf::obs {

enum class EventKind : std::uint8_t {
  kDrift = 0,            ///< drift detector fired
  kRetrain = 1,          ///< model replaced (scheme retrain or ensemble swap)
  kRetrainRejected = 2,  ///< LEAF candidate failed validation; retrain skipped
  kOutageFreeze = 3,     ///< step skipped, detector frozen (declared OUTAGE)
  kNonFinite = 4,        ///< non-finite error suppressed
  kHealthTransition = 5, ///< ingest health FSM changed state
  kQuarantine = 6,       ///< ingest quarantined records/values (per day)
  // Supervision & self-healing (leaf::serve).
  kShardFaulted = 7,     ///< a shard's step threw; shard marked FAULTED
  kShardRecovered = 8,   ///< a FAULTED shard stepped cleanly again
  kShardQuarantined = 9, ///< retries exhausted; shard permanently skipped
  kSnapshotFallback = 10,///< restore fell back to an older generation
  kBreakerOpen = 11,     ///< retrain circuit breaker tripped OPEN
  kBreakerHalfOpen = 12, ///< cooldown elapsed; probe retrain allowed
  kBreakerClose = 13,    ///< probe succeeded; breaker back to CLOSED
  // SLO burn-rate watchdog (obs::SloWatchdog).
  kSloBurnWarning = 14,  ///< a burn rate crossed the warning fraction
  kSloBurnCritical = 15, ///< a burn rate crossed its critical threshold
  kSloRecovered = 16,    ///< all burn rates back under thresholds
  // Telemetry meta-drift watchdog (tsdb::MetaDrift).
  kTelemetryDrift = 17,  ///< a recording-rule detector fired on telemetry
};

/// Highest valid EventKind value (snapshot loaders validate against it).
inline constexpr std::uint8_t kMaxEventKind =
    static_cast<std::uint8_t>(EventKind::kTelemetryDrift);

const char* to_string(EventKind k);

struct Event {
  EventKind kind = EventKind::kDrift;
  int day = -1;    ///< study day the event refers to (-1: not day-scoped)
  int shard = -1;  ///< serve shard index (-1 outside serve)
  std::string kpi;
  std::string model;
  std::string scheme;
  std::string detail;    ///< free-form `k=v` context (p-value, rows, ...)
  double seconds = 0.0;  ///< optional wall-clock; 0 = none recorded

  bool operator==(const Event&) const = default;
};

class EventLog {
 public:
  /// Appends when obs is compiled in and runtime-enabled.  Single-writer:
  /// never share one log between concurrently stepping shards.
  void emit(Event e);

  const std::vector<Event>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  void clear() { events_.clear(); }

  /// Snapshot support (leaf::io).
  void save(io::Serializer& out) const;
  void load(io::Deserializer& in);

  /// Writes the JSONL rendering of `events` to `path` with the snapshot
  /// writer's tmp+rename discipline: an unwritable path or a write that
  /// faults mid-line throws io::SnapshotError and leaves neither a
  /// truncated file under `path` nor `.tmp` litter — a partial event log
  /// that parses as a shorter run is worse than no file.
  ///
  /// `max_bytes` caps the size (`--events-max-mb`): when the rendering
  /// exceeds it, it is split on line boundaries into at most three files
  /// — the newest tail under `path`, older chunks under `path.1` then
  /// `path.2`, oldest lines beyond that dropped — each written the same
  /// way (a fault mid-rotation throws and leaves no `.tmp` litter).
  /// `max_bytes` 0 means uncapped: one plain write.  Stale `.1`/`.2` files
  /// from earlier capped writes are removed either way.  Returns the total
  /// bytes written across files.
  static std::uint64_t write_jsonl_rotated(const std::string& path,
                                           const std::vector<Event>& events,
                                           bool with_timing,
                                           std::uint64_t max_bytes);

  /// Merges shard logs into one deterministic stream: stable sort by
  /// (day, shard), preserving each log's insertion order within a day.
  static std::vector<Event> merge(const std::vector<const EventLog*>& logs);
  /// One JSON object per line.  with_timing=false omits the
  /// `elapsed_seconds` key entirely (the masked form determinism tests
  /// compare).
  static std::string to_jsonl(const std::vector<Event>& events,
                              bool with_timing);

 private:
  std::vector<Event> events_;
};

}  // namespace leaf::obs
