// leaf::serve — the self-healing parts a FleetRuntime keeps around its
// shards, usable without a fleet.
//
// ShardSupervisor is one shard's state machine: a step that throws moves
// a HEALTHY shard to FAULTED, a clean retry after the backoff returns it,
// and spending the retry budget (or failing the initial fit) QUARANTINES
// it for good; its results so far stay readable.  It also owns the
// shard's retrain circuit breaker and supervision event log.
//
// SnapshotStore keeps generation g at <dir>/fleet-NNNNNN.leafsnap (g
// zero-padded to six digits).  Only a file named exactly so counts, so a
// stray or hand-copied file never shifts the generation counter.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/breaker.hpp"
#include "io/serializer.hpp"
#include "io/snapshot.hpp"
#include "obs/events.hpp"

namespace leaf::serve {

enum class ShardHealth : std::uint8_t {
  kHealthy = 0,
  kFaulted = 1,
  kQuarantined = 2,
};

const char* to_string(ShardHealth h);

/// Bounded-retry recovery policy for FAULTED shards.  All delays are in
/// fleet steps, not wall-clock: after the k-th consecutive failure a
/// shard skips `kBackoffBaseSteps * 2^(k-1)` fleet steps (base 1, in
/// supervision.cpp) before its next attempt, and after `max_retries`
/// failed retries (i.e. on consecutive failure max_retries + 1) it is
/// QUARANTINED.
struct RecoveryPolicy {
  int max_retries = 3;
};

struct ShardStats;

class ShardSupervisor {
 public:
  /// `identity` stamps every supervision event: its shard, kpi, model and
  /// scheme fields are copied into each one.
  ShardSupervisor(RecoveryPolicy policy, core::BreakerConfig breaker,
                  obs::Event identity)
      : policy_(policy), identity_(std::move(identity)), breaker_(breaker) {}

  ShardHealth health() const { return health_; }
  bool quarantined() const { return health_ == ShardHealth::kQuarantined; }
  int total_failures() const { return total_failures_; }
  const obs::EventLog& events() const { return events_; }
  /// Copies the supervision fields into `s`.
  void fill(ShardStats& s) const;

  /// False while the shard is quarantined or waiting out its backoff.
  bool due(std::uint64_t fleet_step) const {
    return health_ == ShardHealth::kHealthy ||
           (health_ == ShardHealth::kFaulted && fleet_step >= backoff_until_);
  }
  /// A failed step (or, with `init`, a failed initial fit) at `day`.
  void on_failure(std::uint64_t fleet_step, int day, const std::string& what,
                  bool init = false);
  /// A clean step: a FAULTED shard recovers.
  void on_success(std::uint64_t fleet_step, int day);
  /// The retrain gate: asks the circuit breaker and logs its transitions.
  bool allow_retrain(int day);
  void emit(obs::EventKind kind, int day, std::string detail);

  void save(io::Serializer& out) const;
  /// Replaces the state with a saved one; throws io::SnapshotError on a
  /// bad health byte or a breaker config that differs from this one.
  void load(io::Deserializer& in);

 private:
  RecoveryPolicy policy_;
  obs::Event identity_;
  ShardHealth health_ = ShardHealth::kHealthy;
  int consecutive_failures_ = 0;
  int total_failures_ = 0;
  std::uint64_t backoff_until_ = 0;  ///< fleet step of the next retry
  std::string last_error_;
  core::RetrainBreaker breaker_;
  obs::EventLog events_;  ///< single-writer: only this shard's step emits
};

class SnapshotStore {
 public:
  explicit SnapshotStore(std::string dir, std::size_t keep = 1)
      : dir_(std::move(dir)), keep_(keep) {}

  std::string path(std::uint64_t gen) const;
  /// Generation numbers present (readable or not), ascending.
  std::vector<std::uint64_t> generations() const;

  /// Creates the directory, writes `bytes` as generation `gen`, then
  /// prunes all but the newest `keep` generations.  Returns the bytes
  /// written; throws io::SnapshotError when the directory or the file
  /// cannot be written (nothing is pruned then).
  std::uint64_t write(std::uint64_t gen,
                      const std::vector<std::uint8_t>& bytes) const;

  /// Opens generations newest-first in lenient mode and hands each to
  /// `visit(gen, reader)` until it returns false, so only as many files
  /// are read as the caller needs.  A generation that cannot be opened is
  /// reported to `unreadable` and skipped.  Returns the newest generation
  /// number; throws io::SnapshotError when there is none.
  using Visit = std::function<bool(std::uint64_t, const io::SnapshotReader&)>;
  std::uint64_t walk(
      const Visit& visit,
      const std::function<void(const std::string&)>& unreadable) const;

 private:
  std::string dir_;
  std::size_t keep_;
};

}  // namespace leaf::serve
