// Deterministic chaos injection (leaf::chaos).
//
// A seeded fault-point registry for supervision and self-healing tests:
// the serving runtime (leaf::serve) asks the engine, at well-defined
// logical coordinates, whether a fault fires — a shard step throwing, a
// snapshot generation being corrupted or partially written, a retrain
// storm, a slow shard.  Every decision is a pure function of
// (config seed, fault point, coordinates) via Rng::substream, so a chaos
// schedule is bit-identical at any thread count and across runs: the
// same faults hit the same shards at the same fleet steps no matter how
// work is scheduled.  That is what lets the chaos tests and bench_chaos
// assert the isolation invariant — healthy shards of a faulted fleet
// produce byte-identical results to a fleet that never contained the
// faulty shard.
//
// Configuration comes from the LEAF_CHAOS environment variable (or an
// equivalent spec string / leafctl --chaos), a comma-separated k=v list:
//
//   seed=N                 decision stream seed (default 1)
//   shards=A+B+...         target shard indices ('+'-separated; default all)
//   step-throw=P           P(shard step throws chaos::Fault) per fleet step
//   step-throw-before=N    only throw while fleet_step < N (default: always)
//   retrain-storm=P        P(force a retrain request) per shard fleet step
//   slow=P                 P(stall a shard step) per shard fleet step
//   slow-ms=N              stall duration in milliseconds (default 2,
//                          at most 60000)
//   snapshot-corrupt=P     P(flip a bit in one target shard's section) per
//                          written snapshot generation
//   snapshot-partial=P     P(the snapshot write fails midway) per generation
//   net-truncate=P         P(an evil net client disconnects mid-frame) per
//                          sent request (consumed by bench_net / net tests)
//   net-garbage=P          P(an evil net client corrupts a frame byte) per
//                          sent request
//   deadline-storm=P       P(a net client sends a request with an already-
//                          hopeless 1ms deadline) per sent request — drives
//                          queue sheds and the SLO burn-rate watchdog
//   tsdb-gap=P             P(the telemetry store skips sampling) per logical
//                          tick — leaves a deterministic gap in every stored
//                          series (the tick still advances)
//
// Example: LEAF_CHAOS="seed=7,shards=0+2,step-throw=0.1,retrain-storm=0.2"
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace leaf::chaos {

/// The exception injected by step-throw faults: a stand-in for "anything
/// a shard's step can raise" that supervision must contain.
class Fault : public std::runtime_error {
 public:
  explicit Fault(const std::string& what)
      : std::runtime_error("chaos: " + what) {}
};

struct ChaosConfig {
  std::uint64_t seed = 1;
  std::vector<int> shards;  ///< target shard indices; empty = all shards
  double step_throw = 0.0;
  std::uint64_t step_throw_before = ~0ULL;
  double retrain_storm = 0.0;
  double slow = 0.0;
  int slow_ms = 2;
  double snapshot_corrupt = 0.0;
  double snapshot_partial = 0.0;
  double net_truncate = 0.0;
  double net_garbage = 0.0;
  double deadline_storm = 0.0;
  double tsdb_gap = 0.0;

  /// True when any fault point has a non-zero probability.
  bool any() const;

  /// Parses a spec string (see file header).  Throws std::invalid_argument
  /// on unknown keys, malformed or signed integers, non-finite numbers, or
  /// values out of range (probabilities outside [0, 1]).
  static ChaosConfig parse(const std::string& spec);

  /// Reads LEAF_CHAOS from the environment; disabled config when unset or
  /// empty.  Throws std::invalid_argument on a malformed value.
  static ChaosConfig from_env();

  /// Canonical spec string (round-trips through parse).
  std::string to_string() const;
};

/// Stateless decision engine over a ChaosConfig.  All queries are const
/// and pure: the same coordinates always give the same answer.
class Engine {
 public:
  Engine() = default;
  explicit Engine(ChaosConfig cfg);

  bool enabled() const { return cfg_.any(); }
  const ChaosConfig& config() const { return cfg_; }
  /// Whether `shard` is in the config's target set.
  bool targets(int shard) const;

  /// Shard `shard`'s step at fleet step `fleet_step` throws chaos::Fault.
  bool throw_step(int shard, std::uint64_t fleet_step) const;
  /// Force a retrain request from shard `shard` at this fleet step (drives
  /// the retrain circuit breaker).
  bool retrain_storm(int shard, std::uint64_t fleet_step) const;
  /// Stall this shard's step by config().slow_ms wall-clock milliseconds
  /// (perturbs scheduling, never results).
  bool slow_step(int shard, std::uint64_t fleet_step) const;

  /// Snapshot generation `gen` gets one bit flipped in a target shard's
  /// section before hitting disk.
  bool corrupt_snapshot(std::uint64_t gen) const;
  /// Which of `n_shards` shards' sections to corrupt in generation `gen`
  /// (drawn from the target set when one is configured).
  int corrupt_target(std::size_t n_shards, std::uint64_t gen) const;
  /// Snapshot generation `gen`'s file write fails midway, exercising the
  /// writer's temp-file cleanup and the fleet's keep-serving path.
  bool partial_write(std::uint64_t gen) const;

  /// Net-plane client misbehavior (consumed by the evil clients in
  /// bench_net and the net chaos tests; the server side has no fault
  /// points — the point is proving it survives the client's).
  /// Connection `conn`'s request number `seq` is cut off mid-frame.
  bool net_truncate(std::uint64_t conn, std::uint64_t seq) const;
  /// Connection `conn`'s request number `seq` gets one byte corrupted.
  bool net_garbage(std::uint64_t conn, std::uint64_t seq) const;
  /// Connection `conn`'s request number `seq` carries a deadline it
  /// cannot possibly meet, forcing a SHED at dequeue time.
  bool deadline_storm(std::uint64_t conn, std::uint64_t seq) const;

  /// The telemetry store skips sampling at logical tick `tick` (the tick
  /// still advances, so the gap is visible in every stored series).
  bool tsdb_gap(std::uint64_t tick) const;

 private:
  /// P(fault) decision at (fault point, a, b) — a pure substream lookup.
  bool decide(std::uint64_t point, std::uint64_t a, std::uint64_t b,
              double p) const;

  ChaosConfig cfg_;
  Rng base_{1};
};

}  // namespace leaf::chaos
