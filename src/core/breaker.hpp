// Retrain circuit breaker.
//
// A pathological KPI — a broken collector, a permanently bimodal series,
// a drift detector mis-tuned for the stream — can request retrains every
// few evaluation days, burning fleet CPU without converging.  The
// breaker bounds that: more than `max_retrains` retrains inside a
// sliding window of `window_days` trips it OPEN, after which retrain
// requests are suppressed (the shard keeps serving its frozen model,
// mirroring the ingest OUTAGE freeze) until `cooldown_days` have passed.
// The first request after the cooldown moves the breaker HALF_OPEN and
// is allowed through as a probe; if the storm persists the window
// re-trips immediately, otherwise the breaker closes.
//
// All state advances in evaluation *days*, never wall-clock, so breaker
// decisions are part of the deterministic computation: bit-identical at
// any thread count and across snapshot/restore (state save/load below).
#pragma once

#include <cstdint>
#include <vector>

#include "io/serializer.hpp"

namespace leaf::core {

struct BreakerConfig {
  /// Retrains allowed inside the sliding window before the breaker trips;
  /// 0 disables the breaker entirely.
  int max_retrains = 0;
  /// Sliding-window length in days.
  int window_days = 30;
  /// Days the breaker stays OPEN before half-opening.
  int cooldown_days = 60;

  bool enabled() const { return max_retrains > 0; }
};

class RetrainBreaker {
 public:
  enum class State : std::uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  RetrainBreaker() = default;
  explicit RetrainBreaker(BreakerConfig cfg) : cfg_(cfg) {}

  /// Gate for a retrain request on evaluation day `day` (days must be
  /// non-decreasing across calls).  True = proceed with the retrain (and
  /// the request is recorded against the window); false = suppress.
  bool allow(int day);

  State state() const { return state_; }
  const char* state_name() const;
  const BreakerConfig& config() const { return cfg_; }
  int trips() const { return trips_; }
  int suppressed() const { return suppressed_; }
  /// Day the current OPEN period ends (meaningful while open()).
  int open_until() const { return open_until_; }
  bool open() const { return state_ == State::kOpen; }

  /// Snapshot hooks (leaf::io): the breaker is part of a serve shard's
  /// mutable state, so crash-equivalence requires it to round-trip.
  void save_state(io::Serializer& out) const;
  void load_state(io::Deserializer& in);

 private:
  void prune(int day);

  BreakerConfig cfg_;
  State state_ = State::kClosed;
  std::vector<int> window_;  ///< days of recorded retrains, ascending
  int open_until_ = 0;
  int trips_ = 0;
  int suppressed_ = 0;
};

}  // namespace leaf::core
