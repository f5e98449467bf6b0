// Kolmogorov–Smirnov Windowing (KSWIN) drift detector — LEAF's detector
// (Appendix B; Raab et al. 2020).
//
// Maintains a sliding window of the last `window_size` values.  Once the
// window is full, every update compares the most recent `stat_size`
// values against a uniform random sample of `stat_size` values drawn from
// the older remainder of the window using the two-sample KS test.  A
// p-value below `alpha` signals drift, and the window is truncated to the
// recent `stat_size` values so detection can re-arm on the new concept.
#pragma once

#include <deque>

#include "common/rng.hpp"
#include "drift/detector.hpp"
#include "io/serializer.hpp"

namespace leaf::drift {

struct KswinConfig {
  int window_size = 100;
  int stat_size = 30;
  double alpha = 0.005;
  std::uint64_t seed = 7;
};

class Kswin final : public DriftDetector {
 public:
  explicit Kswin(KswinConfig cfg = {});

  /// Feeds one error value.  Non-finite values are ignored (they signal a
  /// telemetry fault, not a distribution change) and never enter the
  /// window.
  bool update(double value) override;
  void reset() override;
  std::string name() const override { return "KSWIN"; }

  std::size_t window_fill() const { return window_.size(); }
  /// p-value of the most recent test (1.0 before the window first fills).
  double last_p_value() const { return last_p_; }

  /// Snapshot hooks (leaf::io): configuration and full mutable state,
  /// sampling RNG included.  load_state restores into a detector built
  /// with the same configuration and throws io::SnapshotError otherwise.
  void save_state(io::Serializer& out) const;
  void load_state(io::Deserializer& in);

 private:
  KswinConfig cfg_;
  Rng rng_;
  std::deque<double> window_;
  double last_p_ = 1.0;
};

}  // namespace leaf::drift
