// DDM, EDDM, HDDM-A, and Page–Hinkley — the remaining comparators from the
// paper's footnote 2.
//
// DDM (Gama et al. 2004) and EDDM (Baena-García et al. 2006) are defined
// on Bernoulli error streams; following common practice for regression
// monitoring, the continuous NRMSE series is binarized by the adaptive
// EWMA thresholder in detector.hpp ("error" = NRMSE above its recent
// mean + 2 sigma).  HDDM-A (Frías-Blanco et al. 2015) and Page–Hinkley
// operate on the continuous values directly.
#pragma once

#include <cstdint>
#include <limits>

#include "drift/detector.hpp"

namespace leaf::drift {

class Ddm final : public DriftDetector {
 public:
  bool update(double value) override;
  void reset() override;
  std::string name() const override { return "DDM"; }

 private:
  EwmaBinarizer binarizer_;
  std::uint64_t n_ = 0;
  double p_ = 1.0;
  double s_ = 0.0;
  double p_min_ = std::numeric_limits<double>::infinity();
  double s_min_ = std::numeric_limits<double>::infinity();
};

/// EDDM tracks the distances (in samples) between consecutive errors: a
/// shrinking mean distance signals an increasing error rate.
class Eddm final : public DriftDetector {
 public:
  bool update(double value) override;
  void reset() override;
  std::string name() const override { return "EDDM"; }

 private:
  EwmaBinarizer binarizer_;
  std::uint64_t t_ = 0;
  std::uint64_t last_error_t_ = 0;
  std::uint64_t num_errors_ = 0;
  double dist_mean_ = 0.0;
  double dist_m2_ = 0.0;
  double best_score_ = 0.0;
};

/// HDDM-A: Hoeffding-bound test on the running mean vs. the best
/// (lowest-bound) historical mean.  Operates on continuous values
/// normalized on the fly into [0, 1] by the running min/max.
class HddmA final : public DriftDetector {
 public:
  bool update(double value) override;
  void reset() override;
  std::string name() const override { return "HDDM-A"; }

 private:
  static double hoeffding_bound(std::uint64_t n);
  /// Restarts mean tracking after a detection, keeping the running
  /// normalization range (the value scale doesn't reset with the concept).
  void rearm();

  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  std::uint64_t n_min_ = 0;
  double sum_min_ = 0.0;
  double bound_min_ = std::numeric_limits<double>::infinity();
  double lo_ = std::numeric_limits<double>::infinity();
  double hi_ = -std::numeric_limits<double>::infinity();
};

struct PageHinkleyConfig {
  double delta = 0.005;   ///< magnitude tolerance
  double lambda = 50.0;   ///< detection threshold on the cumulative stat
};

/// Page–Hinkley test for an upward shift of the mean.
class PageHinkley final : public DriftDetector {
 public:
  explicit PageHinkley(PageHinkleyConfig cfg = {});
  bool update(double value) override;
  void reset() override;
  std::string name() const override { return "PageHinkley"; }

 private:
  PageHinkleyConfig cfg_;
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double cum_ = 0.0;
  double cum_min_ = 0.0;
};

}  // namespace leaf::drift
