#include "drift/ddm.hpp"

#include <cmath>

namespace leaf::drift {

namespace {

// DDM.
constexpr std::uint64_t kDdmMinSamples = 30;
constexpr double kDdmDriftLevel = 3.0;

// EDDM.
constexpr std::uint64_t kEddmMinErrors = 30;
constexpr double kEddmDriftThreshold = 0.9;

// HDDM-A.
constexpr double kHddmDriftConfidence = 0.001;

// Page-Hinkley.
constexpr double kPhForgetting = 0.9999;
constexpr std::uint64_t kPhMinSamples = 30;

}  // namespace

// --- DDM -------------------------------------------------------------

bool Ddm::update(double value) {
  static DetectorCounters ctrs("DDM");
  ctrs.updates.inc();
  const bool error = binarizer_.push(value);
  ++n_;
  // Incremental Bernoulli mean and its standard error.
  p_ += (static_cast<double>(error) - p_) / static_cast<double>(n_);
  s_ = std::sqrt(p_ * (1.0 - p_) / static_cast<double>(n_));

  if (n_ < kDdmMinSamples) return false;

  if (p_ + s_ < p_min_ + s_min_) {
    p_min_ = p_;
    s_min_ = s_;
  }

  if (p_ + s_ > p_min_ + kDdmDriftLevel * s_min_) {
    // Drift: restart estimation for the new concept.
    n_ = 0;
    p_ = 1.0;
    s_ = 0.0;
    p_min_ = s_min_ = std::numeric_limits<double>::infinity();
    ctrs.firings.inc();
    return true;
  }
  return false;
}

void Ddm::reset() {
  binarizer_.reset();
  n_ = 0;
  p_ = 1.0;
  s_ = 0.0;
  p_min_ = s_min_ = std::numeric_limits<double>::infinity();
}

// --- EDDM ------------------------------------------------------------

bool Eddm::update(double value) {
  static DetectorCounters ctrs("EDDM");
  ctrs.updates.inc();
  const bool error = binarizer_.push(value);
  ++t_;
  if (!error) return false;

  if (num_errors_ > 0) {
    const double dist = static_cast<double>(t_ - last_error_t_);
    ++num_errors_;
    const double delta = dist - dist_mean_;
    dist_mean_ += delta / static_cast<double>(num_errors_ - 1);
    dist_m2_ += delta * (dist - dist_mean_);
  } else {
    ++num_errors_;
  }
  last_error_t_ = t_;
  if (num_errors_ < kEddmMinErrors) return false;

  const double var = num_errors_ > 2
                         ? dist_m2_ / static_cast<double>(num_errors_ - 2)
                         : 0.0;
  const double score = dist_mean_ + 2.0 * std::sqrt(var);
  if (score > best_score_) {
    best_score_ = score;
    return false;
  }
  if (best_score_ <= 0.0) return false;
  const double ratio = score / best_score_;
  if (ratio < kEddmDriftThreshold) {
    // Drift: restart distances for the new concept.
    num_errors_ = 0;
    dist_mean_ = 0.0;
    dist_m2_ = 0.0;
    best_score_ = 0.0;
    ctrs.firings.inc();
    return true;
  }
  return false;
}

void Eddm::reset() {
  binarizer_.reset();
  t_ = 0;
  last_error_t_ = 0;
  num_errors_ = 0;
  dist_mean_ = 0.0;
  dist_m2_ = 0.0;
  best_score_ = 0.0;
}

// --- HDDM-A ----------------------------------------------------------

double HddmA::hoeffding_bound(std::uint64_t n) {
  if (n == 0) return std::numeric_limits<double>::infinity();
  return std::sqrt(std::log(1.0 / kHddmDriftConfidence) /
                   (2.0 * static_cast<double>(n)));
}

bool HddmA::update(double value) {
  static DetectorCounters ctrs("HDDM-A");
  ctrs.updates.inc();
  // Normalize into [0, 1] with the running range (Hoeffding assumes a
  // bounded variable).
  lo_ = std::min(lo_, value);
  hi_ = std::max(hi_, value);
  const double range = hi_ - lo_;
  const double z = range > 0.0 ? (value - lo_) / range : 0.5;

  ++n_;
  sum_ += z;
  const double mean = sum_ / static_cast<double>(n_);
  const double bound = hoeffding_bound(n_);

  // Track the historically lowest upper confidence bound on the mean.
  if (n_min_ == 0 || mean + bound < sum_min_ / static_cast<double>(n_min_) +
                                        bound_min_) {
    n_min_ = n_;
    sum_min_ = sum_;
    bound_min_ = bound;
  }

  // Test: has the mean since the best cut point risen significantly?
  if (n_ > n_min_) {
    const std::uint64_t n_rest = n_ - n_min_;
    const double mean_rest =
        (sum_ - sum_min_) / static_cast<double>(n_rest);
    const double mean_best = sum_min_ / static_cast<double>(n_min_);
    const double eps =
        hoeffding_bound(n_min_) + hoeffding_bound(n_rest);
    if (mean_rest - mean_best > eps) {
      rearm();
      ctrs.firings.inc();
      return true;
    }
  }
  return false;
}

void HddmA::rearm() {
  n_ = 0;
  sum_ = 0.0;
  n_min_ = 0;
  sum_min_ = 0.0;
  bound_min_ = std::numeric_limits<double>::infinity();
}

void HddmA::reset() {
  rearm();
  lo_ = std::numeric_limits<double>::infinity();
  hi_ = -std::numeric_limits<double>::infinity();
}

// --- Page–Hinkley -----------------------------------------------------

PageHinkley::PageHinkley(PageHinkleyConfig cfg) : cfg_(cfg) {}

bool PageHinkley::update(double value) {
  static DetectorCounters ctrs("PageHinkley");
  ctrs.updates.inc();
  ++n_;
  mean_ = mean_ * kPhForgetting + value * (1.0 - kPhForgetting);
  if (n_ == 1) mean_ = value;
  cum_ += value - mean_ - cfg_.delta;
  cum_min_ = std::min(cum_min_, cum_);
  if (n_ < kPhMinSamples) return false;
  if (cum_ - cum_min_ > cfg_.lambda) {
    const double m = mean_;
    reset();
    mean_ = m;  // keep the level estimate across the concept switch
    ctrs.firings.inc();
    return true;
  }
  return false;
}

void PageHinkley::reset() {
  n_ = 0;
  mean_ = 0.0;
  cum_ = 0.0;
  cum_min_ = 0.0;
}

}  // namespace leaf::drift
