// ADWIN (ADaptive WINdowing; Bifet & Gavaldà 2007).
//
// Keeps a variable-length window of recent values compressed into
// exponential-histogram buckets and drops the oldest buckets whenever two
// sub-windows have means that differ beyond a Hoeffding-style bound with
// confidence delta.  One of the detectors the paper's footnote 2 compares
// against KSWIN.
#pragma once

#include <cstdint>
#include <deque>

#include "drift/detector.hpp"

namespace leaf::drift {

class Adwin final : public DriftDetector {
 public:
  bool update(double value) override;
  void reset() override;
  std::string name() const override { return "ADWIN"; }

  std::size_t window_length() const { return total_count_; }

 private:
  struct Bucket {
    double sum = 0.0;
    double var = 0.0;       ///< within-bucket sum of squared deviations
    std::uint64_t count = 0;
  };

  void insert(double value);
  void compress();
  bool detect_cut();
  void drop_oldest_bucket();

  // rows_[i] holds buckets of capacity 2^i, newest first within a row;
  // rows_ ordered small (new) to large (old).
  std::deque<std::deque<Bucket>> rows_;
  std::uint64_t total_count_ = 0;
  double total_sum_ = 0.0;
  double total_var_ = 0.0;
  int since_check_ = 0;
};

}  // namespace leaf::drift
