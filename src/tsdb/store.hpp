// leaf::tsdb — embedded deterministic time-series store for fleet
// telemetry.
//
// `scrape()` is point-in-time: the moment a value scrolls past, the trend
// is gone — yet LEAF's whole premise is that drift decisions need
// *retained* history.  A `Store` closes that loop in-process: the serving
// runtime records one sample per series per fleet step, timestamped with
// the logical step index (never wall-clock), into per-series ring
// buffers with tiered downsampling:
//
//   raw       last `kRawCapacity` (step, value) samples
//   10-step   last `kAgg10Capacity` buckets of min/max/sum/count
//   100-step  last `kAgg100Capacity` buckets of min/max/sum/count
//
// Because samples arrive from the runtime's serial step epilogue in
// logical-step order, every ring buffer, every aggregate bucket, and the
// store's serialized form are pure functions of the execution —
// bit-identical at any LEAF_THREADS and across SIGKILL + --resume (the
// store snapshots alongside shard state in the LEAFSNAP container).
//
// Series carry a `deterministic` flag: fleet-state-derived series
// (NRMSE, health, quarantine counts) are deterministic and participate
// in `fingerprint()`; net-plane rate series sampled off process-lifetime
// registry counters are volatile (their *deltas* are schedule-driven but
// their baselines are process history) and are stored for operators but
// excluded from determinism checks — the same split the `_seconds`
// naming convention draws for wall-clock metrics, which are likewise
// excluded.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "io/serializer.hpp"

namespace leaf::tsdb {

/// Query granularity: raw samples or one of the downsampled tiers.
enum class Resolution : std::uint8_t {
  kRaw = 0,
  kTenStep = 1,
  kHundredStep = 2,
};

const char* to_string(Resolution r);

/// One raw observation: logical step index + value.
struct Sample {
  std::uint64_t step = 0;
  double value = 0.0;

  bool operator==(const Sample&) const = default;
};

/// One downsampled bucket covering [start_step, start_step + width).
struct AggBucket {
  std::uint64_t start_step = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  std::uint64_t count = 0;

  bool operator==(const AggBucket&) const = default;
};

/// One series' worth of query results.  At kRaw, `steps`/`values` hold
/// the matching samples and the aggregate vectors are empty; at the
/// downsampled tiers `values` holds each bucket's mean and min/max/counts
/// hold the rest of the bucket.
struct SeriesData {
  std::string name;
  std::string labels;  ///< canonical label string ("{k=\"v\",...}" or "")
  Resolution resolution = Resolution::kRaw;
  std::vector<std::uint64_t> steps;
  std::vector<double> values;
  std::vector<double> min;
  std::vector<double> max;
  std::vector<std::uint64_t> counts;

  bool operator==(const SeriesData&) const = default;
};

class Store {
 public:
  // Ring-buffer and retention bounds: ~5k steps of history per series
  // across the three tiers in a few KB.
  /// Raw samples kept per series.
  static constexpr std::size_t kRawCapacity = 512;
  /// 10-step buckets kept per series.
  static constexpr std::size_t kAgg10Capacity = 256;
  /// 100-step buckets kept per series.
  static constexpr std::size_t kAgg100Capacity = 128;
  /// Series cap; samples for further names are dropped.
  static constexpr std::size_t kMaxSeries = 512;

  /// Records one sample for (name, labels) at logical step `step`.
  /// Non-finite values are dropped (a telemetry fault is not a data
  /// point).  `deterministic` marks the series for fingerprint()
  /// inclusion; the flag is sticky from the first record of a series.
  /// Steps must be non-decreasing per series (samples arrive from the
  /// serial step epilogue); an out-of-order step is dropped and counted.
  void record(const std::string& name, const std::string& labels,
              std::uint64_t step, double value, bool deterministic = true);

  std::size_t num_series() const { return series_.size(); }
  std::uint64_t last_step() const { return last_step_; }
  std::uint64_t samples_recorded() const { return samples_recorded_; }
  /// Samples refused: series cap hit, non-finite, or out-of-order step.
  std::uint64_t samples_dropped() const { return samples_dropped_; }

  /// Name matcher: exact match, or prefix match with a trailing '*'
  /// ("leaf_fleet_*").  Label matcher: substring of the canonical label
  /// string ("" matches everything).
  struct Query {
    std::string name;
    std::string labels_contains;
    std::uint64_t start_step = 0;
    std::uint64_t end_step = ~0ULL;  ///< inclusive
    Resolution resolution = Resolution::kRaw;
    std::size_t max_series = 16;
  };

  struct QueryResult {
    std::vector<SeriesData> series;  ///< (name, labels) lexicographic order
    bool truncated = false;          ///< more series matched than returned
  };

  QueryResult query(const Query& q) const;

  /// FNV-1a over every deterministic, non-`_seconds` series: names,
  /// labels, raw samples, and both aggregate tiers, in lexicographic
  /// series order.  The CI determinism gates compare this across thread
  /// counts and across SIGKILL + --resume.
  std::uint64_t fingerprint() const;

  /// Snapshot support (the LEAFSNAP "tsdb" section).
  void save(io::Serializer& out) const;
  void load(io::Deserializer& in);

  void clear();

 private:
  struct Series {
    bool deterministic = true;
    std::deque<Sample> raw;
    std::deque<AggBucket> agg10;
    std::deque<AggBucket> agg100;
  };

  static void fold(std::deque<AggBucket>& tier, std::uint64_t bucket_start,
                   double value, std::size_t capacity);

  std::map<std::pair<std::string, std::string>, Series> series_;
  std::uint64_t last_step_ = 0;
  std::uint64_t samples_recorded_ = 0;
  std::uint64_t samples_dropped_ = 0;
};

}  // namespace leaf::tsdb
