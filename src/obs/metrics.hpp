// leaf::obs — low-overhead metrics, span timing, and runtime telemetry.
//
// The registry holds three metric kinds plus RAII span sites:
//   * Counter    — monotonically increasing u64.  Increments go to one of
//                  a fixed set of cache-line-padded per-thread stripes
//                  (lock-free relaxed adds) that are summed on scrape, so
//                  a counter on a leaf::par hot path costs one uncontended
//                  atomic add and its final value is independent of thread
//                  scheduling (integer addition commutes).
//   * Gauge      — last-written double (set from sequential code only).
//   * LatencyHistogram — log-bucketed wall-clock durations with quantile
//                  queries, scraped as a Prometheus summary.  Names must
//                  contain `_seconds`, so determinism tests mask them by
//                  name.
//   * SpanSite   — per-call-site aggregate (count, total/max nanoseconds)
//                  fed by the RAII `LEAF_SPAN("site")` macro.
//
// Determinism contract (DESIGN.md "Observability"): every metric whose
// name does NOT contain `_seconds` is a pure function of the logical
// execution — bit-identical at any LEAF_THREADS — while `*_seconds*`
// metrics (and span durations) carry wall-clock and are explicitly
// excluded from cross-thread / cross-resume comparisons.
//
// Compile gate: building with -DLEAF_OBS=OFF defines LEAF_OBS_ENABLED=0,
// which turns Counter::inc / LatencyHistogram::observe / LEAF_SPAN into
// no-ops the optimizer deletes.  Runtime gate: the LEAF_OBS environment
// variable ("0"/"off" disables) or set_enabled(false) stops span clock
// reads and event emission without recompiling.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#ifndef LEAF_OBS_ENABLED
#define LEAF_OBS_ENABLED 1
#endif

namespace leaf::obs {

inline constexpr bool kCompiledIn = LEAF_OBS_ENABLED != 0;

/// Runtime switch.  Defaults to the LEAF_OBS environment variable (unset,
/// "1", "on" => enabled); always false when compiled out.
bool enabled();
void set_enabled(bool on);

/// Steady-clock seconds since an arbitrary epoch (bench stopwatches and
/// span timing all route through this one monotonic source).
inline double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Simple monotonic stopwatch for code that needs an explicit duration
/// (benches, retrain latency) rather than a scoped span.
class Stopwatch {
 public:
  Stopwatch() : t0_(monotonic_seconds()) {}
  void restart() { t0_ = monotonic_seconds(); }
  double seconds() const { return monotonic_seconds() - t0_; }
  double ms() const { return seconds() * 1e3; }

 private:
  double t0_;
};

// --- striped counter -------------------------------------------------------

inline constexpr std::size_t kStripes = 16;

/// Stable per-thread stripe index in [0, kStripes).
inline std::size_t stripe_of_this_thread() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t idx =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return idx;
}

class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    if constexpr (!kCompiledIn) {
      (void)n;
      return;
    }
    slots_[stripe_of_this_thread()].v.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Slot& s : slots_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  void reset() {
    for (Slot& s : slots_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };
  Slot slots_[kStripes];
};

class Gauge {
 public:
  void set(double v) {
    if constexpr (kCompiledIn) v_.store(v, std::memory_order_relaxed);
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Log-bucketed latency histogram with quantile queries (HdrHistogram
/// style).  Values are nanosecond ticks bucketed log-linearly: exact
/// buckets below 128 ns, then 128 sub-buckets per power of two, so a
/// bucket's midpoint representative is within 1/256 (~0.4%) of any sample
/// it holds — `quantile(p)` agrees with an exact sorted-sample quantile
/// to well under the 1% the SLO views need.  Recording is one relaxed
/// atomic add on a per-bucket slot; adds commute like the striped
/// counters, so the scraped distribution is exact and independent of
/// thread scheduling.  By repo convention these hold wall-clock data and
/// their names contain `_seconds`, keeping every exposed line (quantiles,
/// `_sum`, `_count`) out of the determinism diffs.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 7;  // 128 sub-buckets per octave
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBits;
  // Highest index: e = 63 → (63 - kSubBits) * kSubBuckets + (kSubBuckets - 1),
  // so the table needs (64 - kSubBits) * kSubBuckets... plus one more octave's
  // worth of sub-buckets for the top mantissa range.
  static constexpr std::size_t kBucketCount =
      (64 - kSubBits) * kSubBuckets + kSubBuckets;

  LatencyHistogram();

  /// Records a duration in seconds (negative values clamp to zero).
  void observe(double seconds);
  /// Records a duration in nanosecond ticks.
  void record_ns(std::uint64_t ns);

  /// Value (seconds) at or below which a `p` fraction of samples fall,
  /// using the matching bucket's midpoint representative.  0 when empty.
  double quantile(double p) const;

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum_seconds() const {
    return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) * 1e-9;
  }
  void reset();

  /// Bucket index for a tick value (exposed for tests).
  static std::size_t index_of(std::uint64_t ns);
  /// Midpoint representative tick of bucket `idx` (exposed for tests).
  static std::uint64_t representative_ns(std::size_t idx);

 private:
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
};

// --- spans -----------------------------------------------------------------

/// Aggregated timing for one instrumented site.  `count` is logical
/// (deterministic); the nanosecond fields are wall-clock.
class SpanSite {
 public:
  explicit SpanSite(std::string name) : name_(std::move(name)) {}

  void record_ns(std::uint64_t ns) {
    if constexpr (!kCompiledIn) {
      (void)ns;
      return;
    }
    count_.fetch_add(1, std::memory_order_relaxed);
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
    std::uint64_t prev = max_ns_.load(std::memory_order_relaxed);
    while (ns > prev &&
           !max_ns_.compare_exchange_weak(prev, ns, std::memory_order_relaxed))
      ;
  }

  /// Count a traversal without timing (runtime-disabled spans still keep
  /// their logical call count deterministic).
  void record_untimed() {
    if constexpr (kCompiledIn) count_.fetch_add(1, std::memory_order_relaxed);
  }

  const std::string& name() const { return name_; }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double total_seconds() const {
    return static_cast<double>(total_ns_.load(std::memory_order_relaxed)) * 1e-9;
  }
  double max_seconds() const {
    return static_cast<double>(max_ns_.load(std::memory_order_relaxed)) * 1e-9;
  }
  void reset() {
    count_.store(0, std::memory_order_relaxed);
    total_ns_.store(0, std::memory_order_relaxed);
    max_ns_.store(0, std::memory_order_relaxed);
  }

 private:
  std::string name_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> total_ns_{0};
  std::atomic<std::uint64_t> max_ns_{0};
};

/// RAII span: reads the steady clock only when obs is runtime-enabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanSite& site) : site_(&site) {
    if constexpr (kCompiledIn) {
      if (enabled()) {
        timed_ = true;
        t0_ = std::chrono::steady_clock::now();
      } else {
        site_->record_untimed();
      }
    }
  }
  ~ScopedSpan() {
    if constexpr (kCompiledIn) {
      if (timed_) {
        const auto dt = std::chrono::steady_clock::now() - t0_;
        site_->record_ns(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()));
      }
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanSite* site_;
  std::chrono::steady_clock::time_point t0_{};
  bool timed_ = false;
};

// --- registry --------------------------------------------------------------

class MetricsRegistry {
 public:
  /// Process-wide registry every instrumented site reports into.
  static MetricsRegistry& global();

  /// Registration is idempotent: the first call creates the series, later
  /// calls return the same handle.  Handles are stable for the registry's
  /// lifetime, so hot paths hoist them into static locals.  `labels` is a
  /// Prometheus label body without braces (e.g. `family="GBDT"`), empty
  /// for none.
  Counter& counter(const std::string& name, const std::string& labels = "");
  Gauge& gauge(const std::string& name, const std::string& labels = "");
  /// Log-bucketed latency series, exposed as a Prometheus summary with
  /// quantile lines.  Names must contain `_seconds` (wall-clock data).
  LatencyHistogram& latency(const std::string& name,
                            const std::string& labels = "");
  SpanSite& span_site(const std::string& name);

  /// Total of counter `name` over every registered label set whose label
  /// body contains `labels_contains` (empty: all of them).  Registers
  /// nothing; 0 when no series matches.
  std::uint64_t counter_sum(const std::string& name,
                            const std::string& labels_contains = "") const;

  /// Prometheus text exposition, sorted by (name, labels) so the output
  /// is byte-stable for a given set of metric values.
  std::string scrape() const;
  /// The same data as a JSON object ({"metrics": [...], "spans": [...]}).
  std::string scrape_json() const;

  /// Zeroes every value (registration survives).  For tests and benches
  /// that compare two in-process runs.
  void reset_values();

 private:
  MetricsRegistry() = default;

  using Key = std::pair<std::string, std::string>;  // (name, labels)

  mutable std::mutex mu_;
  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<LatencyHistogram>> latencies_;
  std::map<std::string, std::unique_ptr<SpanSite>> spans_;
};

/// `key="value"` label fragment with the value minimally escaped.
std::string label(const std::string& key, const std::string& value);

}  // namespace leaf::obs

// RAII span macro.  Compiles to nothing with -DLEAF_OBS=OFF; with obs on,
// resolves its site once (magic static) and records a scoped duration.
#if LEAF_OBS_ENABLED
#define LEAF_OBS_CONCAT2(a, b) a##b
#define LEAF_OBS_CONCAT(a, b) LEAF_OBS_CONCAT2(a, b)
#define LEAF_SPAN(site_name)                                       \
  static ::leaf::obs::SpanSite& LEAF_OBS_CONCAT(                   \
      leaf_obs_site_, __LINE__) =                                  \
      ::leaf::obs::MetricsRegistry::global().span_site(site_name); \
  ::leaf::obs::ScopedSpan LEAF_OBS_CONCAT(leaf_obs_span_,          \
                                          __LINE__)(               \
      LEAF_OBS_CONCAT(leaf_obs_site_, __LINE__))
#else
#define LEAF_SPAN(site_name) ((void)0)
#endif
