// Shared plumbing for the per-table / per-figure bench binaries.
//
// Every bench:
//   * honours LEAF_SCALE (small | medium | full; see common/config.hpp);
//   * prints the paper's rows/series to stdout (ASCII table or chart);
//   * additionally dumps the raw series as CSV under $LEAF_BENCH_OUT
//     (default ./bench_out) for external re-plotting.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "common/calendar.hpp"
#include "common/config.hpp"
#include "common/csv.hpp"
#include "common/fnv.hpp"
#include "core/evaluation.hpp"
#include "obs/metrics.hpp"

namespace leaf::bench {

/// Directory for CSV dumps; created on first use.
inline std::string out_dir() {
  const char* env = std::getenv("LEAF_BENCH_OUT");
  std::string dir = env != nullptr ? env : "bench_out";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

/// Opens a CSV file in the output directory.
inline CsvWriter csv(const std::string& name) {
  return CsvWriter(out_dir() + "/" + name);
}

/// Flushes the writer and aborts the bench loudly if any write failed.
/// Every bench calls this when it is done with a writer: a truncated CSV
/// that parses as a shorter experiment is strictly worse than no CSV.
inline void require_ok(CsvWriter& w) {
  if (!w.finish()) {
    std::fprintf(stderr, "FATAL: %s\n", w.error().c_str());
    std::exit(1);
  }
}

/// Pins one logical output (a count or a result fingerprint) to the value
/// recorded at LEAF_SCALE=small, where the `smoke` ctests run the bench:
/// a mismatch prints both values and exits 1.  Benches call it only at
/// the scale and `--smoke` setting the golden was recorded at.
inline void require_golden(const char* what, std::uint64_t got,
                           std::uint64_t want, bool hex = false) {
  if (got == want) return;
  std::fprintf(stderr, hex ? "FATAL: golden %s: got %llx, want %llx\n"
                           : "FATAL: golden %s: got %llu, want %llu\n",
               what, static_cast<unsigned long long>(got),
               static_cast<unsigned long long>(want));
  std::exit(1);
}

/// Standard header every bench prints.
inline void banner(const char* exp_id, const char* what, const Scale& scale) {
  std::printf("================================================================\n");
  std::printf("LEAF reproduction — %s\n", exp_id);
  std::printf("%s\n", what);
  std::printf("scale=%s (LEAF_SCALE=small|medium|full to resize)\n",
              scale.name().c_str());
  std::printf("================================================================\n");
}

/// Best-of-`reps` wall milliseconds of `fn`, timed with the obs monotonic
/// stopwatch.  Every rep is also recorded into the span site
/// `bench.<name>`, so a bench's `"metrics"` JSON section carries its own
/// timing distribution alongside the library's counters.
inline double time_best_ms(const char* name, const std::function<void()>& fn,
                           int reps = 3) {
  obs::SpanSite& site = obs::MetricsRegistry::global().span_site(
      std::string("bench.") + name);
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const obs::Stopwatch sw;
    fn();
    const double ms = sw.ms();
    site.record_ns(static_cast<std::uint64_t>(ms * 1e6));
    best = std::min(best, ms);
  }
  return best;
}

/// The process metrics registry as a JSON object, for embedding as the
/// `"metrics"` section of a BENCH_*.json dump (cache hit rates, retrain
/// counts, span timings).
inline std::string metrics_json() {
  return obs::MetricsRegistry::global().scrape_json();
}

/// Year tick labels for a day-indexed series (for ASCII x-axes).
inline std::vector<std::string> year_ticks(int first_day, int last_day) {
  std::vector<std::string> ticks;
  const int first_year = cal::date_of(first_day).year;
  const int last_year = cal::date_of(last_day).year;
  for (int y = first_year; y <= last_year; ++y)
    ticks.push_back(std::to_string(y));
  return ticks;
}

/// FNV-1a word mix over a result's NRMSE bits, retrain days and drift
/// days, continuing from `h` (so a fleet's results chain into one value).
inline std::uint64_t result_fingerprint(const core::EvalResult& r,
                                        std::uint64_t h = kFnvOffset) {
  for (double v : r.nrmse) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    h = fnv1a_word(h, bits);
  }
  for (int d : r.retrain_days) h = fnv1a_word(h, static_cast<std::uint64_t>(d));
  for (int d : r.drift_days) h = fnv1a_word(h, static_cast<std::uint64_t>(d));
  return h;
}

}  // namespace leaf::bench
