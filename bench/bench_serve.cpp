// bench_serve — throughput of the leaf::serve fleet runtime.
//
// Sweeps fleet size (shards) x thread count, runs each fleet to
// completion on a small dataset, and reports evaluation-step throughput
// (shard-days/sec).  Also asserts the determinism contract: per-shard
// results at every thread count must be byte-identical to the
// single-thread run, and at LEAF_SCALE=small equal to the golden
// fingerprints below on every ISA and build flag (the `bench_serve_smoke`
// ctest).  Emits BENCH_serve.json next to the CSV dumps.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/evaluation.hpp"
#include "data/generator.hpp"
#include "par/parallel.hpp"
#include "serve/runtime.hpp"

using namespace leaf;

namespace {

// Result fingerprints at LEAF_SCALE=small for 1, 4 and 8 shards.
constexpr std::size_t kShardCounts[] = {1, 4, 8};
constexpr std::uint64_t kGoldenFingerprints[] = {
    0xe8b87c59c421aff3ULL, 0x5439cdb950677022ULL, 0xaf780295edf4a0eaULL};

std::vector<serve::ShardSpec> make_specs(std::size_t n) {
  std::vector<serve::ShardSpec> specs;
  specs.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    specs.push_back({data::kAllTargets[i % data::kAllTargets.size()],
                     models::ModelFamily::kGbdt, "Triggered", 0});
  return specs;
}

}  // namespace

int main() {
  Scale scale = Scale::from_env();
  // Shrink the per-shard work so the sweep finishes quickly; the fleet
  // structure, not model size, is what is being measured.
  scale.fixed_enbs = std::min(scale.fixed_enbs, 8);
  scale.num_kpis = std::min(scale.num_kpis, 24);
  scale.gbdt_trees = std::min(scale.gbdt_trees, 15);
  scale.eval_stride_days = std::max(scale.eval_stride_days, 4);
  bench::banner("serve", "leaf::serve fleet throughput & determinism", scale);

  const data::CellularDataset ds = data::generate_fixed_dataset(scale, 42);

  const int thread_counts[] = {1, 2, 4};

  CsvWriter csv = bench::csv("BENCH_serve.csv");
  csv.row({"shards", "threads", "steps", "shard_days", "seconds",
           "shard_days_per_sec"});

  std::ofstream json(bench::out_dir() + "/BENCH_serve.json");
  json << "{\n  \"sweep\": [\n";
  bool first = true;

  std::printf("%8s %8s %8s %12s %14s\n", "shards", "threads", "steps",
              "seconds", "shard-days/s");
  for (std::size_t i = 0; i < std::size(kShardCounts); ++i) {
    const std::size_t n_shards = kShardCounts[i];
    std::uint64_t reference_fp = 0;
    for (int threads : thread_counts) {
      par::set_threads(threads);
      serve::FleetRuntime fleet(ds, scale, make_specs(n_shards), 2024);
      const obs::Stopwatch sw;
      const std::uint64_t steps = fleet.run_steps(UINT64_MAX);
      const double secs = sw.seconds();

      std::uint64_t fp = kFnvOffset;
      for (const core::EvalResult& r : fleet.results())
        fp = bench::result_fingerprint(r, fp);
      if (threads == thread_counts[0]) {
        reference_fp = fp;
        if (scale.level == Scale::Level::kSmall)
          bench::require_golden(
              ("fingerprint, " + std::to_string(n_shards) + " shards").c_str(),
              fp, kGoldenFingerprints[i], /*hex=*/true);
      } else if (fp != reference_fp) {
        std::fprintf(stderr,
                     "FATAL: fleet results differ between thread counts "
                     "(%zu shards, %d threads)\n",
                     n_shards, threads);
        return 1;
      }

      const double shard_days =
          static_cast<double>(steps * n_shards * scale.eval_stride_days);
      const double rate = secs > 0.0 ? shard_days / secs : 0.0;
      std::printf("%8zu %8d %8llu %12.3f %14.1f\n", n_shards, threads,
                  static_cast<unsigned long long>(steps), secs, rate);
      csv.row({std::to_string(n_shards), std::to_string(threads),
               std::to_string(steps), fmt(shard_days), fmt(secs), fmt(rate)});
      if (!first) json << ",\n";
      first = false;
      json << "    {\"shards\": " << n_shards << ", \"threads\": " << threads
           << ", \"steps\": " << steps << ", \"seconds\": " << secs
           << ", \"shard_days_per_sec\": " << rate << ", \"fingerprint\": \""
           << std::hex << fp << std::dec << "\"}";
    }
  }
  json << "\n  ],\n  \"determinism\": \"identical results at all thread "
          "counts\",\n  \"metrics\": "
       << bench::metrics_json() << "\n}\n";
  par::set_threads(0);
  bench::require_ok(csv);
  std::printf("\nwrote %s/BENCH_serve.json\n", bench::out_dir().c_str());
  return 0;
}
