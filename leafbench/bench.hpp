// Shared plumbing for the leafbench workloads: options, the report every
// workload fills, fleet construction and the output checks' fingerprints.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "core/evaluation.hpp"
#include "serve/runtime.hpp"
#include "stats.hpp"

namespace leafbench {

/// Worker threads for every workload: the pool's one worker plus the
/// thread that submits (the fleet stepper or the server).
inline constexpr int kThreads = 2;
/// Steps between fleet snapshots.
inline constexpr int kSnapshotEvery = 50;
/// Set-ups timed per run, at least (setup_s reports their median).
inline constexpr int kMinSetups = 5;
/// Dataset and fleet seed of the serving workloads' reference fleet; their
/// --seed drives the request stream instead.
inline constexpr std::uint64_t kReferenceSeed = 42;

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 16.0;
  bool trace = false;
  bool smoke = false;
  std::string workdir = ".bench_build/work";
  std::string out;
  std::string commit = "unknown";
  bool print_goldens = false;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;           ///< output-check failures
  std::map<std::string, double> values;        ///< metric name -> value
  std::vector<LayerTable> tables;              ///< traced breakdowns
  std::vector<std::pair<std::string, std::string>> notes;  ///< header extras
  std::vector<std::string> golden_lines;       ///< for --print-goldens

  /// Records a failed check once, however often it fails.
  void check(bool ok, const std::string& what) {
    if (!ok && std::find(failures.begin(), failures.end(), what) ==
                   failures.end())
      failures.push_back(what);
  }
  void set(const std::string& name, double v) { values[name] = v; }
  void note(const std::string& key, const std::string& v) {
    notes.emplace_back(key, v);
  }
};

/// Small scale, pinned: LEAF_SCALE is ignored.
leaf::Scale bench_scale();

/// Seed of pass p: the run's seed for pass 0, an independent substream for
/// later passes, so a run averages over several inputs.
std::uint64_t pass_seed(std::uint64_t seed, int pass);

/// One GBDT shard per target KPI (cycling), all under `scheme`.
std::vector<leaf::serve::ShardSpec> fleet_specs(std::size_t shards,
                                                const std::string& scheme);

/// A deployed fleet and the dataset it reads.  Reset `fleet` before
/// reassigning: member-wise assignment replaces the dataset first.
struct Deployed {
  std::unique_ptr<leaf::data::CellularDataset> ds;
  std::unique_ptr<leaf::serve::FleetRuntime> fleet;
};

/// Set-up: generates the network's telemetry for `seed`, deploys the fleet
/// with fleet seed `seed`, and runs its initial fits.
Deployed deploy(const std::vector<leaf::serve::ShardSpec>& specs,
                std::uint64_t seed);

/// FNV-1a over a shard's NRMSE series, retrain days and drift days (the
/// bench_serve determinism recipe).
std::uint64_t fingerprint(const leaf::core::EvalResult& r);
std::vector<std::uint64_t> fingerprints(
    const std::vector<leaf::core::EvalResult>& results);

/// Committed per-shard fingerprints, keyed by scheme, fleet seed and shard.
class Goldens {
 public:
  /// Missing or unreadable file: no goldens (checks are then skipped).
  explicit Goldens(const std::string& path);
  /// Compares each shard with its golden when one exists; returns the
  /// number of shards compared.
  std::size_t verify(const std::string& scheme, std::uint64_t fleet_seed,
                     const std::vector<std::uint64_t>& fps, Report& r) const;

 private:
  std::map<std::string, std::uint64_t> by_key_;
};

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// A fresh scratch directory under the workdir, removed on destruction.
class ScratchDir {
 public:
  ScratchDir(const Options& o, const std::string& name);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  /// A sub-directory path (not created).
  std::string sub(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

/// Writes the next snapshot generation of `fleet` into `dir`, appending the
/// write time (ms) to `ms`; returns the file size (a failed write is a
/// check failure).
std::uint64_t timed_snapshot(leaf::serve::FleetRuntime& fleet,
                             const std::string& dir, std::vector<double>& ms,
                             Report& r);

/// Restores the newest generation in `dir` into `count` fresh runtimes from
/// `make`, appending each restore time (ms) to `ms` and checking each
/// restored fleet with `same`.
void timed_restores(
    int count, const std::string& dir,
    const std::function<std::unique_ptr<leaf::serve::FleetRuntime>()>& make,
    const std::function<bool(const leaf::serve::FleetRuntime&)>& same,
    std::vector<double>& ms, Report& r);

/// Records a traced run's layer table: its rows become metrics, with
/// layer_total_ms, unattributed_ms and unattributed_share.
void record_layer_table(const LayerTable& t, Report& r);

/// Reads the exact leaf_simd_calls_total{kernel} counters of the kernels
/// the workloads run into simd.calls.<kernel> metrics.
void record_simd_calls(Report& r);

void run_fleet(const Options& o, Report& r);
void run_serve_loopback(const Options& o, Report& r);
void run_serve_mixed_tcp(const Options& o, Report& r);

}  // namespace leafbench
