#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/rng.hpp"
#include "data/generator.hpp"
#include "data/kpi.hpp"
#include "obs/metrics.hpp"

namespace leafbench {

leaf::Scale bench_scale() {
  return leaf::Scale::for_level(leaf::Scale::Level::kSmall);
}

std::uint64_t pass_seed(std::uint64_t seed, int pass) {
  if (pass == 0) return seed;
  return leaf::Rng(seed).substream(static_cast<std::uint64_t>(pass))();
}

std::vector<leaf::serve::ShardSpec> fleet_specs(std::size_t shards,
                                                const std::string& scheme) {
  std::vector<leaf::serve::ShardSpec> specs;
  for (std::size_t i = 0; i < shards; ++i)
    specs.push_back(
        {leaf::data::kAllTargets[i % leaf::data::kAllTargets.size()],
         leaf::models::ModelFamily::kGbdt, scheme, 0});
  return specs;
}

Deployed deploy(const std::vector<leaf::serve::ShardSpec>& specs,
                std::uint64_t seed) {
  const leaf::Scale scale = bench_scale();
  Deployed d;
  d.ds = std::make_unique<leaf::data::CellularDataset>(
      leaf::data::generate_fixed_dataset(scale, seed));
  d.fleet =
      std::make_unique<leaf::serve::FleetRuntime>(*d.ds, scale, specs, seed);
  d.fleet->run_steps(0);  // initial fits
  return d;
}

std::uint64_t fingerprint(const leaf::core::EvalResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (double v : r.nrmse) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
  }
  for (int d : r.retrain_days) mix(static_cast<std::uint64_t>(d));
  for (int d : r.drift_days) mix(static_cast<std::uint64_t>(d));
  return h;
}

std::vector<std::uint64_t> fingerprints(
    const std::vector<leaf::core::EvalResult>& results) {
  std::vector<std::uint64_t> out;
  for (const leaf::core::EvalResult& r : results) out.push_back(fingerprint(r));
  return out;
}

Goldens::Goldens(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string scheme, seed, shard, fp;
    if (!(fields >> scheme >> seed >> shard >> fp)) continue;
    by_key_[scheme + " " + seed + " " + shard] = std::stoull(fp, nullptr, 16);
  }
}

namespace {

std::string golden_line(const std::string& scheme, std::uint64_t fleet_seed,
                        std::size_t shard, std::uint64_t fp) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s %llu %zu %016llx", scheme.c_str(),
                static_cast<unsigned long long>(fleet_seed), shard,
                static_cast<unsigned long long>(fp));
  return buf;
}

}  // namespace

std::size_t Goldens::verify(const std::string& scheme,
                            std::uint64_t fleet_seed,
                            const std::vector<std::uint64_t>& fps,
                            Report& r) const {
  std::size_t compared = 0;
  for (std::size_t i = 0; i < fps.size(); ++i) {
    r.golden_lines.push_back(golden_line(scheme, fleet_seed, i, fps[i]));
    const auto it = by_key_.find(scheme + " " + std::to_string(fleet_seed) +
                                 " " + std::to_string(i));
    if (it == by_key_.end()) continue;
    ++compared;
    r.check(it->second == fps[i],
            "golden mismatch: " + golden_line(scheme, fleet_seed, i, fps[i]));
  }
  return compared;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

ScratchDir::ScratchDir(const Options& o, const std::string& name) {
  path_ = o.workdir + "/" + name + "-" + std::to_string(::getpid());
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

std::uint64_t timed_snapshot(leaf::serve::FleetRuntime& fleet,
                             const std::string& dir, std::vector<double>& ms,
                             Report& r) {
  const double t0 = now_s();
  const std::uint64_t bytes = fleet.snapshot(dir);
  ms.push_back((now_s() - t0) * 1e3);
  r.check(bytes > 0, "snapshot write failed in " + dir);
  return bytes;
}

void timed_restores(
    int count, const std::string& dir,
    const std::function<std::unique_ptr<leaf::serve::FleetRuntime>()>& make,
    const std::function<bool(const leaf::serve::FleetRuntime&)>& same,
    std::vector<double>& ms, Report& r) {
  for (int i = 0; i < count; ++i) {
    std::unique_ptr<leaf::serve::FleetRuntime> fresh = make();
    const double t0 = now_s();
    fresh->restore(dir);
    ms.push_back((now_s() - t0) * 1e3);
    r.check(same(*fresh), "restored fleet differs from the snapshotted one");
  }
}

void record_layer_table(const LayerTable& t, Report& r) {
  r.tables.push_back(t);
  for (const LayerRow& row : t.rows) r.set(row.name, row.value);
  r.set("layer_total_ms", t.total);
  r.set("unattributed_ms", t.unattributed());
  r.set("unattributed_share", t.total > 0 ? t.unattributed() / t.total : 0.0);
}

void record_simd_calls(Report& r) {
  // The kernels tree models and NRMSE run; the others serve KNN, LSTM and
  // ridge, which no workload deploys.
  static constexpr const char* kKernels[] = {"squared_error",
                                             "hist_accumulate"};
  for (const char* k : kKernels)
    r.set(std::string("simd.calls.") + k,
          static_cast<double>(leaf::obs::MetricsRegistry::global()
                                  .counter("leaf_simd_calls_total",
                                           leaf::obs::label("kernel", k))
                                  .value()));
}

}  // namespace leafbench
