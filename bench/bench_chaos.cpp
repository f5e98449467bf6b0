// bench_chaos — deterministic chaos harness for the supervision layer.
//
// Drives leaf::serve fleets through seeded fault schedules (leaf::chaos)
// and verifies, at multiple thread counts:
//
//   isolation  permanently faulting 2 of 8 shards quarantines exactly
//              those two while every healthy shard's results and masked
//              supervision stream stay byte-identical to a chaos-free run;
//   rollback   corrupting the newest snapshot generation on disk rolls
//              exactly the damaged shard back to the previous generation
//              (snapshot_fallbacks == 1) with zero healthy-shard
//              divergence after replay;
//   storm      a retrain storm trips the per-shard circuit breaker the
//              same number of times at every thread count;
//   watchdog   the fleet's SLO watchdog, fed by its telemetry tick, trips
//              slo-burn-critical on the quarantine burn, and the event
//              shows up in the merged supervision JSONL (skipped with
//              -DLEAF_OBS=OFF: no telemetry tick, nothing to observe);
//   partial    a failed snapshot write leaves no litter and the fleet
//              keeps serving.
//
// Any violation exits non-zero.  Emits BENCH_chaos.{csv,json}.  `--smoke`
// shrinks the sweep; at LEAF_SCALE=small it also pins the event counts to
// the goldens below (the `bench_chaos_smoke` ctest).
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "chaos/chaos.hpp"
#include "core/evaluation.hpp"
#include "data/generator.hpp"
#include "obs/events.hpp"
#include "obs/slo.hpp"
#include "par/parallel.hpp"
#include "serve/runtime.hpp"

using namespace leaf;

namespace {

// Golden counts of `--smoke` at LEAF_SCALE=small.
constexpr std::uint64_t kGoldenQuarantined = 2, kGoldenFaults = 8,
                        kGoldenFallbacks = 1, kGoldenBreakerTrips = 18,
                        kGoldenSuppressed = 144, kGoldenCriticals = 1;

std::vector<serve::ShardSpec> make_specs() {
  std::vector<serve::ShardSpec> specs;
  specs.reserve(8);
  for (std::size_t i = 0; i < 8; ++i)
    specs.push_back({data::kAllTargets[i % data::kAllTargets.size()],
                     models::ModelFamily::kRidge,
                     i % 3 == 0 ? "Triggered" : (i % 3 == 1 ? "LEAF" : "Naive30"),
                     0});
  return specs;
}

serve::SupervisorConfig with_chaos(const std::string& spec) {
  serve::SupervisorConfig sup;
  sup.chaos = chaos::ChaosConfig::parse(spec);
  return sup;
}

/// Flips one payload bit of the named section inside a LEAFSNAP file on
/// disk (simulated storage rot; layout per io/snapshot.hpp).
bool corrupt_section_on_disk(const std::string& path,
                             const std::string& name) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  in.close();
  const auto rd32 = [&bytes](std::size_t p) {
    return static_cast<std::uint32_t>(bytes[p]) |
           static_cast<std::uint32_t>(bytes[p + 1]) << 8 |
           static_cast<std::uint32_t>(bytes[p + 2]) << 16 |
           static_cast<std::uint32_t>(bytes[p + 3]) << 24;
  };
  std::size_t pos = 8 + 4;  // magic + version
  if (pos + 4 > bytes.size()) return false;
  const std::uint32_t count = rd32(pos);
  pos += 4;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (pos + 4 > bytes.size()) return false;
    const std::uint32_t name_len = rd32(pos);
    pos += 4;
    if (pos + name_len + 8 + 4 > bytes.size()) return false;
    const std::string section(reinterpret_cast<const char*>(bytes.data() + pos),
                              name_len);
    pos += name_len;
    const std::uint64_t payload_len =
        static_cast<std::uint64_t>(rd32(pos)) |
        static_cast<std::uint64_t>(rd32(pos + 4)) << 32;
    pos += 8 + 4;
    if (pos + payload_len > bytes.size()) return false;
    if (section == name && payload_len > 0) {
      bytes[pos + payload_len / 2] ^= 0x01;
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
      return out.good();
    }
    pos += payload_len;
  }
  return false;
}

int fail(const char* what) {
  std::fprintf(stderr, "FATAL: %s\n", what);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  Scale scale = Scale::from_env();
  scale.fixed_enbs = std::min(scale.fixed_enbs, 8);
  scale.num_kpis = std::min(scale.num_kpis, 24);
  scale.eval_stride_days = std::max(scale.eval_stride_days, smoke ? 6 : 4);
  bench::banner("chaos", "leaf::chaos supervision & self-healing harness",
                scale);

  const data::CellularDataset ds = data::generate_fixed_dataset(scale, 42);
  const std::vector<int> faulted = {2, 5};
  const std::vector<int> healthy = {0, 1, 3, 4, 6, 7};
  const std::vector<int> thread_counts =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4};

  CsvWriter csv = bench::csv("BENCH_chaos.csv");
  csv.row({"scenario", "threads", "seconds", "quarantined", "faults",
           "breaker_trips", "suppressed_retrains", "snapshot_fallbacks",
           "healthy_divergence"});

  // ---- baseline (no chaos) ------------------------------------------------
  par::set_threads(1);
  serve::FleetRuntime baseline(ds, scale, make_specs());
  const obs::Stopwatch sw_base;
  baseline.run_steps(UINT64_MAX);
  std::printf("%-10s %8s %10s %12s %8s %10s\n", "scenario", "threads",
              "seconds", "quarantined", "trips", "fallbacks");
  std::printf("%-10s %8d %10.3f %12d %8d %10d\n", "baseline", 1,
              sw_base.seconds(), 0, 0, 0);
  std::vector<std::uint64_t> base_fp;
  for (const core::EvalResult& r : baseline.results())
    base_fp.push_back(bench::result_fingerprint(r));

  // ---- isolation: 2 of 8 shards permanently faulted -----------------------
  const std::string isolation_spec = "seed=5,shards=2+5,step-throw=1";
  std::string reference_supervision;
  int isolation_quarantined = 0, isolation_faults = 0;
  for (int threads : thread_counts) {
    par::set_threads(threads);
    serve::FleetRuntime fleet(ds, scale, make_specs(), 2024,
                              with_chaos(isolation_spec));
    const obs::Stopwatch sw;
    fleet.run_steps(UINT64_MAX);
    const serve::ServeStats st = fleet.stats();

    int divergence = 0;
    const std::vector<core::EvalResult> results = fleet.results();
    for (int s : healthy)
      if (bench::result_fingerprint(results[s]) != base_fp[s]) ++divergence;
    for (int s : faulted)
      if (st.shards[s].health != serve::ShardHealth::kQuarantined)
        return fail("isolation: targeted shard not quarantined");
    if (st.shards_quarantined != faulted.size())
      return fail("isolation: unexpected quarantine count");
    if (divergence != 0)
      return fail("isolation: healthy shard diverged from chaos-free run");
    const std::string supervision = fleet.supervision_jsonl(false);
    if (threads == thread_counts.front())
      reference_supervision = supervision;
    else if (supervision != reference_supervision)
      return fail("isolation: supervision stream differs across threads");
    isolation_quarantined = static_cast<int>(st.shards_quarantined);
    isolation_faults = st.total_faults;
    std::printf("%-10s %8d %10.3f %12zu %8d %10d\n", "isolation", threads,
                sw.seconds(), st.shards_quarantined, st.total_breaker_trips,
                st.snapshot_fallbacks);
    csv.row({"isolation", std::to_string(threads), fmt(sw.seconds()),
             std::to_string(st.shards_quarantined),
             std::to_string(st.total_faults),
             std::to_string(st.total_breaker_trips),
             std::to_string(st.total_suppressed_retrains),
             std::to_string(st.snapshot_fallbacks), std::to_string(0)});
  }

  // ---- rollback: corrupt newest generation, restore, replay ---------------
  par::set_threads(1);
  const std::string dir = bench::out_dir() + "/chaos_rollback";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  int rollback_fallbacks = 0;
  {
    serve::FleetRuntime victim(ds, scale, make_specs());
    victim.run_steps(2);
    if (victim.snapshot(dir) == 0) return fail("rollback: snapshot failed");
    victim.run_steps(2);
    if (victim.snapshot(dir) == 0) return fail("rollback: snapshot failed");
    if (!corrupt_section_on_disk(serve::SnapshotStore(dir).path(2), "shard6"))
      return fail("rollback: could not corrupt snapshot");

    serve::FleetRuntime revived(ds, scale, make_specs());
    const obs::Stopwatch sw;
    revived.restore(dir);
    rollback_fallbacks = revived.stats().snapshot_fallbacks;
    if (rollback_fallbacks != 1)
      return fail("rollback: expected exactly one shard fallback");
    revived.run_steps(UINT64_MAX);
    int divergence = 0;
    const std::vector<core::EvalResult> results = revived.results();
    for (std::size_t s = 0; s < results.size(); ++s)
      if (bench::result_fingerprint(results[s]) != base_fp[s]) ++divergence;
    if (divergence != 0)
      return fail("rollback: replay diverged from uninterrupted run");
    std::printf("%-10s %8d %10.3f %12d %8d %10d\n", "rollback", 1,
                sw.seconds(), 0, 0, rollback_fallbacks);
    csv.row({"rollback", "1", fmt(sw.seconds()), "0", "0", "0", "0",
             std::to_string(rollback_fallbacks), "0"});
  }

  // ---- storm: retrain storm trips the breaker deterministically -----------
  serve::SupervisorConfig storm_sup = with_chaos("shards=1,retrain-storm=1");
  storm_sup.breaker = core::BreakerConfig{
      .max_retrains = 3, .window_days = 30, .cooldown_days = 45};
  int storm_trips = -1, storm_suppressed = -1;
  for (int threads : thread_counts) {
    par::set_threads(threads);
    serve::FleetRuntime fleet(ds, scale, make_specs(), 2024, storm_sup);
    const obs::Stopwatch sw;
    fleet.run_steps(UINT64_MAX);
    const serve::ServeStats st = fleet.stats();
    if (st.total_breaker_trips < 1)
      return fail("storm: breaker never tripped");
    if (storm_trips < 0) {
      storm_trips = st.total_breaker_trips;
      storm_suppressed = st.total_suppressed_retrains;
    } else if (st.total_breaker_trips != storm_trips ||
               st.total_suppressed_retrains != storm_suppressed) {
      return fail("storm: breaker trajectory differs across threads");
    }
    std::printf("%-10s %8d %10.3f %12zu %8d %10d\n", "storm", threads,
                sw.seconds(), st.shards_quarantined, st.total_breaker_trips,
                st.snapshot_fallbacks);
    csv.row({"storm", std::to_string(threads), fmt(sw.seconds()), "0",
             std::to_string(st.total_faults),
             std::to_string(st.total_breaker_trips),
             std::to_string(st.total_suppressed_retrains), "0", "0"});
  }

  // ---- watchdog: quarantine burn surfaces in the supervision stream -------
  // The isolation fault schedule quarantines 2 of 8 shards; the fleet's
  // SLO watchdog, fed by its per-step telemetry tick, must trip
  // slo-burn-critical (quarantine rate 0.25 over a 0.2 threshold), and its
  // events must merge into the fleet's supervision JSONL.
  int watchdog_criticals = 0;
  if (obs::kCompiledIn) {
    par::set_threads(1);
    serve::SupervisorConfig sup = with_chaos(isolation_spec);
    sup.slo = obs::SloSpec::parse("window=4,quarantine=0.2");
    serve::FleetRuntime fleet(ds, scale, make_specs(), 2024, sup);
    const obs::SloWatchdog& dog = *fleet.slo_watchdog();
    const obs::Stopwatch sw;
    fleet.run_steps(UINT64_MAX);
    if (dog.state() != obs::SloWatchdog::State::kCritical)
      return fail("watchdog: quarantine burn never went critical");
    for (const obs::Event& e : dog.events().events())
      if (e.kind == obs::EventKind::kSloBurnCritical) ++watchdog_criticals;
    if (watchdog_criticals == 0)
      return fail("watchdog: no slo-burn-critical event emitted");
    const std::string merged = fleet.supervision_jsonl(false);
    if (merged.find("slo-burn-critical") == std::string::npos)
      return fail("watchdog: event missing from merged supervision stream");
    std::printf("%-10s %8d %10.3f %12zu %8d %10d\n", "watchdog", 1,
                sw.seconds(), fleet.stats().shards_quarantined,
                watchdog_criticals, 0);
    csv.row({"watchdog", "1", fmt(sw.seconds()),
             std::to_string(fleet.stats().shards_quarantined),
             std::to_string(watchdog_criticals), "0", "0", "0", "0"});
  } else {
    std::printf("%-10s skipped (-DLEAF_OBS=OFF)\n", "watchdog");
  }

  // ---- partial: failed snapshot write leaves no litter --------------------
  par::set_threads(1);
  {
    const std::string pdir = bench::out_dir() + "/chaos_partial";
    std::filesystem::remove_all(pdir, ec);
    serve::FleetRuntime fleet(ds, scale, make_specs(), 2024,
                              with_chaos("snapshot-partial=1"));
    fleet.run_steps(1);
    if (fleet.snapshot(pdir) != 0)
      return fail("partial: injected write fault did not fire");
    for (const auto& entry : std::filesystem::directory_iterator(pdir, ec)) {
      (void)entry;
      return fail("partial: failed snapshot left litter behind");
    }
    if (fleet.run_steps(1) == 0)
      return fail("partial: fleet stalled after failed snapshot");
    std::printf("%-10s %8d %10s %12d %8d %10d\n", "partial", 1, "-", 0, 0, 0);
    csv.row({"partial", "1", "0", "0", "0", "0", "0", "0", "0"});
  }

  std::ofstream json(bench::out_dir() + "/BENCH_chaos.json");
  json << "{\n"
       << "  \"isolation\": {\"quarantined\": " << isolation_quarantined
       << ", \"faults\": " << isolation_faults
       << ", \"healthy_divergence\": 0, \"supervision_identical\": true},\n"
       << "  \"rollback\": {\"snapshot_fallbacks\": " << rollback_fallbacks
       << ", \"healthy_divergence\": 0},\n"
       << "  \"storm\": {\"breaker_trips\": " << storm_trips
       << ", \"suppressed_retrains\": " << storm_suppressed << "},\n"
       << "  \"watchdog\": {\"criticals\": " << watchdog_criticals
       << ", \"merged_into_supervision\": "
       << (obs::kCompiledIn ? "true" : "false") << "},\n"
       << "  \"metrics\": " << bench::metrics_json() << "\n}\n";
  par::set_threads(0);
  bench::require_ok(csv);
  std::printf("\nwrote %s/BENCH_chaos.json\n", bench::out_dir().c_str());

  if (smoke && scale.level == Scale::Level::kSmall) {
    bench::require_golden("isolation.quarantined", isolation_quarantined,
                          kGoldenQuarantined);
    bench::require_golden("isolation.faults", isolation_faults,
                          kGoldenFaults);
    bench::require_golden("rollback.snapshot_fallbacks", rollback_fallbacks,
                          kGoldenFallbacks);
    bench::require_golden("storm.breaker_trips", storm_trips,
                          kGoldenBreakerTrips);
    bench::require_golden("storm.suppressed_retrains", storm_suppressed,
                          kGoldenSuppressed);
    if (obs::kCompiledIn)
      bench::require_golden("watchdog.criticals", watchdog_criticals,
                            kGoldenCriticals);
  }
  return 0;
}
