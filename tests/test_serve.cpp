// Tests for leaf::serve — run_scheme equivalence, thread-count
// determinism, and the crash-equivalence guarantee of snapshot/restore.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/fnv.hpp"
#include "core/evaluation.hpp"
#include "core/experiment.hpp"
#include "data/generator.hpp"
#include "ingest/fault.hpp"
#include "ingest/pipeline.hpp"
#include "io/serializer.hpp"
#include "obs/metrics.hpp"
#include "par/parallel.hpp"
#include "serve/runtime.hpp"
#include "snapshot_fault_helpers.hpp"

namespace leaf::serve {
namespace {

/// Restores the default thread count even if a test fails mid-way.
struct ThreadGuard {
  ~ThreadGuard() { par::set_threads(0); }
};

struct ServeFixture : ::testing::Test {
  Scale scale = Scale::for_level(Scale::Level::kSmall);
  data::CellularDataset ds = data::generate_fixed_dataset(scale, 42);

  std::vector<ShardSpec> small_fleet() const {
    return {{data::TargetKpi::kDVol, models::ModelFamily::kGbdt, "Triggered", 0},
            {data::TargetKpi::kPU, models::ModelFamily::kRidge, "LEAF", 0},
            {data::TargetKpi::kDTP, models::ModelFamily::kGbdt, "Naive30", 0}};
  }

  /// LEAF on every model family, one shard each, KPIs taken in turn.
  std::vector<ShardSpec> leaf_every_family() const {
    const models::ModelFamily families[] = {
        models::ModelFamily::kGbdt,         models::ModelFamily::kLightGbdt,
        models::ModelFamily::kRandomForest, models::ModelFamily::kExtraTrees,
        models::ModelFamily::kKnn,          models::ModelFamily::kLstm,
        models::ModelFamily::kRidge};
    std::vector<ShardSpec> specs;
    for (std::size_t i = 0; i < std::size(families); ++i)
      specs.push_back({data::kAllTargets[i % data::kAllTargets.size()],
                       families[i], "LEAF", 0});
    return specs;
  }

  std::string temp_dir(const std::string& leaf) const {
    const std::string dir = ::testing::TempDir() + "leaf_serve_" + leaf;
    std::filesystem::create_directories(dir);
    return dir;
  }
};

void expect_identical(const core::EvalResult& a, const core::EvalResult& b) {
  EXPECT_EQ(a.days, b.days);
  ASSERT_EQ(a.nrmse.size(), b.nrmse.size());
  for (std::size_t i = 0; i < a.nrmse.size(); ++i)
    EXPECT_EQ(a.nrmse[i], b.nrmse[i]) << "nrmse[" << i << "]";
  ASSERT_EQ(a.mean_ne.size(), b.mean_ne.size());
  for (std::size_t i = 0; i < a.mean_ne.size(); ++i)
    EXPECT_EQ(a.mean_ne[i], b.mean_ne[i]) << "mean_ne[" << i << "]";
  EXPECT_EQ(a.retrain_days, b.retrain_days);
  EXPECT_EQ(a.drift_days, b.drift_days);
  EXPECT_EQ(a.ne_p95, b.ne_p95);
}

void expect_identical(const std::vector<core::EvalResult>& a,
                      const std::vector<core::EvalResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_identical(a[i], b[i]);
}

/// (scheme, model family)
class ServeSchemeTest
    : public ServeFixture,
      public ::testing::WithParamInterface<
          std::tuple<std::string, models::ModelFamily>> {};

// A single-shard fleet must reproduce core::run_scheme bit-for-bit: same
// seed derivations, same per-step semantics, same drift-event stream —
// for every mitigation scheme family, with a tree and a linear model.
TEST_P(ServeSchemeTest, SingleShardMatchesRunScheme) {
  const std::uint64_t seed = 11;
  const data::TargetKpi kpi = data::TargetKpi::kDVol;
  const data::Featurizer fz(ds, kpi);
  const double dispersion = core::kpi_dispersion(ds, kpi);
  const auto [scheme_name, family] = GetParam();

  obs::EventLog events;
  core::EvalConfig cfg = core::make_eval_config(scale, seed);
  cfg.events = &events;
  cfg.obs_shard = 0;
  const auto prototype = models::make_model(family, scale, cfg.seed);
  const auto scheme =
      core::make_scheme(scheme_name, dispersion, cfg.seed ^ 0x99);
  const core::EvalResult want = core::run_scheme(fz, *prototype, *scheme, cfg);

  FleetRuntime fleet(ds, scale, {{kpi, family, scheme_name, seed}});
  fleet.run_steps(UINT64_MAX);
  const std::vector<core::EvalResult> got = fleet.results();
  ASSERT_EQ(got.size(), 1u);
  expect_identical(got[0], want);
  EXPECT_EQ(got[0].retrain_count(), want.retrain_count());
  EXPECT_EQ(fleet.events_jsonl(/*with_timing=*/false),
            obs::EventLog::to_jsonl(events.events(), /*with_timing=*/false));
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndFamilies, ServeSchemeTest,
    ::testing::Combine(::testing::Values("Static", "Triggered", "Naive30",
                                         "LEAF", "PairedLearners", "AUE2"),
                       ::testing::Values(models::ModelFamily::kGbdt,
                                         models::ModelFamily::kRidge)),
    [](const ::testing::TestParamInfo<
        std::tuple<std::string, models::ModelFamily>>& info) {
      return std::get<0>(info.param) + "_" +
             models::to_string(std::get<1>(info.param));
    });

// Snapshot format golden: with obs runtime-disabled (no wall-clock in the
// event logs) a fixed fleet after a fixed number of steps snapshots to
// exactly these bytes.  Any change to what a shard serializes, or in
// which order, changes the hash.
TEST_F(ServeFixture, SnapshotBytesMatchGolden) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  struct ObsRestore {
    bool was = obs::enabled();
    ~ObsRestore() { obs::set_enabled(was); }
  } restore_obs;
  obs::set_enabled(false);

  FleetRuntime fleet(ds, scale, small_fleet());
  fleet.run_steps(7);
  const std::string dir = temp_dir("golden");
  std::filesystem::remove_all(dir);
  ASSERT_GT(fleet.snapshot(dir), 0u);
  const std::vector<std::uint8_t> bytes =
      leaf::testing::read_raw(dir + "/fleet-000001.leafsnap");
  const std::uint64_t got = fnv1a(bytes.data(), bytes.size());
  EXPECT_EQ(got, 0xf6226a0df6ffca06ULL) << std::hex << got;
}

// Same fleet, different thread counts → byte-identical results.
TEST_F(ServeFixture, ResultsIdenticalAtAnyThreadCount) {
  ThreadGuard guard;

  par::set_threads(1);
  FleetRuntime a(ds, scale, small_fleet());
  a.run_steps(UINT64_MAX);

  par::set_threads(4);
  FleetRuntime b(ds, scale, small_fleet());
  b.run_steps(UINT64_MAX);

  expect_identical(a.results(), b.results());
}

/// Fleet under test, by name: "small" or "leaf_every_family".
class ServeCrashTest : public ServeFixture,
                       public ::testing::WithParamInterface<std::string> {
 protected:
  std::vector<ShardSpec> fleet() const {
    return GetParam() == "small" ? small_fleet() : leaf_every_family();
  }
};

// The headline property: kill mid-run, restore into a fresh runtime,
// continue — results and retrain timeline byte-identical to a run that
// never stopped.  Each fleet crashes twice: at step 3, resumed at one
// worker thread, and again halfway through the run, resumed at four.  It
// runs on the small mixed fleet and on LEAF over every model family:
// each restored shard rebuilds its training rows from their snapshot
// keys.
TEST_P(ServeCrashTest, CrashEquivalence) {
  ThreadGuard guard;
  const std::string name = GetParam();
  const std::vector<ShardSpec> specs = fleet();
  // Results are identical at any thread count
  // (ResultsIdenticalAtAnyThreadCount), so one reference run serves.
  FleetRuntime uninterrupted(ds, scale, specs);
  uninterrupted.run_steps(UINT64_MAX);
  const std::uint64_t halfway = uninterrupted.steps_run() / 2;
  ASSERT_GT(halfway, 3u);

  FleetRuntime victim(ds, scale, specs);
  std::unique_ptr<FleetRuntime> revived;
  std::uint64_t crashed_at = 3;
  for (int threads : {1, 4}) {
    par::set_threads(threads);
    FleetRuntime& running = revived ? *revived : victim;
    running.run_steps(crashed_at - running.steps_run());
    ASSERT_FALSE(running.done());
    const std::string dir =
        temp_dir("crash_" + name + "_t" + std::to_string(threads));
    std::filesystem::remove_all(dir);
    ASSERT_GT(running.snapshot(dir), 0u);
    // "Crash": the running fleet is abandoned here; a new process
    // constructs an identically configured runtime and restores.
    revived = std::make_unique<FleetRuntime>(ds, scale, specs);
    revived->restore(dir);
    EXPECT_EQ(revived->steps_run(), crashed_at);
    crashed_at = halfway;
  }
  revived->run_steps(UINT64_MAX);

  expect_identical(revived->results(), uninterrupted.results());
  const ServeStats sa = uninterrupted.stats();
  const ServeStats sb = revived->stats();
  EXPECT_EQ(sb.total_retrains, sa.total_retrains);
  EXPECT_EQ(sb.total_drift_events, sa.total_drift_events);
  EXPECT_EQ(sb.shards_done, sa.shards_done);
}

INSTANTIATE_TEST_SUITE_P(
    Fleets, ServeCrashTest,
    ::testing::Values("small", "leaf_every_family"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// A shard whose newest section decodes but whose training keys name no
// row of the dataset (the CRC re-sealed over the bad key, so only the key
// check can catch it) rolls back to the previous generation alone, and
// the fleet still replays to the uninterrupted results.
TEST_F(ServeFixture, MalformedTrainingKeysFallBackToOlderGeneration) {
  FleetRuntime uninterrupted(ds, scale, small_fleet());
  uninterrupted.run_steps(UINT64_MAX);

  FleetRuntime victim(ds, scale, small_fleet());
  victim.run_steps(2);
  const std::string dir = temp_dir("bad_keys");
  std::filesystem::remove_all(dir);
  ASSERT_GT(victim.snapshot(dir), 0u);  // gen 1
  victim.run_steps(2);
  ASSERT_GT(victim.snapshot(dir), 0u);  // gen 2
  const std::string newest = dir + "/fleet-000002.leafsnap";
  const std::vector<std::uint8_t> good = leaf::testing::read_raw(newest);
  const int horizon = core::make_eval_config(scale).horizon;

  // Each edit keeps the payload's length and breaks one key of shard 1.
  using Edit = std::function<void(std::vector<std::uint8_t>&,
                                  const leaf::testing::KeyBlock&)>;
  const std::vector<std::pair<std::string, Edit>> edits = {
      {"day out of range",
       [&](std::vector<std::uint8_t>& p, const leaf::testing::KeyBlock& k) {
         leaf::testing::put_i32(p, k.feature_day(0), ds.num_days());
         leaf::testing::put_i32(p, k.target_day(0), ds.num_days() + horizon);
       }},
      {"eNodeB not reporting",
       [&](std::vector<std::uint8_t>& p, const leaf::testing::KeyBlock& k) {
         leaf::testing::put_i32(p, k.enb(0),
                                static_cast<int>(ds.profiles().size()));
       }},
      {"target day off the horizon",
       [&](std::vector<std::uint8_t>& p, const leaf::testing::KeyBlock& k) {
         leaf::testing::put_i32(p, k.target_day(0),
                                leaf::testing::get_i32(p, k.target_day(0)) + 1);
       }},
      {"inconsistent counts",
       [&](std::vector<std::uint8_t>& p, const leaf::testing::KeyBlock& k) {
         leaf::testing::put_u64(p, k.enb_count(), k.rows - 1);
       }},
  };
  for (const auto& [what, edit] : edits) {
    SCOPED_TRACE(what);
    std::vector<std::uint8_t> bytes = good;
    leaf::testing::reseal_section(bytes, "shard1", [&](auto& payload) {
      const auto keys = leaf::testing::find_key_block(payload, horizon);
      ASSERT_TRUE(keys.has_value());
      edit(payload, *keys);
    });
    leaf::testing::write_raw(newest, bytes);
    // The container itself is intact: only the shard decoder can object.
    EXPECT_NO_THROW(io::SnapshotReader::from_file(newest));

    FleetRuntime revived(ds, scale, small_fleet());
    revived.restore(dir);
    EXPECT_EQ(revived.steps_run(), 4u);  // anchored at the newest generation
    EXPECT_EQ(revived.stats().snapshot_fallbacks, 1);
    if (obs::kCompiledIn) {
      const std::string sup = revived.supervision_jsonl(false);
      EXPECT_NE(sup.find("snapshot_fallback"), std::string::npos);
      EXPECT_NE(sup.find("\"shard\": 1"), std::string::npos);
    }
    revived.run_steps(UINT64_MAX);
    expect_identical(revived.results(), uninterrupted.results());
  }
}

// Training rows are rebuilt from the restoring fleet's dataset, so a
// snapshot restores only onto the dataset it was taken over: another
// generator seed or an ingest-repaired copy is a different fleet, with
// the same fleet seed and shard specs.
TEST_F(ServeFixture, RestoreRejectsDifferentDataset) {
  FleetRuntime a(ds, scale, small_fleet());
  a.run_steps(2);
  const std::string dir = temp_dir("other_dataset");
  std::filesystem::remove_all(dir);
  ASSERT_GT(a.snapshot(dir), 0u);

  const data::CellularDataset reseeded = data::generate_fixed_dataset(scale, 43);
  ingest::FaultSpec spec = ingest::FaultSpec::at_rate(0.05, 7);
  const ingest::IngestResult repaired =
      ingest::ingest_stream(ds, ingest::inject_faults(ds, spec));
  ASSERT_GT(repaired.report.values_imputed, 0);
  for (const data::CellularDataset* other : {&reseeded, &repaired.clean}) {
    FleetRuntime b(*other, scale, small_fleet());
    leaf::testing::expect_snapshot_error([&] { b.restore(dir); },
                                         "dataset digest mismatch");
    // The failed restore left the runtime as it was.
    b.run_steps(2);
    EXPECT_EQ(b.steps_run(), 2u);
  }
  // The same dataset, generated again, restores.
  const data::CellularDataset again = data::generate_fixed_dataset(scale, 42);
  FleetRuntime c(again, scale, small_fleet());
  c.restore(dir);
  EXPECT_EQ(c.steps_run(), 2u);
}

// Snapshotting at the very end and restoring must also round-trip.
TEST_F(ServeFixture, SnapshotAtCompletionRoundTrips) {
  FleetRuntime a(ds, scale, small_fleet());
  a.run_steps(UINT64_MAX);
  const std::string dir = temp_dir("final");
  a.snapshot(dir);

  FleetRuntime b(ds, scale, small_fleet());
  b.restore(dir);
  EXPECT_TRUE(b.done());
  expect_identical(b.results(), a.results());
}

TEST_F(ServeFixture, SnapshotBeforeStartThrows) {
  FleetRuntime fleet(ds, scale, small_fleet());
  EXPECT_THROW(fleet.snapshot(temp_dir("before_start")), io::SnapshotError);
}

TEST_F(ServeFixture, RestoreRejectsMismatchedFleet) {
  FleetRuntime a(ds, scale, small_fleet());
  a.run_steps(2);
  const std::string dir = temp_dir("mismatch");
  a.snapshot(dir);

  // Different shard count.
  FleetRuntime fewer(ds, scale, {small_fleet()[0]});
  leaf::testing::expect_snapshot_error([&] { fewer.restore(dir); },
                                       "shard count mismatch");

  // Different fleet seed → different derived shard seeds.
  FleetRuntime reseeded(ds, scale, small_fleet(), 777);
  leaf::testing::expect_snapshot_error([&] { reseeded.restore(dir); },
                                       "fleet seed mismatch");

  // Different shard configuration.
  std::vector<ShardSpec> swapped = small_fleet();
  swapped[0].scheme = "Static";
  FleetRuntime other(ds, scale, swapped);
  leaf::testing::expect_snapshot_error([&] { other.restore(dir); },
                                       "configuration mismatch");

  // A failed restore must not have corrupted the target runtime: it can
  // still run to completion and match a clean run.
  other.run_steps(UINT64_MAX);
  FleetRuntime clean(ds, scale, swapped);
  clean.run_steps(UINT64_MAX);
  expect_identical(other.results(), clean.results());
}

TEST_F(ServeFixture, RestoreRejectsMissingFile) {
  FleetRuntime fleet(ds, scale, small_fleet());
  EXPECT_THROW(fleet.restore(temp_dir("empty_dir")), io::SnapshotError);
}

// Stray files whose names merely resemble a generation (a hand copy named
// fleet--1.leafsnap, a signed or unpadded number) are not generations:
// they must not become the restore's generation counter, so the next
// snapshot is gen 3 and a later resume lands on the newest written step.
TEST_F(ServeFixture, StraySnapshotFilesDoNotDerailResume) {
  const std::vector<ShardSpec> one = {
      {data::TargetKpi::kDVol, models::ModelFamily::kRidge, "Triggered", 0}};
  const std::string dir = temp_dir("stray");
  std::filesystem::remove_all(dir);
  FleetRuntime fleet(ds, scale, one);
  fleet.run_steps(2);
  ASSERT_GT(fleet.snapshot(dir), 0u);  // gen 1 at step 2
  fleet.run_steps(2);
  ASSERT_GT(fleet.snapshot(dir), 0u);  // gen 2 at step 4
  for (const char* stray :
       {"fleet--1.leafsnap", "fleet-+2.leafsnap", "fleet- 3.leafsnap",
        "fleet-1.leafsnap", "fleet-0000009.leafsnap",
        "fleet-99999999999999999999999.leafsnap"})
    std::filesystem::copy_file(dir + "/fleet-000001.leafsnap",
                               dir + "/" + stray);

  FleetRuntime resumed(ds, scale, one);
  resumed.restore(dir);
  ASSERT_EQ(resumed.steps_run(), 4u);
  resumed.run_steps(2);
  ASSERT_EQ(resumed.steps_run(), 6u);
  ASSERT_GT(resumed.snapshot(dir), 0u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/fleet-000003.leafsnap"));
  EXPECT_EQ(SnapshotStore(dir).generations(),
            (std::vector<std::uint64_t>{1, 2, 3}));

  FleetRuntime again(ds, scale, one);
  again.restore(dir);
  EXPECT_EQ(again.steps_run(), 6u);
}

TEST_F(ServeFixture, StatsTrackProgress) {
  FleetRuntime fleet(ds, scale, small_fleet());
  fleet.run_steps(2);
  const ServeStats stats = fleet.stats();
  ASSERT_EQ(stats.shards.size(), 3u);
  EXPECT_EQ(stats.total_steps, 2u);
  for (const ShardStats& s : stats.shards) {
    EXPECT_EQ(s.steps, 2u);
    EXPECT_FALSE(s.kpi.empty());
    EXPECT_FALSE(s.model.empty());
    EXPECT_FALSE(s.scheme.empty());
  }

  fleet.run_steps(UINT64_MAX);
  const ServeStats final_stats = fleet.stats();
  EXPECT_EQ(final_stats.shards_done, 3u);
  int evaluated = 0;
  for (const ShardStats& s : final_stats.shards) {
    EXPECT_TRUE(s.done);
    evaluated += s.days_evaluated;
  }
  EXPECT_GT(evaluated, 0);
}

// --- observability ----------------------------------------------------------

// The masked fleet event stream (to_jsonl(false)) and the fleet-state
// scrape section are pure functions of the computation: identical at any
// thread count.
TEST_F(ServeFixture, EventStreamIdenticalAtAnyThreadCount) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  ThreadGuard guard;

  par::set_threads(1);
  FleetRuntime a(ds, scale, small_fleet());
  a.run_steps(UINT64_MAX);

  par::set_threads(4);
  FleetRuntime b(ds, scale, small_fleet());
  b.run_steps(UINT64_MAX);

  const std::string ja = a.events_jsonl(/*with_timing=*/false);
  EXPECT_FALSE(ja.empty());
  EXPECT_EQ(ja, b.events_jsonl(/*with_timing=*/false));
  // Fleet-state-derived scrape (without the process-global registry,
  // which carries wall-clock series) is likewise schedule-independent.
  EXPECT_EQ(a.scrape(/*include_process=*/false),
            b.scrape(/*include_process=*/false));
}

// Shard event logs ride in the snapshot: a restored fleet replays to the
// same event stream as one that never stopped, including events from
// before the snapshot point.
TEST_F(ServeFixture, EventStreamSurvivesSnapshotRestore) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  FleetRuntime uninterrupted(ds, scale, small_fleet());
  uninterrupted.run_steps(UINT64_MAX);

  FleetRuntime victim(ds, scale, small_fleet());
  victim.run_steps(3);
  ASSERT_FALSE(victim.done());
  const std::string dir = temp_dir("events_resume");
  victim.snapshot(dir);

  FleetRuntime revived(ds, scale, small_fleet());
  revived.restore(dir);
  revived.run_steps(UINT64_MAX);

  EXPECT_EQ(revived.events_jsonl(/*with_timing=*/false),
            uninterrupted.events_jsonl(/*with_timing=*/false));
  EXPECT_EQ(revived.scrape(/*include_process=*/false),
            uninterrupted.scrape(/*include_process=*/false));
}

// Every merged event carries its shard's identity and the merge is
// (day, shard)-ordered.
TEST_F(ServeFixture, MergedEventsCarryShardContext) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  FleetRuntime fleet(ds, scale, small_fleet());
  fleet.run_steps(UINT64_MAX);
  const std::vector<obs::Event> events = fleet.merged_events();
  ASSERT_FALSE(events.empty());
  int prev_day = -1, prev_shard = -1;
  for (const obs::Event& e : events) {
    EXPECT_GE(e.shard, 0);
    EXPECT_LT(e.shard, 3);
    EXPECT_FALSE(e.kpi.empty());
    EXPECT_FALSE(e.model.empty());
    EXPECT_FALSE(e.scheme.empty());
    EXPECT_TRUE(e.day > prev_day || (e.day == prev_day && e.shard >= prev_shard))
        << "merge order violated at day " << e.day << " shard " << e.shard;
    prev_day = e.day;
    prev_shard = e.shard;
  }
}

// The fleet scrape is valid Prometheus text: every non-comment line is
// `series value`, and the fleet section reports one series set per shard.
TEST_F(ServeFixture, ScrapeShapeIsWellFormed) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  FleetRuntime fleet(ds, scale, small_fleet());
  fleet.run_steps(2);
  const std::string text = fleet.scrape();
  std::size_t shard_series = 0, pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "scrape must end with a newline";
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << "bad line: " << line;
    EXPECT_GT(sp, 0u);
    // The value parses as a double.
    EXPECT_NO_THROW((void)std::stod(line.substr(sp + 1))) << line;
    if (line.rfind("leaf_fleet_shard_steps{", 0) == 0) ++shard_series;
  }
  EXPECT_EQ(shard_series, 3u);
}

// Explicit per-shard seeds are honored verbatim; seed 0 derives from the
// fleet seed, so two fleets with different fleet seeds diverge.
TEST_F(ServeFixture, FleetSeedDrivesDerivedShardSeeds) {
  std::vector<ShardSpec> specs = {
      {data::TargetKpi::kDVol, models::ModelFamily::kRidge, "Triggered", 0}};

  FleetRuntime a(ds, scale, specs, 1);
  a.run_steps(UINT64_MAX);
  FleetRuntime b(ds, scale, specs, 2);
  b.run_steps(UINT64_MAX);
  // Seeds differ → detector RNG streams differ.  (NRMSE values may agree
  // early on; the full series should not be identical in lockstep.)
  const auto ra = a.results()[0], rb = b.results()[0];
  EXPECT_EQ(ra.days, rb.days);

  FleetRuntime c(ds, scale, specs, 1);
  c.run_steps(UINT64_MAX);
  expect_identical(c.results(), a.results());
}

}  // namespace
}  // namespace leaf::serve
