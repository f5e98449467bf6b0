// Tests for leaf::chaos and the leaf::serve supervision layer it
// exercises: config parsing, decision determinism, shard fault isolation
// (the healthy subset of a faulted fleet is byte-identical to an
// unfaulted run), bounded-retry recovery, quarantine, the retrain
// circuit breaker, snapshot generation retention, and last-known-good
// per-shard rollback.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "chaos/chaos.hpp"
#include "core/breaker.hpp"
#include "data/generator.hpp"
#include "obs/metrics.hpp"
#include "par/parallel.hpp"
#include "serve/runtime.hpp"
#include "snapshot_fault_helpers.hpp"

namespace leaf {
namespace {

// ---- ChaosConfig parsing -------------------------------------------------

TEST(ChaosConfig, ParsesFullSpec) {
  const chaos::ChaosConfig cfg = chaos::ChaosConfig::parse(
      "seed=7,shards=0+2+5,step-throw=0.25,step-throw-before=12,"
      "retrain-storm=1,slow=0.5,slow-ms=3,snapshot-corrupt=0.1,"
      "snapshot-partial=0.2");
  EXPECT_EQ(cfg.seed, 7u);
  EXPECT_EQ(cfg.shards, (std::vector<int>{0, 2, 5}));
  EXPECT_DOUBLE_EQ(cfg.step_throw, 0.25);
  EXPECT_EQ(cfg.step_throw_before, 12u);
  EXPECT_DOUBLE_EQ(cfg.retrain_storm, 1.0);
  EXPECT_DOUBLE_EQ(cfg.slow, 0.5);
  EXPECT_EQ(cfg.slow_ms, 3);
  EXPECT_DOUBLE_EQ(cfg.snapshot_corrupt, 0.1);
  EXPECT_DOUBLE_EQ(cfg.snapshot_partial, 0.2);
  EXPECT_TRUE(cfg.any());
  // The canonical string round-trips.
  const chaos::ChaosConfig again =
      chaos::ChaosConfig::parse(cfg.to_string());
  EXPECT_EQ(again.to_string(), cfg.to_string());
}

TEST(ChaosConfig, EmptySpecDisablesEverything) {
  const chaos::ChaosConfig cfg = chaos::ChaosConfig::parse("");
  EXPECT_FALSE(cfg.any());
  EXPECT_TRUE(cfg.shards.empty());
}

TEST(ChaosConfig, RejectsMalformedSpecs) {
  EXPECT_THROW(chaos::ChaosConfig::parse("step-throw=1.5"),
               std::invalid_argument);
  EXPECT_THROW(chaos::ChaosConfig::parse("step-throw=-0.1"),
               std::invalid_argument);
  EXPECT_THROW(chaos::ChaosConfig::parse("step-throw=abc"),
               std::invalid_argument);
  EXPECT_THROW(chaos::ChaosConfig::parse("warp-core-breach=1"),
               std::invalid_argument);
  EXPECT_THROW(chaos::ChaosConfig::parse("step-throw"),
               std::invalid_argument);
  EXPECT_THROW(chaos::ChaosConfig::parse("shards="), std::invalid_argument);
  // Non-finite probabilities, signed integers and integers out of range.
  for (const char* bad :
       {"step-throw=nan", "step-throw=inf", "seed=-1", "seed=+1", "shards=-1",
        "shards=0+-2", "shards=2147483648", "step-throw-before=-3",
        "slow-ms=-5", "slow-ms=3000000000", "seed=18446744073709551616",
        "seed= 1"})
    EXPECT_THROW(chaos::ChaosConfig::parse(bad), std::invalid_argument) << bad;
}

TEST(ChaosConfig, ReadsEnvironment) {
  ::setenv("LEAF_CHAOS", "seed=3,step-throw=0.5", 1);
  const chaos::ChaosConfig cfg = chaos::ChaosConfig::from_env();
  ::unsetenv("LEAF_CHAOS");
  EXPECT_EQ(cfg.seed, 3u);
  EXPECT_DOUBLE_EQ(cfg.step_throw, 0.5);
  EXPECT_FALSE(chaos::ChaosConfig::from_env().any());
}

// ---- Engine determinism --------------------------------------------------

TEST(ChaosEngine, DecisionsArePureFunctionsOfCoordinates) {
  const chaos::ChaosConfig cfg =
      chaos::ChaosConfig::parse("seed=11,step-throw=0.3,retrain-storm=0.2");
  const chaos::Engine a(cfg), b(cfg);
  int fired = 0;
  for (int shard = 0; shard < 4; ++shard) {
    for (std::uint64_t step = 0; step < 200; ++step) {
      EXPECT_EQ(a.throw_step(shard, step), b.throw_step(shard, step));
      EXPECT_EQ(a.retrain_storm(shard, step), b.retrain_storm(shard, step));
      if (a.throw_step(shard, step)) ++fired;
    }
  }
  // ~0.3 * 800 decisions; loose bounds, deterministic in practice.
  EXPECT_GT(fired, 100);
  EXPECT_LT(fired, 400);
  // A different seed gives a different schedule.
  chaos::ChaosConfig reseeded = cfg;
  reseeded.seed = 12;
  const chaos::Engine c(reseeded);
  int diverged = 0;
  for (std::uint64_t step = 0; step < 200; ++step)
    if (a.throw_step(0, step) != c.throw_step(0, step)) ++diverged;
  EXPECT_GT(diverged, 0);
}

TEST(ChaosEngine, TargetSetRestrictsFaults) {
  const chaos::ChaosConfig cfg =
      chaos::ChaosConfig::parse("shards=1+3,step-throw=1");
  const chaos::Engine e(cfg);
  EXPECT_FALSE(e.targets(0));
  EXPECT_TRUE(e.targets(1));
  EXPECT_FALSE(e.targets(2));
  EXPECT_TRUE(e.targets(3));
  for (std::uint64_t step = 0; step < 20; ++step) {
    EXPECT_TRUE(e.throw_step(1, step));
    EXPECT_FALSE(e.throw_step(0, step));
  }
  // corrupt_target only ever picks in-range configured targets.
  for (std::uint64_t gen = 1; gen < 20; ++gen) {
    const int t = e.corrupt_target(8, gen);
    EXPECT_TRUE(t == 1 || t == 3) << "gen " << gen;
  }
}

TEST(ChaosEngine, StepThrowBeforeBoundsTheFaultWindow) {
  const chaos::ChaosConfig cfg =
      chaos::ChaosConfig::parse("step-throw=1,step-throw-before=5");
  const chaos::Engine e(cfg);
  for (std::uint64_t step = 0; step < 5; ++step)
    EXPECT_TRUE(e.throw_step(0, step));
  for (std::uint64_t step = 5; step < 50; ++step)
    EXPECT_FALSE(e.throw_step(0, step));
}

// ---- RetrainBreaker FSM --------------------------------------------------

TEST(RetrainBreaker, TripsOpenAndRecloses) {
  core::RetrainBreaker b(core::BreakerConfig{
      .max_retrains = 2, .window_days = 10, .cooldown_days = 20});
  using State = core::RetrainBreaker::State;
  EXPECT_TRUE(b.allow(100));
  EXPECT_TRUE(b.allow(101));
  EXPECT_EQ(b.state(), State::kClosed);
  EXPECT_FALSE(b.allow(102));  // third request inside the window: trips
  EXPECT_EQ(b.state(), State::kOpen);
  EXPECT_EQ(b.trips(), 1);
  EXPECT_EQ(b.open_until(), 122);
  EXPECT_FALSE(b.allow(110));  // still cooling down
  EXPECT_EQ(b.suppressed(), 2);  // the tripping request + the one above
  EXPECT_TRUE(b.allow(122));  // probe after cooldown
  EXPECT_EQ(b.state(), State::kClosed);
}

TEST(RetrainBreaker, HalfOpenRetripsUnderSustainedStorm) {
  core::RetrainBreaker b(core::BreakerConfig{
      .max_retrains = 1, .window_days = 10, .cooldown_days = 5});
  using State = core::RetrainBreaker::State;
  EXPECT_TRUE(b.allow(0));
  EXPECT_FALSE(b.allow(1));
  EXPECT_EQ(b.state(), State::kOpen);
  EXPECT_TRUE(b.allow(6));   // probe allowed
  EXPECT_FALSE(b.allow(7));  // storm persists: re-trips
  EXPECT_EQ(b.state(), State::kOpen);
  EXPECT_EQ(b.trips(), 2);
}

TEST(RetrainBreaker, DisabledBreakerAlwaysAllows) {
  core::RetrainBreaker b(core::BreakerConfig{});  // max_retrains = 0
  for (int day = 0; day < 50; ++day) EXPECT_TRUE(b.allow(day));
  EXPECT_EQ(b.trips(), 0);
}

TEST(RetrainBreaker, StateRoundTripsAndValidates) {
  const core::BreakerConfig cfg{
      .max_retrains = 2, .window_days = 10, .cooldown_days = 20};
  core::RetrainBreaker b(cfg);
  b.allow(5);
  b.allow(6);
  b.allow(7);  // tripped
  io::Serializer out;
  b.save_state(out);
  core::RetrainBreaker restored(cfg);
  io::Deserializer in(out.bytes());
  restored.load_state(in);
  EXPECT_EQ(restored.state(), b.state());
  EXPECT_EQ(restored.trips(), b.trips());
  EXPECT_EQ(restored.open_until(), b.open_until());
  // A breaker snapshot only restores into the same configuration.
  core::RetrainBreaker other(core::BreakerConfig{
      .max_retrains = 3, .window_days = 10, .cooldown_days = 20});
  io::Deserializer in2(out.bytes());
  leaf::testing::expect_snapshot_error([&] { other.load_state(in2); },
                                       "breaker config mismatch");
}

// ---- fleet supervision ---------------------------------------------------

struct ChaosFixture : ::testing::Test {
  Scale scale = Scale::for_level(Scale::Level::kSmall);
  data::CellularDataset ds = data::generate_fixed_dataset(scale, 42);

  /// Restores the default thread count even if a test fails mid-way.
  struct ThreadGuard {
    ~ThreadGuard() { par::set_threads(0); }
  };

  /// Eight shards across three KPIs (mostly Ridge: cheap to fit).
  static std::vector<serve::ShardSpec> fleet8() {
    using data::TargetKpi;
    using models::ModelFamily;
    return {{TargetKpi::kDVol, ModelFamily::kRidge, "Triggered", 0},
            {TargetKpi::kPU, ModelFamily::kRidge, "LEAF", 0},
            {TargetKpi::kDTP, ModelFamily::kRidge, "Naive30", 0},
            {TargetKpi::kDVol, ModelFamily::kGbdt, "Static", 0},
            {TargetKpi::kPU, ModelFamily::kRidge, "Triggered", 0},
            {TargetKpi::kDTP, ModelFamily::kRidge, "Static", 0},
            {TargetKpi::kDVol, ModelFamily::kRidge, "Naive30", 0},
            {TargetKpi::kPU, ModelFamily::kRidge, "Static", 0}};
  }

  static serve::SupervisorConfig with_chaos(const std::string& spec) {
    serve::SupervisorConfig sup;
    sup.chaos = chaos::ChaosConfig::parse(spec);
    return sup;
  }

  std::string temp_dir(const std::string& leaf) const {
    const std::string dir = ::testing::TempDir() + "leaf_chaos_" + leaf;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
  }

  static void expect_identical(const core::EvalResult& a,
                               const core::EvalResult& b) {
    EXPECT_EQ(a.days, b.days);
    EXPECT_EQ(a.nrmse, b.nrmse);
    EXPECT_EQ(a.mean_ne, b.mean_ne);
    EXPECT_EQ(a.retrain_days, b.retrain_days);
    EXPECT_EQ(a.drift_days, b.drift_days);
    EXPECT_EQ(a.ne_p95, b.ne_p95);
  }

  /// Masked JSONL of the drift events of the given shards only.
  static std::string events_of(const serve::FleetRuntime& fleet,
                               const std::vector<int>& shards) {
    std::vector<obs::Event> kept;
    for (const obs::Event& e : fleet.merged_events())
      for (int s : shards)
        if (e.shard == s) kept.push_back(e);
    return obs::EventLog::to_jsonl(kept, /*with_timing=*/false);
  }
};

// The isolation invariant: permanently fault 2 of 8 shards; at 1 and 4
// worker threads the fleet (a) completes, (b) quarantines exactly those
// two shards, and (c) leaves every healthy shard's EvalResult and masked
// event stream byte-identical both across thread counts and to a fleet
// that never saw any chaos.
TEST_F(ChaosFixture, FaultedShardsAreIsolatedAtAnyThreadCount) {
  ThreadGuard guard;
  const std::string spec = "seed=5,shards=2+5,step-throw=1";
  const std::vector<int> faulted = {2, 5};
  const std::vector<int> healthy = {0, 1, 3, 4, 6, 7};

  par::set_threads(1);
  serve::FleetRuntime clean(ds, scale, fleet8());
  clean.run_steps(UINT64_MAX);

  serve::FleetRuntime a(ds, scale, fleet8(), 2024, with_chaos(spec));
  a.run_steps(UINT64_MAX);

  par::set_threads(4);
  serve::FleetRuntime b(ds, scale, fleet8(), 2024, with_chaos(spec));
  b.run_steps(UINT64_MAX);

  for (serve::FleetRuntime* fleet : {&a, &b}) {
    EXPECT_TRUE(fleet->done());
    const serve::ServeStats st = fleet->stats();
    EXPECT_EQ(st.shards_quarantined, 2u);
    for (int s : faulted) {
      EXPECT_EQ(st.shards[s].health, serve::ShardHealth::kQuarantined);
      EXPECT_GT(st.shards[s].faults, 0);
      EXPECT_FALSE(st.shards[s].last_error.empty());
      EXPECT_EQ(st.shards[s].days_evaluated, 0);  // faulted from step one
    }
    for (int s : healthy)
      EXPECT_EQ(st.shards[s].health, serve::ShardHealth::kHealthy);
  }

  // (c): healthy shards — byte-identical across thread counts and to the
  // chaos-free run.
  const auto ra = a.results(), rb = b.results(), rc = clean.results();
  for (int s : healthy) {
    SCOPED_TRACE("shard " + std::to_string(s));
    expect_identical(ra[s], rb[s]);
    expect_identical(ra[s], rc[s]);
  }
  if (obs::kCompiledIn) {
    EXPECT_FALSE(events_of(a, healthy).empty());
    EXPECT_EQ(events_of(a, healthy), events_of(b, healthy));
    EXPECT_EQ(events_of(a, healthy), events_of(clean, healthy));
    // The full supervision stream is itself deterministic across threads.
    EXPECT_EQ(a.supervision_jsonl(false), b.supervision_jsonl(false));
    EXPECT_NE(a.supervision_jsonl(false).find("shard_quarantined"),
              std::string::npos);
  }
}

// A transient fault (chaos stops injecting after fleet step 2) is retried
// with backoff and the shard recovers: FAULTED → HEALTHY, and because a
// pre-step throw never touches shard state, its final result is identical
// to a run that never faulted.
TEST_F(ChaosFixture, TransientFaultRecoversWithBackoff) {
  serve::FleetRuntime clean(ds, scale, fleet8());
  clean.run_steps(UINT64_MAX);

  serve::FleetRuntime fleet(
      ds, scale, fleet8(), 2024,
      with_chaos("shards=0,step-throw=1,step-throw-before=2"));
  fleet.run_steps(UINT64_MAX);

  const serve::ServeStats st = fleet.stats();
  EXPECT_EQ(st.shards[0].health, serve::ShardHealth::kHealthy);
  // One fault at fleet step 0; step 1 is spent in backoff (so the fault
  // window has closed by the retry at step 2, which succeeds).
  EXPECT_EQ(st.shards[0].faults, 1);
  EXPECT_EQ(st.shards[0].consecutive_failures, 0);
  EXPECT_EQ(st.shards_quarantined, 0u);
  EXPECT_TRUE(fleet.done());
  for (std::size_t s = 0; s < 8; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    expect_identical(fleet.results()[s], clean.results()[s]);
  }
  if (obs::kCompiledIn) {
    const std::string sup = fleet.supervision_jsonl(false);
    EXPECT_NE(sup.find("shard_faulted"), std::string::npos);
    EXPECT_NE(sup.find("shard_recovered"), std::string::npos);
    EXPECT_EQ(sup.find("shard_quarantined"), std::string::npos);
  }
}

// Exponential backoff in fleet steps: with base 1 and faults at every
// attempt, attempts land at steps 0, 2, 5, 10 (backoff 2^(k-1) plus one),
// after which the retry budget (max_retries = 3) is spent and the shard
// quarantines.
TEST_F(ChaosFixture, RetryBudgetEscalatesToQuarantine) {
  serve::SupervisorConfig sup =
      with_chaos("shards=3,step-throw=1");
  sup.recovery.max_retries = 3;
  serve::FleetRuntime fleet(ds, scale, fleet8(), 2024, sup);
  fleet.run_steps(UINT64_MAX);

  const serve::ServeStats st = fleet.stats();
  EXPECT_EQ(st.shards[3].health, serve::ShardHealth::kQuarantined);
  EXPECT_EQ(st.shards[3].faults, 1 + sup.recovery.max_retries);
  EXPECT_EQ(st.total_faults, 4);
  EXPECT_TRUE(fleet.done());  // quarantine never blocks fleet completion
}

// Retrain-storm chaos drives the circuit breaker: requests beyond the
// window trip it OPEN (suppressed retrains, frozen model), the cooldown
// half-opens it, and the whole trajectory is thread-count deterministic.
TEST_F(ChaosFixture, RetrainStormTripsBreakerDeterministically) {
  ThreadGuard guard;
  serve::SupervisorConfig sup = with_chaos("shards=1,retrain-storm=1");
  sup.breaker =
      core::BreakerConfig{.max_retrains = 3, .window_days = 30,
                          .cooldown_days = 45};

  par::set_threads(1);
  serve::FleetRuntime a(ds, scale, fleet8(), 2024, sup);
  a.run_steps(UINT64_MAX);
  par::set_threads(4);
  serve::FleetRuntime b(ds, scale, fleet8(), 2024, sup);
  b.run_steps(UINT64_MAX);

  const serve::ServeStats st = a.stats();
  EXPECT_GE(st.shards[1].breaker_trips, 1);
  EXPECT_GT(st.shards[1].suppressed_retrains, 0);
  EXPECT_GT(st.total_suppressed_retrains, 0);
  // Shards the storm does not target keep a closed, untouched breaker.
  EXPECT_EQ(st.shards[0].breaker_trips, 0);
  EXPECT_EQ(st.shards[0].breaker_state, "closed");

  const serve::ServeStats st_b = b.stats();
  EXPECT_EQ(st_b.shards[1].breaker_trips, st.shards[1].breaker_trips);
  EXPECT_EQ(st_b.shards[1].suppressed_retrains,
            st.shards[1].suppressed_retrains);
  EXPECT_EQ(st_b.shards[1].retrains, st.shards[1].retrains);
  if (obs::kCompiledIn) {
    EXPECT_EQ(a.supervision_jsonl(false), b.supervision_jsonl(false));
    EXPECT_NE(a.supervision_jsonl(false).find("breaker_open"),
              std::string::npos);
  }
  EXPECT_EQ(a.scrape(false), b.scrape(false));
}

// Suppressed retrains change the trajectory only of the stormed shard;
// every other shard matches the chaos-free run (breaker decisions are
// shard-local).
TEST_F(ChaosFixture, BreakerIsShardLocal) {
  serve::FleetRuntime clean(ds, scale, fleet8());
  clean.run_steps(UINT64_MAX);
  serve::SupervisorConfig sup = with_chaos("shards=4,retrain-storm=1");
  sup.breaker = core::BreakerConfig{.max_retrains = 2, .window_days = 20,
                                    .cooldown_days = 30};
  serve::FleetRuntime stormed(ds, scale, fleet8(), 2024, sup);
  stormed.run_steps(UINT64_MAX);
  for (int s : {0, 1, 2, 3, 5, 6, 7}) {
    SCOPED_TRACE("shard " + std::to_string(s));
    expect_identical(stormed.results()[s], clean.results()[s]);
  }
}

// ---- snapshot generations, retention, rollback ---------------------------

TEST_F(ChaosFixture, SnapshotRetentionPrunesOldGenerations) {
  serve::SupervisorConfig sup;
  sup.snapshot_keep = 2;
  serve::FleetRuntime fleet(ds, scale, fleet8(), 2024, sup);
  const std::string dir = temp_dir("retention");
  for (int i = 0; i < 4; ++i) {
    fleet.run_steps(1);
    EXPECT_GT(fleet.snapshot(dir), 0u);
  }
  EXPECT_EQ(serve::SnapshotStore(dir).generations(),
            (std::vector<std::uint64_t>{3, 4}));
  // The newest retained generation restores cleanly.
  serve::FleetRuntime revived(ds, scale, fleet8(), 2024, sup);
  revived.restore(dir);
  EXPECT_EQ(revived.steps_run(), 4u);
  EXPECT_EQ(revived.stats().snapshot_fallbacks, 0);
}

// Corrupting one shard's section in the newest generation rolls exactly
// that shard back to the previous generation; the others restore from the
// newest, and the divergence-free replay brings the fleet to the same
// final results as an uninterrupted run.
TEST_F(ChaosFixture, CorruptNewestGenerationFallsBackPerShard) {
  serve::FleetRuntime uninterrupted(ds, scale, fleet8());
  uninterrupted.run_steps(UINT64_MAX);

  serve::FleetRuntime victim(ds, scale, fleet8());
  victim.run_steps(2);
  const std::string dir = temp_dir("rollback");
  ASSERT_GT(victim.snapshot(dir), 0u);  // gen 1
  victim.run_steps(2);
  ASSERT_GT(victim.snapshot(dir), 0u);  // gen 2

  // Rot on disk: flip a bit in shard 6's section of the newest generation.
  const std::string newest = dir + "/fleet-000002.leafsnap";
  std::vector<std::uint8_t> bytes = leaf::testing::read_raw(newest);
  ASSERT_TRUE(leaf::testing::corrupt_section_payload(bytes, "shard6"));
  leaf::testing::write_raw(newest, bytes);

  serve::FleetRuntime revived(ds, scale, fleet8());
  revived.restore(dir);
  EXPECT_EQ(revived.steps_run(), 4u);  // anchored at the newest generation
  EXPECT_EQ(revived.stats().snapshot_fallbacks, 1);
  if (obs::kCompiledIn) {
    const std::string sup = revived.supervision_jsonl(false);
    EXPECT_NE(sup.find("snapshot_fallback"), std::string::npos);
    EXPECT_NE(sup.find("\"shard\": 6"), std::string::npos);
  }
  revived.run_steps(UINT64_MAX);
  for (std::size_t s = 0; s < 8; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    expect_identical(revived.results()[s], uninterrupted.results()[s]);
  }
}

// When a shard's section is damaged in *every* retained generation, the
// restore fails with a SnapshotError naming the shard — and leaves the
// target runtime unharmed.
TEST_F(ChaosFixture, ShardUnreadableEverywhereFailsRestore) {
  serve::FleetRuntime victim(ds, scale, fleet8());
  victim.run_steps(1);
  const std::string dir = temp_dir("dead_shard");
  ASSERT_GT(victim.snapshot(dir), 0u);
  victim.run_steps(1);
  ASSERT_GT(victim.snapshot(dir), 0u);
  for (const char* name : {"fleet-000001.leafsnap", "fleet-000002.leafsnap"}) {
    const std::string path = dir + "/" + name;
    std::vector<std::uint8_t> bytes = leaf::testing::read_raw(path);
    ASSERT_TRUE(leaf::testing::corrupt_section_payload(bytes, "shard0"));
    leaf::testing::write_raw(path, bytes);
  }
  serve::FleetRuntime revived(ds, scale, fleet8());
  leaf::testing::expect_snapshot_error([&] { revived.restore(dir); },
                                       "shard(s) 0");
  // The failed restore did not corrupt the runtime.
  revived.run_steps(1);
  EXPECT_EQ(revived.steps_run(), 1u);
}

// An entirely unreadable newest generation (version from the future) is
// skipped wholesale and the previous generation serves the whole fleet.
TEST_F(ChaosFixture, UnreadableNewestGenerationIsSkipped) {
  serve::FleetRuntime victim(ds, scale, fleet8());
  victim.run_steps(2);
  const std::string dir = temp_dir("bad_version");
  ASSERT_GT(victim.snapshot(dir), 0u);
  victim.run_steps(1);
  ASSERT_GT(victim.snapshot(dir), 0u);
  const std::string newest = dir + "/fleet-000002.leafsnap";
  leaf::testing::write_raw(
      newest,
      leaf::testing::with_format_version(leaf::testing::read_raw(newest), 99));

  serve::FleetRuntime revived(ds, scale, fleet8());
  revived.restore(dir);
  EXPECT_EQ(revived.steps_run(), 2u);  // anchored at gen 1
  // Every shard came from the same (anchor) generation: no per-shard
  // fallback events, just an older anchor.
  EXPECT_EQ(revived.stats().snapshot_fallbacks, 0);
}

// A fleet whose snapshot write fails midway (chaos snapshot-partial)
// keeps serving: snapshot() reports failure by returning 0 and leaves no
// litter (neither the generation file nor a .tmp).
TEST_F(ChaosFixture, PartialSnapshotWriteDoesNotStopTheFleet) {
  serve::FleetRuntime fleet(ds, scale, fleet8(), 2024,
                            with_chaos("snapshot-partial=1"));
  const std::string dir = temp_dir("partial");
  fleet.run_steps(1);
  EXPECT_EQ(fleet.snapshot(dir), 0u);  // injected partial write
  EXPECT_TRUE(serve::SnapshotStore(dir).generations().empty());
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    FAIL() << "litter left behind: " << entry.path();
  // The fleet is still live.
  EXPECT_GT(fleet.run_steps(1), 0u);
}

// Chaos self-corruption: with snapshot-corrupt=1 every written generation
// carries one damaged shard section, and a restore must lean on fallback
// — proving the two fault points compose end-to-end.
TEST_F(ChaosFixture, ChaosCorruptedSnapshotsRestoreViaFallback) {
  serve::SupervisorConfig sup = with_chaos("seed=9,snapshot-corrupt=1");
  serve::FleetRuntime victim(ds, scale, fleet8(), 2024, sup);
  const std::string dir = temp_dir("self_corrupt");
  victim.run_steps(1);
  ASSERT_GT(victim.snapshot(dir), 0u);  // gen 1: one shard section damaged
  victim.run_steps(1);
  ASSERT_GT(victim.snapshot(dir), 0u);  // gen 2: one shard section damaged

  serve::FleetRuntime revived(ds, scale, fleet8(), 2024, sup);
  const chaos::Engine probe(sup.chaos);
  const int hit_newest = probe.corrupt_target(8, 2);
  const int hit_older = probe.corrupt_target(8, 1);
  if (hit_newest == hit_older) {
    // Same shard damaged in both retained generations: restore must fail.
    leaf::testing::expect_snapshot_error([&] { revived.restore(dir); },
                                         "unreadable in every retained");
  } else {
    revived.restore(dir);
    EXPECT_EQ(revived.steps_run(), 2u);
    EXPECT_EQ(revived.stats().snapshot_fallbacks, 1);
  }
}

}  // namespace
}  // namespace leaf
