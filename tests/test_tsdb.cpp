// Tests for leaf::tsdb — ring-buffer retention and wraparound,
// downsampling goldens, query matching, snapshot round-trips (and the
// damaged-section fallback), meta-drift detection on telemetry streams,
// and the fleet-level determinism contract: stored series are
// bit-identical at any LEAF_THREADS and across SIGKILL + --resume.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chaos/chaos.hpp"
#include "common/matrix.hpp"
#include "data/generator.hpp"
#include "io/serializer.hpp"
#include "net/loopback.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "par/parallel.hpp"
#include "serve/runtime.hpp"
#include "snapshot_fault_helpers.hpp"
#include "tsdb/meta_drift.hpp"
#include "tsdb/store.hpp"

namespace leaf::tsdb {
namespace {

/// Restores the default thread count even if a test fails mid-way.
struct ThreadGuard {
  ~ThreadGuard() { par::set_threads(0); }
};

// --- store: recording, retention, downsampling -----------------------------

TEST(TsdbStore, DownsamplingGoldens) {
  Store store;
  for (std::uint64_t s = 0; s < 100; ++s)
    store.record("m", "", s, static_cast<double>(s));
  EXPECT_EQ(store.num_series(), 1u);
  EXPECT_EQ(store.samples_recorded(), 100u);
  EXPECT_EQ(store.last_step(), 99u);

  const auto raw = store.query({"m", "", 0, ~0ULL, Resolution::kRaw, 16});
  ASSERT_EQ(raw.series.size(), 1u);
  ASSERT_EQ(raw.series[0].steps.size(), 100u);
  EXPECT_EQ(raw.series[0].steps.front(), 0u);
  EXPECT_EQ(raw.series[0].values[37], 37.0);
  EXPECT_TRUE(raw.series[0].min.empty());  // raw tier: samples only

  const auto ten =
      store.query({"m", "", 0, ~0ULL, Resolution::kTenStep, 16});
  ASSERT_EQ(ten.series.size(), 1u);
  const SeriesData& t = ten.series[0];
  ASSERT_EQ(t.steps.size(), 10u);  // buckets 0,10,...,90
  for (std::size_t b = 0; b < 10; ++b) {
    const double start = static_cast<double>(b * 10);
    EXPECT_EQ(t.steps[b], b * 10) << "bucket " << b;
    EXPECT_EQ(t.min[b], start);
    EXPECT_EQ(t.max[b], start + 9.0);
    EXPECT_EQ(t.counts[b], 10u);
    EXPECT_EQ(t.values[b], start + 4.5);  // bucket mean
  }

  const auto hundred =
      store.query({"m", "", 0, ~0ULL, Resolution::kHundredStep, 16});
  ASSERT_EQ(hundred.series.size(), 1u);
  ASSERT_EQ(hundred.series[0].steps.size(), 1u);
  EXPECT_EQ(hundred.series[0].min[0], 0.0);
  EXPECT_EQ(hundred.series[0].max[0], 99.0);
  EXPECT_EQ(hundred.series[0].counts[0], 100u);
  EXPECT_EQ(hundred.series[0].values[0], 49.5);
}

TEST(TsdbStore, RingBuffersWrapAroundKeepingTheNewest) {
  // Enough steps to wrap every tier, ending 40 steps into an open
  // 100-step bucket.
  const std::uint64_t n = 100 * (Store::kAgg100Capacity + 1) + 40;
  Store store;
  for (std::uint64_t s = 0; s < n; ++s)
    store.record("m", "", s, static_cast<double>(s));

  const auto raw = store.query({"m", "", 0, ~0ULL, Resolution::kRaw, 16});
  ASSERT_EQ(raw.series[0].steps.size(), Store::kRawCapacity);  // the newest
  EXPECT_EQ(raw.series[0].steps.front(), n - Store::kRawCapacity);
  EXPECT_EQ(raw.series[0].steps.back(), n - 1);

  const std::uint64_t last_ten = (n - 1) - (n - 1) % 10;
  const auto ten =
      store.query({"m", "", 0, ~0ULL, Resolution::kTenStep, 16});
  ASSERT_EQ(ten.series[0].steps.size(), Store::kAgg10Capacity);
  EXPECT_EQ(ten.series[0].steps.front(),
            last_ten - 10 * (Store::kAgg10Capacity - 1));
  EXPECT_EQ(ten.series[0].steps.back(), last_ten);

  const std::uint64_t last_hundred = (n - 1) - (n - 1) % 100;
  const auto hundred =
      store.query({"m", "", 0, ~0ULL, Resolution::kHundredStep, 16});
  ASSERT_EQ(hundred.series[0].steps.size(), Store::kAgg100Capacity);
  EXPECT_EQ(hundred.series[0].steps.front(),
            last_hundred - 100 * (Store::kAgg100Capacity - 1));
  EXPECT_EQ(hundred.series[0].steps.back(), last_hundred);
  EXPECT_EQ(hundred.series[0].counts.front(), 100u);
  EXPECT_EQ(hundred.series[0].counts.back(), 40u);  // still-open bucket
}

TEST(TsdbStore, QueryMatchersAndTruncation) {
  Store store;
  store.record("leaf_a", "{shard=\"0\"}", 1, 1.0);
  store.record("leaf_a", "{shard=\"1\"}", 1, 2.0);
  store.record("leaf_b", "", 1, 3.0);
  store.record("other", "", 1, 4.0);

  // Exact name.
  EXPECT_EQ(store.query({"leaf_b", "", 0, ~0ULL, Resolution::kRaw, 16})
                .series.size(),
            1u);
  // Trailing-'*' prefix, lexicographic (name, labels) order.
  const auto pre = store.query({"leaf_*", "", 0, ~0ULL, Resolution::kRaw, 16});
  ASSERT_EQ(pre.series.size(), 3u);
  EXPECT_EQ(pre.series[0].labels, "{shard=\"0\"}");
  EXPECT_EQ(pre.series[1].labels, "{shard=\"1\"}");
  EXPECT_EQ(pre.series[2].name, "leaf_b");
  EXPECT_FALSE(pre.truncated);
  // Label substring filter.
  const auto lab = store.query(
      {"leaf_*", "shard=\"1\"", 0, ~0ULL, Resolution::kRaw, 16});
  ASSERT_EQ(lab.series.size(), 1u);
  EXPECT_EQ(lab.series[0].values[0], 2.0);
  // max_series truncation is flagged, never silent.
  const auto cut = store.query({"leaf_*", "", 0, ~0ULL, Resolution::kRaw, 2});
  EXPECT_EQ(cut.series.size(), 2u);
  EXPECT_TRUE(cut.truncated);
  // Step range is inclusive on both ends.
  store.record("leaf_b", "", 5, 6.0);
  const auto range =
      store.query({"leaf_b", "", 1, 5, Resolution::kRaw, 16});
  EXPECT_EQ(range.series[0].steps.size(), 2u);
  const auto tail = store.query({"leaf_b", "", 2, 4, Resolution::kRaw, 16});
  EXPECT_TRUE(tail.series.empty() || tail.series[0].steps.empty());
}

TEST(TsdbStore, RefusesBadSamplesAndCountsThem) {
  Store store;
  store.record("a", "", 1, 1.0);
  store.record("a", "", 2, std::numeric_limits<double>::quiet_NaN());
  store.record("a", "", 0, 9.0);  // out-of-order step
  for (std::size_t i = 1; i < Store::kMaxSeries; ++i)
    store.record(std::to_string(i), "", 1, 1.0);
  store.record("b", "", 3, 1.0);  // series cap hit
  EXPECT_EQ(store.num_series(), Store::kMaxSeries);
  EXPECT_EQ(store.samples_recorded(), Store::kMaxSeries);
  EXPECT_EQ(store.samples_dropped(), 3u);
  const auto q = store.query({"a", "", 0, ~0ULL, Resolution::kRaw, 16});
  ASSERT_EQ(q.series[0].steps.size(), 1u);
  EXPECT_EQ(q.series[0].values[0], 1.0);
}

TEST(TsdbStore, FingerprintCoversOnlyDeterministicNonSecondsSeries) {
  Store a, b;
  a.record("leaf_x", "", 1, 1.0);
  b.record("leaf_x", "", 1, 1.0);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  // Volatile and wall-clock series never perturb the fingerprint...
  b.record("leaf_rate", "", 2, 123.0, /*deterministic=*/false);
  b.record("leaf_rpc_seconds_sum", "", 2, 0.5);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  // ...a deterministic sample does.
  b.record("leaf_x", "", 3, 2.0);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(TsdbStore, SaveLoadRoundTripsExactly) {
  Store store;
  for (std::uint64_t s = 0; s < 25; ++s) {
    store.record("leaf_x", "{shard=\"0\"}", s, static_cast<double>(s) * 0.5);
    store.record("leaf_rate", "", s, static_cast<double>(s % 3),
                 /*deterministic=*/false);
  }
  io::Serializer out;
  store.save(out);

  Store back;
  io::Deserializer in(out.bytes());
  back.load(in);
  EXPECT_EQ(back.num_series(), store.num_series());
  EXPECT_EQ(back.last_step(), store.last_step());
  EXPECT_EQ(back.samples_recorded(), store.samples_recorded());
  EXPECT_EQ(back.fingerprint(), store.fingerprint());
  // The volatile flag survives: still excluded after a round-trip.
  Store no_rate;
  for (std::uint64_t s = 0; s < 25; ++s)
    no_rate.record("leaf_x", "{shard=\"0\"}", s,
                   static_cast<double>(s) * 0.5);
  EXPECT_EQ(back.fingerprint(), no_rate.fingerprint());
  // And the restored store keeps recording in sequence.
  back.record("leaf_x", "{shard=\"0\"}", 25, 12.5);
  EXPECT_EQ(back.last_step(), 25u);
}

// --- meta-drift watchdog ---------------------------------------------------

TEST(TsdbMetaDrift, ConstantStreamNeverFires) {
  MetaDrift md;
  for (std::uint64_t t = 0; t < 200; ++t)
    EXPECT_FALSE(md.observe("flat", -1, t, 0.0));
  EXPECT_EQ(md.firings(), 0u);
  EXPECT_EQ(md.state(200), 0);
  EXPECT_TRUE(md.events().empty());
}

TEST(TsdbMetaDrift, DistributionShiftFiresHoldsThenDecays) {
  MetaDrift md;
  std::uint64_t t = 0;
  for (; t < 60; ++t) md.observe("miss_rate", -1, t, 0.0);
  std::uint64_t fired_at = 0;
  for (; t < 120; ++t)
    if (md.observe("miss_rate", -1, t, 5.0) && fired_at == 0) fired_at = t;
  ASSERT_GT(md.firings(), 0u);
  ASSERT_GT(fired_at, 0u);

  // The firing raised state() and emitted a telemetry-drift event naming
  // the rule and tick.
  EXPECT_EQ(md.state(fired_at), 1);
  if (obs::kCompiledIn) {  // event emission compiles out with the registry
    ASSERT_FALSE(md.events().empty());
    const obs::Event& e = md.events().events().front();
    EXPECT_EQ(e.kind, obs::EventKind::kTelemetryDrift);
    EXPECT_NE(e.detail.find("rule=miss_rate"), std::string::npos);
    EXPECT_NE(e.detail.find("tick="), std::string::npos);
  }

  // After kHoldTicks quiet ticks the rule stops contributing.
  const std::uint64_t last_tick = t - 1;
  EXPECT_EQ(md.state(last_tick + MetaDrift::kHoldTicks + 1), 0);
}

TEST(TsdbMetaDrift, SaveLoadContinuesTheExactTrajectory) {
  const auto feed = [](MetaDrift& md, std::uint64_t from, std::uint64_t to) {
    for (std::uint64_t t = from; t < to; ++t)
      md.observe("r", -1, t, t < 60 ? 0.0 : 4.0);
  };
  MetaDrift uninterrupted;
  feed(uninterrupted, 0, 120);

  MetaDrift victim;
  feed(victim, 0, 45);
  io::Serializer out;
  victim.save(out);
  MetaDrift revived;
  io::Deserializer in(out.bytes());
  revived.load(in);
  feed(revived, 45, 120);

  EXPECT_EQ(revived.firings(), uninterrupted.firings());
  EXPECT_EQ(revived.events().events(), uninterrupted.events().events());
  EXPECT_EQ(revived.state(120), uninterrupted.state(120));
}

// --- fleet integration -----------------------------------------------------

struct TsdbFleetFixture : ::testing::Test {
  Scale scale = Scale::for_level(Scale::Level::kSmall);
  data::CellularDataset ds = data::generate_fixed_dataset(scale, 42);

  std::vector<serve::ShardSpec> specs(std::size_t n) const {
    const data::TargetKpi kpis[] = {data::TargetKpi::kDVol,
                                    data::TargetKpi::kPU,
                                    data::TargetKpi::kDTP};
    std::vector<serve::ShardSpec> out;
    for (std::size_t i = 0; i < n; ++i)
      out.push_back(
          {kpis[i % 3], models::ModelFamily::kRidge, "Triggered", 0});
    return out;
  }
};

TEST_F(TsdbFleetFixture, StepEpilogueSamplesFleetSeries) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  serve::FleetRuntime fleet(ds, scale, specs(2));
  fleet.run_steps(5);
  EXPECT_EQ(fleet.sample_tick(), 5u);

  const Store& store = fleet.telemetry();
  EXPECT_GT(store.num_series(), 0u);
  const auto steps = store.query(
      {"leaf_fleet_steps", "", 0, ~0ULL, Resolution::kRaw, 4});
  ASSERT_EQ(steps.series.size(), 1u);
  ASSERT_EQ(steps.series[0].values.size(), 5u);
  EXPECT_EQ(steps.series[0].values.front(), 1.0);
  EXPECT_EQ(steps.series[0].values.back(), 5.0);
  // Per-shard series carry shard labels.
  const auto health = store.query(
      {"leaf_fleet_shard_health", "shard=\"1\"", 0, ~0ULL,
       Resolution::kRaw, 4});
  ASSERT_EQ(health.series.size(), 1u);
  // The meta-drift gauge is exported (and quiet on a healthy run).
  EXPECT_EQ(obs::MetricsRegistry::global()
                .gauge("leaf_telemetry_drift_state")
                .value(),
            0.0);
}

TEST_F(TsdbFleetFixture, StoredSeriesByteIdenticalAtAnyThreadCount) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  ThreadGuard guard;
  const auto run = [&](int threads) {
    par::set_threads(threads);
    serve::FleetRuntime fleet(ds, scale, specs(3));
    fleet.run_steps(12);
    return fleet.telemetry().fingerprint();
  };
  const std::uint64_t fp1 = run(1);
  const std::uint64_t fp4 = run(4);
  EXPECT_NE(fp1, 0u);
  EXPECT_EQ(fp1, fp4);
}

TEST_F(TsdbFleetFixture, SnapshotResumeContinuesTheSeriesByteIdentically) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  serve::FleetRuntime uninterrupted(ds, scale, specs(2));
  uninterrupted.run_steps(UINT64_MAX);

  const std::string dir = ::testing::TempDir() + "leaf_tsdb_resume";
  std::filesystem::create_directories(dir);
  auto victim = std::make_unique<serve::FleetRuntime>(ds, scale, specs(2));
  victim->run_steps(6);
  victim->snapshot(dir);
  victim.reset();  // "SIGKILL"

  serve::FleetRuntime revived(ds, scale, specs(2));
  revived.restore(dir);
  EXPECT_EQ(revived.sample_tick(), 6u);
  EXPECT_GT(revived.telemetry().num_series(), 0u);
  revived.run_steps(UINT64_MAX);

  EXPECT_EQ(revived.telemetry().fingerprint(),
            uninterrupted.telemetry().fingerprint());
  EXPECT_EQ(revived.sample_tick(), uninterrupted.sample_tick());
  std::filesystem::remove_all(dir);
}

/// Snapshots a 2-shard fleet after 4 steps into a fresh `dir`, then
/// rewrites every generation file through `damage`.
template <typename Damage>
void snapshot_then_damage(const data::CellularDataset& ds, const Scale& scale,
                          const std::vector<serve::ShardSpec>& specs,
                          const std::string& dir, Damage damage) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  serve::FleetRuntime fleet(ds, scale, specs);
  fleet.run_steps(4);
  fleet.snapshot(dir);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::vector<std::uint8_t> bytes =
        leaf::testing::read_raw(entry.path().string());
    damage(bytes);
    leaf::testing::write_raw(entry.path().string(), bytes);
  }
}

// Telemetry loss is never fatal: a tsdb section whose CRC fails restores
// as an empty store while every shard resumes.
TEST_F(TsdbFleetFixture, CorruptTsdbSectionRestoresEmptyStore) {
  const std::string dir = ::testing::TempDir() + "leaf_tsdb_corrupt";
  snapshot_then_damage(ds, scale, specs(2), dir,
                       [](std::vector<std::uint8_t>& bytes) {
                         ASSERT_TRUE(leaf::testing::corrupt_section_payload(
                             bytes, "tsdb"));
                       });

  serve::FleetRuntime revived(ds, scale, specs(2));
  revived.restore(dir);  // must not throw: only telemetry is damaged
  EXPECT_EQ(revived.steps_run(), 4u);
  // No usable telemetry section: the store starts empty, ticks resume at
  // the step counter, and the fleet keeps stepping.
  EXPECT_EQ(revived.telemetry().num_series(), 0u);
  EXPECT_EQ(revived.sample_tick(), 4u);
  EXPECT_TRUE(revived.step());
  if (obs::kCompiledIn) {
    EXPECT_GT(revived.telemetry().num_series(), 0u);
  }
  std::filesystem::remove_all(dir);
}

// The reader accepts exactly the current format: a v3-stamped file is
// refused outright, never half-read.
TEST_F(TsdbFleetFixture, V3StampedSnapshotIsRejected) {
  const std::string dir = ::testing::TempDir() + "leaf_tsdb_v3";
  snapshot_then_damage(ds, scale, specs(2), dir,
                       [](std::vector<std::uint8_t>& bytes) {
                         bytes = leaf::testing::with_format_version(bytes, 3);
                       });

  serve::FleetRuntime revived(ds, scale, specs(2));
  leaf::testing::expect_snapshot_error([&] { revived.restore(dir); },
                                       "unsupported format version 3");
  EXPECT_EQ(revived.steps_run(), 0u);
  std::filesystem::remove_all(dir);
}

TEST_F(TsdbFleetFixture, TsdbGapChaosSkipsSamplesDeterministically) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  serve::SupervisorConfig gapped;
  gapped.chaos = chaos::ChaosConfig::parse("seed=5,tsdb-gap=0.5");
  const auto run = [&]() {
    serve::FleetRuntime fleet(ds, scale, specs(2), 2024, gapped);
    fleet.run_steps(10);
    return std::make_pair(fleet.telemetry().fingerprint(),
                          fleet.telemetry().samples_recorded());
  };
  const auto [fp_a, n_a] = run();
  const auto [fp_b, n_b] = run();
  EXPECT_EQ(fp_a, fp_b);  // the gap schedule is seeded, not random
  EXPECT_EQ(n_a, n_b);

  serve::FleetRuntime full(ds, scale, specs(2));
  full.run_steps(10);
  EXPECT_LT(n_a, full.telemetry().samples_recorded());
  EXPECT_EQ(full.sample_tick(), 10u);  // ticks advance through gaps
}

TEST_F(TsdbFleetFixture, DeadlineStormRaisesTelemetryDrift) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  // A deterministic serving-plane incident: quiet ticks, then a storm of
  // deadline-expired requests.  The deadline-miss-rate recording rule's
  // detector must fire, emit a telemetry-drift supervision event, and
  // raise the gauge the SloWatchdog escalates on.
  serve::FleetRuntime fleet(ds, scale, specs(1));
  fleet.run_steps(1);
  net::Loopback loop(fleet);
  net::LoopbackConnection& conn = loop.connect();
  const int cols = fleet.shard_num_features(0);
  Matrix row(1, static_cast<std::size_t>(cols));
  std::uint64_t id = 1;

  const auto tick = [&](bool storm) {
    for (auto& v : row.flat()) v = 0.25;
    net::PredictRequest req{0, storm ? 10u : 0u, row};
    conn.send(net::make_frame(net::MsgType::kPredict, id++, req));
    if (storm) loop.clock().advance_ms(50);  // expires in queue
    loop.pump();
    while (conn.receive().has_value()) {
    }
    fleet.sample_telemetry();
  };
  for (int i = 0; i < 40; ++i) tick(false);  // healthy baseline
  EXPECT_EQ(fleet.telemetry_drift_state(), 0);
  for (int i = 0; i < 40; ++i) tick(true);  // 100% deadline misses

  EXPECT_GT(fleet.telemetry_drift_state(), 0);
  EXPECT_GT(obs::MetricsRegistry::global()
                .gauge("leaf_telemetry_drift_state")
                .value(),
            0.0);
  bool saw_event = false;
  for (const obs::Event& e : fleet.supervision_events())
    if (e.kind == obs::EventKind::kTelemetryDrift &&
        e.detail.find("rule=deadline_miss_rate") != std::string::npos)
      saw_event = true;
  EXPECT_TRUE(saw_event);
}

TEST_F(TsdbFleetFixture, TelemetryTickFeedsTheFleetSloWatchdogPredictRates) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  // ServerCore counts requests under type= labels, so the per-tick delta
  // must sum label sets, and the rate rules divide by predict requests:
  // 1 expired deadline out of 4 predicts is a 0.25 miss rate — the
  // watchdog's warning level (0.5 x 0.5), not a critical burn.
  serve::SupervisorConfig armed;
  armed.slo = obs::SloSpec::parse("window=2,deadline-miss=0.5,recover=1");
  serve::FleetRuntime fleet(ds, scale, specs(1), 2024, armed);
  ASSERT_NE(fleet.slo_watchdog(), nullptr);
  fleet.run_steps(1);
  net::Loopback loop(fleet);
  net::LoopbackConnection& conn = loop.connect();
  const int cols = fleet.shard_num_features(0);
  std::uint64_t id = 1;
  for (int tick = 0; tick < 2; ++tick) {
    for (int r = 0; r < 4; ++r) {
      net::PredictRequest req{0, r == 0 ? 10u : 0u,
                              Matrix(1, static_cast<std::size_t>(cols))};
      conn.send(net::make_frame(net::MsgType::kPredict, id++, req));
    }
    loop.clock().advance_ms(50);  // only the 10 ms budget lapses in queue
    loop.pump();
    while (conn.receive().has_value()) {
    }
    fleet.sample_telemetry();

    const auto newest = [&](const std::string& name) {
      const auto q = fleet.telemetry().query(
          {name, "", 0, ~0ULL, Resolution::kRaw, 4});
      return q.series.size() == 1 && !q.series[0].values.empty()
                 ? q.series[0].values.back()
                 : std::numeric_limits<double>::quiet_NaN();
    };
    EXPECT_EQ(newest("leaf_net_requests_total_per_tick"), 4.0);
    EXPECT_EQ(newest("leaf_net_sheds_total_per_tick"), 1.0);
    EXPECT_DOUBLE_EQ(newest("leaf_rule_deadline_miss_rate"), 0.25);
    EXPECT_DOUBLE_EQ(newest("leaf_rule_shed_rate"), 0.25);
    EXPECT_EQ(fleet.slo_watchdog()->state(),
              obs::SloWatchdog::State::kWarning);
  }
  EXPECT_DOUBLE_EQ(fleet.slo_watchdog()->burn().deadline_miss, 0.25);
  EXPECT_EQ(obs::MetricsRegistry::global().gauge("leaf_slo_state").value(),
            1.0);
  int warnings = 0, criticals = 0;
  for (const obs::Event& e : fleet.supervision_events()) {
    if (e.kind == obs::EventKind::kSloBurnWarning) ++warnings;
    if (e.kind == obs::EventKind::kSloBurnCritical) ++criticals;
  }
  EXPECT_EQ(warnings, 1);
  EXPECT_EQ(criticals, 0);
}

}  // namespace
}  // namespace leaf::tsdb
