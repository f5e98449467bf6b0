// Tests for the two building blocks FleetRuntime delegates to, driven
// without a fleet: the shard supervision state machine (backoff,
// quarantine, recovery, breaker events, snapshot round trip) and the
// snapshot generation store (naming, pruning, the newest-first walk).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "io/serializer.hpp"
#include "io/snapshot.hpp"
#include "obs/metrics.hpp"
#include "serve/runtime.hpp"
#include "serve/supervision.hpp"

namespace leaf::serve {
namespace {

obs::Event identity() {
  return {obs::EventKind::kDrift, -1, 3, "DVol", "GBDT", "LEAF", "", 0.0};
}

ShardStats stats_of(const ShardSupervisor& sup) {
  ShardStats s;
  sup.fill(s);
  return s;
}

ShardSupervisor make_supervisor(RecoveryPolicy policy,
                                core::BreakerConfig breaker = {}) {
  return ShardSupervisor(policy, breaker, identity());
}

std::vector<obs::EventKind> kinds(const ShardSupervisor& sup) {
  std::vector<obs::EventKind> out;
  for (const obs::Event& e : sup.events().events()) out.push_back(e.kind);
  return out;
}

TEST(ShardSupervisor, BackoffDoublesPerConsecutiveFailure) {
  ShardSupervisor sup =
      make_supervisor({.max_retries = 4});
  std::uint64_t step = 10;
  for (int k = 1; k <= 4; ++k) {
    SCOPED_TRACE("failure " + std::to_string(k));
    ASSERT_TRUE(sup.due(step));
    sup.on_failure(step, 0, "boom");
    EXPECT_EQ(sup.health(), ShardHealth::kFaulted);
    EXPECT_EQ(stats_of(sup).consecutive_failures, k);
    // 2^(k-1) skipped steps, then the retry at backoff_until.
    const std::uint64_t want = step + 1 + (1ULL << (k - 1));
    EXPECT_EQ(stats_of(sup).backoff_until, want);
    EXPECT_FALSE(sup.due(want - 1));
    EXPECT_TRUE(sup.due(want));
    step = want;
  }
  EXPECT_EQ(sup.total_failures(), 4);
  EXPECT_EQ(stats_of(sup).last_error, "boom");
}

TEST(ShardSupervisor, QuarantinesOnFailureMaxRetriesPlusOne) {
  ShardSupervisor sup =
      make_supervisor({.max_retries = 2});
  sup.on_failure(0, 5, "a");
  sup.on_failure(stats_of(sup).backoff_until, 5, "b");
  EXPECT_EQ(sup.health(), ShardHealth::kFaulted);
  sup.on_failure(stats_of(sup).backoff_until, 5, "c");
  EXPECT_EQ(sup.health(), ShardHealth::kQuarantined);
  EXPECT_TRUE(sup.quarantined());
  EXPECT_EQ(stats_of(sup).consecutive_failures, 3);
  EXPECT_EQ(stats_of(sup).last_error, "c");
  for (std::uint64_t step : {0ULL, 100ULL, ~0ULL}) EXPECT_FALSE(sup.due(step));
  if (obs::kCompiledIn && obs::enabled()) {
    EXPECT_EQ(kinds(sup), (std::vector<obs::EventKind>{
                              obs::EventKind::kShardFaulted,
                              obs::EventKind::kShardFaulted,
                              obs::EventKind::kShardQuarantined}));
  }
}

TEST(ShardSupervisor, InitFailureQuarantinesAtOnce) {
  ShardSupervisor sup =
      make_supervisor({.max_retries = 5});
  sup.on_failure(0, 7, "bad data", /*init=*/true);
  EXPECT_TRUE(sup.quarantined());
  EXPECT_EQ(stats_of(sup).consecutive_failures, 1);
  EXPECT_FALSE(sup.due(1));
  if (obs::kCompiledIn && obs::enabled()) {
    ASSERT_EQ(sup.events().size(), 1u);
    const obs::Event& e = sup.events().events()[0];
    EXPECT_EQ(e.kind, obs::EventKind::kShardQuarantined);
    EXPECT_EQ(e.day, 7);
    EXPECT_EQ(e.shard, 3);
    EXPECT_EQ(e.kpi, "DVol");
    EXPECT_EQ(e.model, "GBDT");
    EXPECT_EQ(e.scheme, "LEAF");
    EXPECT_EQ(e.detail, "fleet_step=0,failures=1,error=bad data");
  }
}

TEST(ShardSupervisor, RecoveryResetsConsecutiveFailures) {
  ShardSupervisor sup =
      make_supervisor({.max_retries = 3});
  sup.on_success(0, 1);  // healthy: nothing to recover from
  EXPECT_TRUE(sup.events().empty());
  sup.on_failure(0, 1, "x");
  sup.on_failure(2, 1, "y");
  sup.on_success(5, 2);
  EXPECT_EQ(sup.health(), ShardHealth::kHealthy);
  EXPECT_EQ(stats_of(sup).consecutive_failures, 0);
  EXPECT_EQ(sup.total_failures(), 2);
  EXPECT_TRUE(sup.due(5));
  // The budget starts over: three more failures before quarantine.
  for (int i = 0; i < 3; ++i) sup.on_failure(10 + 10 * i, 3, "z");
  EXPECT_EQ(sup.health(), ShardHealth::kFaulted);
  if (obs::kCompiledIn && obs::enabled()) {
    ASSERT_GE(sup.events().size(), 3u);
    const obs::Event& e = sup.events().events()[2];
    EXPECT_EQ(e.kind, obs::EventKind::kShardRecovered);
    EXPECT_EQ(e.detail, "fleet_step=5,after_failures=2");
  }
}

TEST(ShardSupervisor, BreakerEventsOpenHalfOpenCloseInOrder) {
  ShardSupervisor sup = make_supervisor(
      {}, {.max_retrains = 1, .window_days = 10, .cooldown_days = 5});
  EXPECT_TRUE(sup.allow_retrain(0));
  EXPECT_FALSE(sup.allow_retrain(1));  // second in the window: trips OPEN
  EXPECT_FALSE(sup.allow_retrain(3));  // still cooling down
  EXPECT_TRUE(sup.allow_retrain(6));   // probe passes and closes it
  EXPECT_EQ(stats_of(sup).breaker_trips, 1);
  EXPECT_EQ(stats_of(sup).breaker_state, "closed");
  if (!obs::kCompiledIn || !obs::enabled()) return;
  EXPECT_EQ(kinds(sup), (std::vector<obs::EventKind>{
                            obs::EventKind::kBreakerOpen,
                            obs::EventKind::kBreakerHalfOpen,
                            obs::EventKind::kBreakerClose}));
  const std::vector<obs::Event>& ev = sup.events().events();
  EXPECT_EQ(ev[0].day, 1);
  EXPECT_EQ(ev[0].detail, "max_retrains=1,window_days=10,open_until_day=6");
  EXPECT_EQ(ev[1].day, 6);
  EXPECT_EQ(ev[2].day, 6);
}

TEST(ShardSupervisor, SaveLoadRoundTripsAndRejectsUnknownHealth) {
  const core::BreakerConfig breaker{
      .max_retrains = 1, .window_days = 10, .cooldown_days = 5};
  ShardSupervisor sup = make_supervisor({}, breaker);
  sup.on_failure(4, 2, "first");
  sup.allow_retrain(2);
  sup.allow_retrain(3);
  io::Serializer out;
  sup.save(out);

  ShardSupervisor back = make_supervisor({}, breaker);
  io::Deserializer in(out.bytes());
  back.load(in);
  EXPECT_TRUE(in.exhausted());
  const ShardStats want = stats_of(sup), got = stats_of(back);
  EXPECT_EQ(got.health, ShardHealth::kFaulted);
  EXPECT_EQ(got.faults, 1);
  EXPECT_EQ(got.consecutive_failures, 1);
  EXPECT_EQ(got.backoff_until, want.backoff_until);
  EXPECT_EQ(got.last_error, "first");
  EXPECT_EQ(got.breaker_state, "open");
  EXPECT_EQ(got.breaker_trips, 1);
  EXPECT_EQ(back.events().events(), sup.events().events());
  io::Serializer again;
  back.save(again);
  EXPECT_TRUE(std::ranges::equal(again.bytes(), out.bytes()));

  for (std::uint8_t health : {3, 255}) {
    io::Serializer bad;
    bad.put_u8(health);
    io::Deserializer bad_in(bad.bytes());
    EXPECT_THROW(back.load(bad_in), io::SnapshotError);
  }
}

// ---- SnapshotStore ---------------------------------------------------------

std::string fresh_dir(const std::string& leaf) {
  const std::string dir = ::testing::TempDir() + "leaf_store_" + leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void touch(const std::string& path) { std::ofstream(path) << "x"; }

std::vector<std::uint8_t> container(std::uint64_t tag) {
  io::SnapshotWriter w;
  w.section("tag").put_u64(tag);
  return w.encode();
}

TEST(SnapshotStore, CountsOnlyItsOwnFileNames) {
  const std::string dir = fresh_dir("names");
  const SnapshotStore store(dir);
  EXPECT_EQ(store.path(7), dir + "/fleet-000007.leafsnap");
  EXPECT_TRUE(store.generations().empty());
  for (std::uint64_t gen : {2, 11, 1234567}) touch(store.path(gen));
  for (const char* stray :
       {"fleet--1.leafsnap", "fleet-+2.leafsnap", "fleet- 3.leafsnap",
        "fleet-1.leafsnap", "fleet-0000009.leafsnap", "fleet-000000.leafsnap",
        "fleet-000004.leafsnap.tmp", "fleet-000005.leafsnapx",
        "fleet-99999999999999999999999.leafsnap", "xfleet-000006.leafsnap",
        "fleet-"})
    touch(dir + "/" + stray);
  EXPECT_EQ(store.generations(), (std::vector<std::uint64_t>{2, 11, 1234567}));
  EXPECT_TRUE(SnapshotStore(dir + "/missing").generations().empty());
}

TEST(SnapshotStore, WritePrunesAllButTheNewestKeepAndNoStrays) {
  const std::string dir = fresh_dir("prune");
  touch(dir + "/fleet-1.leafsnap");
  const SnapshotStore store(dir, 2);
  for (std::uint64_t gen = 1; gen <= 4; ++gen)
    EXPECT_GT(store.write(gen, container(gen)), 0u);
  EXPECT_EQ(store.generations(), (std::vector<std::uint64_t>{3, 4}));
  EXPECT_TRUE(std::filesystem::exists(dir + "/fleet-1.leafsnap"));
  // A directory that cannot be created fails the write like any other.
  EXPECT_THROW(SnapshotStore(dir + "/fleet-1.leafsnap/sub").write(1, {}),
               io::SnapshotError);
}

TEST(SnapshotStore, WalkIsNewestFirstAndStopsWhenAsked) {
  const std::string dir = fresh_dir("walk");
  const SnapshotStore store(dir, 10);
  EXPECT_THROW(store.walk([](auto, const auto&) { return true; },
                          [](const std::string&) {}),
               io::SnapshotError);
  for (std::uint64_t gen = 1; gen <= 3; ++gen) store.write(gen, container(gen));
  store.write(4, {'n', 'o', 't', 'a', 's', 'n', 'a', 'p'});

  std::vector<std::uint64_t> seen;
  std::vector<std::string> unreadable;
  const std::uint64_t newest = store.walk(
      [&](std::uint64_t gen, const io::SnapshotReader& reader) {
        io::Deserializer tag = reader.section("tag");
        EXPECT_EQ(tag.get_u64(), gen);
        seen.push_back(gen);
        return gen > 2;
      },
      [&](const std::string& what) { unreadable.push_back(what); });
  EXPECT_EQ(newest, 4u);
  EXPECT_EQ(unreadable.size(), 1u);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{3, 2}));  // gen 1 never opened
}

}  // namespace
}  // namespace leaf::serve
