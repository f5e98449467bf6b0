#include "serve/supervision.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "serve/runtime.hpp"

namespace leaf::serve {

namespace {

/// Fleet steps a FAULTED shard skips after its first consecutive failure;
/// each further failure doubles the wait.
constexpr std::uint64_t kBackoffBaseSteps = 1;

}  // namespace

const char* to_string(ShardHealth h) {
  switch (h) {
    case ShardHealth::kHealthy: return "healthy";
    case ShardHealth::kFaulted: return "faulted";
    case ShardHealth::kQuarantined: return "quarantined";
  }
  return "?";
}

void ShardSupervisor::emit(obs::EventKind kind, int day, std::string detail) {
  obs::Event e = identity_;
  e.kind = kind;
  e.day = day;
  e.detail = std::move(detail);
  events_.emit(std::move(e));
}

void ShardSupervisor::on_failure(std::uint64_t fleet_step, int day,
                                 const std::string& what, bool init) {
  static obs::Counter& faults_ctr =
      obs::MetricsRegistry::global().counter("leaf_shard_faults_total");
  static obs::Counter& quarantine_ctr =
      obs::MetricsRegistry::global().counter("leaf_shard_quarantines_total");
  ++consecutive_failures_;
  ++total_failures_;
  last_error_ = what;
  faults_ctr.inc();
  const std::string context =
      "fleet_step=" + std::to_string(fleet_step) +
      ",failures=" + std::to_string(consecutive_failures_) +
      ",error=" + last_error_;
  if (init || consecutive_failures_ > policy_.max_retries) {
    // Init failures are configuration/data problems a retry cannot fix;
    // step failures escalate once the retry budget is spent.
    health_ = ShardHealth::kQuarantined;
    quarantine_ctr.inc();
    emit(obs::EventKind::kShardQuarantined, day, context);
    LEAF_LOG_ERROR("serve: shard %d quarantined (%s)", identity_.shard,
                   context.c_str());
  } else {
    health_ = ShardHealth::kFaulted;
    backoff_until_ =
        fleet_step + 1 + (kBackoffBaseSteps << (consecutive_failures_ - 1));
    emit(obs::EventKind::kShardFaulted, day,
         context + ",retry_at_step=" + std::to_string(backoff_until_));
    LEAF_LOG_WARN("serve: shard %d faulted, retry at fleet step %llu (%s)",
                  identity_.shard,
                  static_cast<unsigned long long>(backoff_until_),
                  context.c_str());
  }
}

void ShardSupervisor::on_success(std::uint64_t fleet_step, int day) {
  static obs::Counter& recovered_ctr =
      obs::MetricsRegistry::global().counter("leaf_shard_recoveries_total");
  if (health_ != ShardHealth::kFaulted) return;
  health_ = ShardHealth::kHealthy;
  consecutive_failures_ = 0;
  recovered_ctr.inc();
  emit(obs::EventKind::kShardRecovered, day,
       "fleet_step=" + std::to_string(fleet_step) +
           ",after_failures=" + std::to_string(total_failures_));
  LEAF_LOG_INFO("serve: shard %d recovered at fleet step %llu",
                identity_.shard, static_cast<unsigned long long>(fleet_step));
}

/// A storm of requests inside the sliding window trips the breaker OPEN
/// and the shard keeps serving its frozen model (counted like the ingest
/// OUTAGE freeze).  Disabled by default.
bool ShardSupervisor::allow_retrain(int day) {
  static obs::Counter& suppressed_ctr = obs::MetricsRegistry::global().counter(
      "leaf_breaker_suppressed_retrains_total");
  using BState = core::RetrainBreaker::State;
  const BState before = breaker_.state();
  const bool allowed = breaker_.allow(day);
  const BState after = breaker_.state();
  if (before == BState::kOpen && after != BState::kOpen)
    emit(obs::EventKind::kBreakerHalfOpen, day, "cooldown over, probe retrain");
  if (after == BState::kOpen && before != BState::kOpen)
    emit(obs::EventKind::kBreakerOpen, day,
         "max_retrains=" + std::to_string(breaker_.config().max_retrains) +
             ",window_days=" + std::to_string(breaker_.config().window_days) +
             ",open_until_day=" + std::to_string(breaker_.open_until()));
  if (after == BState::kClosed && before == BState::kOpen)
    emit(obs::EventKind::kBreakerClose, day, "probe retrain allowed");
  if (!allowed) suppressed_ctr.inc();
  return allowed;
}

void ShardSupervisor::fill(ShardStats& s) const {
  s.health = health_;
  s.faults = total_failures_;
  s.consecutive_failures = consecutive_failures_;
  s.backoff_until = backoff_until_;
  s.last_error = last_error_;
  s.breaker_state = breaker_.state_name();
  s.breaker_trips = breaker_.trips();
}

void ShardSupervisor::save(io::Serializer& out) const {
  out.put_u8(static_cast<std::uint8_t>(health_));
  out.put_i32(consecutive_failures_);
  out.put_i32(total_failures_);
  out.put_u64(backoff_until_);
  out.put_string(last_error_);
  breaker_.save_state(out);
  events_.save(out);
}

void ShardSupervisor::load(io::Deserializer& in) {
  const std::uint8_t health = in.get_u8();
  if (health > static_cast<std::uint8_t>(ShardHealth::kQuarantined))
    throw io::SnapshotError("shard: unknown health state " +
                            std::to_string(static_cast<int>(health)));
  health_ = static_cast<ShardHealth>(health);
  consecutive_failures_ = in.get_i32();
  total_failures_ = in.get_i32();
  backoff_until_ = in.get_u64();
  last_error_ = in.get_string();
  breaker_.load_state(in);
  events_.load(in);
}

// --- SnapshotStore ---------------------------------------------------------

namespace {

std::string file_name(std::uint64_t gen) {
  char name[40];
  std::snprintf(name, sizeof name, "fleet-%06llu.leafsnap",
                static_cast<unsigned long long>(gen));
  return name;
}

}  // namespace

std::string SnapshotStore::path(std::uint64_t gen) const {
  return (std::filesystem::path(dir_) / file_name(gen)).string();
}

std::vector<std::uint64_t> SnapshotStore::generations() const {
  constexpr std::size_t kPrefix = sizeof "fleet-" - 1;
  std::vector<std::uint64_t> gens;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= kPrefix) continue;
    // from_chars takes no sign or space and leaves `gen` at 0 on failure;
    // the round trip through file_name rejects unpadded or over-padded
    // numbers and any other suffix.
    std::uint64_t gen = 0;
    std::from_chars(name.data() + kPrefix, name.data() + name.size(), gen);
    if (gen > 0 && file_name(gen) == name) gens.push_back(gen);
  }
  std::sort(gens.begin(), gens.end());
  return gens;
}

std::uint64_t SnapshotStore::write(
    std::uint64_t gen, const std::vector<std::uint8_t>& bytes) const {
  std::error_code dir_ec;
  std::filesystem::create_directories(dir_, dir_ec);
  if (dir_ec)
    throw io::SnapshotError("cannot create snapshot dir '" + dir_ +
                            "': " + dir_ec.message());
  const std::uint64_t written =
      io::SnapshotWriter::write_bytes(path(gen), bytes);
  const std::vector<std::uint64_t> gens = generations();
  for (std::size_t i = 0; i + keep_ < gens.size(); ++i) {
    std::error_code ec;
    std::filesystem::remove(path(gens[i]), ec);
  }
  return written;
}

std::uint64_t SnapshotStore::walk(
    const Visit& visit,
    const std::function<void(const std::string&)>& unreadable) const {
  const std::vector<std::uint64_t> gens = generations();
  if (gens.empty())
    throw io::SnapshotError("no snapshot generations in '" + dir_ + "'");
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    std::optional<io::SnapshotReader> reader;
    try {
      reader.emplace(io::SnapshotReader::from_file(
          path(*it), io::SnapshotReader::ReadMode::kLenient));
    } catch (const io::SnapshotError& e) {
      unreadable(e.what());  // bad magic, version or length
      continue;
    }
    if (!visit(*it, *reader)) break;
  }
  return gens.back();
}

}  // namespace leaf::serve
