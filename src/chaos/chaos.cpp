#include "chaos/chaos.hpp"

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <sstream>

#include "common/spec.hpp"

namespace leaf::chaos {

namespace {

// Fault-point tags: first substream key of every decision, so the fault
// points draw from independent streams even at identical coordinates.
enum Point : std::uint64_t {
  kStepThrow = 1,
  kRetrainStorm = 2,
  kSlow = 3,
  kSnapshotCorrupt = 4,
  kSnapshotPartial = 5,
  kCorruptTarget = 6,
  kNetTruncate = 7,
  kNetGarbage = 8,
  kDeadlineStorm = 9,
  kTsdbGap = 10,
};

/// Longest accepted slow-ms stall (one minute).
constexpr std::uint64_t kMaxSlowMs = 60000;

double parse_probability(const std::string& key, const std::string& value) {
  return spec::real_in("chaos", key, value, 0.0, 1.0);
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  return spec::uint_in("chaos", key, value, 0, UINT64_MAX);
}

std::vector<int> parse_shards(const std::string& value) {
  std::vector<int> out;
  std::size_t start = 0;
  while (start <= value.size()) {
    const std::size_t plus = value.find('+', start);
    const std::size_t end = plus == std::string::npos ? value.size() : plus;
    if (end > start) {
      const std::string tok = value.substr(start, end - start);
      out.push_back(
          static_cast<int>(spec::uint_in("chaos", "shards", tok, 0, INT_MAX)));
    }
    if (plus == std::string::npos) break;
    start = plus + 1;
  }
  if (out.empty())
    throw std::invalid_argument("chaos: 'shards' needs '+'-separated indices");
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

bool ChaosConfig::any() const {
  return step_throw > 0.0 || retrain_storm > 0.0 || slow > 0.0 ||
         snapshot_corrupt > 0.0 || snapshot_partial > 0.0 ||
         net_truncate > 0.0 || net_garbage > 0.0 || deadline_storm > 0.0 ||
         tsdb_gap > 0.0;
}

ChaosConfig ChaosConfig::parse(const std::string& text) {
  ChaosConfig cfg;
  for (const auto& [key, value] : spec::split(text, "chaos")) {
    if (key == "seed") cfg.seed = parse_u64(key, value);
    else if (key == "shards") cfg.shards = parse_shards(value);
    else if (key == "step-throw") cfg.step_throw = parse_probability(key, value);
    else if (key == "step-throw-before")
      cfg.step_throw_before = parse_u64(key, value);
    else if (key == "retrain-storm")
      cfg.retrain_storm = parse_probability(key, value);
    else if (key == "slow") cfg.slow = parse_probability(key, value);
    else if (key == "slow-ms")
      cfg.slow_ms = static_cast<int>(
          spec::uint_in("chaos", key, value, 0, kMaxSlowMs));
    else if (key == "snapshot-corrupt")
      cfg.snapshot_corrupt = parse_probability(key, value);
    else if (key == "snapshot-partial")
      cfg.snapshot_partial = parse_probability(key, value);
    else if (key == "net-truncate")
      cfg.net_truncate = parse_probability(key, value);
    else if (key == "net-garbage")
      cfg.net_garbage = parse_probability(key, value);
    else if (key == "deadline-storm")
      cfg.deadline_storm = parse_probability(key, value);
    else if (key == "tsdb-gap")
      cfg.tsdb_gap = parse_probability(key, value);
    else
      throw std::invalid_argument("chaos: unknown fault point '" + key + "'");
  }
  return cfg;
}

ChaosConfig ChaosConfig::from_env() {
  const char* env = std::getenv("LEAF_CHAOS");
  if (env == nullptr || *env == '\0') return {};
  return parse(env);
}

std::string ChaosConfig::to_string() const {
  std::ostringstream out;
  out << "seed=" << seed;
  if (!shards.empty()) {
    out << ",shards=";
    for (std::size_t i = 0; i < shards.size(); ++i)
      out << (i ? "+" : "") << shards[i];
  }
  const auto prob = [&out](const char* key, double p) {
    if (p > 0.0) out << "," << key << "=" << p;
  };
  prob("step-throw", step_throw);
  if (step_throw_before != ~0ULL)
    out << ",step-throw-before=" << step_throw_before;
  prob("retrain-storm", retrain_storm);
  prob("slow", slow);
  if (slow > 0.0) out << ",slow-ms=" << slow_ms;
  prob("snapshot-corrupt", snapshot_corrupt);
  prob("snapshot-partial", snapshot_partial);
  prob("net-truncate", net_truncate);
  prob("net-garbage", net_garbage);
  prob("deadline-storm", deadline_storm);
  prob("tsdb-gap", tsdb_gap);
  return out.str();
}

Engine::Engine(ChaosConfig cfg) : cfg_(std::move(cfg)), base_(cfg_.seed) {}

bool Engine::targets(int shard) const {
  return cfg_.shards.empty() ||
         std::binary_search(cfg_.shards.begin(), cfg_.shards.end(), shard);
}

bool Engine::decide(std::uint64_t point, std::uint64_t a, std::uint64_t b,
                    double p) const {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  Rng stream = base_.substream(point).substream(a).substream(b);
  return stream.uniform() < p;
}

bool Engine::throw_step(int shard, std::uint64_t fleet_step) const {
  if (!targets(shard) || fleet_step >= cfg_.step_throw_before) return false;
  return decide(kStepThrow, static_cast<std::uint64_t>(shard), fleet_step,
                cfg_.step_throw);
}

bool Engine::retrain_storm(int shard, std::uint64_t fleet_step) const {
  if (!targets(shard)) return false;
  return decide(kRetrainStorm, static_cast<std::uint64_t>(shard), fleet_step,
                cfg_.retrain_storm);
}

bool Engine::slow_step(int shard, std::uint64_t fleet_step) const {
  if (!targets(shard)) return false;
  return decide(kSlow, static_cast<std::uint64_t>(shard), fleet_step,
                cfg_.slow);
}

bool Engine::corrupt_snapshot(std::uint64_t gen) const {
  return decide(kSnapshotCorrupt, gen, 0, cfg_.snapshot_corrupt);
}

int Engine::corrupt_target(std::size_t n_shards, std::uint64_t gen) const {
  if (n_shards == 0) return 0;
  Rng stream = base_.substream(kCorruptTarget).substream(gen);
  if (!cfg_.shards.empty()) {
    // Draw from the configured target set (clamped to the fleet size).
    std::vector<int> in_range;
    for (int s : cfg_.shards)
      if (s >= 0 && static_cast<std::size_t>(s) < n_shards)
        in_range.push_back(s);
    if (!in_range.empty())
      return in_range[stream.index(in_range.size())];
  }
  return static_cast<int>(stream.index(n_shards));
}

bool Engine::partial_write(std::uint64_t gen) const {
  return decide(kSnapshotPartial, gen, 0, cfg_.snapshot_partial);
}

bool Engine::net_truncate(std::uint64_t conn, std::uint64_t seq) const {
  return decide(kNetTruncate, conn, seq, cfg_.net_truncate);
}

bool Engine::net_garbage(std::uint64_t conn, std::uint64_t seq) const {
  return decide(kNetGarbage, conn, seq, cfg_.net_garbage);
}

bool Engine::deadline_storm(std::uint64_t conn, std::uint64_t seq) const {
  return decide(kDeadlineStorm, conn, seq, cfg_.deadline_storm);
}

bool Engine::tsdb_gap(std::uint64_t tick) const {
  return decide(kTsdbGap, tick, 0, cfg_.tsdb_gap);
}

}  // namespace leaf::chaos
