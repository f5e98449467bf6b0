#include "ingest/fault.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.hpp"

namespace leaf::ingest {

namespace {

/// Deterministic per-(day, enb) seed, independent of processing order.
std::uint64_t fault_seed(std::uint64_t seed, int day, int enb, int stream) {
  std::uint64_t s = seed;
  s ^= 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(day + 1);
  splitmix64(s);
  s ^= 0xBF58476D1CE4E5B9ULL * static_cast<std::uint64_t>(enb + 2);
  splitmix64(s);
  s ^= static_cast<std::uint64_t>(stream);
  return splitmix64(s);
}

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

/// Fraction of KPI columns a NaN / spike / stuck corruption touches.
constexpr double kCorruptColsFraction = 0.25;
/// Factor a spike multiplies its columns by.
constexpr float kSpikeMagnitude = 50.0f;
/// Length of the day blocks a stuck-at-zero run is decided for.
constexpr int kStuckRunDays = 10;
/// Farthest a late record is displaced, in days of records.
constexpr int kShuffleHorizonDays = 5;

/// Corrupts a deterministic subset of columns with `value_fn`.
template <typename Fn>
void corrupt_columns(std::vector<float>& kpis, Rng& rng, Fn&& value_fn) {
  const std::size_t k = kpis.size();
  std::size_t touched = 0;
  for (std::size_t c = 0; c < k; ++c) {
    if (rng.bernoulli(kCorruptColsFraction)) {
      kpis[c] = value_fn(kpis[c]);
      ++touched;
    }
  }
  if (touched == 0 && k > 0) {  // corrupt at least one column
    const std::size_t c = rng.index(k);
    kpis[c] = value_fn(kpis[c]);
  }
}

}  // namespace

FaultSpec FaultSpec::at_rate(double rate, std::uint64_t seed) {
  FaultSpec spec;
  spec.enb_drop_rate = rate;
  spec.nan_rate = rate;
  spec.spike_rate = rate / 2.0;
  spec.stuck_zero_rate = rate / 2.0;
  spec.duplicate_rate = rate / 2.0;
  spec.shuffle_rate = rate / 2.0;
  spec.day_drop_rate = rate / 4.0;
  spec.seed = seed;
  return spec;
}

std::vector<TelemetryRecord> inject_faults(const data::CellularDataset& ds,
                                           const FaultSpec& spec) {
  // `order` pairs each surviving record with a delivery key; late arrivals
  // and displaced duplicates get keys ahead of their in-order position.
  struct Keyed {
    double key = 0.0;
    TelemetryRecord rec;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(static_cast<std::size_t>(ds.total_logs()));

  const std::size_t k = static_cast<std::size_t>(ds.num_kpis());
  double position = 0.0;
  for (int d = 0; d < ds.num_days(); ++d) {
    {
      Rng day_rng(fault_seed(spec.seed, d, /*enb=*/-1, /*stream=*/0));
      if (day_rng.bernoulli(spec.day_drop_rate)) continue;  // whole day lost
    }
    const int n = ds.enbs_on_day(d);
    for (int i = 0; i < n; ++i) {
      const int enb = ds.enb_on_day(d, i);
      Rng rng(fault_seed(spec.seed, d, enb, /*stream=*/1));
      position += 1.0;
      if (rng.bernoulli(spec.enb_drop_rate)) continue;  // record lost

      const auto src = ds.log_on_day(d, i);
      TelemetryRecord rec{d, enb,
                          std::vector<float>(src.begin(),
                                             src.begin() + static_cast<std::ptrdiff_t>(k))};

      // Stuck-at-zero: decided per (enb, block) so runs are contiguous.
      if (spec.stuck_zero_rate > 0.0) {
        const int block = d / kStuckRunDays;
        Rng block_rng(fault_seed(spec.seed, block, enb, /*stream=*/2));
        if (block_rng.bernoulli(spec.stuck_zero_rate)) {
          corrupt_columns(rec.kpis, block_rng, [](float) { return 0.0f; });
        }
      }
      if (rng.bernoulli(spec.nan_rate)) {
        corrupt_columns(rec.kpis, rng, [](float) { return kNaN; });
      }
      if (rng.bernoulli(spec.spike_rate)) {
        corrupt_columns(rec.kpis, rng,
                        [](float v) { return v * kSpikeMagnitude; });
      }
      if (spec.outage_column >= 0 && d >= spec.outage_start &&
          d <= spec.outage_end &&
          spec.outage_column < static_cast<int>(rec.kpis.size())) {
        rec.kpis[static_cast<std::size_t>(spec.outage_column)] = kNaN;
      }

      // Delivery key: in-order position, displaced forward for late
      // arrivals.  Per-day average eNodeB count keeps displacement units in
      // "records", so kShuffleHorizonDays days of lateness is realistic.
      double key = position;
      if (rng.bernoulli(spec.shuffle_rate)) {
        const double per_day = static_cast<double>(std::max(1, n));
        key += rng.uniform(1.0, kShuffleHorizonDays * per_day);
      }
      const bool duplicate = rng.bernoulli(spec.duplicate_rate);
      if (duplicate) {
        Keyed copy{key + rng.uniform(0.5, 3.0 * std::max(1, n)), rec};
        keyed.push_back(std::move(copy));
      }
      keyed.push_back(Keyed{key, std::move(rec)});
    }
  }

  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const Keyed& a, const Keyed& b) { return a.key < b.key; });
  std::vector<TelemetryRecord> out;
  out.reserve(keyed.size());
  for (auto& kr : keyed) out.push_back(std::move(kr.rec));
  return out;
}

data::CellularDataset rebuild_unvalidated(const data::CellularDataset& like,
                                          std::vector<TelemetryRecord> stream) {
  // Re-slot by claimed day, keep the first delivery of each (day, enb).
  std::stable_sort(stream.begin(), stream.end(),
                   [](const TelemetryRecord& a, const TelemetryRecord& b) {
                     return a.day < b.day ||
                            (a.day == b.day && a.enb_index < b.enb_index);
                   });
  data::CellularDataset out(like.schema(), like.profiles(), like.num_days(),
                            like.evolving(), like.name() + "-unvalidated");
  const std::size_t k = static_cast<std::size_t>(like.num_kpis());
  std::size_t pos = 0;
  for (int d = 0; d < like.num_days(); ++d) {
    std::vector<int> enbs;
    std::vector<float> values;
    int last_enb = -1;
    while (pos < stream.size() && stream[pos].day == d) {
      const TelemetryRecord& r = stream[pos++];
      if (r.enb_index == last_enb) continue;  // duplicate delivery
      last_enb = r.enb_index;
      enbs.push_back(r.enb_index);
      values.insert(values.end(), r.kpis.begin(),
                    r.kpis.begin() + static_cast<std::ptrdiff_t>(k));
    }
    out.append_day(std::move(enbs), std::move(values));
  }
  return out;
}

}  // namespace leaf::ingest
