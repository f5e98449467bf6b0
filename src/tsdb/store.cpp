#include "tsdb/store.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/fnv.hpp"

namespace leaf::tsdb {

const char* to_string(Resolution r) {
  switch (r) {
    case Resolution::kRaw: return "raw";
    case Resolution::kTenStep: return "10-step";
    case Resolution::kHundredStep: return "100-step";
  }
  return "?";
}

void Store::fold(std::deque<AggBucket>& tier, std::uint64_t bucket_start,
                 double value, std::size_t capacity) {
  if (tier.empty() || tier.back().start_step != bucket_start) {
    tier.push_back({bucket_start, value, value, value, 1});
    while (tier.size() > capacity) tier.pop_front();
    return;
  }
  AggBucket& b = tier.back();
  b.min = std::min(b.min, value);
  b.max = std::max(b.max, value);
  b.sum += value;
  ++b.count;
}

void Store::record(const std::string& name, const std::string& labels,
                   std::uint64_t step, double value, bool deterministic) {
  if (!std::isfinite(value)) {
    ++samples_dropped_;
    return;
  }
  auto it = series_.find({name, labels});
  if (it == series_.end()) {
    if (series_.size() >= kMaxSeries) {
      ++samples_dropped_;
      return;
    }
    it = series_.emplace(std::make_pair(name, labels), Series{}).first;
    it->second.deterministic = deterministic;
  }
  Series& s = it->second;
  if (!s.raw.empty() && step < s.raw.back().step) {
    ++samples_dropped_;
    return;
  }
  s.raw.push_back({step, value});
  while (s.raw.size() > kRawCapacity) s.raw.pop_front();
  fold(s.agg10, step - step % 10, value, kAgg10Capacity);
  fold(s.agg100, step - step % 100, value, kAgg100Capacity);
  last_step_ = std::max(last_step_, step);
  ++samples_recorded_;
}

namespace {

bool name_matches(const std::string& pattern, const std::string& name) {
  if (pattern.empty()) return true;
  if (pattern.back() == '*')
    return name.compare(0, pattern.size() - 1, pattern, 0,
                        pattern.size() - 1) == 0;
  return name == pattern;
}

}  // namespace

Store::QueryResult Store::query(const Query& q) const {
  QueryResult out;
  for (const auto& [key, s] : series_) {
    const auto& [name, labels] = key;
    if (!name_matches(q.name, name)) continue;
    if (!q.labels_contains.empty() &&
        labels.find(q.labels_contains) == std::string::npos)
      continue;
    if (out.series.size() >= q.max_series) {
      out.truncated = true;
      break;
    }
    SeriesData data;
    data.name = name;
    data.labels = labels;
    data.resolution = q.resolution;
    if (q.resolution == Resolution::kRaw) {
      for (const Sample& sample : s.raw) {
        if (sample.step < q.start_step || sample.step > q.end_step) continue;
        data.steps.push_back(sample.step);
        data.values.push_back(sample.value);
      }
    } else {
      const std::deque<AggBucket>& tier =
          q.resolution == Resolution::kTenStep ? s.agg10 : s.agg100;
      for (const AggBucket& b : tier) {
        if (b.start_step < q.start_step || b.start_step > q.end_step)
          continue;
        data.steps.push_back(b.start_step);
        data.values.push_back(b.sum / static_cast<double>(b.count));
        data.min.push_back(b.min);
        data.max.push_back(b.max);
        data.counts.push_back(b.count);
      }
    }
    out.series.push_back(std::move(data));
  }
  return out;
}

namespace {

/// FNV-1a over v's bytes, least significant first on every host.
void fnv(std::uint64_t& h, std::uint64_t v) {
  unsigned char le[8];
  for (int i = 0; i < 8; ++i)
    le[i] = static_cast<unsigned char>(v >> (i * 8));
  h = fnv1a(le, sizeof le, h);
}

void fnv(std::uint64_t& h, double v) { fnv(h, std::bit_cast<std::uint64_t>(v)); }

void fnv(std::uint64_t& h, const std::string& s) {
  h = fnv1a(s.data(), s.size(), h);
  fnv(h, static_cast<std::uint64_t>(s.size()));
}

}  // namespace

std::uint64_t Store::fingerprint() const {
  std::uint64_t h = kFnvOffset;
  for (const auto& [key, s] : series_) {
    const auto& [name, labels] = key;
    if (!s.deterministic) continue;
    if (name.find("_seconds") != std::string::npos) continue;
    fnv(h, name);
    fnv(h, labels);
    for (const Sample& sample : s.raw) {
      fnv(h, sample.step);
      fnv(h, sample.value);
    }
    for (const std::deque<AggBucket>* tier : {&s.agg10, &s.agg100})
      for (const AggBucket& b : *tier) {
        fnv(h, b.start_step);
        fnv(h, b.min);
        fnv(h, b.max);
        fnv(h, b.sum);
        fnv(h, b.count);
      }
  }
  return h;
}

namespace {

void save_tier(io::Serializer& out, const std::deque<AggBucket>& tier) {
  out.put_u64(tier.size());
  for (const AggBucket& b : tier) {
    out.put_u64(b.start_step);
    out.put_f64(b.min);
    out.put_f64(b.max);
    out.put_f64(b.sum);
    out.put_u64(b.count);
  }
}

std::deque<AggBucket> load_tier(io::Deserializer& in) {
  const std::uint64_t count = in.get_count(8 + 8 + 8 + 8 + 8);
  std::deque<AggBucket> tier;
  for (std::uint64_t i = 0; i < count; ++i) {
    AggBucket b;
    b.start_step = in.get_u64();
    b.min = in.get_f64();
    b.max = in.get_f64();
    b.sum = in.get_f64();
    b.count = in.get_u64();
    tier.push_back(b);
  }
  return tier;
}

}  // namespace

void Store::save(io::Serializer& out) const {
  out.put_u64(last_step_);
  out.put_u64(samples_recorded_);
  out.put_u64(samples_dropped_);
  out.put_u64(series_.size());
  for (const auto& [key, s] : series_) {
    out.put_string(key.first);
    out.put_string(key.second);
    out.put_bool(s.deterministic);
    out.put_u64(s.raw.size());
    for (const Sample& sample : s.raw) {
      out.put_u64(sample.step);
      out.put_f64(sample.value);
    }
    save_tier(out, s.agg10);
    save_tier(out, s.agg100);
  }
}

void Store::load(io::Deserializer& in) {
  // Parse everything into temporaries before committing (no partial load).
  const std::uint64_t last_step = in.get_u64();
  const std::uint64_t recorded = in.get_u64();
  const std::uint64_t dropped = in.get_u64();
  // name + labels + flag + three tier counts, minimum footprint per series.
  const std::uint64_t n = in.get_count(4 + 4 + 1 + 8 + 8 + 8);
  std::map<std::pair<std::string, std::string>, Series> series;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name = in.get_string();
    std::string labels = in.get_string();
    Series s;
    s.deterministic = in.get_bool();
    const std::uint64_t raw_n = in.get_count(8 + 8);
    for (std::uint64_t j = 0; j < raw_n; ++j) {
      Sample sample;
      sample.step = in.get_u64();
      sample.value = in.get_f64();
      s.raw.push_back(sample);
    }
    s.agg10 = load_tier(in);
    s.agg100 = load_tier(in);
    series.emplace(std::make_pair(std::move(name), std::move(labels)),
                   std::move(s));
  }
  series_ = std::move(series);
  last_step_ = last_step;
  samples_recorded_ = recorded;
  samples_dropped_ = dropped;
}

void Store::clear() {
  series_.clear();
  last_step_ = 0;
  samples_recorded_ = 0;
  samples_dropped_ = 0;
}

}  // namespace leaf::tsdb
