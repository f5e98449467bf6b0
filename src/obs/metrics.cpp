#include "obs/metrics.hpp"

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace leaf::obs {

namespace {

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag = [] {
    if constexpr (!kCompiledIn) return false;
    const char* env = std::getenv("LEAF_OBS");
    if (env != nullptr &&
        (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
         std::strcmp(env, "OFF") == 0 || std::strcmp(env, "false") == 0))
      return false;
    return true;
  }();
  return flag;
}

/// Stable numeric formatting shared by both exposition formats (%.17g
/// round-trips doubles; integers print without an exponent).
std::string fmt_value(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      v > -1e15 && v < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld",
                  static_cast<long long>(static_cast<std::int64_t>(v)));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string prom_series(const std::string& name, const std::string& labels) {
  return labels.empty() ? name : name + "{" + labels + "}";
}

}  // namespace

bool enabled() {
  if constexpr (!kCompiledIn) return false;
  return enabled_flag().load(std::memory_order_relaxed);
}

void set_enabled(bool on) {
  enabled_flag().store(kCompiledIn && on, std::memory_order_relaxed);
}

LatencyHistogram::LatencyHistogram()
    : buckets_(new std::atomic<std::uint64_t>[kBucketCount]) {
  for (std::size_t i = 0; i < kBucketCount; ++i) buckets_[i].store(0);
}

std::size_t LatencyHistogram::index_of(std::uint64_t ns) {
  if (ns < kSubBuckets) return static_cast<std::size_t>(ns);
  // v ∈ [2^e, 2^(e+1)): keep the top kSubBits+1 significant bits; the
  // mantissa m = v >> (e - kSubBits) lands in [kSubBuckets, 2*kSubBuckets).
  const int e = std::bit_width(ns) - 1;  // e >= kSubBits here
  const std::uint64_t m = ns >> (e - kSubBits);
  return static_cast<std::size_t>(e - kSubBits) * kSubBuckets +
         static_cast<std::size_t>(m);
}

std::uint64_t LatencyHistogram::representative_ns(std::size_t idx) {
  if (idx < kSubBuckets) return idx;  // exact buckets
  const std::size_t shift = idx / kSubBuckets - 1;
  const std::uint64_t m = kSubBuckets + idx % kSubBuckets;
  const std::uint64_t lo = m << shift;
  const std::uint64_t half = shift == 0 ? 0 : (std::uint64_t{1} << (shift - 1));
  return lo + half;
}

void LatencyHistogram::record_ns(std::uint64_t ns) {
  if constexpr (!kCompiledIn) {
    (void)ns;
    return;
  }
  buckets_[index_of(ns)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
}

void LatencyHistogram::observe(double seconds) {
  if (!(seconds > 0.0)) seconds = 0.0;
  record_ns(static_cast<std::uint64_t>(std::llround(seconds * 1e9)));
}

double LatencyHistogram::quantile(double p) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(total)));
  if (rank == 0) rank = 1;
  if (rank > total) rank = total;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    cumulative += buckets_[i].load(std::memory_order_relaxed);
    if (cumulative >= rank)
      return static_cast<double>(representative_ns(i)) * 1e-9;
  }
  return static_cast<double>(representative_ns(kBucketCount - 1)) * 1e-9;
}

void LatencyHistogram::reset() {
  for (std::size_t i = 0; i < kBucketCount; ++i)
    buckets_[i].store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_ns_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[{name, labels}];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[{name, labels}];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

LatencyHistogram& MetricsRegistry::latency(const std::string& name,
                                           const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = latencies_[{name, labels}];
  if (!slot) slot = std::make_unique<LatencyHistogram>();
  return *slot;
}

SpanSite& MetricsRegistry::span_site(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = spans_[name];
  if (!slot) slot = std::make_unique<SpanSite>(name);
  return *slot;
}

std::uint64_t MetricsRegistry::counter_sum(
    const std::string& name, const std::string& labels_contains) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (auto it = counters_.lower_bound({name, ""});
       it != counters_.end() && it->first.first == name; ++it)
    if (it->first.second.find(labels_contains) != std::string::npos)
      total += it->second->value();
  return total;
}

std::string MetricsRegistry::scrape() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  std::string last_name;
  const auto type_line = [&out, &last_name](const std::string& name,
                                            const char* type) {
    if (name != last_name) {
      out += "# TYPE " + name + " " + type + "\n";
      last_name = name;
    }
  };

  for (const auto& [key, c] : counters_) {
    type_line(key.first, "counter");
    out += prom_series(key.first, key.second) + " " +
           fmt_value(static_cast<double>(c->value())) + "\n";
  }
  for (const auto& [key, g] : gauges_) {
    type_line(key.first, "gauge");
    out += prom_series(key.first, key.second) + " " + fmt_value(g->value()) +
           "\n";
  }
  // Latency summaries: every line (quantiles, _sum, _count) belongs to a
  // `_seconds` series, so the whole family is masked by name.  The
  // quantile labels use the short spelling ("0.99", not a 17-digit
  // round-trip) — they are identifiers, not measurements.
  static const char* const kQuantileNames[] = {"0.5", "0.9", "0.99", "0.999"};
  static const double kQuantiles[] = {0.5, 0.9, 0.99, 0.999};
  for (const auto& [key, lh] : latencies_) {
    type_line(key.first, "summary");
    for (std::size_t qi = 0; qi < 4; ++qi) {
      const double q = kQuantiles[qi];
      const std::string ql = label("quantile", kQuantileNames[qi]);
      out += key.first + "{" +
             (key.second.empty() ? ql : key.second + "," + ql) + "} " +
             fmt_value(lh->quantile(q)) + "\n";
    }
    out += prom_series(key.first + "_sum", key.second) + " " +
           fmt_value(lh->sum_seconds()) + "\n";
    out += prom_series(key.first + "_count", key.second) + " " +
           fmt_value(static_cast<double>(lh->count())) + "\n";
  }
  // Span sites: the call count is a logical metric; the duration series
  // carry `_seconds` so determinism checks mask them by name.
  for (const auto& [name, site] : spans_) {
    const std::string l = label("site", name);
    type_line("leaf_span_calls_total", "counter");
    out += "leaf_span_calls_total{" + l + "} " +
           fmt_value(static_cast<double>(site->count())) + "\n";
  }
  for (const auto& [name, site] : spans_) {
    const std::string l = label("site", name);
    type_line("leaf_span_seconds_total", "counter");
    out += "leaf_span_seconds_total{" + l + "} " +
           fmt_value(site->total_seconds()) + "\n";
  }
  for (const auto& [name, site] : spans_) {
    const std::string l = label("site", name);
    type_line("leaf_span_seconds_max", "gauge");
    out += "leaf_span_seconds_max{" + l + "} " +
           fmt_value(site->max_seconds()) + "\n";
  }
  return out;
}

std::string MetricsRegistry::scrape_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"metrics\": [";
  bool first = true;
  const auto head = [&](const Key& key, const char* type) {
    if (!first) out += ", ";
    first = false;
    out += "{\"name\": \"" + json_escape(key.first) + "\", \"labels\": \"" +
           json_escape(key.second) + "\", \"type\": \"" + type + "\"";
  };
  for (const auto& [key, c] : counters_) {
    head(key, "counter");
    out += ", \"value\": " + fmt_value(static_cast<double>(c->value())) + "}";
  }
  for (const auto& [key, g] : gauges_) {
    head(key, "gauge");
    out += ", \"value\": " + fmt_value(g->value()) + "}";
  }
  static const char* const kQuantileNames[] = {"0.5", "0.9", "0.99", "0.999"};
  static const double kQuantiles[] = {0.5, 0.9, 0.99, 0.999};
  for (const auto& [key, lh] : latencies_) {
    head(key, "summary");
    out += ", \"quantiles\": {";
    for (std::size_t i = 0; i < 4; ++i) {
      if (i > 0) out += ", ";
      out += std::string("\"") + kQuantileNames[i] +
             "\": " + fmt_value(lh->quantile(kQuantiles[i]));
    }
    out += "}, \"count\": " + fmt_value(static_cast<double>(lh->count())) +
           ", \"sum_seconds\": " + fmt_value(lh->sum_seconds()) + "}";
  }
  out += "], \"spans\": [";
  first = true;
  for (const auto& [name, site] : spans_) {
    if (!first) out += ", ";
    first = false;
    out += "{\"site\": \"" + json_escape(name) +
           "\", \"calls\": " + fmt_value(static_cast<double>(site->count())) +
           ", \"total_seconds\": " + fmt_value(site->total_seconds()) +
           ", \"max_seconds\": " + fmt_value(site->max_seconds()) + "}";
  }
  out += "]}";
  return out;
}

void MetricsRegistry::reset_values() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, c] : counters_) c->reset();
  for (auto& [key, g] : gauges_) g->reset();
  for (auto& [key, lh] : latencies_) lh->reset();
  for (auto& [name, s] : spans_) s->reset();
}

std::string label(const std::string& key, const std::string& value) {
  std::string escaped;
  escaped.reserve(value.size());
  for (char c : value) {
    // The exposition format escapes backslash, double-quote, and
    // line-feed inside label values; a raw '\n' would split the sample
    // line and corrupt every scrape that follows it.
    if (c == '\n') {
      escaped += "\\n";
    } else {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
  }
  return key + "=\"" + escaped + "\"";
}

}  // namespace leaf::obs
