#include "obs/trace.hpp"

#include <cstring>

#include "common/fnv.hpp"
#include "obs/metrics.hpp"

namespace leaf::obs {

namespace {

// The standard FNV offset basis with its last digit missing.  Span ids
// and sampling decisions are pinned, so the hash keeps this seed.
constexpr std::uint64_t kTraceSeed = 1469598103934665603ULL;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void put_u64_le(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

const char kHexDigits[] = "0123456789abcdef";

}  // namespace

bool trace_is_zero(const TraceId& id) {
  for (std::uint8_t b : id)
    if (b != 0) return false;
  return true;
}

std::string trace_hex(const TraceId& id) {
  std::string out(32, '0');
  for (std::size_t i = 0; i < id.size(); ++i) {
    out[2 * i] = kHexDigits[id[i] >> 4];
    out[2 * i + 1] = kHexDigits[id[i] & 0xF];
  }
  return out;
}

std::string span_hex(std::uint64_t id) {
  std::string out(16, '0');
  for (int i = 0; i < 8; ++i) {
    const std::uint8_t b = static_cast<std::uint8_t>(id >> (8 * (7 - i)));
    out[2 * i] = kHexDigits[b >> 4];
    out[2 * i + 1] = kHexDigits[b & 0xF];
  }
  return out;
}

TraceId derive_trace_id(std::uint64_t conn, std::uint64_t request_id) {
  const std::uint64_t hi = splitmix64(conn ^ 0x4c4541462e6e6574ULL);  // "LEAF.net"
  const std::uint64_t lo = splitmix64(request_id + hi);
  TraceId id{};
  put_u64_le(id.data(), hi);
  put_u64_le(id.data() + 8, lo);
  if (trace_is_zero(id)) id[0] = 1;
  return id;
}

std::uint64_t derive_span_id(const TraceId& trace, const char* name,
                             std::uint64_t parent, std::uint64_t index) {
  std::uint64_t h = fnv1a(trace.data(), trace.size(), kTraceSeed);
  h = fnv1a(name, std::strlen(name), h);
  std::uint8_t tail[16];
  put_u64_le(tail, parent);
  put_u64_le(tail + 8, index);
  h = fnv1a(tail, sizeof tail, h);
  return h == 0 ? 1 : h;
}

std::uint64_t trace_hash(const TraceId& id) {
  return fnv1a(id.data(), id.size(), kTraceSeed);
}

std::size_t SpanCollector::begin(std::string name, int tid) {
  TraceSpan s;
  s.name = std::move(name);
  s.tid = tid;
  s.ts_us = static_cast<std::uint64_t>(monotonic_seconds() * 1e6);
  spans_.push_back(std::move(s));
  return spans_.size() - 1;
}

void SpanCollector::end(std::size_t idx) {
  TraceSpan& s = spans_[idx];
  const auto now = static_cast<std::uint64_t>(monotonic_seconds() * 1e6);
  s.dur_us = now >= s.ts_us ? now - s.ts_us : 0;
}

void SpanCollector::annotate(std::size_t idx, std::string args) {
  spans_[idx].args = std::move(args);
}

Tracer::Tracer(std::string path, std::uint64_t sample_every)
    : path_(std::move(path)),
      sample_every_(sample_every == 0 ? 1 : sample_every) {
  f_ = std::fopen(path_.c_str(), "wb");
  if (f_ == nullptr) error_ = "cannot open trace sink '" + path_ + "'";
}

Tracer::~Tracer() { close(); }

bool Tracer::ok() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_.empty();
}

std::string Tracer::error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_;
}

bool Tracer::sampled(const TraceId& trace) const {
  return sample_every_ <= 1 || trace_hash(trace) % sample_every_ == 0;
}

void Tracer::write(const TraceSpan& span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (f_ == nullptr) return;
  std::string rec;
  rec.reserve(256);
  rec += first_ ? "[\n" : ",\n";
  first_ = false;
  rec += "{\"name\": \"" + span.name + "\", \"cat\": \"lnet\", \"ph\": \"X\"";
  rec += ", \"pid\": 1, \"tid\": " + std::to_string(span.tid);
  rec += ", \"ts\": " + std::to_string(span.ts_us);
  rec += ", \"dur\": " + std::to_string(span.dur_us);
  rec += ", \"id\": \"" + trace_hex(span.trace) + "\"";
  rec += ", \"args\": {\"trace_id\": \"" + trace_hex(span.trace) + "\"";
  rec += ", \"span_id\": \"" + span_hex(span.span_id) + "\"";
  rec += ", \"parent_span_id\": \"" + span_hex(span.parent_id) + "\"";
  if (!span.args.empty()) rec += ", " + span.args;
  rec += "}}";
  if (std::fwrite(rec.data(), 1, rec.size(), f_) != rec.size()) {
    if (error_.empty()) error_ = "write to trace sink '" + path_ + "' failed";
    std::fclose(f_);
    f_ = nullptr;
    return;
  }
  ++spans_written_;
  static Counter& spans_total =
      MetricsRegistry::global().counter("leaf_trace_spans_total");
  spans_total.inc();
}

void Tracer::close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (f_ == nullptr) return;
  const char* footer = first_ ? "[\n]\n" : "\n]\n";
  if (std::fwrite(footer, 1, std::strlen(footer), f_) != std::strlen(footer) &&
      error_.empty())
    error_ = "write to trace sink '" + path_ + "' failed";
  if (std::fclose(f_) != 0 && error_.empty())
    error_ = "close of trace sink '" + path_ + "' failed";
  f_ = nullptr;
}

}  // namespace leaf::obs
