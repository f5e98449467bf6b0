#include "obs/events.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <span>
#include <string_view>
#include <system_error>
#include <utility>

#include "common/calendar.hpp"
#include "io/snapshot.hpp"
#include "obs/metrics.hpp"

namespace leaf::obs {

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kDrift: return "drift";
    case EventKind::kRetrain: return "retrain";
    case EventKind::kRetrainRejected: return "retrain_rejected";
    case EventKind::kOutageFreeze: return "outage_freeze";
    case EventKind::kNonFinite: return "nonfinite_error";
    case EventKind::kHealthTransition: return "health_transition";
    case EventKind::kQuarantine: return "quarantine";
    case EventKind::kShardFaulted: return "shard_faulted";
    case EventKind::kShardRecovered: return "shard_recovered";
    case EventKind::kShardQuarantined: return "shard_quarantined";
    case EventKind::kSnapshotFallback: return "snapshot_fallback";
    case EventKind::kBreakerOpen: return "breaker_open";
    case EventKind::kBreakerHalfOpen: return "breaker_half_open";
    case EventKind::kBreakerClose: return "breaker_close";
    case EventKind::kSloBurnWarning: return "slo-burn-warning";
    case EventKind::kSloBurnCritical: return "slo-burn-critical";
    case EventKind::kSloRecovered: return "slo-recovered";
    case EventKind::kTelemetryDrift: return "telemetry-drift";
  }
  return "?";
}

namespace {

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  out += '"';
  return out;
}

void append_event_jsonl(std::string& out, const Event& e, bool with_timing) {
  out += "{\"event\": \"";
  out += to_string(e.kind);
  out += '"';
  if (e.day >= 0) {
    out += ", \"day\": " + std::to_string(e.day);
    out += ", \"date\": " + json_str(cal::day_to_string(e.day));
  }
  if (e.shard >= 0) out += ", \"shard\": " + std::to_string(e.shard);
  if (!e.kpi.empty()) out += ", \"kpi\": " + json_str(e.kpi);
  if (!e.model.empty()) out += ", \"model\": " + json_str(e.model);
  if (!e.scheme.empty()) out += ", \"scheme\": " + json_str(e.scheme);
  if (!e.detail.empty()) out += ", \"detail\": " + json_str(e.detail);
  if (with_timing && e.seconds > 0.0) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.9g", e.seconds);
    out += ", \"elapsed_seconds\": ";
    out += buf;
  }
  out += "}\n";
}

}  // namespace

void EventLog::emit(Event e) {
  if constexpr (!kCompiledIn) {
    (void)e;
    return;
  }
  if (!enabled()) return;
  events_.push_back(std::move(e));
}

std::string EventLog::to_jsonl(const std::vector<Event>& events,
                               bool with_timing) {
  std::string out;
  for (const Event& e : events) append_event_jsonl(out, e, with_timing);
  return out;
}

void EventLog::save(io::Serializer& out) const {
  out.put_u64(events_.size());
  for (const Event& e : events_) {
    out.put_u8(static_cast<std::uint8_t>(e.kind));
    out.put_i32(e.day);
    out.put_i32(e.shard);
    out.put_string(e.kpi);
    out.put_string(e.model);
    out.put_string(e.scheme);
    out.put_string(e.detail);
    out.put_f64(e.seconds);
  }
}

void EventLog::load(io::Deserializer& in) {
  // kind + day + shard + 4 length-prefixed strings + seconds.
  const std::size_t count = in.get_count(1 + 4 + 4 + 4 * 4 + 8);
  std::vector<Event> events(count);
  for (Event& e : events) {
    const std::uint8_t kind = in.get_u8();
    if (kind > kMaxEventKind)
      throw io::SnapshotError("event log: unknown event kind " +
                              std::to_string(static_cast<int>(kind)));
    e.kind = static_cast<EventKind>(kind);
    e.day = in.get_i32();
    e.shard = in.get_i32();
    e.kpi = in.get_string();
    e.model = in.get_string();
    e.scheme = in.get_string();
    e.detail = in.get_string();
    e.seconds = in.get_f64();
  }
  events_ = std::move(events);
}

std::uint64_t EventLog::write_jsonl_rotated(const std::string& path,
                                            const std::vector<Event>& events,
                                            bool with_timing,
                                            std::uint64_t max_bytes) {
  // Stale rotated files from an earlier, larger write must not survive a
  // smaller one — they would read as history this run never produced.
  std::error_code ec;
  std::filesystem::remove(path + ".1", ec);
  std::filesystem::remove(path + ".2", ec);
  const std::string jsonl = to_jsonl(events, with_timing);
  const auto write_chunk = [](const std::string& p, std::string_view chunk) {
    return io::SnapshotWriter::write_bytes(
        p, std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(chunk.data()),
               chunk.size()));
  };
  if (max_bytes == 0 || jsonl.size() <= max_bytes)
    return write_chunk(path, jsonl);

  // Pack whole lines, newest first, into up to three chunks of at most
  // max_bytes each (a single oversized line still gets a chunk to
  // itself — capping must never silently drop the newest tail).
  const std::string_view all(jsonl);
  std::vector<std::pair<std::size_t, std::size_t>> lines;  // (start, len)
  for (std::size_t pos = 0; pos < all.size();) {
    const std::size_t nl = all.find('\n', pos);
    const std::size_t line_end =
        nl == std::string_view::npos ? all.size() : nl + 1;
    lines.emplace_back(pos, line_end - pos);
    pos = line_end;
  }
  std::vector<std::string_view> chunks;
  for (std::size_t i = lines.size(); i > 0 && chunks.size() < 3;) {
    std::size_t bytes = 0;
    while (i > 0) {
      const std::size_t len = lines[i - 1].second;
      if (bytes > 0 && bytes + len > max_bytes) break;
      bytes += len;
      --i;
      if (bytes >= max_bytes) break;
    }
    chunks.push_back(all.substr(lines[i].first, bytes));
  }

  // chunks[0] is the newest tail -> `path`; older chunks -> .1, .2.
  std::uint64_t written = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const std::string target =
        i == 0 ? path : path + "." + std::to_string(i);
    written += write_chunk(target, chunks[i]);
  }
  return written;
}

std::vector<Event> EventLog::merge(const std::vector<const EventLog*>& logs) {
  std::vector<Event> all;
  std::size_t total = 0;
  for (const EventLog* log : logs) total += log->size();
  all.reserve(total);
  for (const EventLog* log : logs)
    all.insert(all.end(), log->events().begin(), log->events().end());
  std::stable_sort(all.begin(), all.end(), [](const Event& a, const Event& b) {
    return a.day < b.day || (a.day == b.day && a.shard < b.shard);
  });
  return all;
}

}  // namespace leaf::obs
