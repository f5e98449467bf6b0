// leafbench — end-to-end and per-layer benchmark of LEAF fleet adaptation
// and serving.  One workload per process:
//
//   leafbench --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//             [--workdir DIR] [--out FILE] [--commit SHA] [--print-goldens]
//
// Prints every metric by name and unit, the traced layer tables with
// --trace 1, and as its last line one JSON object: {"correct", "attempted",
// "failed", "metrics"} holding the end-to-end metrics (--trace 0) or the
// per-layer ones (--trace 1).  A failed output check prints it with
// "correct": false and exits 1.  See README.md.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "build_info.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "par/pool.hpp"
#include "simd/simd.hpp"

namespace {

using leafbench::Options;
using leafbench::Report;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"work_per_s", "1/s"},
    {"op_p50_ms", "ms"},        {"op_p99_ms", "ms"},
    {"snapshot_write_ms", "ms"}, {"restore_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"data.featurize_ms", "ms"},
    {"drift.update_ms", "ms"},
    {"drift.firings", "count"},
    {"models.fit_ms", "ms"},
    {"models.fit_calls", "count"},
    {"models.binedge_reuse_share", "share"},
    {"models.predict_ms", "ms"},
    {"models.predict_rows", "count"},
    {"core.mitigate_ms", "ms"},
    {"core.mitigate_calls", "count"},
    {"core.mitigate_self_ms", "ms"},
    {"explain.predict_ms", "ms"},
    {"explain.predict_rows", "count"},
    {"core.validate_fit_ms", "ms"},
    {"core.validate_predict_ms", "ms"},
    {"core.validate_predict_rows", "count"},
    {"core.veto_share", "share"},
    {"io.snapshot_bytes", "bytes"},
    {"client.encode_ms", "ms"},
    {"client.decode_ms", "ms"},
    {"net.frame_ms", "ms"},
    {"net.decode_ms", "ms"},
    {"net.admission_ms", "ms"},
    {"net.batch_ms", "ms"},
    {"serve.shard_predict_ms", "ms"},
    {"net.respond_ms", "ms"},
    {"net.pump_self_ms", "ms"},
    {"net.poll_ms", "ms"},
    {"net.batch_rows_mean", "rows"},
    {"net.queue_wait_us", "us"},
    {"net.unserved_wait_us", "us"},
    {"serve.loop_step_ms", "ms"},
    {"io.loop_snapshot_ms", "ms"},
    {"layer_total_ms", "ms"},
    {"unattributed_ms", "ms"},
    {"unattributed_share", "share"},
    {"trace_overhead_share", "share"},
    {"simd.calls.squared_error", "count"},
    {"simd.calls.hist_accumulate", "count"},
};

constexpr const char* kWorkloads[] = {"fleet_leaf", "fleet_triggered",
                                      "serve_loopback", "serve_mixed_tcp"};

int usage(const char* why) {
  std::fprintf(stderr,
               "leafbench: %s\n"
               "usage: leafbench --workload fleet_leaf|fleet_triggered|"
               "serve_loopback|serve_mixed_tcp\n"
               "                 [--seed N] [--seconds S] [--trace 0|1] "
               "[--smoke] [--workdir DIR]\n"
               "                 [--out FILE] [--commit SHA] [--print-goldens]\n",
               why);
  return 2;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Host, build and configuration: wall-clock numbers compare only between
/// results whose headers match.
std::vector<std::pair<std::string, std::string>> header(const Options& o,
                                                        const Report& r) {
  const char* simd_env = std::getenv("LEAF_SIMD");
  std::vector<std::pair<std::string, std::string>> h = {
      {"nproc", std::to_string(::sysconf(_SC_NPROCESSORS_ONLN))},
      {"cpu_model", cpu_model()},
      {"compiler", LEAFBENCH_COMPILER},
      {"flags", LEAFBENCH_FLAGS},
      {"build_type", LEAFBENCH_BUILD_TYPE},
      {"simd_isa", leaf::simd::active_isa()},
      {"obs_compiled_in", leaf::obs::kCompiledIn ? "true" : "false"},
      {"LEAF_SIMD", simd_env != nullptr ? simd_env : "(unset)"},
      {"commit", o.commit},
      {"threads", std::to_string(leaf::par::threads())},
      {"scale", leafbench::bench_scale().name()},
  };
  h.insert(h.end(), r.notes.begin(), r.notes.end());
  return h;
}

void write_result_file(const Options& o, const Report& r, bool correct,
                       const std::vector<std::pair<std::string, std::string>>& h) {
  std::ofstream out(o.out);
  out << "{\n  \"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
      << ", \"seconds\": " << number(o.seconds)
      << ", \"trace\": " << (o.trace ? "true" : "false")
      << ", \"smoke\": " << (o.smoke ? "true" : "false") << ",\n"
      << "  \"header\": {";
  for (std::size_t i = 0; i < h.size(); ++i)
    out << (i ? ", " : "") << "\"" << json_escape(h[i].first) << "\": \""
        << json_escape(h[i].second) << "\"";
  out << "},\n  \"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ",\n  \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i)
    out << (i ? ", " : "") << "\"" << json_escape(r.failures[i]) << "\"";
  out << "],\n  \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : r.values) {
    out << (first ? "" : ", ") << "\"" << name << "\": " << number(value);
    first = false;
  }
  out << "},\n  \"tables\": [";
  for (std::size_t i = 0; i < r.tables.size(); ++i) {
    const leafbench::LayerTable& t = r.tables[i];
    out << (i ? ", " : "") << "{\"title\": \"" << json_escape(t.title)
        << "\", \"total\": " << number(t.total) << ", \"rows\": {";
    for (std::size_t j = 0; j < t.rows.size(); ++j)
      out << (j ? ", " : "") << "\"" << t.rows[j].name
          << "\": " << number(t.rows[j].value);
    out << "}, \"unattributed\": " << number(t.unattributed()) << "}";
  }
  out << "]\n}\n";
  if (!out) std::fprintf(stderr, "leafbench: cannot write %s\n", o.out.c_str());
}

void print_table(const leafbench::LayerTable& t) {
  std::printf("\n%s\n", t.title.c_str());
  for (const leafbench::LayerRow& row : t.rows)
    std::printf("  %-28s %14.3f  %5.1f%%\n", row.name.c_str(), row.value,
                t.total > 0 ? 100.0 * row.value / t.total : 0.0);
  std::printf("  %-28s %14.3f  %5.1f%%\n", "unattributed", t.unattributed(),
              t.total > 0 ? 100.0 * t.unattributed() / t.total : 0.0);
  std::printf("  %-28s %14.3f\n", "total", t.total);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--print-goldens") {
      o.print_goldens = true;
    } else if (a == "--workload" || a == "--seed" || a == "--seconds" ||
               a == "--trace" || a == "--workdir" || a == "--out" ||
               a == "--commit") {
      if ((v = value()) == nullptr) return usage(("missing value for " + a).c_str());
      char* end = nullptr;
      if (a == "--workload") o.workload = v;
      else if (a == "--workdir") o.workdir = v;
      else if (a == "--out") o.out = v;
      else if (a == "--commit") o.commit = v;
      else if (a == "--seed") o.seed = std::strtoull(v, &end, 10);
      else if (a == "--seconds") o.seconds = std::strtod(v, &end);
      else if (a == "--trace") {
        if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
          return usage("--trace takes 0 or 1");
        o.trace = v[0] == '1';
      }
      if (end != nullptr && (*end != '\0' || end == v))
        return usage(("bad value for " + a).c_str());
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || o.workload == w;
  if (!known) return usage("unknown or missing --workload");
  if (!(o.seconds > 0.0)) return usage("--seconds must be positive");

  leaf::par::set_threads(leafbench::kThreads);
  leaf::obs::set_log_level(leaf::obs::LogLevel::kWarn);

  Report r;
  try {
    if (o.workload == "fleet_leaf" || o.workload == "fleet_triggered")
      leafbench::run_fleet(o, r);
    else if (o.workload == "serve_loopback")
      leafbench::run_serve_loopback(o, r);
    else
      leafbench::run_serve_mixed_tcp(o, r);
  } catch (const std::exception& e) {
    r.check(false, std::string("workload threw: ") + e.what());
  }
  r.check(r.attempted > 0, "nothing was attempted");
  r.check(r.failed == 0, "operations failed: " + std::to_string(r.failed) +
                             " of " + std::to_string(r.attempted));

  const bool traced = o.trace || o.smoke;
  const std::span<const MetricDef> emitted =
      o.trace ? std::span<const MetricDef>(kPerLayer)
              : std::span<const MetricDef>(kEndToEnd);
  for (const MetricDef& m : emitted) {
    auto it = r.values.find(m.name);
    if (it == r.values.end()) {
      // A layer the workload does not run reads 0; an end-to-end metric
      // must always be measured.
      if (!o.trace) r.check(false, std::string("metric not measured: ") + m.name);
      r.values[m.name] = 0.0;
    } else if (!std::isfinite(it->second)) {
      r.check(false, std::string("metric not finite: ") + m.name);
      it->second = 0.0;
    }
  }
  const bool correct = r.failures.empty();
  const auto h = header(o, r);

  std::printf("leafbench %s  seed=%llu seconds=%g trace=%d%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, o.smoke ? " smoke" : "");
  for (const auto& [k, v] : h) std::printf("  %-22s %s\n", k.c_str(), v.c_str());
  std::printf("\n%-30s %18s  %s\n", "metric", "value", "unit");
  for (const MetricDef& m : kEndToEnd)
    if (r.values.count(m.name))
      std::printf("%-30s %18.6f  %s\n", m.name, r.values[m.name], m.unit);
  if (traced) {
    for (const MetricDef& m : kPerLayer)
      if (r.values.count(m.name))
        std::printf("%-30s %18.6f  %s\n", m.name, r.values[m.name], m.unit);
    for (const leafbench::LayerTable& t : r.tables) print_table(t);
  }
  std::printf("\nattempted %llu, failed %llu\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const std::string& f : r.failures)
    std::fprintf(stderr, "leafbench: CHECK FAILED: %s\n", f.c_str());
  if (o.print_goldens)
    for (const std::string& g : r.golden_lines) std::printf("%s\n", g.c_str());
  if (!o.out.empty()) write_result_file(o, r, correct, h);

  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  if (correct) {
    bool first = true;
    for (const MetricDef& m : emitted) {
      json += std::string(first ? "" : ", ") + "\"" + m.name +
              "\": {\"value\": " + number(r.values[m.name]) +
              ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
