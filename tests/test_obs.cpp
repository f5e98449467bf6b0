// Unit tests for leaf::obs — striped counters, span sites, latency summaries,
// scrape formats, the event log, and the determinism contract (logical
// telemetry identical at any LEAF_THREADS).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "data/generator.hpp"
#include "io/serializer.hpp"
#include "io/snapshot.hpp"
#include "models/factory.hpp"
#include "obs/events.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "par/pool.hpp"

namespace leaf::obs {
namespace {

// --- counters ---------------------------------------------------------------

TEST(ObsCounter, ConcurrentIncrementsSumExactly) {
  if (!kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  Counter c;
  const int n_threads = 8;
  const std::uint64_t per_thread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(n_threads);
  for (int t = 0; t < n_threads; ++t)
    workers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < per_thread; ++i) c.inc();
    });
  for (auto& w : workers) w.join();
  // Integer addition commutes: the final value is exact regardless of how
  // threads were mapped to stripes.
  EXPECT_EQ(c.value(), n_threads * per_thread);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsCounter, IncByN) {
  if (!kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  Counter c;
  c.inc(5);
  c.inc(7);
  EXPECT_EQ(c.value(), 12u);
}

// --- span sites -------------------------------------------------------------

std::uint64_t spanned_work(int reps) {
  std::uint64_t acc = 0;
  for (int i = 0; i < reps; ++i) {
    LEAF_SPAN("test_obs.spanned_work");
    acc += static_cast<std::uint64_t>(i);
  }
  return acc;
}

TEST(ObsSpan, CountsEveryTraversal) {
  if (!kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  SpanSite& site = MetricsRegistry::global().span_site("test_obs.spanned_work");
  const std::uint64_t before = site.count();
  spanned_work(17);
  EXPECT_EQ(site.count(), before + 17);
}

TEST(ObsSpan, RuntimeDisabledStillCountsButDoesNotTime) {
  if (!kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  SpanSite& site = MetricsRegistry::global().span_site("test_obs.disabled");
  site.reset();
  set_enabled(false);
  {
    LEAF_SPAN("test_obs.disabled");
  }
  set_enabled(true);
  // The call count stays deterministic; no clock was read.
  EXPECT_EQ(site.count(), 1u);
  EXPECT_EQ(site.total_seconds(), 0.0);
}

// --- scrape formats ---------------------------------------------------------

TEST(ObsRegistry, HandlesAreIdempotentAndStable) {
  if (!kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  MetricsRegistry& reg = MetricsRegistry::global();
  Counter& a = reg.counter("test_obs_idempotent_total");
  Counter& b = reg.counter("test_obs_idempotent_total");
  EXPECT_EQ(&a, &b);
  Counter& la = reg.counter("test_obs_labeled_total", label("k", "v"));
  Counter& lb = reg.counter("test_obs_labeled_total", label("k", "w"));
  EXPECT_NE(&la, &lb);  // distinct label sets are distinct series
}

TEST(ObsRegistry, PrometheusScrapeContainsRegisteredSeries) {
  if (!kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("test_obs_scrape_total", label("family", "GBDT")).inc(3);
  reg.gauge("test_obs_scrape_gauge").set(2.5);
  const std::string text = reg.scrape();
  EXPECT_NE(text.find("# TYPE test_obs_scrape_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("test_obs_scrape_total{family=\"GBDT\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_obs_scrape_gauge gauge"),
            std::string::npos);
  // Scrape output ends with a newline (Prometheus text format).
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
}

TEST(ObsRegistry, JsonScrapeMentionsMetricsAndSpans) {
  if (!kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("test_obs_json_total").inc();
  const std::string json = reg.scrape_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("\"test_obs_json_total\""), std::string::npos);
}

TEST(ObsRegistry, JsonScrapeEscapesLabelsAndNames) {
  if (!kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  MetricsRegistry& reg = MetricsRegistry::global();
  // label() escapes its value for the Prometheus text form (`"`, `\`,
  // and line-feed); scrape_json() must then JSON-escape whatever ends
  // up in the label body, plus control characters like tab that the
  // text form passes through raw.
  reg.counter("test_obs_escape_total", label("kpi", "D\"Vol")).inc();
  reg.counter("test_obs_escape_total", label("kpi", "a\\b")).inc();
  reg.counter("test_obs_escape_total", label("raw", "line\nbreak\ttab")).inc();
  const std::string json = reg.scrape_json();

  // label() turned D"Vol into D\"Vol; JSON re-escapes both characters.
  EXPECT_NE(json.find("kpi=\\\"D\\\\\\\"Vol\\\""), std::string::npos);
  // The backslash from label() doubles, then doubles again in JSON.
  EXPECT_NE(json.find("a\\\\\\\\b"), std::string::npos);
  // Control characters come out as escape sequences, never raw: the
  // line-feed became a literal backslash-n in the text form, and the
  // raw tab is JSON-escaped by scrape_json().
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_EQ(json.find('\n', json.find("raw=")), std::string::npos);
  // The text form must also hold the sample on a single line.
  const std::string text = reg.scrape();
  const std::size_t raw_at = text.find("raw=");
  ASSERT_NE(raw_at, std::string::npos);
  const std::size_t eol = text.find('\n', raw_at);
  ASSERT_NE(eol, std::string::npos);
  EXPECT_NE(text.find("line\\nbreak", raw_at), std::string::npos);
  EXPECT_LT(text.find("line\\nbreak", raw_at), eol);

  // Non-ASCII KPI names (UTF-8) pass through byte-for-byte: JSON strings
  // are UTF-8, so no \uXXXX mangling of multi-byte sequences.
  reg.counter("test_obs_escape_total", label("kpi", "трафик-日量")).inc();
  const std::string json2 = reg.scrape_json();
  EXPECT_NE(json2.find("трафик-日量"), std::string::npos);

  // The escaped series must still parse as structurally sound JSON:
  // every quote inside a string value is preceded by a backslash.  Walk
  // the document with a tiny state machine and require balanced quotes.
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json2.size(); ++i) {
    const char c = json2[i];
    if (in_string) {
      if (c == '\\') ++i;  // skip the escaped character
      else if (c == '"') in_string = false;
      else EXPECT_NE(c, '\n') << "raw newline inside JSON string";
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
    }
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);
}

// --- Prometheus text-format compliance audit ---------------------------------

// Walks the full scrape and enforces the exposition-format rules a real
// Prometheus server cares about, so a formatting regression in any series
// (including ones registered by other tests in this binary) fails here
// rather than in a dashboard.
TEST(ObsRegistry, PrometheusScrapeCompliesWithTheTextFormat) {
  if (!kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("test_obs_audit_total").inc(2);
  reg.gauge("test_obs_audit_gauge").set(1.5);
  LatencyHistogram& h = reg.latency("test_obs_audit_seconds");
  h.observe(0.0007);
  h.observe(0.3);
  h.observe(99.0);

  const std::string text = reg.scrape();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');

  // A summary run is one (name, label set) series; the `quantile` label
  // itself is stripped so the run's key matches its _sum/_count lines.
  const auto series_key = [](const std::string& name,
                             const std::string& labels) {
    std::string rest = labels;
    const std::size_t q = rest.find("quantile=\"");
    if (q != std::string::npos) {
      std::size_t end = rest.find('"', q + 10);
      end = end == std::string::npos ? rest.size() : end + 1;
      std::size_t begin = q;
      if (begin > 0 && rest[begin - 1] == ',') --begin;       // mid/tail label
      else if (end < rest.size() && rest[end] == ',') ++end;  // leading label
      rest.erase(begin, end - begin);
    }
    return name + "|" + rest;
  };

  static const std::vector<std::string> kQuantiles = {"0.5", "0.9", "0.99",
                                                      "0.999"};
  std::istringstream lines(text);
  std::string line;
  std::string summary_key;  // (summary, labels) run being walked
  std::string summary_name;
  std::vector<std::string> seen_quantiles;
  double prev_quantile = 0.0;
  bool saw_sum = false;
  std::vector<std::string> audited_summaries;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in scrape";
    if (line[0] == '#') {
      // Only `# TYPE <name> <kind>` comments, with a known kind.
      std::istringstream c(line);
      std::string hash, kw, name, kind;
      c >> hash >> kw >> name >> kind;
      EXPECT_EQ(kw, "TYPE") << line;
      EXPECT_TRUE(kind == "counter" || kind == "gauge" || kind == "summary")
          << line;
      continue;
    }
    // Sample lines: name{labels} value — name charset, balanced braces,
    // a parseable numeric value.
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string series = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    std::size_t used = 0;
    EXPECT_NO_THROW((void)std::stod(value, &used)) << line;
    EXPECT_EQ(used, value.size()) << line;
    const std::size_t brace = series.find('{');
    const std::string name =
        brace == std::string::npos ? series : series.substr(0, brace);
    for (char ch : name)
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(ch)) || ch == '_' ||
                  ch == ':')
          << line;
    if (brace != std::string::npos) {
      EXPECT_EQ(series.back(), '}') << line;
    }

    // Summary discipline: the four quantiles in ascending order with
    // non-decreasing values, then _sum, then a _count closing the run.
    const std::string labels =
        brace == std::string::npos
            ? ""
            : series.substr(brace + 1, series.size() - brace - 2);
    const std::size_t q = labels.find("quantile=\"");
    if (q != std::string::npos) {
      const std::string key = series_key(name, labels);
      if (key != summary_key) {
        summary_key = key;
        summary_name = name;
        seen_quantiles.clear();
        prev_quantile = 0.0;
        saw_sum = false;
      }
      const std::size_t qend = labels.find('"', q + 10);
      seen_quantiles.push_back(labels.substr(q + 10, qend - q - 10));
      const double v = std::stod(value);
      EXPECT_GE(v, prev_quantile) << "decreasing quantile: " << line;
      prev_quantile = v;
    } else if (!summary_key.empty() && name == summary_name + "_sum" &&
               series_key(summary_name, labels) == summary_key) {
      EXPECT_EQ(seen_quantiles, kQuantiles) << summary_key;
      EXPECT_GE(std::stod(value), 0.0) << line;
      saw_sum = true;
    } else if (!summary_key.empty() && name == summary_name + "_count" &&
               series_key(summary_name, labels) == summary_key) {
      EXPECT_TRUE(saw_sum) << "no _sum line for " << summary_key;
      if (summary_name == "test_obs_audit_seconds") {
        EXPECT_EQ(std::stoull(value), 3u) << line;
      }
      audited_summaries.push_back(summary_name);
      summary_key.clear();
      summary_name.clear();
    }
  }
  // The audit actually exercised the summary path.
  EXPECT_NE(std::find(audited_summaries.begin(), audited_summaries.end(),
                      "test_obs_audit_seconds"),
            audited_summaries.end());
}

// --- event log --------------------------------------------------------------

Event sample_event() {
  return {EventKind::kDrift, 420,  3,
          "D_vol",           "GBDT", "LEAF",
          "detector=KSWIN,p=0.001", 0.25};
}

TEST(ObsEvents, JsonlShapeAndTimingMask) {
  if (!kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  EventLog log;
  log.emit(sample_event());
  ASSERT_EQ(log.size(), 1u);
  const std::string with = EventLog::to_jsonl(log.events(), true);
  const std::string without = EventLog::to_jsonl(log.events(), false);
  EXPECT_NE(with.find("\"event\": \"drift\""), std::string::npos);
  EXPECT_NE(with.find("\"day\": 420"), std::string::npos);
  EXPECT_NE(with.find("\"shard\": 3"), std::string::npos);
  EXPECT_NE(with.find("\"elapsed_seconds\""), std::string::npos);
  // The masked form drops the only wall-clock key.
  EXPECT_EQ(without.find("\"elapsed_seconds\""), std::string::npos);
  EXPECT_EQ(with.back(), '\n');
}

TEST(ObsEvents, SaveLoadRoundTripsExactly) {
  if (!kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  EventLog log;
  log.emit(sample_event());
  Event e2 = sample_event();
  e2.kind = EventKind::kRetrainRejected;
  e2.day = 421;
  e2.detail = "contrast=0.01,groups=2";
  log.emit(e2);

  io::Serializer out;
  log.save(out);
  io::Deserializer in(out.bytes());
  EventLog restored;
  restored.load(in);
  EXPECT_EQ(restored.events(), log.events());
  EXPECT_EQ(EventLog::to_jsonl(restored.events(), true),
            EventLog::to_jsonl(log.events(), true));
}

TEST(ObsEvents, MergeIsStableByDayThenShard) {
  if (!kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  EventLog shard0, shard1;
  Event a = sample_event();
  a.shard = 0;
  a.day = 100;
  Event b = sample_event();
  b.shard = 0;
  b.day = 100;
  b.kind = EventKind::kRetrain;  // same day: insertion order must survive
  Event c = sample_event();
  c.shard = 1;
  c.day = 50;
  shard0.emit(a);
  shard0.emit(b);
  shard1.emit(c);
  const std::vector<Event> merged = EventLog::merge({&shard0, &shard1});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].day, 50);
  EXPECT_EQ(merged[1].kind, EventKind::kDrift);
  EXPECT_EQ(merged[2].kind, EventKind::kRetrain);
}

TEST(ObsEvents, WriteJsonlRoundTripsThroughDisk) {
  if (!kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  const std::string dir = ::testing::TempDir() + "leaf_obs_jsonl";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/events.jsonl";
  EventLog log;
  log.emit(sample_event());
  const std::uint64_t bytes = EventLog::write_jsonl_rotated(
      path, log.events(), /*with_timing=*/false, /*max_bytes=*/0);
  EXPECT_GT(bytes, 0u);
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), EventLog::to_jsonl(log.events(), false));
  std::filesystem::remove_all(dir);
}

TEST(ObsEvents, WriteJsonlToUnwritablePathThrowsAndLeavesNoLitter) {
  if (!kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  const std::string dir = ::testing::TempDir() + "leaf_obs_jsonl_missing";
  std::filesystem::remove_all(dir);  // the parent directory does not exist
  const std::string path = dir + "/events.jsonl";
  EventLog log;
  log.emit(sample_event());
  EXPECT_THROW(EventLog::write_jsonl_rotated(path, log.events(), true, 0),
               io::SnapshotError);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(ObsEvents, WriteJsonlMidLineFaultThrowsAndCleansUpTheTemporary) {
  if (!kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  const std::string dir = ::testing::TempDir() + "leaf_obs_jsonl_fault";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/events.jsonl";
  EventLog log;
  log.emit(sample_event());
  log.emit(sample_event());
  {
    // Fault the write mid-line: a partial event log that parses as a
    // shorter run is worse than no file, so the writer must throw and
    // leave neither `path` nor `.tmp` litter behind.
    io::ScopedWriteFault fault(/*after_bytes=*/10);
    EXPECT_THROW(EventLog::write_jsonl_rotated(path, log.events(), true, 0),
                 io::SnapshotError);
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  // With the fault gone the same call succeeds — the failure was the
  // injected I/O error, not state corruption.
  EXPECT_GT(EventLog::write_jsonl_rotated(path, log.events(), true, 0), 0u);
  EXPECT_TRUE(std::filesystem::exists(path));
  std::filesystem::remove_all(dir);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(ObsEvents, WriteJsonlRotatedSplitsOnLineBoundariesNewestLast) {
  if (!kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  const std::string dir = ::testing::TempDir() + "leaf_obs_rotate";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/events.jsonl";
  EventLog log;
  for (int i = 0; i < 40; ++i) {
    Event e = sample_event();
    e.day = i;  // distinguishable lines, oldest day first
    log.emit(e);
  }
  const std::string full = EventLog::to_jsonl(log.events(), false);
  const std::uint64_t line_bytes = full.size() / 40;

  // Cap at ~10 lines per chunk: 3 chunks survive, the oldest ~10 drop.
  const std::uint64_t cap = line_bytes * 10 + line_bytes / 2;
  EventLog::write_jsonl_rotated(path, log.events(), /*with_timing=*/false,
                                cap);
  ASSERT_TRUE(std::filesystem::exists(path));
  ASSERT_TRUE(std::filesystem::exists(path + ".1"));
  ASSERT_TRUE(std::filesystem::exists(path + ".2"));
  const std::string tail = slurp(path);
  const std::string mid = slurp(path + ".1");
  const std::string old = slurp(path + ".2");
  // Whole lines only, each chunk within the cap...
  for (const std::string& chunk : {tail, mid, old}) {
    EXPECT_LE(chunk.size(), cap);
    EXPECT_EQ(chunk.back(), '\n');
  }
  // ...chronological concatenation (.2 then .1 then path) is a suffix of
  // the full rendering, and the newest line is in `path`.
  const std::string joined = old + mid + tail;
  ASSERT_LE(joined.size(), full.size());
  EXPECT_EQ(joined, full.substr(full.size() - joined.size()));
  EXPECT_NE(tail.find("\"day\": 39"), std::string::npos);
  EXPECT_LT(joined.size(), full.size());  // oldest lines were dropped

  // A later, smaller write must remove the now-stale rotated chunks.
  EventLog::write_jsonl_rotated(path, {sample_event()},
                                /*with_timing=*/false, 0);
  EXPECT_FALSE(std::filesystem::exists(path + ".1"));
  EXPECT_FALSE(std::filesystem::exists(path + ".2"));
  EXPECT_EQ(slurp(path), EventLog::to_jsonl({sample_event()}, false));
  std::filesystem::remove_all(dir);
}

TEST(ObsEvents, WriteJsonlRotatedOversizedLineStillKept) {
  if (!kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  const std::string dir = ::testing::TempDir() + "leaf_obs_rotate_big";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/events.jsonl";
  Event big = sample_event();
  big.detail = std::string(512, 'x');  // one line far beyond the cap
  EventLog::write_jsonl_rotated(path, {big}, /*with_timing=*/false, 64);
  // Capping must never silently drop the newest tail.
  EXPECT_NE(slurp(path).find(big.detail), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(ObsEvents, WriteJsonlRotatedFaultLeavesNoTmpLitter) {
  if (!kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  const std::string dir = ::testing::TempDir() + "leaf_obs_rotate_fault";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/events.jsonl";
  std::vector<Event> events;
  for (int i = 0; i < 20; ++i) events.push_back(sample_event());
  const std::string full = EventLog::to_jsonl(events, false);
  {
    io::ScopedWriteFault fault(/*after_bytes=*/10);
    EXPECT_THROW(EventLog::write_jsonl_rotated(path, events, false,
                                               full.size() / 3),
                 io::SnapshotError);
  }
  // The faulted chunk's temporary was cleaned up, and no half-written
  // chunk was renamed into place under any of the rotated names.
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    EXPECT_EQ(entry.path().string().find(".tmp"), std::string::npos)
        << "tmp litter: " << entry.path();
  EXPECT_FALSE(std::filesystem::exists(path));
  // With the fault gone the same rotation succeeds.
  EXPECT_GT(EventLog::write_jsonl_rotated(path, events, false,
                                          full.size() / 3),
            0u);
  EXPECT_TRUE(std::filesystem::exists(path));
  std::filesystem::remove_all(dir);
}

TEST(ObsEvents, EmitIsNoOpWhenRuntimeDisabled) {
  if (!kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  EventLog log;
  set_enabled(false);
  log.emit(sample_event());
  set_enabled(true);
  EXPECT_TRUE(log.empty());
}

// --- logger -----------------------------------------------------------------

TEST(ObsLog, ParseLogLevel) {
  LogLevel lv = LogLevel::kInfo;
  EXPECT_TRUE(parse_log_level("error", lv));
  EXPECT_EQ(lv, LogLevel::kError);
  EXPECT_TRUE(parse_log_level("WARN", lv));
  EXPECT_EQ(lv, LogLevel::kWarn);
  EXPECT_TRUE(parse_log_level("Debug", lv));
  EXPECT_EQ(lv, LogLevel::kDebug);
  EXPECT_FALSE(parse_log_level("loud", lv));
  EXPECT_EQ(lv, LogLevel::kDebug);  // untouched on failure
  EXPECT_FALSE(parse_log_level(nullptr, lv));
}

TEST(ObsLog, ThresholdGatesLevels) {
  const LogLevel prev = log_level();
  set_log_level(LogLevel::kWarn);
  EXPECT_TRUE(log_enabled(LogLevel::kError));
  EXPECT_TRUE(log_enabled(LogLevel::kWarn));
  EXPECT_FALSE(log_enabled(LogLevel::kInfo));
  EXPECT_FALSE(log_enabled(LogLevel::kDebug));
  set_log_level(prev);
}

// --- determinism: logical telemetry vs LEAF_THREADS -------------------------

/// A dataset and model size small enough to run twice per test.
Scale tiny_scale() {
  Scale scale = Scale::for_level(Scale::Level::kSmall);
  scale.fixed_enbs = 6;
  scale.num_kpis = 16;
  scale.gbdt_trees = 15;
  scale.eval_stride_days = 4;
  return scale;
}

TEST(ObsDeterminism, RunSchemeEventsIdenticalAcrossThreadCounts) {
  if (!kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  const Scale scale = tiny_scale();
  const data::CellularDataset ds = data::generate_fixed_dataset(scale, 42);
  const data::Featurizer featurizer(ds, data::TargetKpi::kDVol);

  const auto run_with_threads = [&](int threads) {
    par::set_threads(threads);
    EventLog log;
    core::EvalConfig cfg = core::make_eval_config(scale);
    cfg.events = &log;
    cfg.obs_shard = 0;
    const auto model =
        models::make_model(models::ModelFamily::kGbdt, scale, 1);
    core::TriggeredScheme scheme;
    core::run_scheme(featurizer, *model, scheme, cfg);
    return EventLog::to_jsonl(log.events(), /*with_timing=*/false);
  };

  const std::string jsonl_t1 = run_with_threads(1);
  const std::string jsonl_t4 = run_with_threads(4);
  par::set_threads(0);
  // The masked event stream is a pure function of the logical execution.
  EXPECT_FALSE(jsonl_t1.empty());
  EXPECT_EQ(jsonl_t1, jsonl_t4);
}

/// The global scrape without its wall-clock lines (every series whose name
/// holds `_seconds`): the part the determinism contract covers.
std::string logical_scrape() {
  std::istringstream in(MetricsRegistry::global().scrape());
  std::string out, line;
  while (std::getline(in, line))
    if (line.find("_seconds") == std::string::npos) out += line + '\n';
  return out;
}

// A compare_schemes grid runs its seed x scheme cells concurrently on the
// shared pool and registry; every logical series must still come out the
// same as on one thread.
TEST(ObsDeterminism, CompareSchemesScrapeIdenticalAcrossThreadCounts) {
  if (!kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  const Scale scale = tiny_scale();
  const data::CellularDataset ds = data::generate_fixed_dataset(scale, 42);
  const std::vector<std::string> specs = {"Static", "Triggered", "LEAF",
                                          "Naive30"};
  const std::uint64_t seeds[] = {11, 22};

  const auto scrape_with_threads = [&](int threads) {
    par::set_threads(threads);
    MetricsRegistry::global().reset_values();
    core::compare_schemes(ds, data::TargetKpi::kDVol,
                          models::ModelFamily::kGbdt, scale, specs, seeds);
    return logical_scrape();
  };

  const std::string scrape_t1 = scrape_with_threads(1);
  const std::string scrape_t4 = scrape_with_threads(4);
  par::set_threads(0);
  EXPECT_NE(scrape_t1.find("leaf_retrains_total"), std::string::npos);
  EXPECT_EQ(scrape_t1, scrape_t4);
}

}  // namespace
}  // namespace leaf::obs
