// Tests for the serving-plane observability layer added on top of
// leaf::net — deterministic distributed tracing (trace/span id
// derivation, the Chrome trace-event sink, end-to-end span topology
// through the loopback server at multiple thread counts), the LNET v2
// trace-context codec, exact latency percentiles, and the SLO burn-rate
// watchdog.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "data/generator.hpp"
#include "net/loopback.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "par/parallel.hpp"
#include "serve/runtime.hpp"

namespace leaf {
namespace {

// --- trace / span id derivation ---------------------------------------------

TEST(TraceId, DerivedIdsAreDeterministicNonZeroAndDistinct) {
  const obs::TraceId a = obs::derive_trace_id(1, 7);
  const obs::TraceId b = obs::derive_trace_id(1, 7);
  EXPECT_EQ(a, b);  // pure function of (conn, request-id)
  EXPECT_FALSE(obs::trace_is_zero(a));
  EXPECT_NE(obs::derive_trace_id(1, 8), a);
  EXPECT_NE(obs::derive_trace_id(2, 7), a);
  EXPECT_EQ(obs::trace_hex(a).size(), 32u);
  EXPECT_EQ(obs::trace_hex(obs::TraceId{}), std::string(32, '0'));
}

TEST(TraceId, SpanIdsDependOnEveryInput) {
  const obs::TraceId t = obs::derive_trace_id(3, 4);
  const std::uint64_t base = obs::derive_span_id(t, "request", 0, 0);
  EXPECT_NE(base, 0u);  // zero is reserved for "no parent"
  EXPECT_EQ(obs::derive_span_id(t, "request", 0, 0), base);
  EXPECT_NE(obs::derive_span_id(t, "respond", 0, 0), base);
  EXPECT_NE(obs::derive_span_id(t, "request", base, 0), base);
  EXPECT_NE(obs::derive_span_id(t, "request", 0, 1), base);
  EXPECT_NE(obs::derive_span_id(obs::derive_trace_id(3, 5), "request", 0, 0),
            base);
}

TEST(TraceId, SamplingIsAPureFunctionOfTheId) {
  const std::string path = ::testing::TempDir() + "leaf_trace_sample.json";
  obs::Tracer tracer(path, 4);
  int kept = 0;
  for (std::uint64_t r = 0; r < 64; ++r) {
    const obs::TraceId id = obs::derive_trace_id(1, r);
    EXPECT_EQ(tracer.sampled(id), obs::trace_hash(id) % 4 == 0);
    if (tracer.sampled(id)) ++kept;
  }
  EXPECT_GT(kept, 0);  // the hash spreads: some kept...
  EXPECT_LT(kept, 64); // ...some dropped
  std::remove(path.c_str());
}

// --- the Chrome trace-event sink --------------------------------------------

TEST(Tracer, WritesALoadableChromeTraceArray) {
  const std::string path = ::testing::TempDir() + "leaf_trace_sink.json";
  {
    obs::Tracer tracer(path);
    ASSERT_TRUE(tracer.ok()) << tracer.error();
    obs::TraceSpan s;
    s.name = "request";
    s.trace = obs::derive_trace_id(1, 1);
    s.span_id = 42;
    s.parent_id = 0;
    s.args = "\"conn\": 1";
    tracer.write(s);
    s.name = "respond";
    s.span_id = 43;
    s.parent_id = 42;
    s.args.clear();
    tracer.write(s);
    tracer.close();
    EXPECT_EQ(tracer.spans_written(), 2u);
    EXPECT_TRUE(tracer.ok()) << tracer.error();
  }
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  // A JSON array with one complete object per span and the catapult keys.
  EXPECT_EQ(text.front(), '[');
  EXPECT_NE(text.find("\"name\": \"request\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(text.find("\"parent_span_id\": \"" + obs::span_hex(42) + "\""),
            std::string::npos);
  EXPECT_NE(text.find("\"conn\": 1"), std::string::npos);
  ASSERT_GE(text.size(), 2u);
  EXPECT_EQ(text.substr(text.size() - 2), "]\n");
  EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
            std::count(text.begin(), text.end(), '}'));
  std::remove(path.c_str());
}

TEST(Tracer, EmptyTraceStillClosesToAValidArray) {
  const std::string path = ::testing::TempDir() + "leaf_trace_empty.json";
  obs::Tracer tracer(path);
  tracer.close();
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), "[\n]\n");
  std::remove(path.c_str());
}

TEST(Tracer, UnopenableSinkFailsLoudly) {
  obs::Tracer tracer(::testing::TempDir() + "no-such-dir-xyzzy/trace.json");
  EXPECT_FALSE(tracer.ok());
  EXPECT_NE(tracer.error().find("cannot open"), std::string::npos);
  // Writes to a dead sink are ignored, never a crash.
  tracer.write(obs::TraceSpan{});
  EXPECT_EQ(tracer.spans_written(), 0u);
}

// --- LNET v2 trace-context codec --------------------------------------------

TEST(TraceProtocol, V2FrameCarriesTraceContext) {
  net::Frame in{net::MsgType::kPredict, 99, {1, 2, 3}};
  in.trace = obs::derive_trace_id(5, 99);
  in.parent_span = 0xABCDULL;
  const std::vector<std::uint8_t> bytes = net::encode_frame(in);
  ASSERT_EQ(bytes.size(), net::kHeaderBytes + in.payload.size());

  net::FrameDecoder dec;
  dec.feed(bytes);
  const std::optional<net::Frame> out = dec.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->trace, in.trace);
  EXPECT_EQ(out->parent_span, in.parent_span);
  EXPECT_EQ(*out, in);
}

// Every version but the current one poisons the decoder — including the
// retired v1, alone or behind a good v2 frame in the same stream.
TEST(TraceProtocol, UnknownVersionIsFatalFramingDamage) {
  const std::vector<std::uint8_t> good =
      net::encode_frame({net::MsgType::kFleetStatus, 1, {}});
  for (const std::uint8_t version : {0, 1, 3, 0x77}) {
    for (const bool behind_good_frame : {false, true}) {
      SCOPED_TRACE("version " + std::to_string(version) +
                   (behind_good_frame ? " behind a v2 frame" : ""));
      std::vector<std::uint8_t> bad =
          net::encode_frame({net::MsgType::kPredict, 2, {9, 8}});
      bad[4] = version;  // version field, little-endian low byte
      std::vector<std::uint8_t> bytes;
      if (behind_good_frame) bytes = good;
      bytes.insert(bytes.end(), bad.begin(), bad.end());

      net::FrameDecoder dec;
      try {
        dec.feed(bytes);
        if (behind_good_frame) {
          const std::optional<net::Frame> first = dec.next();
          ASSERT_TRUE(first.has_value());
          EXPECT_EQ(first->request_id, 1u);
        }
        dec.next();
        FAIL() << "unknown version accepted";
      } catch (const net::ProtocolError& e) {
        EXPECT_TRUE(e.fatal());
      }
      EXPECT_TRUE(dec.poisoned());
    }
  }
}

// --- end-to-end tracing through the loopback server -------------------------

Matrix probe_rows(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (auto& v : m.flat()) v = rng.uniform();
  return m;
}

struct TraceNetFixture : ::testing::Test {
  Scale scale = Scale::for_level(Scale::Level::kSmall);
  data::CellularDataset ds = data::generate_fixed_dataset(scale, 42);

  std::unique_ptr<serve::FleetRuntime> ready_fleet(std::size_t n) {
    std::vector<serve::ShardSpec> specs;
    const data::TargetKpi kpis[] = {data::TargetKpi::kDVol,
                                    data::TargetKpi::kPU};
    for (std::size_t i = 0; i < n; ++i)
      specs.push_back(
          {kpis[i % 2], models::ModelFamily::kRidge, "Triggered", 0});
    auto fleet = std::make_unique<serve::FleetRuntime>(ds, scale, specs);
    fleet->run_steps(1);
    return fleet;
  }

  /// Drives a fixed request schedule against a traced loopback server and
  /// returns the trace file's text.
  std::string traced_run(const std::string& path, int threads) {
    par::set_threads(threads);
    auto fleet = ready_fleet(2);
    net::Loopback loop(*fleet);
    obs::Tracer tracer(path, /*sample_every=*/1);
    EXPECT_TRUE(tracer.ok()) << tracer.error();
    loop.core().set_tracer(&tracer);

    net::LoopbackConnection& conn = loop.connect();
    const std::uint32_t cols = [&] {
      conn.send(net::Frame{net::MsgType::kFleetStatus, 1, {}});
      const auto resp = conn.receive();
      return net::decode_body<net::StatusResponse>(*resp)
          .shards[0]
          .num_features;
    }();
    for (std::uint64_t r = 0; r < 4; ++r) {
      net::PredictRequest req;
      req.shard = static_cast<std::uint32_t>(r % 2);
      req.rows = probe_rows(1 + r % 2, cols, 7 + r);
      conn.send(net::make_frame(r % 2 == 0 ? net::MsgType::kPredict
                                           : net::MsgType::kBatchPredict,
                                2 + r, req));
    }
    loop.pump();
    conn.send(net::make_frame(net::MsgType::kScrapeMetrics, 100,
                              net::ScrapeRequest{false}));
    loop.core().set_tracer(nullptr);
    tracer.close();
    par::set_threads(0);

    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }
};

int count_occurrences(const std::string& text, const std::string& needle) {
  int n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size()))
    ++n;
  return n;
}

TEST_F(TraceNetFixture, SpanTopologyLinksDecodeToRespondPerRequest) {
  const std::string path = ::testing::TempDir() + "leaf_trace_e2e.json";
  const std::string text = traced_run(path, 1);

  // 6 requests: 1 status + 4 predicts + 1 scrape.
  EXPECT_EQ(count_occurrences(text, "\"name\": \"request\""), 6);
  EXPECT_EQ(count_occurrences(text, "\"name\": \"respond\""), 6);
  // Predicts and the scrape decode a body; status does not.
  EXPECT_EQ(count_occurrences(text, "\"name\": \"decode\""), 5);
  EXPECT_EQ(count_occurrences(text, "\"name\": \"admission\""), 4);
  // One batch per shard per pump; each traced request carries its shard's
  // batch + shard-predict spans.
  EXPECT_EQ(count_occurrences(text, "\"name\": \"batch\""), 4);
  EXPECT_EQ(count_occurrences(text, "\"name\": \"shard-predict\""), 4);

  // Every non-root span's parent is a span id that exists in its trace,
  // and every request span parents at the wire parent (zero here).
  const std::regex span_re("\\{[^\\n]*\"trace_id\": \"([0-9a-f]{32})\", "
                           "\"span_id\": \"([0-9a-f]{16})\", "
                           "\"parent_span_id\": \"([0-9a-f]{16})\"");
  std::set<std::string> ids;       // trace:span
  std::vector<std::pair<std::string, std::string>> edges;  // trace, parent
  for (std::sregex_iterator it(text.begin(), text.end(), span_re), end;
       it != end; ++it) {
    ids.insert((*it)[1].str() + ":" + (*it)[2].str());
    if ((*it)[3].str() != std::string(16, '0'))
      edges.emplace_back((*it)[1].str(), (*it)[3].str());
  }
  // 4 predicts x 6 spans + 1 status x 2 + 1 scrape x 3 = 29 spans, every
  // (trace, span id) pair unique.
  EXPECT_EQ(ids.size(), 29u);
  for (const auto& [trace, parent] : edges)
    EXPECT_TRUE(ids.count(trace + ":" + parent))
        << "dangling parent " << parent << " in trace " << trace;
}

TEST_F(TraceNetFixture, TraceFingerprintIdenticalAcrossThreadCounts) {
  const std::string p1 = ::testing::TempDir() + "leaf_trace_t1.json";
  const std::string p4 = ::testing::TempDir() + "leaf_trace_t4.json";
  const std::string t1 = traced_run(p1, 1);
  const std::string t4 = traced_run(p4, 4);
  // Only the Chrome "ts"/"dur" keys carry wall clock; with them stripped
  // the files are byte-identical: same spans, same ids, same order.
  const std::regex wallclock(", \"ts\": [0-9]+, \"dur\": [0-9]+");
  const std::string f1 = std::regex_replace(t1, wallclock, "");
  const std::string f4 = std::regex_replace(t4, wallclock, "");
  EXPECT_FALSE(f1.empty());
  EXPECT_EQ(f1, f4);
  std::remove(p1.c_str());
  std::remove(p4.c_str());
}

TEST_F(TraceNetFixture, ResponsesEchoTheRequestsTraceId) {
  auto fleet = ready_fleet(1);
  net::Loopback loop(*fleet);
  net::LoopbackConnection& conn = loop.connect();

  net::Frame status{net::MsgType::kFleetStatus, 9, {}};
  status.trace = obs::derive_trace_id(77, 9);
  conn.send(status);
  const auto resp = conn.receive();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->trace, status.trace);

  // A request without a trace id gets the derived one back.
  conn.send(net::Frame{net::MsgType::kFleetStatus, 10, {}});
  const auto resp2 = conn.receive();
  ASSERT_TRUE(resp2.has_value());
  EXPECT_EQ(resp2->trace, obs::derive_trace_id(conn.id(), 10));
}

TEST_F(TraceNetFixture, MalformedRequestsAreAnsweredLikeAnyOther) {
  // A well-framed request with a bad body is still a request: its kError
  // answer echoes the derived trace id, and it gets the same span pair and
  // latency sample as a request that succeeds.
  auto fleet = ready_fleet(1);
  net::Loopback loop(*fleet);
  const std::string path = ::testing::TempDir() + "leaf_trace_malformed.json";
  obs::Tracer tracer(path, /*sample_every=*/1);
  ASSERT_TRUE(tracer.ok()) << tracer.error();
  loop.core().set_tracer(&tracer);
  net::LoopbackConnection& conn = loop.connect();

  net::Frame scrape = net::make_frame(net::MsgType::kScrapeMetrics, 21,
                                      net::ScrapeRequest{false});
  scrape.payload.push_back(0);  // trailing byte after the body
  net::PredictRequest two_rows;
  two_rows.rows = probe_rows(2, 3, 5);
  const net::Frame predict =
      net::make_frame(net::MsgType::kPredict, 22, two_rows);
  const net::Frame status{net::MsgType::kFleetStatus, 23, {0}};

  for (const net::Frame& req : {scrape, predict, status}) {
    obs::LatencyHistogram& latency = obs::MetricsRegistry::global().latency(
        "leaf_rpc_latency_seconds",
        obs::label("type", net::to_string(req.type)));
    const std::uint64_t before = latency.count();
    conn.send(req);
    const auto resp = conn.receive();
    ASSERT_TRUE(resp.has_value()) << net::to_string(req.type);
    EXPECT_EQ(resp->type, net::MsgType::kError);
    EXPECT_EQ(net::decode_body<net::ErrorResponse>(*resp).code,
              net::ErrorCode::kMalformed);
    EXPECT_EQ(resp->trace, obs::derive_trace_id(conn.id(), req.request_id));
    if (obs::kCompiledIn) {
      EXPECT_EQ(latency.count(), before + 1);
    }
  }
  EXPECT_TRUE(conn.alive());
  loop.core().set_tracer(nullptr);
  tracer.close();

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(count_occurrences(buf.str(), "\"name\": \"request\""), 3);
  EXPECT_EQ(count_occurrences(buf.str(), "\"name\": \"respond\""), 3);
  std::remove(path.c_str());
}

// --- exact latency percentiles ----------------------------------------------

TEST(LatencyHistogram, QuantilesMatchExactSortedQuantilesWithinOnePercent) {
  obs::LatencyHistogram h;
  std::vector<double> samples;
  Rng rng(2024);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform over ~6 decades: microseconds to seconds.
    const double s = std::pow(10.0, -6.0 + 6.0 * rng.uniform());
    samples.push_back(s);
    h.observe(s);
  }
  std::sort(samples.begin(), samples.end());
  if (obs::kCompiledIn) {  // recording compiles out with the registry
    for (const double p : {0.5, 0.9, 0.99, 0.999}) {
      const std::size_t rank = static_cast<std::size_t>(
          std::min<double>(std::ceil(p * samples.size()), samples.size()) -
          1);
      const double exact = samples[rank];
      EXPECT_NEAR(h.quantile(p), exact, exact * 0.01)
          << "p=" << p << " exact=" << exact;
    }
    EXPECT_EQ(h.count(), 20000u);
  }
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.99), 0.0);
}

TEST(LatencyHistogram, BucketIndexingCoversTheFullTickRange) {
  // Every representative maps back into its own bucket, including the
  // extremes (1 ns granularity at the bottom, the top octave's last
  // bucket at the top).
  EXPECT_EQ(obs::LatencyHistogram::index_of(0), 0u);
  EXPECT_EQ(obs::LatencyHistogram::index_of(1), 1u);
  const std::size_t top =
      obs::LatencyHistogram::index_of(~std::uint64_t{0});
  EXPECT_LT(top, obs::LatencyHistogram::kBucketCount);
  EXPECT_EQ(obs::LatencyHistogram::index_of(
                obs::LatencyHistogram::representative_ns(top)),
            top);
  obs::LatencyHistogram h;
  h.record_ns(~std::uint64_t{0});  // must not write out of bounds
  EXPECT_EQ(h.count(), obs::kCompiledIn ? 1u : 0u);
}

TEST(LatencyHistogram, RegistryExposesQuantileLines) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.latency("test_trace_latency_seconds", obs::label("type", "x"))
      .observe(0.25);
  const std::string text = reg.scrape();
  EXPECT_NE(text.find("# TYPE test_trace_latency_seconds summary"),
            std::string::npos);
  EXPECT_NE(
      text.find("test_trace_latency_seconds{type=\"x\",quantile=\"0.99\"}"),
      std::string::npos);
  if (obs::kCompiledIn) {  // the observation itself compiles out
    EXPECT_NE(text.find("test_trace_latency_seconds_count{type=\"x\"} 1"),
              std::string::npos);
  }
}

// --- SLO burn-rate watchdog --------------------------------------------------

obs::SloSample quiet_sample() {
  obs::SloSample s;
  s.requests = 10;
  s.shards = 4;
  return s;
}

TEST(SloSpec, ParsesRoundTripsAndRejectsGarbage) {
  const obs::SloSpec spec = obs::SloSpec::parse(
      "window=8,deadline-miss=0.3,shed=0.5,warn=0.25,recover=3");
  EXPECT_EQ(spec.window, 8);
  EXPECT_DOUBLE_EQ(spec.deadline_miss, 0.3);
  EXPECT_DOUBLE_EQ(spec.shed, 0.5);
  EXPECT_DOUBLE_EQ(spec.warn_fraction, 0.25);
  EXPECT_EQ(spec.recover_ticks, 3);
  EXPECT_TRUE(spec.any());
  EXPECT_EQ(obs::SloSpec::parse(spec.to_string()).to_string(),
            spec.to_string());

  EXPECT_FALSE(obs::SloSpec::parse("").any());
  EXPECT_THROW(obs::SloSpec::parse("deadline-miss=2"), std::invalid_argument);
  EXPECT_THROW(obs::SloSpec::parse("bogus=1"), std::invalid_argument);
  EXPECT_THROW(obs::SloSpec::parse("window=0"), std::invalid_argument);
  EXPECT_THROW(obs::SloSpec::parse("window"), std::invalid_argument);
  EXPECT_THROW(obs::SloSpec::parse("window=+2"), std::invalid_argument);
  EXPECT_THROW(obs::SloSpec::parse("warn=nan"), std::invalid_argument);
}

TEST(SloWatchdog, EscalatesImmediatelyAndRecoversWithHysteresis) {
  obs::SloSpec spec = obs::SloSpec::parse(
      "window=4,deadline-miss=0.5,warn=0.5,recover=2");
  obs::SloWatchdog dog(spec);
  EXPECT_EQ(dog.observe(quiet_sample()), obs::SloWatchdog::State::kOk);

  // Burn half the threshold: warning, immediately.
  obs::SloSample warm = quiet_sample();
  warm.deadline_misses = 3;  // window rate 3/20 = 0.15... below warn
  EXPECT_EQ(dog.observe(warm), obs::SloWatchdog::State::kOk);
  obs::SloSample storm = quiet_sample();
  storm.deadline_misses = 10;  // pushes the window rate past 0.25 (warn)
  EXPECT_EQ(dog.observe(storm), obs::SloWatchdog::State::kWarning);
  // Keep storming until the window rate crosses 0.5: critical.
  dog.observe(storm);
  EXPECT_EQ(dog.observe(storm), obs::SloWatchdog::State::kCritical);

  // One clean tick is not a recovery (recover=2)...
  obs::SloSample clean = quiet_sample();
  clean.requests = 100;  // dilutes the window fast
  dog.observe(clean);
  EXPECT_EQ(dog.state(), obs::SloWatchdog::State::kCritical);
  // ...the second consecutive one steps down to the computed level.
  EXPECT_EQ(dog.observe(clean), obs::SloWatchdog::State::kOk);

  // The transition history is in the event log: warning, critical, then
  // recovery (possibly via warning), each with the burning signal named.
  // Event emission compiles out with the registry.
  if (!obs::kCompiledIn) return;
  const auto& events = dog.events().events();
  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(events[0].kind, obs::EventKind::kSloBurnWarning);
  EXPECT_NE(events[0].detail.find("signal=deadline-miss"), std::string::npos);
  EXPECT_EQ(events[1].kind, obs::EventKind::kSloBurnCritical);
  EXPECT_EQ(events.back().kind, obs::EventKind::kSloRecovered);
}

TEST(SloWatchdog, QuarantineAndNrmseSignalsBurn) {
  obs::SloWatchdog dog(
      obs::SloSpec::parse("window=2,quarantine=0.4,nrmse-regression=0.5,"
                          "nrmse-baseline=1.0,recover=1"));
  obs::SloSample s = quiet_sample();
  s.quarantined = 2;  // 2/4 = 0.5 >= 0.4
  EXPECT_EQ(dog.observe(s), obs::SloWatchdog::State::kCritical);
  s.quarantined = 0;
  dog.observe(s);
  EXPECT_EQ(dog.observe(s), obs::SloWatchdog::State::kOk);

  s.nrmse = 1.6;  // 60% over the pinned baseline of 1.0
  EXPECT_EQ(dog.observe(s), obs::SloWatchdog::State::kCritical);
  EXPECT_GT(dog.burn().nrmse_regression, 0.5);
}

TEST(SloWatchdog, StateGaugeTracksTransitions) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::SloWatchdog dog(obs::SloSpec::parse("window=2,shed=0.1,recover=1"));
  obs::SloSample bad = quiet_sample();
  bad.sheds = 5;
  dog.observe(bad);
  EXPECT_EQ(dog.state(), obs::SloWatchdog::State::kCritical);
  // Gauge writes compile out with the registry (the gauge stays at 0).
  EXPECT_EQ(reg.gauge("leaf_slo_state").value(), obs::kCompiledIn ? 2.0 : 0.0);
  dog.observe(quiet_sample());
  dog.observe(quiet_sample());
  EXPECT_EQ(dog.state(), obs::SloWatchdog::State::kOk);
  EXPECT_EQ(reg.gauge("leaf_slo_state").value(), 0.0);
}

TEST(SloWatchdog, TelemetryDriftSignalEscalatesOnWindowMax) {
  obs::SloWatchdog dog(
      obs::SloSpec::parse("window=4,telemetry-drift=2,recover=1"));
  EXPECT_NE(dog.spec().to_string().find("telemetry-drift=2"),
            std::string::npos);

  obs::SloSample s = quiet_sample();
  s.telemetry_drift = 1;  // half the threshold: warning (warn=0.5 default)
  EXPECT_EQ(dog.observe(s), obs::SloWatchdog::State::kWarning);
  s.telemetry_drift = 2;  // two meta-drift rules fired: critical
  EXPECT_EQ(dog.observe(s), obs::SloWatchdog::State::kCritical);
  if (obs::kCompiledIn) {  // event emission compiles out with the registry
    EXPECT_NE(dog.events().events().back().detail.find(
                  "signal=telemetry-drift"),
              std::string::npos);
  }
  EXPECT_DOUBLE_EQ(dog.burn().telemetry_drift, 2.0);

  // The signal is the window *max*, so one calm tick does not clear it —
  // the storm has to scroll out of the window first.
  s.telemetry_drift = 0;
  dog.observe(s);
  EXPECT_EQ(dog.state(), obs::SloWatchdog::State::kCritical);
  for (int i = 0; i < 4; ++i) dog.observe(s);
  EXPECT_EQ(dog.state(), obs::SloWatchdog::State::kOk);
}

TEST(SloWatchdog, DisabledSpecNeverAlarms) {
  obs::SloWatchdog dog(obs::SloSpec{});
  obs::SloSample s = quiet_sample();
  s.deadline_misses = 10;
  s.sheds = 10;
  s.quarantined = 4;
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(dog.observe(s), obs::SloWatchdog::State::kOk);
  EXPECT_TRUE(dog.events().empty());
}

}  // namespace
}  // namespace leaf
