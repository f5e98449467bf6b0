// Tests for leaf::net — wire-format round-trips, malformed-frame
// containment, admission control (batching, retry, deadline shedding),
// loopback end-to-end correctness against the fleet, thread-count
// determinism of responses and telemetry, a seeded fuzz-lite corpus, and
// a real-socket TCP smoke.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chaos/chaos.hpp"
#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "data/generator.hpp"
#include "net/loopback.hpp"
#include "net/tcp.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "par/parallel.hpp"
#include "serve/runtime.hpp"

namespace leaf::net {
namespace {

/// Restores the default thread count even if a test fails mid-way.
struct ThreadGuard {
  ~ThreadGuard() { par::set_threads(0); }
};

Matrix probe_rows(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (auto& v : m.flat()) v = rng.uniform();
  return m;
}

struct NetFixture : ::testing::Test {
  Scale scale = Scale::for_level(Scale::Level::kSmall);
  data::CellularDataset ds = data::generate_fixed_dataset(scale, 42);

  /// Cheap Ridge shards so fleets are fast to make serve-ready.
  std::vector<serve::ShardSpec> specs(std::size_t n) const {
    const data::TargetKpi kpis[] = {data::TargetKpi::kDVol,
                                    data::TargetKpi::kPU,
                                    data::TargetKpi::kDTP};
    std::vector<serve::ShardSpec> out;
    for (std::size_t i = 0; i < n; ++i)
      out.push_back(
          {kpis[i % 3], models::ModelFamily::kRidge, "Triggered", 0});
    return out;
  }

  /// Fleet stepped once: initial fits done, every shard serve-ready.
  std::unique_ptr<serve::FleetRuntime> ready_fleet(std::size_t n) {
    auto fleet = std::make_unique<serve::FleetRuntime>(ds, scale, specs(n));
    fleet->run_steps(1);
    return fleet;
  }
};

// --- frame codec -----------------------------------------------------------

TEST(NetProtocol, FrameRoundTripsThroughDecoder) {
  const Frame in{MsgType::kBatchPredict, 0xDEADBEEFCAFEBABEULL,
                 {1, 2, 3, 4, 5}};
  const std::vector<std::uint8_t> bytes = encode_frame(in);
  ASSERT_EQ(bytes.size(), kHeaderBytes + in.payload.size());

  FrameDecoder dec;
  dec.feed(bytes);
  const std::optional<Frame> out = dec.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, in);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_EQ(dec.pending_bytes(), 0u);
}

TEST(NetProtocol, ByteAtATimeFeedYieldsTheSameFrames) {
  const Frame a{MsgType::kPredict, 1, {9, 8, 7}};
  const Frame b{MsgType::kScrapeMetrics, 2, {}};
  std::vector<std::uint8_t> bytes = encode_frame(a);
  const std::vector<std::uint8_t> bb = encode_frame(b);
  bytes.insert(bytes.end(), bb.begin(), bb.end());

  FrameDecoder dec;
  std::vector<Frame> got;
  for (std::uint8_t byte : bytes) {
    dec.feed(std::span<const std::uint8_t>(&byte, 1));
    while (std::optional<Frame> f = dec.next()) got.push_back(std::move(*f));
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], a);
  EXPECT_EQ(got[1], b);
}

TEST(NetProtocol, TwoFramesInOneFeedBothValidated) {
  // The second frame's header must be validated after the first is
  // consumed — a bad magic there is framing damage, not a silent parse.
  std::vector<std::uint8_t> bytes = encode_frame({MsgType::kPredict, 1, {}});
  std::vector<std::uint8_t> evil = encode_frame({MsgType::kPredict, 2, {}});
  evil[0] = 'X';  // corrupt the second frame's magic
  bytes.insert(bytes.end(), evil.begin(), evil.end());

  FrameDecoder dec;
  dec.feed(bytes);
  ASSERT_TRUE(dec.next().has_value());  // first frame is fine
  EXPECT_THROW(dec.next(), ProtocolError);
  EXPECT_TRUE(dec.poisoned());
}

TEST(NetProtocol, TruncatedFrameIsPendingNotAnError) {
  const std::vector<std::uint8_t> bytes =
      encode_frame({MsgType::kPredict, 7, {1, 2, 3}});
  FrameDecoder dec;
  dec.feed(std::span<const std::uint8_t>(bytes.data(), bytes.size() - 1));
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_GT(dec.pending_bytes(), 0u);
  dec.feed(std::span<const std::uint8_t>(bytes.data() + bytes.size() - 1, 1));
  EXPECT_TRUE(dec.next().has_value());
}

TEST(NetProtocol, BadMagicBadVersionCrcFlipUnknownTypeAllTyped) {
  const std::vector<std::uint8_t> good =
      encode_frame({MsgType::kPredict, 7, {1, 2, 3}});

  {  // bad magic: rejected as soon as 4 bytes are in
    std::vector<std::uint8_t> bytes = good;
    bytes[1] ^= 0xFF;
    FrameDecoder dec;
    try {
      dec.feed(bytes);
      dec.next();
      FAIL() << "bad magic accepted";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kMalformed);
      EXPECT_TRUE(e.fatal());
    }
    EXPECT_TRUE(dec.poisoned());
    // A poisoned decoder refuses further input.
    EXPECT_THROW(dec.feed(good), ProtocolError);
  }
  {  // unsupported version
    std::vector<std::uint8_t> bytes = good;
    bytes[4] = 0x77;
    FrameDecoder dec;
    EXPECT_THROW(dec.feed(bytes), ProtocolError);
  }
  {  // payload bit flip: CRC catches it
    std::vector<std::uint8_t> bytes = good;
    bytes[kHeaderBytes + 1] ^= 0x01;
    FrameDecoder dec;
    dec.feed(bytes);
    try {
      dec.next();
      FAIL() << "CRC mismatch accepted";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kMalformed);
    }
  }
  {  // unknown frame type
    std::vector<std::uint8_t> bytes = good;
    bytes[8] = 0x42;
    FrameDecoder dec;
    dec.feed(bytes);
    EXPECT_THROW(dec.next(), ProtocolError);
  }
  // A bare header announcing a payload of `len` bytes (little-endian).
  const auto header_of = [&good](std::uint32_t len) {
    std::vector<std::uint8_t> header(good.begin(), good.begin() + kHeaderBytes);
    for (int i = 0; i < 4; ++i)
      header[kHeaderBytes - 8 + i] = static_cast<std::uint8_t>(len >> (8 * i));
    return header;
  };
  {  // a payload of exactly the frame bound is awaited
    FrameDecoder dec;
    dec.feed(header_of(static_cast<std::uint32_t>(kMaxFrameBytes)));
    EXPECT_FALSE(dec.next().has_value());
  }
  {  // one byte over the frame bound
    FrameDecoder dec;
    try {
      dec.feed(header_of(static_cast<std::uint32_t>(kMaxFrameBytes + 1)));
      FAIL() << "oversized frame accepted";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kOversized);
    }
  }
}

// --- body codecs -----------------------------------------------------------

TEST(NetProtocol, PredictBodiesRoundTrip) {
  PredictRequest req;
  req.shard = 3;
  req.deadline_ms = 250;
  req.rows = probe_rows(4, 6, 99);
  const Frame f = make_frame(MsgType::kBatchPredict, 11, req);
  const PredictRequest back = decode_body<PredictRequest>(f);
  EXPECT_EQ(back.shard, req.shard);
  EXPECT_EQ(back.deadline_ms, req.deadline_ms);
  ASSERT_EQ(back.rows.rows(), req.rows.rows());
  ASSERT_EQ(back.rows.cols(), req.rows.cols());
  for (std::size_t r = 0; r < req.rows.rows(); ++r)
    for (std::size_t c = 0; c < req.rows.cols(); ++c)
      EXPECT_EQ(back.rows(r, c), req.rows(r, c));

  PredictResponse resp;
  resp.values = {1.5, -2.25, 1e300, 0.0};
  const auto resp_back = decode_body<PredictResponse>(
      make_frame(MsgType::kPredictOk, 11, resp));
  EXPECT_EQ(resp_back.values, resp.values);
}

TEST(NetProtocol, StatusAndErrorBodiesRoundTrip) {
  StatusResponse status;
  status.fleet_steps = 77;
  status.shards.push_back(
      {"DVol", "Ridge", "LEAF", 1, true, 72, 10, 12, false});
  status.shards.push_back({"PU", "GBDT", "Static", 0, false, 64, 0, 0, true});
  const auto status_back = decode_body<StatusResponse>(
      make_frame(MsgType::kStatusOk, 1, status));
  EXPECT_EQ(status_back.fleet_steps, status.fleet_steps);
  ASSERT_EQ(status_back.shards.size(), 2u);
  EXPECT_EQ(status_back.shards[0], status.shards[0]);
  EXPECT_EQ(status_back.shards[1], status.shards[1]);

  const ErrorResponse err{ErrorCode::kShed, "deadline expired"};
  const auto err_back =
      decode_body<ErrorResponse>(make_frame(MsgType::kError, 2, err));
  EXPECT_EQ(err_back.code, err.code);
  EXPECT_EQ(err_back.message, err.message);
}

TEST(NetProtocol, BodyDamageIsNonFatal) {
  // Trailing bytes after a well-formed body.
  Frame f = make_frame(MsgType::kScrapeMetrics, 5, ScrapeRequest{true});
  f.payload.push_back(0xEE);
  try {
    decode_body<ScrapeRequest>(f);
    FAIL() << "trailing bytes accepted";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kMalformed);
    EXPECT_FALSE(e.fatal());
  }
  // Truncated body: the serializer's bounds check surfaces as kMalformed.
  Frame g = make_frame(MsgType::kBatchPredict, 6,
                       PredictRequest{0, 0, probe_rows(2, 3, 1)});
  g.payload.resize(g.payload.size() / 2);
  try {
    decode_body<PredictRequest>(g);
    FAIL() << "truncated body accepted";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kMalformed);
    EXPECT_FALSE(e.fatal());
  }
  // A bogus matrix dimension is caught before any giant allocation.
  io::Serializer s;
  s.put_u32(0);
  s.put_u32(0);
  s.put_u32(0xFFFFFFFF);  // rows
  s.put_u32(0xFFFFFFFF);  // cols
  Frame h{MsgType::kBatchPredict, 7,
          std::vector<std::uint8_t>(s.bytes().begin(), s.bytes().end())};
  EXPECT_THROW(decode_body<PredictRequest>(h), ProtocolError);
}

TEST(NetProtocol, ParseHostPort) {
  const auto [host, port] = parse_host_port("127.0.0.1:8080");
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 8080);
  EXPECT_THROW(parse_host_port("nocolon"), std::invalid_argument);
  EXPECT_THROW(parse_host_port(":1234"), std::invalid_argument);
  EXPECT_THROW(parse_host_port("host:"), std::invalid_argument);
  EXPECT_THROW(parse_host_port("host:99999"), std::invalid_argument);
  EXPECT_THROW(parse_host_port("host:12x"), std::invalid_argument);
  EXPECT_THROW(parse_host_port("host:0"), std::invalid_argument);
}

// --- chaos net fault points ------------------------------------------------

TEST(NetChaos, ConfigParsesAndRoundTripsNetFaults) {
  const chaos::ChaosConfig cfg =
      chaos::ChaosConfig::parse("seed=9,net-truncate=0.5,net-garbage=0.25");
  EXPECT_TRUE(cfg.any());
  EXPECT_DOUBLE_EQ(cfg.net_truncate, 0.5);
  EXPECT_DOUBLE_EQ(cfg.net_garbage, 0.25);
  const chaos::ChaosConfig back = chaos::ChaosConfig::parse(cfg.to_string());
  EXPECT_DOUBLE_EQ(back.net_truncate, cfg.net_truncate);
  EXPECT_DOUBLE_EQ(back.net_garbage, cfg.net_garbage);
  EXPECT_EQ(back.seed, cfg.seed);

  // Decisions are pure functions of (seed, conn, seq).
  const chaos::Engine a(cfg), b(cfg);
  int fired = 0;
  for (std::uint64_t conn = 1; conn <= 8; ++conn)
    for (std::uint64_t seq = 0; seq < 16; ++seq) {
      EXPECT_EQ(a.net_truncate(conn, seq), b.net_truncate(conn, seq));
      EXPECT_EQ(a.net_garbage(conn, seq), b.net_garbage(conn, seq));
      fired += a.net_truncate(conn, seq) ? 1 : 0;
    }
  EXPECT_GT(fired, 0);          // p=0.5 over 128 draws
  EXPECT_LT(fired, 128);
}

// --- loopback end-to-end ---------------------------------------------------

TEST_F(NetFixture, LoopbackPredictMatchesDirectPredict) {
  auto fleet = ready_fleet(2);
  Loopback loop(*fleet);
  LoopbackConnection& conn = loop.connect();

  const int cols = fleet->shard_num_features(0);
  const Matrix rows = probe_rows(3, static_cast<std::size_t>(cols), 2024);
  conn.send(make_frame(MsgType::kBatchPredict, 42,
                       PredictRequest{0, 0, rows}));
  EXPECT_EQ(loop.core().queued(), 1u);
  EXPECT_EQ(loop.pump(), 1u);

  const std::optional<Frame> resp = conn.receive();
  ASSERT_TRUE(resp.has_value());
  ASSERT_EQ(resp->type, MsgType::kPredictOk);
  EXPECT_EQ(resp->request_id, 42u);
  const PredictResponse body = decode_body<PredictResponse>(*resp);

  std::vector<double> want(rows.rows());
  fleet->predict_shard(0, rows, want);
  EXPECT_EQ(body.values, want);
}

TEST_F(NetFixture, LoopbackStatusAndScrapeAnsweredInline) {
  auto fleet = ready_fleet(3);
  Loopback loop(*fleet);
  LoopbackConnection& conn = loop.connect();

  conn.send(Frame{MsgType::kFleetStatus, 1, {}});
  const std::optional<Frame> sresp = conn.receive();  // no pump needed
  ASSERT_TRUE(sresp.has_value());
  ASSERT_EQ(sresp->type, MsgType::kStatusOk);
  const StatusResponse status = decode_body<StatusResponse>(*sresp);
  ASSERT_EQ(status.shards.size(), 3u);
  for (const ShardStatus& s : status.shards) {
    EXPECT_TRUE(s.ready);
    EXPECT_GT(s.num_features, 0u);
    EXPECT_EQ(s.model, "Ridge");
  }

  conn.send(make_frame(MsgType::kScrapeMetrics, 2, ScrapeRequest{false}));
  const std::optional<Frame> text = conn.receive();
  ASSERT_TRUE(text.has_value());
  ASSERT_EQ(text->type, MsgType::kScrapeOk);
  EXPECT_NE(decode_body<ScrapeResponse>(*text).body.find("leaf_fleet_"),
            std::string::npos);

  conn.send(make_frame(MsgType::kScrapeMetrics, 3, ScrapeRequest{true}));
  const std::optional<Frame> json = conn.receive();
  ASSERT_TRUE(json.has_value());
  const std::string body = decode_body<ScrapeResponse>(*json).body;
  EXPECT_EQ(body.front(), '{');
  EXPECT_NE(body.find("\"metrics\""), std::string::npos);
}

TEST_F(NetFixture, BatcherCoalescesConcurrentRequestsIntoOnePass) {
  auto fleet = ready_fleet(2);
  Loopback loop(*fleet);
  LoopbackConnection& a = loop.connect();
  LoopbackConnection& b = loop.connect();
  LoopbackConnection& c = loop.connect();

  obs::MetricsRegistry::global().reset_values();
  const int cols = fleet->shard_num_features(0);
  a.send(make_frame(MsgType::kPredict, 1,
                    PredictRequest{0, 0, probe_rows(1, cols, 1)}));
  b.send(make_frame(MsgType::kBatchPredict, 2,
                    PredictRequest{0, 0, probe_rows(2, cols, 2)}));
  c.send(make_frame(MsgType::kPredict, 3,
                    PredictRequest{0, 0, probe_rows(1, cols, 3)}));
  EXPECT_EQ(loop.core().queued(), 3u);

  EXPECT_EQ(loop.pump(), 3u);  // three responses, ONE batch
  if (obs::kCompiledIn) {
    EXPECT_EQ(obs::MetricsRegistry::global()
                  .counter("leaf_net_batches_total")
                  .value(),
              1u);
  }
  ASSERT_TRUE(a.receive().has_value());
  ASSERT_TRUE(b.receive().has_value());
  ASSERT_TRUE(c.receive().has_value());

  // The coalesced result equals one direct pass over the stacked rows.
  LoopbackConnection& d = loop.connect();
  const Matrix rows = probe_rows(2, cols, 2);
  d.send(make_frame(MsgType::kBatchPredict, 9, PredictRequest{0, 0, rows}));
  loop.pump();
  const PredictResponse got = decode_body<PredictResponse>(*d.receive());
  std::vector<double> want(rows.rows());
  fleet->predict_shard(0, rows, want);
  EXPECT_EQ(got.values, want);
}

TEST_F(NetFixture, QueueFullGetsTypedRetry) {
  auto fleet = ready_fleet(1);
  NetConfig cfg;
  cfg.queue_depth = 2;
  Loopback loop(*fleet, cfg);
  LoopbackConnection& conn = loop.connect();

  const int cols = fleet->shard_num_features(0);
  for (std::uint64_t id = 1; id <= 3; ++id)
    conn.send(make_frame(MsgType::kPredict, id,
                         PredictRequest{0, 0, probe_rows(1, cols, id)}));

  // The third was refused immediately with kRetry; the queue holds two.
  EXPECT_EQ(loop.core().queued(), 2u);
  const std::optional<Frame> retry = conn.receive();
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->type, MsgType::kError);
  EXPECT_EQ(retry->request_id, 3u);
  EXPECT_EQ(decode_body<ErrorResponse>(*retry).code, ErrorCode::kRetry);

  EXPECT_EQ(loop.pump(), 2u);
  EXPECT_EQ(conn.receive()->request_id, 1u);
  EXPECT_EQ(conn.receive()->request_id, 2u);
}

TEST_F(NetFixture, ExpiredDeadlineIsShedNeverSilentlyDropped) {
  auto fleet = ready_fleet(1);
  Loopback loop(*fleet);
  LoopbackConnection& conn = loop.connect();

  const int cols = fleet->shard_num_features(0);
  conn.send(make_frame(MsgType::kPredict, 1,
                       PredictRequest{0, /*deadline_ms=*/10,
                                      probe_rows(1, cols, 1)}));
  conn.send(make_frame(MsgType::kPredict, 2,
                       PredictRequest{0, /*deadline_ms=*/0,
                                      probe_rows(1, cols, 2)}));
  loop.clock().advance_ms(50);  // request 1's budget expires in queue
  EXPECT_EQ(loop.pump(), 2u);   // one shed + one served — both answered

  const std::optional<Frame> served = conn.receive();
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(served->type, MsgType::kPredictOk);
  EXPECT_EQ(served->request_id, 2u);
  const std::optional<Frame> shed = conn.receive();
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->type, MsgType::kError);
  EXPECT_EQ(shed->request_id, 1u);
  EXPECT_EQ(decode_body<ErrorResponse>(*shed).code, ErrorCode::kShed);
}

TEST_F(NetFixture, BadRequestsAnsweredTypedAndConnectionSurvives) {
  auto fleet = ready_fleet(2);
  Loopback loop(*fleet);
  LoopbackConnection& conn = loop.connect();
  const int cols = fleet->shard_num_features(0);

  // Shard outside the fleet.
  conn.send(make_frame(MsgType::kPredict, 1,
                       PredictRequest{9, 0, probe_rows(1, cols, 1)}));
  EXPECT_EQ(decode_body<ErrorResponse>(*conn.receive()).code,
            ErrorCode::kBadShard);
  // Wrong feature count.
  conn.send(make_frame(MsgType::kPredict, 2,
                       PredictRequest{0, 0, probe_rows(1, cols + 5, 2)}));
  EXPECT_EQ(decode_body<ErrorResponse>(*conn.receive()).code,
            ErrorCode::kMalformed);
  // Batch beyond max_batch_rows.
  conn.send(make_frame(
      MsgType::kBatchPredict, 3,
      PredictRequest{0, 0,
                     probe_rows(loop.core().config().max_batch_rows + 1,
                                cols, 3)}));
  EXPECT_EQ(decode_body<ErrorResponse>(*conn.receive()).code,
            ErrorCode::kOversized);
  // kPredict with more than one row.
  conn.send(make_frame(MsgType::kPredict, 4,
                       PredictRequest{0, 0, probe_rows(2, cols, 4)}));
  EXPECT_EQ(decode_body<ErrorResponse>(*conn.receive()).code,
            ErrorCode::kMalformed);

  // After all that abuse the connection still serves a valid request.
  EXPECT_TRUE(conn.alive());
  conn.send(make_frame(MsgType::kPredict, 5,
                       PredictRequest{0, 0, probe_rows(1, cols, 5)}));
  loop.pump();
  EXPECT_EQ(conn.receive()->type, MsgType::kPredictOk);
}

TEST_F(NetFixture, FramingDamageKillsOnlyThatConnection) {
  auto fleet = ready_fleet(2);
  Loopback loop(*fleet);
  LoopbackConnection& evil = loop.connect();
  LoopbackConnection& good = loop.connect();
  const int cols = fleet->shard_num_features(0);

  // Queue a request on the evil connection, then wreck its stream.
  evil.send(make_frame(MsgType::kPredict, 1,
                       PredictRequest{0, 0, probe_rows(1, cols, 1)}));
  std::vector<std::uint8_t> garbage = {'B', 'A', 'D', '!', 0, 1, 2, 3};
  evil.send_bytes(garbage);
  EXPECT_FALSE(evil.alive());
  EXPECT_FALSE(loop.core().is_open(evil.id()));
  // Its queued request was discarded with it.
  EXPECT_EQ(loop.core().queued(), 0u);

  // The neighbour connection and the fleet are untouched.
  EXPECT_TRUE(good.alive());
  good.send(make_frame(MsgType::kPredict, 2,
                       PredictRequest{0, 0, probe_rows(1, cols, 2)}));
  EXPECT_EQ(loop.pump(), 1u);
  EXPECT_EQ(good.receive()->type, MsgType::kPredictOk);
  EXPECT_TRUE(fleet->step());  // fleet keeps stepping
}

TEST_F(NetFixture, CloseCountsDiscardedPredicts) {
  auto fleet = ready_fleet(1);
  Loopback loop(*fleet);
  LoopbackConnection& conn = loop.connect();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.reset_values();

  conn.send(make_frame(MsgType::kPredict, 1,
                       PredictRequest{0, 0,
                                      probe_rows(1, fleet->shard_num_features(0),
                                                 1)}));
  EXPECT_EQ(loop.core().queued(), 1u);
  conn.close();
  if (obs::kCompiledIn) {
    EXPECT_EQ(reg.gauge("leaf_net_queue_depth").value(), 0.0);
  }
  EXPECT_EQ(loop.pump(), 0u);
  EXPECT_EQ(loop.core().queued(), 0u);

  // Every predict request is either answered or counted as discarded.
  if (obs::kCompiledIn) {
    const std::uint64_t requests =
        reg.counter("leaf_net_requests_total", obs::label("type", "predict"))
            .value();
    const std::uint64_t answered =
        reg.counter("leaf_net_responses_total",
                    obs::label("type", "predict_ok"))
            .value();
    const std::uint64_t discards = reg.counter_sum("leaf_net_discards_total");
    EXPECT_EQ(requests, 1u);
    EXPECT_EQ(discards, 1u);
    EXPECT_EQ(requests, answered + discards);
    EXPECT_EQ(reg.gauge("leaf_net_queue_depth").value(), 0.0);
  }
}

TEST_F(NetFixture, ResponseTypedFrameOnServerIsFatal) {
  auto fleet = ready_fleet(1);
  Loopback loop(*fleet);
  LoopbackConnection& conn = loop.connect();
  conn.send(make_frame(MsgType::kPredictOk, 1, PredictResponse{{1.0}}));
  EXPECT_FALSE(conn.alive());
}

// --- determinism -----------------------------------------------------------

/// The non-wall-clock net telemetry: every leaf_net_* series except
/// *_seconds* is a pure function of the request schedule.
std::string masked_net_scrape() {
  std::istringstream in(obs::MetricsRegistry::global().scrape());
  std::string line, out;
  while (std::getline(in, line))
    if (line.find("leaf_net_") != std::string::npos &&
        line.find("_seconds") == std::string::npos)
      out += line + "\n";
  return out;
}

TEST_F(NetFixture, ResponsesAndTelemetryIdenticalAtAnyThreadCount) {
  ThreadGuard guard;

  // One fixed request schedule over 3 connections against a 4-shard
  // fleet; returns every connection's full decoded response stream plus
  // the masked scrape.
  const auto run = [&](int threads) {
    par::set_threads(threads);
    auto fleet = ready_fleet(4);
    Loopback loop(*fleet);
    obs::MetricsRegistry::global().reset_values();
    std::vector<LoopbackConnection*> conns;
    for (int i = 0; i < 3; ++i) conns.push_back(&loop.connect());

    std::uint64_t id = 1;
    for (int round = 0; round < 6; ++round) {
      for (int c = 0; c < 3; ++c) {
        const std::uint32_t shard = static_cast<std::uint32_t>((round + c) % 4);
        const std::size_t rows = 1 + (round + c) % 3;
        const std::uint32_t deadline = (round == 4 && c == 1) ? 5 : 0;
        const int cols = fleet->shard_num_features(shard);
        conns[c]->send(make_frame(
            rows == 1 ? MsgType::kPredict : MsgType::kBatchPredict, id,
            PredictRequest{shard, deadline, probe_rows(rows, cols, id)}));
        ++id;
      }
      if (round == 4) loop.clock().advance_ms(50);  // expire the deadline
      if (round % 2 == 1) loop.pump();
    }
    conns[0]->send(Frame{MsgType::kFleetStatus, id++, {}});
    while (loop.core().queued() > 0) loop.pump();

    std::vector<std::vector<Frame>> responses(conns.size());
    for (std::size_t c = 0; c < conns.size(); ++c)
      while (std::optional<Frame> f = conns[c]->receive())
        responses[c].push_back(std::move(*f));
    return std::make_pair(std::move(responses), masked_net_scrape());
  };

  const auto [resp1, scrape1] = run(1);
  const auto [resp4, scrape4] = run(4);

  ASSERT_EQ(resp1.size(), resp4.size());
  for (std::size_t c = 0; c < resp1.size(); ++c) {
    ASSERT_EQ(resp1[c].size(), resp4[c].size()) << "conn " << c;
    for (std::size_t i = 0; i < resp1[c].size(); ++i)
      EXPECT_EQ(resp1[c][i], resp4[c][i])
          << "conn " << c << " response " << i;
  }
  if (obs::kCompiledIn) {
    EXPECT_FALSE(scrape1.empty());
  }
  EXPECT_EQ(scrape1, scrape4);
}

TEST_F(NetFixture, ServingQueriesPreservesCrashEquivalence) {
  // Interleaving net queries with fleet steps, snapshotting, "crashing",
  // and resuming must reach byte-identical results to a run that never
  // served or stopped: predictions are pure reads.
  auto uninterrupted = std::make_unique<serve::FleetRuntime>(
      ds, scale, specs(3));
  uninterrupted->run_steps(UINT64_MAX);

  auto victim = std::make_unique<serve::FleetRuntime>(ds, scale, specs(3));
  {
    Loopback loop(*victim);
    LoopbackConnection& conn = loop.connect();
    victim->run_steps(1);
    for (int step = 0; step < 2; ++step) {
      const int cols = victim->shard_num_features(0);
      conn.send(make_frame(
          MsgType::kBatchPredict, static_cast<std::uint64_t>(step),
          PredictRequest{0, 0, probe_rows(2, cols, 7 + step)}));
      loop.pump();
      ASSERT_EQ(conn.receive()->type, MsgType::kPredictOk);
      victim->step();
    }
  }
  const std::string dir = ::testing::TempDir() + "leaf_net_crash";
  std::filesystem::create_directories(dir);
  victim->snapshot(dir);
  victim.reset();  // "SIGKILL"

  serve::FleetRuntime revived(ds, scale, specs(3));
  revived.restore(dir);
  revived.run_steps(UINT64_MAX);

  const auto want = uninterrupted->results();
  const auto got = revived.results();
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].nrmse, got[i].nrmse) << "shard " << i;
    EXPECT_EQ(want[i].retrain_days, got[i].retrain_days) << "shard " << i;
    EXPECT_EQ(want[i].drift_days, got[i].drift_days) << "shard " << i;
  }
  EXPECT_EQ(uninterrupted->events_jsonl(false), revived.events_jsonl(false));
}

// --- fuzz-lite -------------------------------------------------------------

TEST_F(NetFixture, FuzzLiteMutatedFramesNeverKillTheFleet) {
  // The ~130 dropped connections below each log a warning; mute them.
  const obs::LogLevel prev_level = obs::log_level();
  obs::set_log_level(obs::LogLevel::kError);
  auto fleet = ready_fleet(2);
  Loopback loop(*fleet);
  const int cols = fleet->shard_num_features(0);
  const std::vector<std::uint8_t> valid = encode_frame(make_frame(
      MsgType::kBatchPredict, 123, PredictRequest{0, 0,
                                                  probe_rows(2, cols, 5)}));

  Rng rng(0xF0220);
  int dropped = 0, answered = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> bytes = valid;
    switch (rng.index(3)) {
      case 0:  // flip one bit anywhere
        bytes[rng.index(bytes.size())] ^=
            static_cast<std::uint8_t>(1u << rng.index(8));
        break;
      case 1:  // truncate (peer dies mid-frame)
        bytes.resize(rng.index(bytes.size()));
        break;
      default:
        // Scribble on the correlation id (CRC covers only the payload):
        // still a well-formed frame, so the server must answer it.
        bytes[9 + rng.index(8)] =
            static_cast<std::uint8_t>(rng.index(256));
        break;
    }
    LoopbackConnection& conn = loop.connect();
    try {
      conn.send_bytes(bytes);
    } catch (const std::exception&) {
      // send on an already-dropped conn; fine
    }
    loop.pump();
    if (!conn.alive()) {
      ++dropped;
    } else {
      while (conn.receive().has_value()) ++answered;
    }
  }
  // The exact split is seed-dependent; what matters is that both typed
  // outcomes occur and the server survived all 200.
  EXPECT_GT(dropped, 0);
  EXPECT_GT(answered, 0);

  LoopbackConnection& fresh = loop.connect();
  fresh.send(Frame{MsgType::kFleetStatus, 1, {}});
  ASSERT_TRUE(fresh.receive().has_value());
  EXPECT_TRUE(fleet->step());
  obs::set_log_level(prev_level);
}

// --- telemetry queries (leaf::tsdb over LNET) ------------------------------

TEST(NetProtocol, SeriesBodiesRoundTrip) {
  SeriesRequest req;
  req.query.name = "leaf_fleet_*";
  req.query.labels_contains = "shard=\"1\"";
  req.query.start_step = 7;
  req.query.end_step = 93;
  req.query.resolution = tsdb::Resolution::kTenStep;
  req.query.max_series = 5;
  const tsdb::Store::Query back =
      decode_body<SeriesRequest>(make_frame(MsgType::kQuerySeries, 9, req))
          .query;
  EXPECT_EQ(back.name, req.query.name);
  EXPECT_EQ(back.labels_contains, req.query.labels_contains);
  EXPECT_EQ(back.start_step, req.query.start_step);
  EXPECT_EQ(back.end_step, req.query.end_step);
  EXPECT_EQ(back.resolution, req.query.resolution);
  EXPECT_EQ(back.max_series, req.query.max_series);
  // A cap wider than the u32 field saturates instead of wrapping small.
  req.query.max_series = (std::size_t{1} << 32) + 1;
  EXPECT_EQ(
      decode_body<SeriesRequest>(make_frame(MsgType::kQuerySeries, 9, req))
          .query.max_series,
      0xFFFFFFFFu);

  SeriesResponse resp;
  resp.last_step = 93;
  resp.truncated = true;
  tsdb::SeriesData sd;
  sd.name = "leaf_fleet_steps";
  sd.labels = "{shard=\"1\"}";
  sd.resolution = tsdb::Resolution::kTenStep;
  sd.steps = {10, 20};
  sd.values = {4.5, 14.5};
  sd.min = {0.0, 10.0};
  sd.max = {9.0, 19.0};
  sd.counts = {10, 10};
  resp.series.push_back(sd);
  const auto resp_back = decode_body<SeriesResponse>(
      make_frame(MsgType::kQuerySeriesOk, 9, resp));
  EXPECT_EQ(resp_back.last_step, resp.last_step);
  EXPECT_TRUE(resp_back.truncated);
  ASSERT_EQ(resp_back.series.size(), 1u);
  EXPECT_EQ(resp_back.series[0], sd);
}

TEST(NetProtocol, SeriesFramesKeepTheirWireBytes) {
  // FNV-1a goldens of an encoded query and a query result holding one raw
  // and one 10-step series.  The bodies are the tsdb types written field
  // by field; a change to either struct must not move a wire byte.
  SeriesRequest req;
  req.query.name = "leaf_fleet_*";
  req.query.labels_contains = "shard=\"1\"";
  req.query.start_step = 7;
  req.query.end_step = 93;
  req.query.resolution = tsdb::Resolution::kTenStep;
  req.query.max_series = 5;
  Frame query = make_frame(MsgType::kQuerySeries, 9, req);
  query.trace = obs::derive_trace_id(3, 9);
  query.parent_span = 0x1234;
  const std::vector<std::uint8_t> q = encode_frame(query);
  EXPECT_EQ(q.size(), 107u);
  EXPECT_EQ(fnv1a(q.data(), q.size()), 0x4194fd1e0ad52d3fULL);

  SeriesResponse resp;
  resp.last_step = 93;
  resp.truncated = true;
  tsdb::SeriesData raw;
  raw.name = "leaf_fleet_steps";
  raw.steps = {91, 92, 93};
  raw.values = {91.0, 92.0, 93.0};
  resp.series.push_back(raw);
  tsdb::SeriesData agg;
  agg.name = "leaf_fleet_shard_nrmse";
  agg.labels = "{shard=\"1\"}";
  agg.resolution = tsdb::Resolution::kTenStep;
  agg.steps = {80, 90};
  agg.values = {0.25, 0.5};
  agg.min = {0.125, -0.5};
  agg.max = {0.375, 1.5};
  agg.counts = {10, 4};
  resp.series.push_back(agg);
  Frame result = make_frame(MsgType::kQuerySeriesOk, 9, resp);
  result.trace = query.trace;
  const std::vector<std::uint8_t> r = encode_frame(result);
  EXPECT_EQ(r.size(), 353u);
  EXPECT_EQ(fnv1a(r.data(), r.size()), 0xd1eee2521dedd91aULL);
}

TEST(NetProtocol, SeriesRequestBadResolutionIsMalformedNotFatal) {
  // Hand-roll a body whose resolution byte names a tier that does not
  // exist; everything else is valid.
  io::Serializer s;
  s.put_string("leaf_fleet_steps");
  s.put_string("");
  s.put_u64(0);
  s.put_u64(~0ULL);
  s.put_u8(3);  // tiers are 0, 1, 2
  s.put_u32(16);
  Frame f{MsgType::kQuerySeries, 8,
          std::vector<std::uint8_t>(s.bytes().begin(), s.bytes().end())};
  try {
    decode_body<SeriesRequest>(f);
    FAIL() << "bad resolution accepted";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kMalformed);
    EXPECT_FALSE(e.fatal());
  }
}

TEST_F(NetFixture, LoopbackQuerySeriesAnsweredInline) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  auto fleet = ready_fleet(2);
  fleet->run_steps(5);
  Loopback loop(*fleet);
  LoopbackConnection& conn = loop.connect();

  // Exact-name raw query: one point per fleet step sampled so far.
  SeriesRequest req;
  req.query.name = "leaf_fleet_steps";
  conn.send(make_frame(MsgType::kQuerySeries, 1, req));
  const std::optional<Frame> resp = conn.receive();  // no pump needed
  ASSERT_TRUE(resp.has_value());
  ASSERT_EQ(resp->type, MsgType::kQuerySeriesOk);
  const SeriesResponse body = decode_body<SeriesResponse>(*resp);
  // Samples land at the pre-increment tick: newest step is tick - 1.
  EXPECT_EQ(body.last_step + 1, fleet->sample_tick());
  ASSERT_EQ(body.series.size(), 1u);
  ASSERT_EQ(body.series[0].steps.size(), 6u);
  EXPECT_EQ(body.series[0].values.back(), 6.0);

  // Prefix matcher fans out to the per-shard series too.
  SeriesRequest pre;
  pre.query.name = "leaf_fleet_*";
  pre.query.max_series = 32;
  conn.send(make_frame(MsgType::kQuerySeries, 2, pre));
  const SeriesResponse fan = decode_body<SeriesResponse>(*conn.receive());
  EXPECT_GT(fan.series.size(), 1u);
  for (std::size_t i = 1; i < fan.series.size(); ++i)
    EXPECT_LE(std::make_pair(fan.series[i - 1].name,
                             fan.series[i - 1].labels),
              std::make_pair(fan.series[i].name, fan.series[i].labels));
}

TEST_F(NetFixture, QuerySeriesOverCapIsOversizedAndConnectionSurvives) {
  auto fleet = ready_fleet(2);
  Loopback loop(*fleet);
  LoopbackConnection& conn = loop.connect();

  SeriesRequest req;
  req.query.name = "leaf_*";
  req.query.max_series = 65;  // server ceiling is 64
  conn.send(make_frame(MsgType::kQuerySeries, 1, req));
  const std::optional<Frame> resp = conn.receive();
  ASSERT_TRUE(resp.has_value());
  ASSERT_EQ(resp->type, MsgType::kError);
  EXPECT_EQ(decode_body<ErrorResponse>(*resp).code, ErrorCode::kOversized);

  // Typed refusal, not a dropped connection.
  EXPECT_TRUE(conn.alive());
  req.query.max_series = 8;
  conn.send(make_frame(MsgType::kQuerySeries, 2, req));
  EXPECT_EQ(conn.receive()->type, MsgType::kQuerySeriesOk);
}

TEST_F(NetFixture, FuzzLiteMutatedQuerySeriesFramesNeverKillTheFleet) {
  const obs::LogLevel prev_level = obs::log_level();
  obs::set_log_level(obs::LogLevel::kError);
  auto fleet = ready_fleet(2);
  Loopback loop(*fleet);
  SeriesRequest req;
  req.query.name = "leaf_*";
  req.query.max_series = 8;
  const std::vector<std::uint8_t> valid =
      encode_frame(make_frame(MsgType::kQuerySeries, 321, req));

  Rng rng(0xF0221);
  int dropped = 0, answered = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> bytes = valid;
    switch (rng.index(3)) {
      case 0:  // flip one bit anywhere
        bytes[rng.index(bytes.size())] ^=
            static_cast<std::uint8_t>(1u << rng.index(8));
        break;
      case 1:  // truncate (peer dies mid-frame)
        bytes.resize(rng.index(bytes.size()));
        break;
      default:  // scribble on the correlation id; still well-formed
        bytes[9 + rng.index(8)] =
            static_cast<std::uint8_t>(rng.index(256));
        break;
    }
    LoopbackConnection& conn = loop.connect();
    try {
      conn.send_bytes(bytes);
    } catch (const std::exception&) {
    }
    loop.pump();
    if (!conn.alive()) {
      ++dropped;
    } else {
      while (conn.receive().has_value()) ++answered;
    }
  }
  EXPECT_GT(dropped, 0);
  EXPECT_GT(answered, 0);

  LoopbackConnection& fresh = loop.connect();
  fresh.send(make_frame(MsgType::kQuerySeries, 1, req));
  ASSERT_TRUE(fresh.receive().has_value());
  EXPECT_TRUE(fleet->step());
  obs::set_log_level(prev_level);
}

// --- real sockets ----------------------------------------------------------

TEST_F(NetFixture, TcpRoundTripAndMidFrameDisconnectSmoke) {
  auto fleet = ready_fleet(2);
  TcpServer server(*fleet, "127.0.0.1", 0);
  ASSERT_GT(server.port(), 0);

  // The server loop owns the core exclusively; the client below only
  // touches its own socket (TSAN-clean by construction).
  std::atomic<bool> stop{false};
  std::thread loop([&] {
    while (!stop.load(std::memory_order_relaxed)) server.poll_once(5);
  });

  {
    TcpClient client("127.0.0.1", server.port());
    const Frame status =
        call(client, Frame{MsgType::kFleetStatus, 1, {}});
    ASSERT_EQ(status.type, MsgType::kStatusOk);
    EXPECT_EQ(decode_body<StatusResponse>(status).shards.size(), 2u);

    const int cols =
        static_cast<int>(decode_body<StatusResponse>(status)
                             .shards[0].num_features);
    const Matrix rows = probe_rows(2, cols, 77);
    const Frame pred = call(
        client,
        make_frame(MsgType::kBatchPredict, 2, PredictRequest{0, 0, rows}));
    ASSERT_EQ(pred.type, MsgType::kPredictOk);
    std::vector<double> want(rows.rows());
    fleet->predict_shard(0, rows, want);
    EXPECT_EQ(decode_body<PredictResponse>(pred).values, want);

    const Frame scrape = call(
        client, make_frame(MsgType::kScrapeMetrics, 3, ScrapeRequest{true}));
    ASSERT_EQ(scrape.type, MsgType::kScrapeOk);
    EXPECT_EQ(decode_body<ScrapeResponse>(scrape).body.front(), '{');
  }

  // Evil client: half a frame, then gone.  The server must shrug it off.
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    const std::vector<std::uint8_t> frame =
        encode_frame(Frame{MsgType::kFleetStatus, 9, {}});
    ASSERT_GT(::write(fd, frame.data(), frame.size() / 2), 0);
    ::close(fd);
  }

  // A fresh client is still served after the mid-frame disconnect.
  {
    TcpClient client("127.0.0.1", server.port());
    client.send(Frame{MsgType::kFleetStatus, 10, {}});
    ASSERT_TRUE(client.receive().has_value());
  }

  stop.store(true);
  loop.join();
  EXPECT_GE(server.requests_served(), 4u);
}

}  // namespace
}  // namespace leaf::net
