// leaf::net — transport-agnostic RPC server core for the serving fleet.
//
// A `ServerCore` sits between a byte transport (the poll-based TCP front
// end in net/tcp.hpp, or the deterministic in-process loopback in
// net/loopback.hpp) and a `serve::FleetRuntime`.  The transport owns the
// bytes; the core owns framing, admission control, batching, and
// dispatch:
//
//   ingest(conn, bytes)   feeds a connection's bytes through its frame
//                         decoder.  Malformed frames (bad magic, CRC
//                         mismatch, oversized, garbage bodies) produce a
//                         typed kError response and — for stream-
//                         desynchronizing damage — kill exactly that
//                         connection.  The fleet and every other
//                         connection keep serving.  Scrape and status
//                         requests are answered inline (cheap, read-
//                         only); predict requests pass admission control
//                         and join their shard's bounded queue.
//
//   pump()                drains the per-shard queues: expired requests
//                         are SHED (typed response, never a silent
//                         drop), the survivors are coalesced — up to
//                         max_batch_rows rows — into ONE matrix and ONE
//                         predict_into pass over the shard's reusable
//                         SIMD scratch arena, then sliced back into one
//                         response per request.  Shards batch
//                         independently and in parallel on leaf::par;
//                         responses are emitted in deterministic
//                         (shard, arrival) order.
//
// Admission control: a predict request is rejected *immediately* with
// kRetry when its shard queue is at queue_depth, with kOversized when a
// single batch exceeds max_batch_rows rows, and SHED at dequeue time
// when its deadline budget expired while queued.  Deadlines are measured
// against an injectable millisecond clock: the TCP server uses the
// monotonic wall clock, while tests and bench_net use a ManualClock so
// shed behavior is a pure function of the request schedule.
//
// The core is single-driver: ingest() and pump() must be called from one
// thread (the transport's event loop).  Everything downstream is
// deterministic, so a loopback schedule produces byte-identical
// responses and identical non-wall-clock `leaf_net_*` telemetry at any
// LEAF_THREADS setting.
//
// Every request that reaches a handler is answered through one path:
// success, admission refusal, shed and malformed body alike get one
// "respond" span, one leaf_rpc_latency_seconds{type} sample, and echo the
// request's trace id — off the wire (LNET v2) or derived from
// (connection, request id).  Only framing damage, which kills the
// connection, is answered outside a request.
//
// Tracing: with set_tracer() attached, every sampled request carries a
// span tree — request → decode / admission / batch / shard-predict /
// respond — into the tracer's Chrome trace-event file.  Span ids are
// assigned, and spans flushed, only from the serial phases in
// deterministic response order, so span topology and counts are a pure
// function of the request schedule.  Only the Chrome "ts"/"dur" keys read
// the wall clock.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "net/protocol.hpp"
#include "serve/runtime.hpp"
#include "simd/simd.hpp"

namespace leaf::net {

/// Admission-control bounds.
struct NetConfig {
  /// Max queued predict requests per shard; beyond it new requests get an
  /// immediate kRetry.
  int queue_depth = 128;
  /// Max rows coalesced into one predict_into pass; a single request with
  /// more rows than this is rejected as kOversized.
  int max_batch_rows = 64;
  /// Deadline applied to requests that carry none (0 = no deadline).
  std::uint32_t default_deadline_ms = 0;
};

/// Millisecond clock the admission layer reads.  Injectable so loopback
/// tests control time explicitly (determinism) while the TCP front end
/// uses the monotonic wall clock.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual std::uint64_t now_ms() const = 0;
};

/// Monotonic wall clock (obs::monotonic_seconds).
class WallClock : public Clock {
 public:
  std::uint64_t now_ms() const override;
};

/// Manually advanced clock for deterministic deadline tests.
class ManualClock : public Clock {
 public:
  std::uint64_t now_ms() const override { return now_; }
  void advance_ms(std::uint64_t ms) { now_ += ms; }

 private:
  std::uint64_t now_ = 0;
};

using ConnId = std::uint64_t;

/// Where the core writes responses.  `send` hands encoded frame bytes
/// back to the transport; `drop` orders the transport to close the
/// connection (protocol violation).  The core never calls either from a
/// worker thread.
class ResponseSink {
 public:
  virtual ~ResponseSink() = default;
  virtual void send(ConnId conn, std::vector<std::uint8_t> bytes) = 0;
  virtual void drop(ConnId conn, const std::string& reason) = 0;
};

class ServerCore {
 public:
  /// The fleet must outlive the core.  `clock` may be null (wall clock).
  ServerCore(serve::FleetRuntime& fleet, NetConfig cfg = {},
             const Clock* clock = nullptr);

  const NetConfig& config() const { return cfg_; }

  /// Registers / forgets a connection.  close() discards its queued
  /// requests (the peer is gone; answering would write to a dead socket)
  /// and counts them in leaf_net_discards_total.
  void open(ConnId conn);
  void close(ConnId conn);
  bool is_open(ConnId conn) const { return conns_.count(conn) != 0; }

  /// Feeds connection bytes.  May emit immediate responses (errors,
  /// scrape, status) through `sink`, including sink.drop for fatal
  /// framing damage.  Unknown connections are ignored (already dropped).
  void ingest(ConnId conn, std::span<const std::uint8_t> bytes,
              ResponseSink& sink);

  /// Drains every shard queue (shed + batch + predict + respond).
  /// Returns the number of requests answered this pump.
  std::size_t pump(ResponseSink& sink);

  /// Total requests answered (any response type) since construction —
  /// the `--serve-requests N` termination condition.
  std::uint64_t requests_served() const { return requests_served_; }
  /// Queued predict requests not yet pumped.
  std::size_t queued() const;

  /// Builds the kStatusOk body for the current fleet state.
  StatusResponse status() const;

  /// Attaches (or detaches, with nullptr) the distributed-tracing sink.
  /// The tracer must outlive the core; it is only written from the
  /// serial ingest/pump phases.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  struct Pending {
    ConnId conn = 0;
    std::uint64_t request_id = 0;
    Matrix rows;
    std::uint64_t arrival_ms = 0;
    std::uint32_t deadline_ms = 0;  ///< 0 = none
    std::uint64_t seq = 0;          ///< global arrival order
    MsgType type = MsgType::kPredict;
    obs::TraceId trace{};           ///< wire trace id or derived
    std::uint64_t parent_span = 0;  ///< caller's span id off the wire
    bool traced = false;            ///< tracer attached AND id sampled
    double arrival_s = 0.0;         ///< for the latency percentile series
    obs::SpanCollector spans;       ///< request/decode/admission/respond
  };

  void handle_frame(ConnId conn, const Frame& frame, ResponseSink& sink);
  /// A request's Pending: trace context and, when sampled, the root
  /// "request" span.  Made before anything can throw a non-fatal error.
  Pending begin_request(ConnId conn, const Frame& frame);
  /// Decodes the request body inside a "decode" span.
  template <typename Body>
  Body decode(Pending& p, const Frame& frame);
  void admit_predict(Pending& p, const Frame& frame, ResponseSink& sink);
  /// The one answer path: sends `bytes` (an encoded `type` frame) in a
  /// "respond" span, flushes the span tree, records the latency sample.
  void finish(Pending& p, MsgType type, std::vector<std::uint8_t> bytes,
              ResponseSink& sink);
  /// finish() with a typed kError body.
  void finish_error(Pending& p, ErrorCode code, const std::string& message,
                    ResponseSink& sink);
  /// Answers framing damage, which has no request to attach to.
  void respond_error(ConnId conn, ErrorCode code, const std::string& message,
                     ResponseSink& sink);
  /// Counts and hands one encoded response to the sink.
  void transmit(ConnId conn, MsgType type, std::vector<std::uint8_t> bytes,
                ResponseSink& sink);
  /// Assigns deterministic span ids to a sampled Pending's collected
  /// spans and writes them to the tracer.  Serial phases only.
  void flush_trace(Pending& p);

  serve::FleetRuntime* fleet_;
  NetConfig cfg_;
  const Clock* clock_;
  WallClock wall_clock_;
  std::map<ConnId, FrameDecoder> conns_;
  std::vector<std::deque<Pending>> shard_queues_;  ///< one per shard
  std::vector<simd::AlignedBuffer> shard_scratch_; ///< predict output arenas
  std::uint64_t next_seq_ = 0;
  std::uint64_t requests_served_ = 0;
  obs::Tracer* tracer_ = nullptr;
};

/// Scrape-output selection shared by leafctl (both modes) and the RPC
/// scrape path: JSON always comes from the process registry; text comes
/// from the fleet's deterministic `leaf_fleet_*` scrape when a fleet is
/// at hand, else from the registry alone.
std::string scrape_output(const serve::FleetRuntime* fleet, bool json);

}  // namespace leaf::net
