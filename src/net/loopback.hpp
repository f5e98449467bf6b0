// In-process loopback transport: the same ServerCore, framing, admission
// control, and batching as the TCP front end, driven without sockets.
//
// A `Loopback` harness owns a ServerCore bound to a fleet and a
// ManualClock.  Tests and bench_net open any number of
// `LoopbackConnection`s, write requests (which pass through the real
// encode -> FrameDecoder -> dispatch path), advance the clock
// explicitly, and pump() the server — so batch composition, deadline
// sheds, and queue-full retries are a pure function of the request
// schedule, bit-identical at any LEAF_THREADS.  Responses come back as
// encoded bytes and are re-decoded through a client-side FrameDecoder,
// exercising both directions of the wire format.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"

namespace leaf::net {

class Loopback;

/// One client connection to a Loopback harness.  Owned by the harness;
/// valid until the harness dies.
class LoopbackConnection : public ClientTransport {
 public:
  void send(const Frame& frame) override;
  /// Raw bytes, bypassing the frame encoder — for malformed-input and
  /// truncation tests.
  void send_bytes(std::span<const std::uint8_t> bytes);

  /// Pops the next queued response (already CRC-verified through the
  /// client-side decoder); nullopt when none is queued yet.
  std::optional<Frame> receive() override;

  bool alive() const override { return !dropped_; }
  ConnId id() const { return id_; }

  /// Client-initiated close (discards this side's queued requests).
  void close();

 private:
  friend class Loopback;
  LoopbackConnection(Loopback* harness, ConnId id)
      : harness_(harness), id_(id) {}

  void deliver(std::span<const std::uint8_t> bytes);  // server -> client
  void mark_dropped(const std::string& reason);

  Loopback* harness_;
  ConnId id_;
  FrameDecoder rx_;
  std::deque<Frame> responses_;
  bool dropped_ = false;
  std::string drop_reason_;
};

class Loopback : public ResponseSink {
 public:
  explicit Loopback(serve::FleetRuntime& fleet, NetConfig cfg = {});

  /// Opens a new connection.  The reference stays valid for the
  /// harness's lifetime (connections are heap-held), including after a
  /// server-side drop — the object just reports !alive().
  LoopbackConnection& connect();

  /// Drains the server's shard queues once (shed + batch + predict +
  /// respond); returns the number of requests answered.
  std::size_t pump() { return core_.pump(*this); }

  ServerCore& core() { return core_; }
  ManualClock& clock() { return clock_; }

  // ResponseSink (server -> client delivery).
  void send(ConnId conn, std::vector<std::uint8_t> bytes) override;
  void drop(ConnId conn, const std::string& reason) override;

 private:
  friend class LoopbackConnection;

  ManualClock clock_;
  ServerCore core_;
  std::map<ConnId, std::unique_ptr<LoopbackConnection>> conns_;
  ConnId next_id_ = 1;
};

}  // namespace leaf::net
