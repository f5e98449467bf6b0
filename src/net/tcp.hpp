// POSIX TCP front end for the ServerCore, and the matching blocking
// client.
//
// `TcpServer` owns the listening socket and every accepted connection.
// It is single-threaded by design: the owner calls poll_once() from ONE
// thread (leafctl interleaves it with fleet.step() on the main thread),
// which runs one poll(2) cycle — accept new connections, read available
// bytes into each connection's frame decoder via core().ingest, pump the
// shard queues, and flush pending writes.  Sockets are non-blocking
// throughout; a peer that disappears mid-frame or writes garbage loses
// its connection (typed error first, best-effort) while the listener,
// the other connections, and the fleet keep running.
//
// `TcpClient` is the deliberately simple other half: blocking connect,
// blocking send, blocking receive of one frame at a time — all a CLI
// client or CI smoke test needs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"

namespace leaf::net {

/// Splits "host:port" (port 1..65535); throws std::invalid_argument on
/// anything else.
std::pair<std::string, std::uint16_t> parse_host_port(const std::string& s);

class TcpServer : public ResponseSink {
 public:
  /// Binds and listens on host:port (port 0 = ephemeral; see port()).
  /// Throws std::runtime_error on bind/listen failure.
  TcpServer(serve::FleetRuntime& fleet, const std::string& host,
            std::uint16_t port, NetConfig cfg = {});
  ~TcpServer() override;

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// The actually bound port (resolves an ephemeral bind).
  std::uint16_t port() const { return port_; }

  /// One event-loop cycle: waits up to timeout_ms for socket activity,
  /// then accepts / reads / dispatches / pumps / writes.  Returns the
  /// number of requests answered this cycle.
  std::size_t poll_once(int timeout_ms);

  std::uint64_t requests_served() const { return core_.requests_served(); }
  ServerCore& core() { return core_; }

  // ResponseSink: the core hands encoded responses back for buffering.
  void send(ConnId conn, std::vector<std::uint8_t> bytes) override;
  void drop(ConnId conn, const std::string& reason) override;

 private:
  struct TcpConn {
    int fd = -1;
    std::vector<std::uint8_t> out;  ///< bytes queued for the socket
    bool closing = false;           ///< close once `out` drains
  };

  void accept_ready();
  void read_ready(ConnId id);
  void write_ready(ConnId id);
  void destroy(ConnId id);

  ServerCore core_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::map<ConnId, TcpConn> conns_;
  ConnId next_id_ = 1;
};

class TcpClient : public ClientTransport {
 public:
  /// Blocking connect; throws std::runtime_error on failure.
  TcpClient(const std::string& host, std::uint16_t port);
  ~TcpClient() override;

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  void send(const Frame& frame) override;
  /// Blocks until one complete frame arrives; nullopt when the server
  /// closed the connection with no partial frame pending.
  std::optional<Frame> receive() override;
  bool alive() const override { return fd_ >= 0; }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

}  // namespace leaf::net
