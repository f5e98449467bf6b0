// serve_loopback and serve_mixed_tcp: predictions served by leaf::net from
// the reference fleet (dataset and fleet seed kReferenceSeed); --seed
// drives the request stream.
//
//   serve_loopback   the fleet frozen after its initial fits (even shards
//                    GBDT, odd shards RandomForest), a closed loop of four
//                    in-process connections with one request outstanding
//                    each, alternating 1-row kPredict and 32-row
//                    kBatchPredict.  No kernel and no wall-clock
//                    deadlines, so the codec, framing and batching costs
//                    show with little noise.
//   serve_mixed_tcp  the `leafctl serve` loop (step, snapshot every
//                    kSnapshotEvery steps, poll_once(0)) on a server
//                    thread over the 6-shard LEAF fleet, while a generator
//                    thread sends open-loop over one TCP connection at
//                    kRate requests/s, 75% 1-row and 25% 8-row.
//                    Predictions wait behind mitigation steps; latency is
//                    timed from when each request was due.
//
// Every OK response is compared bit for bit with FleetRuntime::predict_shard
// on the same rows: precomputed for the frozen fleet, and replayed step by
// step for the stepping one.  Requests carry no deadline and the shard
// queues are deep, so a correct server answers every request OK.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <set>
#include <thread>
#include <tuple>

#include "bench.hpp"
#include "build_info.hpp"
#include "common/calendar.hpp"
#include "data/features.hpp"
#include "net/loopback.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace leafbench {

namespace {

using leaf::serve::FleetRuntime;
using leaf::serve::ShardSpec;
namespace net = leaf::net;

constexpr std::size_t kPoolSize = 512;
constexpr int kLoopbackConns = 4;
/// serve_loopback passes, each followed by a snapshot and a restore.
constexpr int kLoopbackPasses = 10;
constexpr double kRate = 1000.0;          ///< serve_mixed_tcp requests/s
/// Nominal seconds of one serve_mixed_tcp pass on the reference host (see
/// fleet_workloads.cpp): passes = --seconds / nominal.
constexpr double kMixedPassSeconds = 7.5;
constexpr double kDrainTimeoutS = 30.0;   ///< wait for stragglers, then fail
constexpr int kQueueDepth = 4096;

struct Request {
  std::uint32_t shard = 0;
  leaf::Matrix rows;
  std::vector<double> expected;  ///< frozen fleet only
};

/// kPoolSize requests drawn from the seed: a shard, then real feature rows
/// of that shard's KPI from the 60 days before the anchor.
std::vector<Request> request_pool(const leaf::data::CellularDataset& ds,
                                  const std::vector<ShardSpec>& specs,
                                  std::uint64_t seed,
                                  std::size_t (*rows_of)(std::size_t,
                                                         leaf::Rng&)) {
  const int anchor = leaf::cal::anchor_2018_07_01();
  std::vector<leaf::Matrix> source;
  for (const ShardSpec& s : specs)
    source.push_back(
        leaf::data::Featurizer(ds, s.kpi).window(anchor - 59, anchor).X);
  leaf::Rng rng(seed);
  std::vector<Request> pool(kPoolSize);
  for (std::size_t j = 0; j < kPoolSize; ++j) {
    Request& q = pool[j];
    q.shard = static_cast<std::uint32_t>(rng.index(specs.size()));
    const leaf::Matrix& src = source[q.shard];
    const std::size_t n = rows_of(j, rng);
    q.rows = leaf::Matrix(n, src.cols());
    for (std::size_t i = 0; i < n; ++i) {
      const auto row = src.row(rng.index(src.rows()));
      std::copy(row.begin(), row.end(), q.rows.row(i).begin());
    }
  }
  return pool;
}

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Client-minted trace id carrying the request number, so server spans can
/// be joined with client timings.
leaf::obs::TraceId trace_of(std::uint64_t k) {
  leaf::obs::TraceId id{};
  for (int i = 0; i < 8; ++i) id[i] = static_cast<std::uint8_t>(k >> (8 * i));
  id[15] = 0x1b;
  return id;
}

std::vector<std::uint8_t> encode_request(std::uint64_t k, const Request& q) {
  net::Frame f = net::make_frame(
      q.rows.rows() == 1 ? net::MsgType::kPredict : net::MsgType::kBatchPredict,
      k, net::PredictRequest{q.shard, 0, q.rows});
  f.trace = trace_of(k);
  return net::encode_frame(f);
}

net::NetConfig net_config() {
  net::NetConfig cfg;
  cfg.queue_depth = kQueueDepth;
  return cfg;
}

// --- trace file ------------------------------------------------------------

struct SpanRec {
  std::string name;
  std::uint64_t k = 0;  ///< request number (from the trace id)
  std::uint64_t tid = 0, ts_us = 0, dur_us = 0, rows = 0;
  Interval iv() const {
    return {static_cast<double>(ts_us) * 1e-6,
            static_cast<double>(ts_us + dur_us) * 1e-6};
  }
};

bool field_u64(const std::string& line, const char* key, std::uint64_t& out) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return false;
  out = std::strtoull(line.c_str() + at + std::strlen(key), nullptr, 10);
  return true;
}

/// Parses the Chrome trace-event records obs::Tracer writes (one per line).
std::vector<SpanRec> read_trace(const std::string& path) {
  std::vector<SpanRec> spans;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t name_at = line.find("{\"name\": \"");
    if (name_at == std::string::npos) continue;
    SpanRec s;
    const std::size_t b = name_at + 10;
    s.name = line.substr(b, line.find('"', b) - b);
    field_u64(line, "\"tid\": ", s.tid);
    field_u64(line, "\"ts\": ", s.ts_us);
    field_u64(line, "\"dur\": ", s.dur_us);
    field_u64(line, "\"rows\": ", s.rows);
    const std::size_t t = line.find("\"trace_id\": \"");
    if (t != std::string::npos) {
      for (int i = 0; i < 8; ++i) {
        const std::string byte = line.substr(t + 13 + 2 * i, 2);
        s.k |= std::strtoull(byte.c_str(), nullptr, 16) << (8 * i);
      }
    }
    spans.push_back(std::move(s));
  }
  return spans;
}

/// Server-side layer times of a traced pass.  Batch and shard-predict spans
/// are copied into every request of their batch: counted once, as the
/// union over shards (two threads run them concurrently).
struct SpanSummary {
  double decode_s = 0.0, admission_s = 0.0, respond_s = 0.0;
  double batch_union_s = 0.0, predict_union_s = 0.0;
  double batch_rows_mean = 0.0;
  std::map<std::uint64_t, double> request_s;     ///< k -> request span
  std::map<std::uint64_t, double> queue_wait_s;  ///< k -> request self time
};

SpanSummary summarize(const std::vector<SpanRec>& spans) {
  SpanSummary s;
  std::set<std::tuple<std::string, std::uint64_t, std::uint64_t,
                      std::uint64_t>>
      seen;
  std::vector<Interval> batches, predicts;
  double batch_rows = 0.0;
  std::map<std::uint64_t, Interval> request;
  std::map<std::uint64_t, std::vector<Interval>> children;
  for (const SpanRec& r : spans) {
    if (r.name == "request") {
      request[r.k] = r.iv();
      continue;
    }
    children[r.k].push_back(r.iv());
    if (r.name == "decode") s.decode_s += r.iv().length();
    else if (r.name == "admission") s.admission_s += r.iv().length();
    else if (r.name == "respond") s.respond_s += r.iv().length();
    else if (seen.emplace(r.name, r.tid, r.ts_us, r.dur_us).second) {
      if (r.name == "batch") {
        batches.push_back(r.iv());
        batch_rows += static_cast<double>(r.rows);
      } else if (r.name == "shard-predict") {
        predicts.push_back(r.iv());
      }
    }
  }
  s.batch_union_s = union_length(batches);
  s.predict_union_s = union_length(predicts);
  s.batch_rows_mean =
      batches.empty() ? 0.0 : batch_rows / static_cast<double>(batches.size());
  for (const auto& [k, iv] : request) {
    s.request_s[k] = iv.length();
    s.queue_wait_s[k] = self_time(iv, children[k]);
  }
  return s;
}

double mean_us(const std::map<std::uint64_t, double>& m) {
  if (m.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& [k, v] : m) sum += v;
  return sum / static_cast<double>(m.size()) * 1e6;
}

// --- serve_loopback ----------------------------------------------------------

struct LoopPass {
  double wall_s = 0.0, encode_s = 0.0, ingest_s = 0.0, pump_s = 0.0,
         decode_s = 0.0;
  std::vector<double> latency_ms;
  double rows_ok = 0.0;
  std::uint64_t sent = 0, ok = 0;
};

LoopPass loopback_pass(FleetRuntime& fleet, const std::vector<Request>& pool,
                       std::uint64_t& next_k, double seconds,
                       leaf::obs::Tracer* tracer, Report& r) {
  net::Loopback loop(fleet, net_config());
  loop.core().set_tracer(tracer);
  struct Client {
    net::LoopbackConnection* conn = nullptr;
    bool busy = false;
    std::uint64_t k = 0;
    double t0 = 0.0;
  };
  std::vector<Client> clients(kLoopbackConns);
  for (Client& c : clients) c.conn = &loop.connect();

  LoopPass p;
  const double start = now_s();
  while (true) {
    const bool sending = now_s() - start < seconds;
    bool busy = false;
    for (Client& c : clients) {
      if (!c.busy && sending) {
        c.k = next_k++;
        c.t0 = now_s();
        const std::vector<std::uint8_t> bytes =
            encode_request(c.k, pool[c.k % pool.size()]);
        const double t1 = now_s();
        c.conn->send_bytes(bytes);
        p.encode_s += t1 - c.t0;
        p.ingest_s += now_s() - t1;
        c.busy = true;
        ++p.sent;
      }
      busy = busy || c.busy;
    }
    if (!busy || now_s() - start > seconds + kDrainTimeoutS) break;
    const double tp = now_s();
    loop.pump();
    p.pump_s += now_s() - tp;
    for (Client& c : clients) {
      while (std::optional<net::Frame> f = c.conn->receive()) {
        const double t0 = now_s();
        const Request& q = pool[c.k % pool.size()];
        bool good = f->request_id == c.k && f->type == net::MsgType::kPredictOk;
        if (good) {
          const net::PredictResponse body =
              net::decode_body<net::PredictResponse>(*f);
          const double t1 = now_s();
          p.decode_s += t1 - t0;
          p.latency_ms.push_back((t1 - c.t0) * 1e3);
          good = bit_equal(body.values, q.expected);
          r.check(good, "a response differs from predict_shard on its rows");
          if (good) p.rows_ok += static_cast<double>(q.rows.rows());
        }
        if (good) ++p.ok;
        c.busy = false;
      }
    }
  }
  p.wall_s = now_s() - start;
  for (const Client& c : clients)
    r.check(c.conn->alive(), "the loopback server dropped a connection");
  return p;
}

std::size_t loopback_rows(std::size_t j, leaf::Rng&) {
  return j % 2 == 0 ? 1 : 32;
}

}  // namespace

void run_serve_loopback(const Options& o, Report& r) {
  const std::size_t shards = o.smoke ? 2 : 6;
  std::vector<ShardSpec> specs = fleet_specs(shards, "LEAF");
  for (std::size_t i = 1; i < shards; i += 2)
    specs[i].model = leaf::models::ModelFamily::kRandomForest;
  ScratchDir scratch(o, o.workload);

  std::vector<double> setup_s;
  Deployed d;
  for (int i = 0; i < kMinSetups; ++i) {
    d.fleet.reset();  // before the dataset it reads
    const double t0 = now_s();
    d = deploy(specs, kReferenceSeed);
    setup_s.push_back(now_s() - t0);
  }
  FleetRuntime& fleet = *d.fleet;
  std::vector<Request> pool = request_pool(*d.ds, specs, o.seed, loopback_rows);
  for (Request& q : pool) {
    q.expected.resize(q.rows.rows());
    fleet.predict_shard(q.shard, q.rows, q.expected);
  }

  // A serving replica's cold start, sampled after every pass: snapshot the
  // frozen fleet and restore it into a fresh runtime, which must answer
  // like the original.
  const leaf::Scale scale = bench_scale();
  const std::string dir = scratch.sub("snapshots");
  std::vector<double> snapshot_ms, restore_ms;
  std::uint64_t bytes = 0;
  const auto checkpoint = [&] {
    bytes = timed_snapshot(fleet, dir, snapshot_ms, r);
    timed_restores(
        1, dir,
        [&] {
          return std::make_unique<FleetRuntime>(*d.ds, scale, specs,
                                                kReferenceSeed);
        },
        [&](const FleetRuntime& f) {
          for (std::size_t j = 0; j < 16; ++j) {
            std::vector<double> got(pool[j].rows.rows());
            f.predict_shard(pool[j].shard, pool[j].rows, got);
            if (!bit_equal(got, pool[j].expected)) return false;
          }
          return true;
        },
        restore_ms, r);
  };

  // Short passes; a traced run makes one plain and one traced.
  const bool traced = o.trace || o.smoke;
  const int passes = traced ? 2 : kLoopbackPasses;
  const double pass_s = o.smoke ? 1.0 : o.seconds / passes;
  const std::string trace_path = scratch.sub("trace.json");
  std::unique_ptr<leaf::obs::Tracer> tracer;
  std::uint64_t next_k = 1;
  std::vector<LoopPass> done;
  for (int pass = 0; pass < passes; ++pass) {
    if (traced && pass == passes - 1) {
      leaf::obs::MetricsRegistry::global().reset_values();
      tracer = std::make_unique<leaf::obs::Tracer>(trace_path, 1);
      r.check(tracer->ok(), "cannot open the trace sink");
    }
    done.push_back(
        loopback_pass(fleet, pool, next_k, pass_s, tracer.get(), r));
    r.attempted += done.back().sent;
    r.failed += done.back().sent - done.back().ok;
    if (tracer == nullptr) checkpoint();
  }

  std::vector<double> latency_ms;
  double rows = 0.0, wall = 0.0;
  for (std::size_t i = 0; i < done.size() - (traced ? 1 : 0); ++i) {
    latency_ms.insert(latency_ms.end(), done[i].latency_ms.begin(),
                      done[i].latency_ms.end());
    rows += done[i].rows_ok;
    wall += done[i].wall_s;
  }

  r.set("setup_s", median(setup_s));
  r.set("work_per_s", rows / wall);
  r.set("op_p50_ms", percentile(latency_ms, 50));
  r.set("op_p99_ms", percentile(latency_ms, 99));
  r.set("snapshot_write_ms", median(snapshot_ms));
  r.set("restore_ms", median(restore_ms));
  r.set("peak_rss_mb", peak_rss_mb());
  r.set("io.snapshot_bytes", static_cast<double>(bytes));
  r.note("op", "request (closed loop, 4 connections); work = rows answered");
  r.note("op_samples",
         std::to_string(latency_ms.size()) + " (" +
             std::to_string(samples_beyond(latency_ms.size(), 99)) +
             " beyond p99)");
  if (tracer == nullptr) return;

  tracer->close();
  r.check(tracer->ok(), "trace sink failed: " + tracer->error());
  record_simd_calls(r);
  const LoopPass& first = done.front();
  const LoopPass& second = done.back();
  const SpanSummary s = summarize(read_trace(trace_path));
  r.check(s.request_s.size() == second.sent,
          "the trace does not hold one request span per request");
  LayerTable t;
  t.title = "serving loop: ms of the traced closed-loop pass";
  t.total = second.wall_s * 1e3;
  t.rows = {
      {"client.encode_ms", second.encode_s * 1e3},
      {"client.decode_ms", second.decode_s * 1e3},
      {"net.frame_ms",
       (second.ingest_s - s.decode_s - s.admission_s) * 1e3},
      {"net.decode_ms", s.decode_s * 1e3},
      {"net.admission_ms", s.admission_s * 1e3},
      {"net.batch_ms", (s.batch_union_s - s.predict_union_s) * 1e3},
      {"serve.shard_predict_ms", s.predict_union_s * 1e3},
      {"net.respond_ms", s.respond_s * 1e3},
      {"net.pump_self_ms",
       (second.pump_s - s.batch_union_s - s.respond_s) * 1e3},
  };
  record_layer_table(t, r);
  r.set("net.batch_rows_mean", s.batch_rows_mean);
  r.set("net.queue_wait_us", mean_us(s.queue_wait_s));
  const double per_req_traced = second.wall_s / static_cast<double>(second.sent);
  const double per_req_plain = first.wall_s / static_cast<double>(first.sent);
  r.set("trace_overhead_share", per_req_traced / per_req_plain - 1.0);
}

// --- serve_mixed_tcp ---------------------------------------------------------

namespace {

/// Non-blocking client socket, closed on destruction.
class ClientSocket {
 public:
  explicit ClientSocket(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error(std::string("connect failed: ") +
                               std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL, 0) | O_NONBLOCK);
  }
  ~ClientSocket() { ::close(fd_); }
  ClientSocket(const ClientSocket&) = delete;
  ClientSocket& operator=(const ClientSocket&) = delete;
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

struct Served {
  std::uint64_t k = 0;
  std::uint64_t pos = 0;   ///< position among all responses on the wire
  std::uint64_t step = 0;  ///< fleet steps taken when it was answered
  std::vector<double> values;
};

struct MixedPass {
  // Server thread.
  double loop_s = 0.0;    ///< stepping until the fleet is done
  double server_s = 0.0;  ///< the whole server thread
  double step_s = 0.0, snapshot_s = 0.0, poll_s = 0.0;
  std::vector<double> snapshot_ms;
  std::uint64_t steps = 0, snapshot_bytes = 0;
  bool snapshot_failed = false;
  std::string server_error;
  // Generator thread.
  double encode_s = 0.0, decode_s = 0.0;
  std::vector<double> latency_ms, lateness_ms;
  std::map<std::uint64_t, double> e2e_s;  ///< k -> latency from due
  std::vector<Served> served;
  std::uint64_t sent = 0, ok = 0;
  std::string client_error;
};

struct TcpDeployed {
  Deployed d;
  std::unique_ptr<net::TcpServer> server;
  std::unique_ptr<ClientSocket> client;
};

MixedPass mixed_pass(TcpDeployed& td, const std::vector<Request>& pool,
                     std::uint64_t& next_k, const std::string& snapshot_dir) {
  FleetRuntime& fleet = *td.d.fleet;
  net::TcpServer& server = *td.server;
  const int fd = td.client->fd();
  MixedPass p;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> polls;  // steps, served
  std::atomic<bool> fleet_done{false}, gen_done{false};

  const double t0 = now_s();
  std::thread server_thread([&] {
    try {
      const auto poll = [&](int timeout_ms) {
        const double a = now_s();
        server.poll_once(timeout_ms);
        p.poll_s += now_s() - a;
        polls.emplace_back(fleet.steps_run(), server.requests_served());
      };
      while (!fleet.done()) {
        const double a = now_s();
        fleet.step();
        p.step_s += now_s() - a;
        if (fleet.steps_run() % kSnapshotEvery == 0) {
          const double b = now_s();
          p.snapshot_failed |= fleet.snapshot(snapshot_dir) == 0;
          p.snapshot_ms.push_back((now_s() - b) * 1e3);
          p.snapshot_s += now_s() - b;
        }
        poll(0);
      }
      p.loop_s = now_s() - t0;
      p.steps = fleet.steps_run();
      fleet_done.store(true);
      while (!gen_done.load()) poll(1);
    } catch (const std::exception& e) {
      p.server_error = e.what();
      fleet_done.store(true);
    }
    p.server_s = now_s() - t0;
  });

  // Generator: request i of this pass is due at t0 + i / kRate.
  const std::uint64_t first_k = next_k;
  std::vector<double> due;
  std::vector<std::uint8_t> out;
  std::size_t out_pos = 0;
  net::FrameDecoder decoder;
  std::uint8_t buf[64 * 1024];
  bool sending = true;
  double stop_at = 0.0;
  std::uint64_t received = 0;
  try {
    while (true) {
      if (sending && fleet_done.load()) {
        sending = false;
        stop_at = now_s();
      }
      while (sending && t0 + static_cast<double>(due.size()) / kRate <= now_s()) {
        const double due_at = t0 + static_cast<double>(due.size()) / kRate;
        const std::uint64_t k = next_k++;
        const double a = now_s();
        const std::vector<std::uint8_t> bytes =
            encode_request(k, pool[k % pool.size()]);
        p.encode_s += now_s() - a;
        p.lateness_ms.push_back((a - due_at) * 1e3);
        out.insert(out.end(), bytes.begin(), bytes.end());
        due.push_back(due_at);
        ++p.sent;
      }
      while (out_pos < out.size()) {
        const ssize_t n = ::write(fd, out.data() + out_pos, out.size() - out_pos);
        if (n > 0) {
          out_pos += static_cast<std::size_t>(n);
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else {
          throw std::runtime_error("write to server failed");
        }
      }
      if (out_pos == out.size()) {
        out.clear();
        out_pos = 0;
      }

      const double wait_s =
          sending ? t0 + static_cast<double>(due.size()) / kRate - now_s()
                  : 0.005;
      pollfd pfd{fd, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)),
                 0};
      const double w = std::max(0.0, wait_s);
      timespec ts{static_cast<time_t>(w),
                  static_cast<long>((w - static_cast<double>(
                                             static_cast<time_t>(w))) *
                                    1e9)};
      ::ppoll(&pfd, 1, &ts, nullptr);

      while (true) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n > 0) {
          decoder.feed(std::span<const std::uint8_t>(
              buf, static_cast<std::size_t>(n)));
          while (std::optional<net::Frame> f = decoder.next()) {
            const double a = now_s();
            const std::uint64_t i = f->request_id - first_k;
            if (i >= due.size())
              throw std::runtime_error("response to an unknown request");
            const std::uint64_t pos = received++;
            if (f->type != net::MsgType::kPredictOk) continue;
            Served s;
            s.k = f->request_id;
            s.pos = pos;
            s.values = net::decode_body<net::PredictResponse>(*f).values;
            const double b = now_s();
            p.decode_s += b - a;
            p.latency_ms.push_back((a - due[i]) * 1e3);
            p.e2e_s[s.k] = a - due[i];
            p.served.push_back(std::move(s));
            ++p.ok;
          }
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else {
          throw std::runtime_error("the server closed the connection");
        }
      }
      if (!sending && received == p.sent && out.empty()) break;
      if (!sending && now_s() - stop_at > kDrainTimeoutS) break;
    }
  } catch (const std::exception& e) {
    p.client_error = e.what();
  }
  gen_done.store(true);
  server_thread.join();

  // The response at wire position j was written by the first poll whose
  // running total of answers (errors included) exceeds j.
  std::size_t at = 0;
  for (Served& s : p.served) {
    while (at < polls.size() && polls[at].second <= s.pos) ++at;
    s.step = at < polls.size() ? polls[at].first : p.steps;
  }
  const double b = now_s();
  p.snapshot_bytes = fleet.snapshot(snapshot_dir);
  p.snapshot_ms.push_back((now_s() - b) * 1e3);
  return p;
}

std::size_t mixed_rows(std::size_t, leaf::Rng& rng) {
  return rng.uniform() < 0.25 ? 8 : 1;
}

/// Replays the reference fleet step by step.  Checks every OK response
/// against predict_shard on the replay advanced to the step at which it was
/// served, and returns the number that differ.  Every kSnapshotEvery steps
/// it also times a restore of the replay's snapshot (identical to the
/// served fleet's at that step), so recovery times are sampled across the
/// run as in the fleet workloads.
std::uint64_t replay_and_verify(const std::vector<ShardSpec>& specs,
                                const std::vector<Request>& pool,
                                const std::vector<MixedPass>& passes,
                                const std::string& dir,
                                std::vector<double>& restore_ms, Report& r) {
  std::vector<const Served*> all;
  for (const MixedPass& p : passes)
    for (const Served& s : p.served) all.push_back(&s);
  std::stable_sort(all.begin(), all.end(), [](const Served* a, const Served* b) {
    return a->step < b->step;
  });
  Deployed replay = deploy(specs, kReferenceSeed);
  FleetRuntime& fleet = *replay.fleet;
  const leaf::Scale scale = bench_scale();
  std::vector<double> snapshot_ms;  // reported from the serving loop instead
  std::uint64_t differ = 0;
  std::size_t next = 0;
  while (true) {
    for (; next < all.size() && all[next]->step == fleet.steps_run(); ++next) {
      const Request& q = pool[all[next]->k % pool.size()];
      std::vector<double> want(q.rows.rows());
      fleet.predict_shard(q.shard, q.rows, want);
      if (!bit_equal(all[next]->values, want)) ++differ;
    }
    if (fleet.done()) break;
    fleet.step();
    if (fleet.steps_run() % kSnapshotEvery != 0) continue;
    timed_snapshot(fleet, dir, snapshot_ms, r);
    const std::vector<std::uint64_t> fps = fingerprints(fleet.results());
    timed_restores(
        1, dir,
        [&] {
          return std::make_unique<FleetRuntime>(*replay.ds, scale, specs,
                                                kReferenceSeed);
        },
        [&](const FleetRuntime& f) { return fingerprints(f.results()) == fps; },
        restore_ms, r);
  }
  return differ + (all.size() - next);  // answered past the last step
}

}  // namespace

void run_serve_mixed_tcp(const Options& o, Report& r) {
  const std::size_t shards = o.smoke ? 2 : 6;
  const std::vector<ShardSpec> specs = fleet_specs(shards, "LEAF");
  const leaf::Scale scale = bench_scale();
  const Goldens goldens(LEAFBENCH_GOLDENS);
  ScratchDir scratch(o, o.workload);
  const bool traced_last = o.trace || o.smoke;
  const int passes =
      traced_last ? 2
                  : std::max(1, static_cast<int>(
                                    std::lround(o.seconds / kMixedPassSeconds)));

  std::vector<double> setup_s;
  const auto set_up = [&] {
    const double t0 = now_s();
    TcpDeployed td;
    td.d = deploy(specs, kReferenceSeed);
    td.server = std::make_unique<net::TcpServer>(*td.d.fleet, "127.0.0.1", 0,
                                                 net_config());
    td.client = std::make_unique<ClientSocket>(td.server->port());
    setup_s.push_back(now_s() - t0);
    return td;
  };

  std::vector<Request> pool;
  std::vector<MixedPass> done;
  std::vector<double> restore_ms, snapshot_ms;
  std::uint64_t next_k = 1;
  const std::string trace_path = scratch.sub("trace.json");
  std::unique_ptr<leaf::obs::Tracer> tracer;
  for (int pass = 0; pass < passes; ++pass) {
    const bool traced = traced_last && pass == passes - 1;
    if (traced) leaf::obs::MetricsRegistry::global().reset_values();
    TcpDeployed td = set_up();
    if (pool.empty()) pool = request_pool(*td.d.ds, specs, o.seed, mixed_rows);
    if (traced) {
      tracer = std::make_unique<leaf::obs::Tracer>(trace_path, 1);
      r.check(tracer->ok(), "cannot open the trace sink");
      td.server->core().set_tracer(tracer.get());
    }
    const std::string dir = scratch.sub("pass" + std::to_string(pass));
    MixedPass p = mixed_pass(td, pool, next_k, dir);
    td.server->core().set_tracer(nullptr);
    r.check(p.server_error.empty(), "server thread failed: " + p.server_error);
    r.check(p.client_error.empty(), "generator failed: " + p.client_error);
    r.check(!p.snapshot_failed && p.snapshot_bytes > 0,
            "snapshot write failed in " + dir);
    r.attempted += p.sent;
    r.failed += p.sent - p.ok;

    const std::vector<std::uint64_t> fps = fingerprints(td.d.fleet->results());
    goldens.verify("LEAF", kReferenceSeed, fps, r);
    const leaf::data::CellularDataset& ds = *td.d.ds;
    timed_restores(
        1, dir,
        [&] {
          return std::make_unique<FleetRuntime>(ds, scale, specs,
                                                kReferenceSeed);
        },
        [&](const FleetRuntime& f) { return fingerprints(f.results()) == fps; },
        restore_ms, r);
    snapshot_ms.insert(snapshot_ms.end(), p.snapshot_ms.begin(),
                       p.snapshot_ms.end());
    r.set("io.snapshot_bytes", static_cast<double>(p.snapshot_bytes));
    done.push_back(std::move(p));
  }
  while (static_cast<int>(setup_s.size()) < kMinSetups) set_up();

  const std::uint64_t differ = replay_and_verify(
      specs, pool, done, scratch.sub("replay"), restore_ms, r);
  r.check(differ == 0, "a response differs from predict_shard on its rows");
  r.failed += differ;

  const std::size_t measured = traced_last ? done.size() - 1 : done.size();
  std::vector<double> latency_ms, lateness_ms;
  double shard_days = 0.0, loop_s = 0.0;
  for (std::size_t i = 0; i < measured; ++i) {
    const MixedPass& p = done[i];
    latency_ms.insert(latency_ms.end(), p.latency_ms.begin(),
                      p.latency_ms.end());
    lateness_ms.insert(lateness_ms.end(), p.lateness_ms.begin(),
                       p.lateness_ms.end());
    shard_days += static_cast<double>(p.steps * shards *
                                      static_cast<std::uint64_t>(
                                          scale.eval_stride_days));
    loop_s += p.loop_s;
  }
  r.set("setup_s", median(setup_s));
  r.set("work_per_s", shard_days / loop_s);
  r.set("op_p50_ms", percentile(latency_ms, 50));
  r.set("op_p99_ms", percentile(latency_ms, 99));
  r.set("snapshot_write_ms", median(snapshot_ms));
  r.set("restore_ms", median(restore_ms));
  r.set("peak_rss_mb", peak_rss_mb());
  r.note("op",
         "request (open loop, 1 connection, 1000/s), timed from when it was "
         "due; work = shard-days scored per second of the serving loop");
  r.note("op_samples",
         std::to_string(latency_ms.size()) + " (" +
             std::to_string(samples_beyond(latency_ms.size(), 99)) +
             " beyond p99)");
  r.note("generator_lateness_ms",
         "max " + std::to_string(lateness_ms.empty()
                                     ? 0.0
                                     : *std::max_element(lateness_ms.begin(),
                                                         lateness_ms.end())) +
             ", p99 " + std::to_string(percentile(lateness_ms, 99)));
  if (!traced_last) return;

  tracer->close();
  r.check(tracer->ok(), "trace sink failed: " + tracer->error());
  record_simd_calls(r);
  const MixedPass& tp = done.back();
  const SpanSummary s = summarize(read_trace(trace_path));
  r.check(s.request_s.size() == tp.sent,
          "the trace does not hold one request span per request");
  LayerTable t;
  t.title = "server thread: ms of the traced pass";
  t.total = tp.server_s * 1e3;
  const double spans_s =
      s.decode_s + s.admission_s + s.batch_union_s + s.respond_s;
  t.rows = {
      {"serve.loop_step_ms", tp.step_s * 1e3},
      {"io.loop_snapshot_ms", tp.snapshot_s * 1e3},
      {"net.poll_ms", (tp.poll_s - spans_s) * 1e3},
      {"net.decode_ms", s.decode_s * 1e3},
      {"net.admission_ms", s.admission_s * 1e3},
      {"net.batch_ms", (s.batch_union_s - s.predict_union_s) * 1e3},
      {"serve.shard_predict_ms", s.predict_union_s * 1e3},
      {"net.respond_ms", s.respond_s * 1e3},
  };
  record_layer_table(t, r);
  r.set("client.encode_ms", tp.encode_s * 1e3);
  r.set("client.decode_ms", tp.decode_s * 1e3);
  r.set("net.batch_rows_mean", s.batch_rows_mean);
  r.set("net.queue_wait_us", mean_us(s.queue_wait_s));
  std::map<std::uint64_t, double> unserved;
  for (const auto& [k, e2e] : tp.e2e_s) {
    const auto it = s.request_s.find(k);
    if (it != s.request_s.end()) unserved[k] = e2e - it->second;
  }
  r.set("net.unserved_wait_us", mean_us(unserved));
  // The step's own layers, from the runtime's existing spans (shard-busy).
  leaf::obs::MetricsRegistry& reg = leaf::obs::MetricsRegistry::global();
  r.set("core.mitigate_ms",
        reg.span_site("leaf.mitigate").total_seconds() * 1e3);
  r.set("core.mitigate_calls",
        static_cast<double>(reg.span_site("leaf.mitigate").count()));
  r.set("models.fit_ms",
        reg.span_site("serve.retrain_fit").total_seconds() * 1e3);
  r.set("models.fit_calls",
        static_cast<double>(reg.span_site("serve.retrain_fit").count()));
  r.set("trace_overhead_share", tp.loop_s / done.front().loop_s - 1.0);
}

}  // namespace leafbench
