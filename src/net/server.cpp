#include "net/server.hpp"

#include <algorithm>
#include <utility>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "par/parallel.hpp"

namespace leaf::net {

namespace {

/// Ceiling on a query_series request's max_series; a request asking for
/// more is rejected as kOversized.
constexpr std::uint32_t kMaxQuerySeries = 64;

obs::Counter& counter(const char* name, const std::string& labels = "") {
  return obs::MetricsRegistry::global().counter(name, labels);
}

}  // namespace

std::uint64_t WallClock::now_ms() const {
  return static_cast<std::uint64_t>(obs::monotonic_seconds() * 1e3);
}

ServerCore::ServerCore(serve::FleetRuntime& fleet, NetConfig cfg,
                       const Clock* clock)
    : fleet_(&fleet),
      cfg_(cfg),
      clock_(clock != nullptr ? clock : &wall_clock_),
      shard_queues_(fleet.num_shards()),
      shard_scratch_(fleet.num_shards()) {
  if (cfg_.queue_depth < 1)
    throw std::invalid_argument("net: queue_depth must be >= 1");
  if (cfg_.max_batch_rows < 1)
    throw std::invalid_argument("net: max_batch_rows must be >= 1");
}

void ServerCore::open(ConnId conn) {
  conns_.try_emplace(conn);
  counter("leaf_net_connections_total").inc();
}

void ServerCore::close(ConnId conn) {
  if (conns_.erase(conn) == 0) return;
  counter("leaf_net_disconnects_total").inc();
  // The peer is gone: answering its queued requests would write to a dead
  // socket, so discard them, and count them so requests still add up to
  // responses plus discards.
  std::size_t discarded = 0;
  for (auto& queue : shard_queues_) {
    const auto is_dead = [conn](const Pending& p) { return p.conn == conn; };
    const auto dead = std::remove_if(queue.begin(), queue.end(), is_dead);
    discarded += static_cast<std::size_t>(queue.end() - dead);
    queue.erase(dead, queue.end());
  }
  if (discarded == 0) return;
  counter("leaf_net_discards_total").inc(discarded);
  obs::MetricsRegistry::global()
      .gauge("leaf_net_queue_depth")
      .set(static_cast<double>(queued()));
}

std::size_t ServerCore::queued() const {
  std::size_t n = 0;
  for (const auto& queue : shard_queues_) n += queue.size();
  return n;
}

void ServerCore::transmit(ConnId conn, MsgType type,
                          std::vector<std::uint8_t> bytes, ResponseSink& sink) {
  ++requests_served_;
  counter("leaf_net_responses_total", obs::label("type", to_string(type)))
      .inc();
  counter("leaf_net_bytes_tx_total").inc(bytes.size());
  sink.send(conn, std::move(bytes));
}

void ServerCore::respond_error(ConnId conn, ErrorCode code,
                               const std::string& message,
                               ResponseSink& sink) {
  counter("leaf_net_errors_total", obs::label("code", to_string(code))).inc();
  transmit(conn, MsgType::kError,
           encode_frame(make_frame(MsgType::kError, 0,
                                   ErrorResponse{code, message})),
           sink);
}

ServerCore::Pending ServerCore::begin_request(ConnId conn,
                                              const Frame& frame) {
  Pending p;
  p.conn = conn;
  p.request_id = frame.request_id;
  p.type = frame.type;
  p.trace = obs::trace_is_zero(frame.trace)
                ? obs::derive_trace_id(conn, frame.request_id)
                : frame.trace;
  p.parent_span = frame.parent_span;
  p.traced = tracer_ != nullptr && tracer_->ok() && tracer_->sampled(p.trace);
  p.arrival_s = obs::monotonic_seconds();
  if (p.traced) {
    const std::size_t root = p.spans.begin("request");
    p.spans.annotate(root, "\"conn\": " + std::to_string(conn) +
                               ", \"request_id\": " +
                               std::to_string(frame.request_id) +
                               ", \"type\": \"" + to_string(frame.type) +
                               "\"");
  }
  return p;
}

template <typename Body>
Body ServerCore::decode(Pending& p, const Frame& frame) {
  if (!p.traced) return decode_body<Body>(frame);
  const std::size_t span = p.spans.begin("decode");
  try {
    Body body = decode_body<Body>(frame);
    p.spans.end(span);
    return body;
  } catch (const ProtocolError&) {
    p.spans.end(span);  // a bad body is still answered through finish()
    throw;
  }
}

void ServerCore::finish(Pending& p, MsgType type,
                        std::vector<std::uint8_t> bytes, ResponseSink& sink) {
  const std::size_t respond_span = p.traced ? p.spans.begin("respond") : 0;
  transmit(p.conn, type, std::move(bytes), sink);
  if (p.traced) {
    p.spans.end(respond_span);
    p.spans.end(0);  // the root "request" span
    flush_trace(p);
  }
  // Exact-percentile latency, one series per request type; the `_seconds`
  // name masks the family out of the determinism checks.
  obs::MetricsRegistry::global()
      .latency("leaf_rpc_latency_seconds",
               obs::label("type", to_string(p.type)))
      .observe(obs::monotonic_seconds() - p.arrival_s);
}

void ServerCore::finish_error(Pending& p, ErrorCode code,
                              const std::string& message,
                              ResponseSink& sink) {
  counter("leaf_net_errors_total", obs::label("code", to_string(code))).inc();
  finish(p, MsgType::kError,
         encode_frame(make_frame(MsgType::kError, p.request_id,
                                 ErrorResponse{code, message}, p.trace)),
         sink);
}

void ServerCore::flush_trace(Pending& p) {
  if (tracer_ == nullptr) return;  // detached while the request queued
  std::vector<obs::TraceSpan>& spans = p.spans.mutable_spans();
  // Span 0 is the "request" root; children hang off it, except
  // "shard-predict", which nests under its batch span.  Ids are pure
  // functions of (trace, name, parent, index) — identical at any
  // LEAF_THREADS because this runs only in serial phases, in
  // deterministic response order.
  spans[0].trace = p.trace;
  spans[0].parent_id = p.parent_span;
  spans[0].span_id =
      obs::derive_span_id(p.trace, spans[0].name.c_str(), p.parent_span, 0);
  std::uint64_t batch_span_id = 0;
  for (std::size_t i = 1; i < spans.size(); ++i) {
    obs::TraceSpan& s = spans[i];
    s.trace = p.trace;
    const std::uint64_t parent =
        (s.name == "shard-predict" && batch_span_id != 0) ? batch_span_id
                                                          : spans[0].span_id;
    s.parent_id = parent;
    s.span_id = obs::derive_span_id(p.trace, s.name.c_str(), parent, i);
    if (s.name == "batch") batch_span_id = s.span_id;
  }
  for (const obs::TraceSpan& s : spans) tracer_->write(s);
  p.spans.clear();
}

void ServerCore::ingest(ConnId conn, std::span<const std::uint8_t> bytes,
                        ResponseSink& sink) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) return;  // already dropped
  counter("leaf_net_bytes_rx_total").inc(bytes.size());
  try {
    it->second.feed(bytes);
    while (std::optional<Frame> frame = it->second.next())
      handle_frame(conn, *frame, sink);
  } catch (const ProtocolError& e) {
    // Framing damage: the byte stream cannot be resynchronized.  Tell the
    // peer what happened (best-effort) and kill exactly this connection —
    // the fleet and every other connection keep serving.
    counter("leaf_net_malformed_frames_total").inc();
    respond_error(conn, e.code(), e.what(), sink);
    close(conn);
    sink.drop(conn, e.what());
    LEAF_LOG_WARN("net: dropping connection %llu: %s",
                  static_cast<unsigned long long>(conn), e.what());
  }
}

void ServerCore::handle_frame(ConnId conn, const Frame& frame,
                              ResponseSink& sink) {
  counter("leaf_net_requests_total", obs::label("type", to_string(frame.type)))
      .inc();
  if (!is_request(frame.type))
    throw ProtocolError(ErrorCode::kMalformed,
                        std::string("response-typed frame '") +
                            to_string(frame.type) +
                            "' on a server connection");
  Pending p = begin_request(conn, frame);
  try {
    switch (frame.type) {
      case MsgType::kPredict:
      case MsgType::kBatchPredict:
        admit_predict(p, frame, sink);
        return;
      case MsgType::kScrapeMetrics: {
        const ScrapeResponse body{
            scrape_output(fleet_, decode<ScrapeRequest>(p, frame).json)};
        finish(p, MsgType::kScrapeOk,
               encode_frame(make_frame(MsgType::kScrapeOk, p.request_id, body,
                                       p.trace)),
               sink);
        return;
      }
      case MsgType::kFleetStatus:
        if (!frame.payload.empty())
          throw ProtocolError(ErrorCode::kMalformed,
                              "fleet_status carries no body",
                              /*fatal=*/false);
        finish(p, MsgType::kStatusOk,
               encode_frame(make_frame(MsgType::kStatusOk, p.request_id,
                                       status(), p.trace)),
               sink);
        return;
      case MsgType::kQuerySeries: {
        const auto req = decode<SeriesRequest>(p, frame);
        if (req.query.max_series > kMaxQuerySeries)
          throw ProtocolError(
              ErrorCode::kOversized,
              "query_series asks for " + std::to_string(req.query.max_series) +
                  " series; the server caps responses at " +
                  std::to_string(kMaxQuerySeries),
              /*fatal=*/false);
        const tsdb::Store& store = std::as_const(*fleet_).telemetry();
        tsdb::Store::QueryResult result = store.query(req.query);
        const SeriesResponse body{store.last_step(), result.truncated,
                                  std::move(result.series)};
        finish(p, MsgType::kQuerySeriesOk,
               encode_frame(make_frame(MsgType::kQuerySeriesOk, p.request_id,
                                       body, p.trace)),
               sink);
        return;
      }
      default:
        return;  // unreachable: is_request filtered the rest
    }
  } catch (const ProtocolError& e) {
    if (e.fatal()) throw;
    // Per-message problem (bad body, trailing bytes): answer it and keep
    // the connection — the stream itself is still framed correctly.
    counter("leaf_net_malformed_frames_total").inc();
    finish_error(p, e.code(), e.what(), sink);
  }
}

void ServerCore::admit_predict(Pending& p, const Frame& frame,
                               ResponseSink& sink) {
  PredictRequest req = decode<PredictRequest>(p, frame);
  if (frame.type == MsgType::kPredict && req.rows.rows() != 1)
    throw ProtocolError(ErrorCode::kMalformed,
                        "predict carries exactly one row (use batch_predict)",
                        /*fatal=*/false);
  std::size_t admission_span = 0;
  if (p.traced) {
    admission_span = p.spans.begin("admission");
    p.spans.annotate(admission_span,
                     "\"shard\": " + std::to_string(req.shard) +
                         ", \"rows\": " + std::to_string(req.rows.rows()));
  }
  const auto reject = [&](ErrorCode code, const std::string& message) {
    if (p.traced) p.spans.end(admission_span);
    finish_error(p, code, message, sink);
  };
  if (req.shard >= fleet_->num_shards())
    return reject(ErrorCode::kBadShard,
                  "shard " + std::to_string(req.shard) +
                      " outside the fleet of " +
                      std::to_string(fleet_->num_shards()));
  if (req.rows.rows() == 0 ||
      req.rows.rows() > static_cast<std::size_t>(cfg_.max_batch_rows))
    return reject(ErrorCode::kOversized,
                  "batch of " + std::to_string(req.rows.rows()) +
                      " rows outside [1, " +
                      std::to_string(cfg_.max_batch_rows) + "]");
  if (!fleet_->shard_ready(req.shard))
    return reject(ErrorCode::kUnavailable, "shard " +
                                               std::to_string(req.shard) +
                                               " cannot serve predictions");
  const int want_cols = fleet_->shard_num_features(req.shard);
  if (static_cast<int>(req.rows.cols()) != want_cols)
    return reject(ErrorCode::kMalformed,
                  "shard " + std::to_string(req.shard) + " expects " +
                      std::to_string(want_cols) + " features, got " +
                      std::to_string(req.rows.cols()));
  std::deque<Pending>& queue = shard_queues_[req.shard];
  if (queue.size() >= static_cast<std::size_t>(cfg_.queue_depth)) {
    counter("leaf_net_retries_total").inc();
    return reject(ErrorCode::kRetry,
                  "shard " + std::to_string(req.shard) + " queue full (depth " +
                      std::to_string(cfg_.queue_depth) + ")");
  }
  if (p.traced) p.spans.end(admission_span);
  p.rows = std::move(req.rows);
  p.arrival_ms = clock_->now_ms();
  p.deadline_ms =
      req.deadline_ms != 0 ? req.deadline_ms : cfg_.default_deadline_ms;
  p.seq = next_seq_++;
  queue.push_back(std::move(p));
  obs::MetricsRegistry::global()
      .gauge("leaf_net_queue_depth")
      .set(static_cast<double>(queued()));
}

std::size_t ServerCore::pump(ResponseSink& sink) {
  // Phase 1 (serial): shed expired requests and freeze this pump's batch
  // composition per shard.  Clock reads and queue pops happen only here,
  // so batching is a pure function of (schedule, clock) — deterministic
  // under the loopback transport at any LEAF_THREADS.
  struct Batch {
    std::vector<Pending> requests;
    Matrix rows;  ///< requests' rows stacked: one predict pass
    std::vector<std::vector<std::uint8_t>> responses;  ///< one per request
    std::string error;  ///< non-empty: batch-wide predict failure
    obs::SpanCollector spans;  ///< shard-private batch/shard-predict spans
  };
  const std::uint64_t now = clock_->now_ms();
  std::vector<Batch> batches(shard_queues_.size());
  std::vector<Pending> sheds;
  for (std::size_t shard = 0; shard < shard_queues_.size(); ++shard) {
    std::deque<Pending>& queue = shard_queues_[shard];
    Batch& batch = batches[shard];
    std::size_t rows = 0;
    while (!queue.empty()) {
      Pending& head = queue.front();
      if (head.deadline_ms != 0 && now > head.arrival_ms + head.deadline_ms) {
        counter("leaf_net_sheds_total").inc();
        sheds.push_back(std::move(head));
        queue.pop_front();
        continue;
      }
      if (rows > 0 && rows + head.rows.rows() >
                          static_cast<std::size_t>(cfg_.max_batch_rows))
        break;  // the next pump's batch
      rows += head.rows.rows();
      batch.requests.push_back(std::move(head));
      queue.pop_front();
    }
    if (batch.requests.empty()) continue;
    const std::size_t cols = batch.requests.front().rows.cols();
    batch.rows = Matrix(rows, cols);
    std::size_t r = 0;
    for (const Pending& p : batch.requests)
      for (std::size_t i = 0; i < p.rows.rows(); ++i, ++r)
        std::copy_n(p.rows.row(i).data(), cols, batch.rows.row(r).data());
  }

  // Phase 2 (parallel over shards): ONE predict_into pass per shard over
  // its reusable aligned arena, then encode the per-request response
  // frames.  Only shard-private state is touched here; every metric
  // increment stays in the serial phases.
  par::parallel_for(batches.size(), [&](std::size_t shard) {
    Batch& batch = batches[shard];
    if (batch.requests.empty()) return;
    // Batch + shard-predict spans live in the shard-private collector;
    // ids are assigned and the spans flushed later, in serial phase 3.
    const bool traced =
        std::any_of(batch.requests.begin(), batch.requests.end(),
                    [](const Pending& p) { return p.traced; });
    std::size_t batch_span = 0;
    if (traced) {
      batch_span = batch.spans.begin("batch", static_cast<int>(shard) + 1);
      batch.spans.annotate(
          batch_span, "\"shard\": " + std::to_string(shard) + ", \"rows\": " +
                          std::to_string(batch.rows.rows()) +
                          ", \"requests\": " +
                          std::to_string(batch.requests.size()));
    }
    try {
      const std::span<double> out =
          shard_scratch_[shard].acquire(batch.rows.rows());
      fleet_->predict_shard(shard, batch.rows, out,
                            traced ? &batch.spans : nullptr);
      batch.responses.reserve(batch.requests.size());
      std::size_t offset = 0;
      for (const Pending& p : batch.requests) {
        PredictResponse resp;
        resp.values.assign(
            out.begin() + static_cast<std::ptrdiff_t>(offset),
            out.begin() + static_cast<std::ptrdiff_t>(offset + p.rows.rows()));
        offset += p.rows.rows();
        batch.responses.push_back(encode_frame(
            make_frame(MsgType::kPredictOk, p.request_id, resp, p.trace)));
      }
    } catch (const std::exception& e) {
      batch.error = e.what();
    }
    if (traced) batch.spans.end(batch_span);
  });

  // Phase 3 (serial): emit in deterministic (shard, arrival) order, then
  // the sheds (already in shard-scan order).
  std::size_t answered = 0;
  for (std::size_t shard = 0; shard < batches.size(); ++shard) {
    Batch& batch = batches[shard];
    if (batch.requests.empty()) continue;
    // Rows per batch is logical data (batch composition is a pure function
    // of the request schedule under loopback), so it rides the
    // determinism checks as a counter beside the batch count.
    counter("leaf_net_batches_total").inc();
    counter("leaf_net_batch_rows_total").inc(batch.rows.rows());
    for (std::size_t i = 0; i < batch.requests.size(); ++i) {
      Pending& p = batch.requests[i];
      if (p.traced)  // graft the shard's batch spans into this request
        for (const obs::TraceSpan& s : batch.spans.spans())
          p.spans.mutable_spans().push_back(s);
      if (!batch.error.empty())
        finish_error(p, ErrorCode::kInternal,
                     "shard predict failed: " + batch.error, sink);
      else
        finish(p, MsgType::kPredictOk, std::move(batch.responses[i]), sink);
      ++answered;
    }
  }
  for (Pending& p : sheds) {
    finish_error(p, ErrorCode::kShed,
                 "deadline of " + std::to_string(p.deadline_ms) +
                     "ms expired in queue",
                 sink);
    ++answered;
  }
  obs::MetricsRegistry::global()
      .gauge("leaf_net_queue_depth")
      .set(static_cast<double>(queued()));
  return answered;
}

StatusResponse ServerCore::status() const {
  const serve::ServeStats stats = fleet_->stats();
  StatusResponse resp;
  resp.fleet_steps = stats.total_steps;
  resp.shards.reserve(stats.shards.size());
  for (std::size_t i = 0; i < stats.shards.size(); ++i) {
    const serve::ShardStats& s = stats.shards[i];
    ShardStatus out;
    out.kpi = s.kpi;
    out.model = s.model;
    out.scheme = s.scheme;
    out.health = static_cast<std::uint8_t>(s.health);
    out.ready = fleet_->shard_ready(i);
    out.num_features =
        static_cast<std::uint32_t>(fleet_->shard_num_features(i));
    out.days_evaluated = s.days_evaluated;
    out.next_day = s.next_day;
    out.done = s.done;
    resp.shards.push_back(std::move(out));
  }
  return resp;
}

std::string scrape_output(const serve::FleetRuntime* fleet, bool json) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  if (json) return reg.scrape_json();
  return fleet != nullptr ? fleet->scrape() : reg.scrape();
}

}  // namespace leaf::net
