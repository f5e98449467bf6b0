// bench_net — loopback RPC front-end harness for the serving fleet.
//
// Drives leaf::net's ServerCore through deterministic loopback schedules
// and verifies, at multiple thread counts:
//
//   sweep        clients x batch-size throughput sweep: every request is
//                answered, every response matches a direct
//                fleet.predict_shard of the same rows;
//   admission    golden shed / retry / served counts from a ManualClock
//                schedule (queue overflow answers kRetry immediately,
//                expired deadlines are SHED at dequeue — never dropped);
//   chaos        seeded evil clients (net-truncate / net-garbage fault
//                points) lose exactly their own connections while every
//                well-behaved client's response stream stays byte-
//                identical to a chaos-free run;
//   determinism  one fixed schedule replayed at LEAF_THREADS=1 and 4
//                produces byte-identical response frames and identical
//                masked leaf_net_* telemetry;
//   trace        the same schedule with a Tracer attached at threads 1
//                and 4 writes TRACE_t1.json / TRACE_t4.json — after
//                masking the wall-clock "ts"/"dur" fields the two span
//                streams must be byte-identical, and must hold every span
//                of the predict path (request -> respond);
//   slo          a seeded chaos deadline storm must drive the fleet's SLO
//                watchdog to slo-burn-critical, and a quiet tail must
//                bring it back to slo-recovered.
//
// Any violation exits non-zero.  Emits BENCH_net.{csv,json}.  `--smoke`
// shrinks the sweep; at LEAF_SCALE=small it also pins the counts to the
// goldens below (the `bench_net_smoke` ctest).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "chaos/chaos.hpp"
#include "common/rng.hpp"
#include "data/generator.hpp"
#include "net/loopback.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "par/parallel.hpp"
#include "serve/runtime.hpp"

using namespace leaf;

namespace {

// Golden counts of `--smoke` at LEAF_SCALE=small.  The admission counts
// (4 served, 4 shed, 2 retries) hold at every scale and are checked inline.
constexpr std::uint64_t kGoldenDropped = 3, kGoldenSurvivorResponses = 30,
                        kGoldenTraceSpans = 50, kGoldenSloCriticals = 1,
                        kGoldenSloRecoveries = 1, kGoldenTsdbSamples = 2093,
                        kGoldenTsdbDriftEvents = 2, kGoldenTsdbDriftState = 2;

std::vector<serve::ShardSpec> make_specs(std::size_t n) {
  std::vector<serve::ShardSpec> specs;
  for (std::size_t i = 0; i < n; ++i)
    specs.push_back({data::kAllTargets[i % data::kAllTargets.size()],
                     models::ModelFamily::kRidge,
                     i % 2 == 0 ? "Triggered" : "LEAF", 0});
  return specs;
}

Matrix probe_rows(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (auto& v : m.flat()) v = rng.uniform();
  return m;
}

/// FNV-1a over a batch of encoded response frames.
std::size_t fingerprint(const std::vector<net::Frame>& frames) {
  std::uint64_t h = kFnvOffset;
  const auto mix = [&h](std::uint64_t v) { h = fnv1a_word(h, v); };
  for (const net::Frame& f : frames) {
    mix(static_cast<std::uint64_t>(f.type));
    mix(f.request_id);
    for (std::uint8_t b : f.payload) mix(b);
  }
  return h;
}

/// The non-wall-clock leaf_net_* scrape lines (the determinism contract).
std::string masked_net_scrape() {
  std::istringstream in(obs::MetricsRegistry::global().scrape());
  std::string line, out;
  while (std::getline(in, line))
    if (line.find("leaf_net_") != std::string::npos &&
        line.find("_seconds") == std::string::npos)
      out += line + "\n";
  return out;
}

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

int fail(const char* what) {
  std::fprintf(stderr, "FATAL: %s\n", what);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  Scale scale = Scale::from_env();
  scale.fixed_enbs = std::min(scale.fixed_enbs, 8);
  scale.num_kpis = std::min(scale.num_kpis, 24);
  scale.eval_stride_days = std::max(scale.eval_stride_days, 6);
  bench::banner("net", "leaf::net loopback RPC front-end harness", scale);

  const data::CellularDataset ds = data::generate_fixed_dataset(scale, 42);
  serve::FleetRuntime fleet(ds, scale, make_specs(4));
  fleet.run_steps(1);  // initial fits: every shard serve-ready
  const std::size_t num_shards = fleet.num_shards();

  CsvWriter csv = bench::csv("BENCH_net.csv");
  csv.row({"scenario", "threads", "clients", "batch_rows", "requests",
           "seconds", "served", "shed", "retries", "dropped_conns"});

  // ---- sweep: clients x batch size ---------------------------------------
  const std::vector<int> client_counts =
      smoke ? std::vector<int>{4} : std::vector<int>{1, 4, 16};
  const std::vector<int> batch_sizes =
      smoke ? std::vector<int>{1, 8} : std::vector<int>{1, 8, 32};
  const int sweep_rounds = smoke ? 8 : 32;

  std::printf("%-12s %8s %8s %10s %10s %12s\n", "scenario", "clients",
              "batch", "requests", "seconds", "req/s");
  for (int clients : client_counts) {
    for (int batch : batch_sizes) {
      net::NetConfig cfg;
      cfg.max_batch_rows = std::max(64, batch);
      net::Loopback loop(fleet, cfg);
      std::vector<net::LoopbackConnection*> conns;
      for (int c = 0; c < clients; ++c) conns.push_back(&loop.connect());

      std::uint64_t id = 1;
      std::size_t answered = 0;
      const obs::Stopwatch sw;
      for (int round = 0; round < sweep_rounds; ++round) {
        for (int c = 0; c < clients; ++c) {
          const std::uint32_t shard =
              static_cast<std::uint32_t>((round + c) % num_shards);
          const int cols = fleet.shard_num_features(shard);
          conns[c]->send(net::make_frame(
              batch == 1 ? net::MsgType::kPredict
                         : net::MsgType::kBatchPredict,
              id, net::PredictRequest{shard, 0, probe_rows(batch, cols, id)}));
          ++id;
        }
        // A pump coalesces at most one batch per shard; drain fully so a
        // deep round (many clients on one shard) is all answered.
        do {
          answered += loop.pump();
        } while (loop.core().queued() > 0);
      }
      const double seconds = sw.seconds();
      const std::size_t requests =
          static_cast<std::size_t>(sweep_rounds) * clients;
      if (answered != requests) return fail("sweep: lost responses");
      // Every response decodes and matches a direct model pass.
      for (int c = 0; c < clients; ++c) {
        std::size_t got = 0;
        while (auto f = conns[c]->receive()) {
          if (f->type != net::MsgType::kPredictOk)
            return fail("sweep: non-OK response");
          const auto body = net::decode_body<net::PredictResponse>(*f);
          const std::uint32_t shard = static_cast<std::uint32_t>(
              (got + static_cast<std::size_t>(c)) % num_shards);
          const Matrix rows = probe_rows(
              batch, fleet.shard_num_features(shard), f->request_id);
          std::vector<double> want(rows.rows());
          fleet.predict_shard(shard, rows, want);
          if (body.values != want) return fail("sweep: response mismatch");
          ++got;
        }
        if (got != static_cast<std::size_t>(sweep_rounds))
          return fail("sweep: client short-changed");
      }
      std::printf("%-12s %8d %8d %10zu %10.4f %12.0f\n", "sweep", clients,
                  batch, requests, seconds,
                  seconds > 0 ? requests / seconds : 0.0);
      csv.row({"sweep", "0", std::to_string(clients), std::to_string(batch),
               std::to_string(requests), fmt(seconds), std::to_string(answered),
               "0", "0", "0"});
    }
  }

  // ---- admission: golden shed / retry counts ------------------------------
  std::uint64_t golden_served = 0, golden_shed = 0, golden_retries = 0;
  {
    obs::MetricsRegistry::global().reset_values();
    net::NetConfig cfg;
    cfg.queue_depth = 4;
    cfg.max_batch_rows = 8;
    net::Loopback loop(fleet, cfg);
    net::LoopbackConnection& conn = loop.connect();
    const int cols = fleet.shard_num_features(0);

    // 6 instant requests against depth 4: the last two answer kRetry.
    for (std::uint64_t id = 1; id <= 6; ++id)
      conn.send(net::make_frame(net::MsgType::kPredict, id,
                                net::PredictRequest{0, 0,
                                                    probe_rows(1, cols, id)}));
    loop.pump();
    // 4 requests with a 10 ms budget that expires while queued: all SHED.
    for (std::uint64_t id = 10; id <= 13; ++id)
      conn.send(net::make_frame(net::MsgType::kPredict, id,
                                net::PredictRequest{0, 10,
                                                    probe_rows(1, cols, id)}));
    loop.clock().advance_ms(50);
    loop.pump();

    std::size_t ok = 0, shed = 0, retry = 0;
    while (auto f = conn.receive()) {
      if (f->type == net::MsgType::kPredictOk) ++ok;
      else if (net::decode_body<net::ErrorResponse>(*f).code ==
               net::ErrorCode::kShed) ++shed;
      else ++retry;
    }
    if (ok != 4 || shed != 4 || retry != 2)
      return fail("admission: golden shed/retry/served counts violated");
    if (obs::kCompiledIn &&
        (counter_value("leaf_net_sheds_total") != shed ||
         counter_value("leaf_net_retries_total") != retry))
      return fail("admission: telemetry disagrees with responses");
    golden_served = ok;
    golden_shed = shed;
    golden_retries = retry;
    std::printf("%-12s served=%zu shed=%zu retry=%zu\n", "admission", ok,
                shed, retry);
    csv.row({"admission", "1", "1", "1", "10", "0", std::to_string(ok),
             std::to_string(shed), std::to_string(retry), "0"});
  }

  // ---- chaos: seeded evil clients -----------------------------------------
  // Fault decisions are a pure function of (seed, conn index, request
  // seq), so the dropped-connection count and every survivor's response
  // stream are golden across runs and thread counts.
  std::size_t chaos_dropped = 0;
  std::size_t chaos_survivor_responses = 0;
  {
    const chaos::ChaosConfig chaos_cfg =
        chaos::ChaosConfig::parse("seed=11,net-truncate=0.05,net-garbage=0.05");
    const chaos::Engine engine(chaos_cfg);
    const int evil_clients = 8;
    const int evil_rounds = smoke ? 6 : 8;

    std::size_t reference_fp = 0;
    for (int pass = 0; pass < 2; ++pass) {
      par::set_threads(pass == 0 ? 1 : 4);
      net::Loopback loop(fleet);
      std::vector<net::LoopbackConnection*> conns;
      for (int c = 0; c < evil_clients; ++c) conns.push_back(&loop.connect());

      for (int seq = 0; seq < evil_rounds; ++seq) {
        for (int c = 0; c < evil_clients; ++c) {
          if (!conns[c]->alive()) continue;
          const int cols = fleet.shard_num_features(0);
          const std::uint64_t id =
              static_cast<std::uint64_t>(seq) * evil_clients + c + 1;
          const std::vector<std::uint8_t> bytes = net::encode_frame(
              net::make_frame(net::MsgType::kPredict, id,
                              net::PredictRequest{0, 0,
                                                  probe_rows(1, cols, id)}));
          const auto cid = static_cast<std::uint64_t>(c);
          const auto s = static_cast<std::uint64_t>(seq);
          if (engine.net_truncate(cid, s)) {
            // Disconnect mid-frame: half the bytes, then gone.
            conns[c]->send_bytes(
                std::span<const std::uint8_t>(bytes.data(), bytes.size() / 2));
            conns[c]->close();
          } else if (engine.net_garbage(cid, s)) {
            std::vector<std::uint8_t> bad = bytes;
            bad[net::kHeaderBytes + bad.size() % 7] ^= 0x10;  // CRC catches
            conns[c]->send_bytes(bad);
          } else {
            conns[c]->send_bytes(bytes);
          }
        }
        loop.pump();
      }

      std::size_t dropped = 0, responses = 0;
      std::vector<net::Frame> survivor_frames;
      for (int c = 0; c < evil_clients; ++c) {
        if (!conns[c]->alive()) {
          ++dropped;
          continue;
        }
        while (auto f = conns[c]->receive()) {
          survivor_frames.push_back(std::move(*f));
          ++responses;
        }
      }
      // The harness must have exercised both outcomes, and the fleet must
      // still be serving.
      if (dropped == 0 || dropped == evil_clients)
        return fail("chaos: fault schedule degenerate (tune probabilities)");
      net::LoopbackConnection& fresh = loop.connect();
      fresh.send(net::Frame{net::MsgType::kFleetStatus, 1, {}});
      if (!fresh.receive().has_value())
        return fail("chaos: server dead after evil clients");

      const std::size_t fp = fingerprint(survivor_frames);
      if (pass == 0) {
        reference_fp = fp;
        chaos_dropped = dropped;
        chaos_survivor_responses = responses;
      } else if (fp != reference_fp || dropped != chaos_dropped ||
                 responses != chaos_survivor_responses) {
        return fail("chaos: survivor streams differ across thread counts");
      }
      std::printf("%-12s threads=%d dropped=%zu survivor_responses=%zu\n",
                  "chaos", pass == 0 ? 1 : 4, dropped, responses);
      csv.row({"chaos", pass == 0 ? "1" : "4",
               std::to_string(evil_clients), "1",
               std::to_string(evil_clients * evil_rounds), "0",
               std::to_string(responses), "0", "0",
               std::to_string(dropped)});
    }
  }

  // ---- determinism: fixed schedule at threads 1 vs 4 ----------------------
  bool determinism_ok = true;
  {
    const auto run = [&](int threads) {
      par::set_threads(threads);
      obs::MetricsRegistry::global().reset_values();
      net::Loopback loop(fleet);
      std::vector<net::LoopbackConnection*> conns;
      for (int c = 0; c < 3; ++c) conns.push_back(&loop.connect());
      std::uint64_t id = 1;
      for (int round = 0; round < (smoke ? 6 : 16); ++round) {
        for (int c = 0; c < 3; ++c) {
          const std::uint32_t shard =
              static_cast<std::uint32_t>((round + c) % num_shards);
          const std::size_t rows = 1 + (round + c) % 4;
          const int cols = fleet.shard_num_features(shard);
          conns[c]->send(net::make_frame(
              rows == 1 ? net::MsgType::kPredict : net::MsgType::kBatchPredict,
              id, net::PredictRequest{shard, 0, probe_rows(rows, cols, id)}));
          ++id;
        }
        if (round % 2 == 1) loop.pump();
      }
      while (loop.core().queued() > 0) loop.pump();
      std::vector<net::Frame> all;
      for (auto* c : conns)
        while (auto f = c->receive()) all.push_back(std::move(*f));
      return std::make_pair(fingerprint(all), masked_net_scrape());
    };
    const auto [fp1, scrape1] = run(1);
    const auto [fp4, scrape4] = run(4);
    determinism_ok = fp1 == fp4 && scrape1 == scrape4;
    if (!determinism_ok)
      return fail("determinism: responses or telemetry differ across threads");
    std::printf("%-12s threads 1 vs 4: identical\n", "determinism");
    csv.row({"determinism", "1+4", "3", "0", "0", "0", "0", "0", "0", "0"});
  }

  // ---- trace: masked span streams at threads 1 vs 4 -----------------------
  // Trace ids derive from (connection, request id) and spans are written
  // by the single pump thread, so with wall-clock ts/dur masked the two
  // files must match byte for byte.
  std::uint64_t trace_spans = 0;
  {
    const auto traced = [&](int threads, const std::string& path) {
      par::set_threads(threads);
      obs::Tracer tracer(path, /*sample_every=*/1);
      if (!tracer.ok()) return std::make_pair(std::string(), std::uint64_t{0});
      net::Loopback loop(fleet);
      loop.core().set_tracer(&tracer);
      std::vector<net::LoopbackConnection*> conns;
      for (int c = 0; c < 2; ++c) conns.push_back(&loop.connect());
      conns[0]->send(net::Frame{net::MsgType::kFleetStatus, 1, {}});
      std::uint64_t id = 2;
      for (int round = 0; round < (smoke ? 4 : 12); ++round) {
        for (int c = 0; c < 2; ++c) {
          const std::uint32_t shard =
              static_cast<std::uint32_t>((round + c) % num_shards);
          const std::size_t rows = 1 + (round + c) % 3;
          const int cols = fleet.shard_num_features(shard);
          conns[c]->send(net::make_frame(
              rows == 1 ? net::MsgType::kPredict : net::MsgType::kBatchPredict,
              id, net::PredictRequest{shard, 0, probe_rows(rows, cols, id)}));
          ++id;
        }
        do {
          loop.pump();
        } while (loop.core().queued() > 0);
      }
      loop.core().set_tracer(nullptr);
      tracer.close();
      std::ifstream in(path);
      std::stringstream buf;
      buf << in.rdbuf();
      static const std::regex kWallClock(", \"ts\": [0-9]+, \"dur\": [0-9]+");
      return std::make_pair(std::regex_replace(buf.str(), kWallClock, ""),
                            tracer.spans_written());
    };
    const auto [masked1, spans1] =
        traced(1, bench::out_dir() + "/TRACE_t1.json");
    const auto [masked4, spans4] =
        traced(4, bench::out_dir() + "/TRACE_t4.json");
    if (spans1 == 0 || masked1.empty())
      return fail("trace: no spans written (tracer sink unopenable?)");
    if (masked1.substr(0, 1) != "[" ||
        masked1.substr(masked1.size() - 2) != "]\n")
      return fail("trace: output is not a Chrome trace-event array");
    if (masked1 != masked4 || spans1 != spans4)
      return fail("trace: masked span streams differ across thread counts");
    for (const char* name : {"request", "decode", "admission", "batch",
                             "shard-predict", "respond"})
      if (masked1.find("\"name\": \"" + std::string(name) + "\"") ==
          std::string::npos)
        return fail("trace: a predict-path span name is missing");
    trace_spans = spans1;
    std::printf("%-12s threads 1 vs 4: %llu spans, masked streams identical\n",
                "trace", static_cast<unsigned long long>(trace_spans));
    csv.row({"trace", "1+4", "2", "0", std::to_string(trace_spans), "0", "0",
             "0", "0", "0"});
  }

  // ---- slo: deadline storm trips the watchdog, quiet tail recovers --------
  // Storm membership is a pure function of (seed, conn, round), so the
  // event sequence and final state are golden.  The watchdog is the
  // fleet's own, fed by one telemetry tick per round.
  std::uint64_t slo_criticals = 0, slo_recoveries = 0;
  std::string slo_final_state;
  if (obs::kCompiledIn) {
    const chaos::Engine storm(
        chaos::ChaosConfig::parse("seed=7,deadline-storm=0.75"));
    serve::SupervisorConfig armed;
    armed.slo = obs::SloSpec::parse("window=4,deadline-miss=0.3,recover=3");
    serve::FleetRuntime slo_fleet(ds, scale, make_specs(4), 2024, armed);
    slo_fleet.run_steps(1);
    const obs::SloWatchdog& dog = *slo_fleet.slo_watchdog();
    net::NetConfig cfg;
    cfg.max_batch_rows = 8;
    net::Loopback loop(slo_fleet, cfg);
    std::vector<net::LoopbackConnection*> conns;
    for (int c = 0; c < 4; ++c) conns.push_back(&loop.connect());
    bool burned_critical = false;
    std::uint64_t id = 1;
    const int storm_from = 4, storm_to = 10, total_rounds = 20;
    for (int round = 0; round < total_rounds; ++round) {
      const bool stormy = round >= storm_from && round < storm_to;
      for (int c = 0; c < 4; ++c) {
        const std::uint32_t shard = static_cast<std::uint32_t>(c % num_shards);
        const int cols = slo_fleet.shard_num_features(shard);
        // During the storm most requests carry a 5 ms budget that expires
        // while queued; quiet rounds have no deadline at all.
        const std::uint32_t deadline =
            stormy && storm.deadline_storm(static_cast<std::uint64_t>(c),
                                           static_cast<std::uint64_t>(round))
                ? 5
                : 0;
        conns[c]->send(net::make_frame(
            net::MsgType::kPredict, id,
            net::PredictRequest{shard, deadline, probe_rows(1, cols, id)}));
        ++id;
      }
      if (stormy) loop.clock().advance_ms(50);
      do {
        loop.pump();
      } while (loop.core().queued() > 0);
      slo_fleet.sample_telemetry();
      if (dog.state() == obs::SloWatchdog::State::kCritical)
        burned_critical = true;
    }
    for (const obs::Event& e : dog.events().events()) {
      if (e.kind == obs::EventKind::kSloBurnCritical) ++slo_criticals;
      if (e.kind == obs::EventKind::kSloRecovered) ++slo_recoveries;
    }
    slo_final_state = obs::to_string(dog.state());
    if (!burned_critical)
      return fail("slo: deadline storm never tripped slo-burn-critical");
    if (dog.state() != obs::SloWatchdog::State::kOk || slo_recoveries == 0)
      return fail("slo: watchdog never recovered after the storm passed");
    if (obs::MetricsRegistry::global().gauge("leaf_slo_state").value() != 0.0)
      return fail("slo: leaf_slo_state gauge disagrees with watchdog state");
    std::printf("%-12s criticals=%llu recoveries=%llu final=%s\n", "slo",
                static_cast<unsigned long long>(slo_criticals),
                static_cast<unsigned long long>(slo_recoveries),
                slo_final_state.c_str());
    csv.row({"slo", "1", "4", "1", std::to_string(total_rounds * 4), "0",
             std::to_string(slo_criticals), std::to_string(slo_recoveries),
             "0", "0"});
  } else {
    std::printf("%-12s skipped (-DLEAF_OBS=OFF)\n", "slo");
  }

  // ---- tsdb: telemetry store determinism + meta-drift storm golden --------
  // A quiet stretch then an all-miss deadline storm, sampled into the
  // fleet's telemetry store each tick.  The deadline-miss recording rule
  // must fire (a telemetry-drift supervision event + a raised gauge), and
  // the stored deterministic series must fingerprint identically at
  // LEAF_THREADS=1 and 4.
  std::uint64_t tsdb_drift_events = 0, tsdb_samples = 0;
  int tsdb_drift_state = 0;
  if (obs::kCompiledIn) {
    const auto run = [&](int threads) {
      par::set_threads(threads);
      serve::FleetRuntime storm_fleet(ds, scale, make_specs(2));
      storm_fleet.run_steps(1);
      net::Loopback loop(storm_fleet);
      net::LoopbackConnection& conn = loop.connect();
      const int cols = storm_fleet.shard_num_features(0);
      std::uint64_t id = 1;
      for (int tick = 0; tick < 90; ++tick) {
        const bool stormy = tick >= 45;
        conn.send(net::make_frame(
            net::MsgType::kPredict, id,
            net::PredictRequest{0, stormy ? 5u : 0u, probe_rows(1, cols, id)}));
        ++id;
        if (stormy) loop.clock().advance_ms(50);  // expires while queued
        loop.pump();
        while (conn.receive().has_value()) {
        }
        storm_fleet.sample_telemetry();
      }
      std::uint64_t drift_events = 0;
      for (const obs::Event& e : storm_fleet.supervision_events())
        if (e.kind == obs::EventKind::kTelemetryDrift) ++drift_events;
      return std::make_tuple(storm_fleet.telemetry().fingerprint(),
                             storm_fleet.telemetry().samples_recorded(),
                             drift_events,
                             storm_fleet.telemetry_drift_state());
    };
    const auto [fp1, n1, ev1, state1] = run(1);
    const auto [fp4, n4, ev4, state4] = run(4);
    if (n1 == 0) return fail("tsdb: no samples recorded");
    if (ev1 == 0 || state1 == 0)
      return fail("tsdb: deadline storm never fired the meta-drift rule");
    if (fp1 != fp4 || n1 != n4 || ev1 != ev4 || state1 != state4)
      return fail("tsdb: stored series or drift goldens differ across threads");
    tsdb_drift_events = ev1;
    tsdb_samples = n1;
    tsdb_drift_state = state1;
    std::printf("%-12s threads 1 vs 4: samples=%llu drift_events=%llu "
                "state=%d identical\n",
                "tsdb", static_cast<unsigned long long>(tsdb_samples),
                static_cast<unsigned long long>(tsdb_drift_events),
                tsdb_drift_state);
    csv.row({"tsdb", "1+4", "1", "0", std::to_string(tsdb_samples), "0",
             std::to_string(tsdb_drift_events), "0", "0", "0"});
  } else {
    std::printf("%-12s skipped (-DLEAF_OBS=OFF)\n", "tsdb");
  }

  const std::string metrics = bench::metrics_json();
  if (metrics.rfind("{\"metrics\": []", 0) == 0)
    return fail("metrics: the registry holds no series");

  std::ofstream json(bench::out_dir() + "/BENCH_net.json");
  json << "{\n"
       << "  \"admission\": {\"served\": " << golden_served
       << ", \"shed\": " << golden_shed
       << ", \"retries\": " << golden_retries << "},\n"
       << "  \"chaos\": {\"dropped_conns\": " << chaos_dropped
       << ", \"survivor_responses\": " << chaos_survivor_responses
       << ", \"fleet_survived\": true},\n"
       << "  \"determinism\": {\"identical\": "
       << (determinism_ok ? "true" : "false") << "},\n"
       << "  \"trace\": {\"spans\": " << trace_spans
       << ", \"masked_identical\": true},\n"
       << "  \"slo\": {\"criticals\": " << slo_criticals
       << ", \"recoveries\": " << slo_recoveries << ", \"final_state\": \""
       << slo_final_state << "\"},\n"
       << "  \"tsdb\": {\"samples\": " << tsdb_samples
       << ", \"drift_events\": " << tsdb_drift_events
       << ", \"drift_state\": " << tsdb_drift_state
       << ", \"identical\": true},\n"
       << "  \"metrics\": " << metrics << "\n}\n";
  par::set_threads(0);
  bench::require_ok(csv);
  std::printf("\nwrote %s/BENCH_net.json\n", bench::out_dir().c_str());

  if (smoke && scale.level == Scale::Level::kSmall) {
    bench::require_golden("chaos.dropped_conns", chaos_dropped,
                          kGoldenDropped);
    bench::require_golden("chaos.survivor_responses",
                          chaos_survivor_responses, kGoldenSurvivorResponses);
    bench::require_golden("trace.spans", trace_spans, kGoldenTraceSpans);
    if (obs::kCompiledIn) {
      bench::require_golden("slo.criticals", slo_criticals,
                            kGoldenSloCriticals);
      bench::require_golden("slo.recoveries", slo_recoveries,
                            kGoldenSloRecoveries);
      bench::require_golden("tsdb.samples", tsdb_samples, kGoldenTsdbSamples);
      bench::require_golden("tsdb.drift_events", tsdb_drift_events,
                            kGoldenTsdbDriftEvents);
      bench::require_golden("tsdb.drift_state", tsdb_drift_state,
                            kGoldenTsdbDriftState);
    }
  }
  return 0;
}
