// Microbenchmarks (google-benchmark): throughput of the building blocks —
// dataset synthesis, model fit/predict, drift-detector updates, the
// explainer's LEA pass, and the snapshot byte paths (CRC-32, encode and
// parse of a fleet snapshot).  Not a paper artifact; used to budget the
// experiment benches and catch performance regressions.
//
// After the google-benchmark suite, main() runs a LEAF_THREADS scaling
// sweep (threads ∈ {1,2,4,8} × {forest fit, GBDT fit, the LEAF-shaped GBDT
// fit inside an open region, permutation importance, full run_scheme at top
// level and inside an open region}) and
// writes the measured wall times and speedups, with a host descriptor, to
// $LEAF_BENCH_OUT/BENCH_parallel.json.  The sweep fails if the
// run_scheme span sites did not record into the metrics section.  Last, a
// LEAF-shaped permutation importance call (BM_LeafImportance's case) is
// checked for every tree family against the default column sweep, bit for
// bit, and its re-walked (tree, row) pairs are counted.
//
// With --kernels the gbench suite and the thread sweep are skipped and a
// leaf::simd micro-suite runs instead: each kernel is timed through its
// scalar reference and its vectorized implementation, the two results are
// asserted bit-identical, and per-kernel ns/op + speedup + a result
// fingerprint go to $LEAF_BENCH_OUT/BENCH_kernels.json.  With --smoke the
// suite fingerprint is pinned to a golden that every ISA, every build
// flag and -DLEAF_SIMD=ON/OFF must reproduce.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <numeric>
#include <string_view>
#include <thread>

#include "bench_common.hpp"
#include "common/calendar.hpp"
#include "common/config.hpp"
#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/experiment.hpp"
#include "core/leaf_scheme.hpp"
#include "core/scheme.hpp"
#include "data/generator.hpp"
#include "drift/adwin.hpp"
#include "drift/ddm.hpp"
#include "drift/kswin.hpp"
#include "explain/importance.hpp"
#include "explain/lea.hpp"
#include "io/serializer.hpp"
#include "io/snapshot.hpp"
#include "models/factory.hpp"
#include "models/forest.hpp"
#include "models/gbdt.hpp"
#include "par/parallel.hpp"
#include "par/pool.hpp"
#include "serve/runtime.hpp"
#include "serve/supervision.hpp"
#include "simd/kernels.hpp"
#include "simd/simd.hpp"

using namespace leaf;

namespace {

/// Small synthetic regression problem shared by the model benchmarks.
struct Problem {
  Matrix X;
  std::vector<double> y;

  static const Problem& get() {
    static const Problem p = [] {
      Problem out;
      Rng rng(42);
      const std::size_t n = 512, k = 64;
      out.X = Matrix(n, k);
      out.y.resize(n);
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < k; ++c) out.X(r, c) = rng.normal();
        out.y[r] = 2.0 * out.X(r, 0) - out.X(r, 3) + 0.1 * rng.normal();
      }
      return out;
    }();
    return p;
  }
};

void BM_DatasetGeneration(benchmark::State& state) {
  Scale scale = Scale::for_level(Scale::Level::kSmall);
  scale.fixed_enbs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto ds = data::generate_fixed_dataset(scale);
    benchmark::DoNotOptimize(ds.total_logs());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          cal::study_length());
}
BENCHMARK(BM_DatasetGeneration)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_ModelFit(benchmark::State& state) {
  const auto& p = Problem::get();
  const Scale scale = Scale::for_level(Scale::Level::kSmall);
  const auto family = static_cast<models::ModelFamily>(state.range(0));
  const auto model = models::make_model(family, scale, 1);
  for (auto _ : state) {
    auto m = model->clone_untrained();
    m->fit(p.X, p.y);
    benchmark::DoNotOptimize(m->trained());
  }
  state.SetLabel(models::to_string(family));
}
BENCHMARK(BM_ModelFit)
    ->Arg(static_cast<int>(models::ModelFamily::kGbdt))
    ->Arg(static_cast<int>(models::ModelFamily::kRandomForest))
    ->Arg(static_cast<int>(models::ModelFamily::kExtraTrees))
    ->Arg(static_cast<int>(models::ModelFamily::kKnn))
    ->Arg(static_cast<int>(models::ModelFamily::kRidge))
    ->Unit(benchmark::kMillisecond);

void BM_ModelPredict(benchmark::State& state) {
  const auto& p = Problem::get();
  const Scale scale = Scale::for_level(Scale::Level::kSmall);
  const auto family = static_cast<models::ModelFamily>(state.range(0));
  const auto model = models::make_model(family, scale, 1);
  model->fit(p.X, p.y);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->predict_one(p.X.row(0)));
  }
  state.SetLabel(models::to_string(family));
}
BENCHMARK(BM_ModelPredict)
    ->Arg(static_cast<int>(models::ModelFamily::kGbdt))
    ->Arg(static_cast<int>(models::ModelFamily::kKnn))
    ->Arg(static_cast<int>(models::ModelFamily::kLstm))
    ->Arg(static_cast<int>(models::ModelFamily::kRidge));

template <typename Detector>
void BM_DetectorUpdate(benchmark::State& state) {
  Detector det;
  Rng rng(7);
  std::vector<double> stream(4096);
  for (auto& v : stream) v = 0.05 + 0.01 * rng.normal();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.update(stream[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DetectorUpdate<drift::Kswin>);
BENCHMARK(BM_DetectorUpdate<drift::Adwin>);
BENCHMARK(BM_DetectorUpdate<drift::Ddm>);
BENCHMARK(BM_DetectorUpdate<drift::HddmA>);
BENCHMARK(BM_DetectorUpdate<drift::PageHinkley>);

void BM_KsTest(benchmark::State& state) {
  Rng rng(7);
  std::vector<double> a(static_cast<std::size_t>(state.range(0)));
  std::vector<double> b(a.size());
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal(0.3, 1.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::ks_p_value(a, b));
  }
}
BENCHMARK(BM_KsTest)->Arg(30)->Arg(100)->Arg(1000);

void BM_LeaCompute(benchmark::State& state) {
  const auto& p = Problem::get();
  const Scale scale = Scale::for_level(Scale::Level::kSmall);
  const auto model = models::make_model(models::ModelFamily::kGbdt, scale, 1);
  model->fit(p.X, p.y);
  const std::vector<double> pred = model->predict(p.X);
  const std::vector<double> fv = p.X.col(0);
  const std::vector<double> edges = explain::lea_bin_edges(fv, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        explain::compute_lea(pred, p.y, fv, 0, 1.0, edges));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(p.y.size()));
}
BENCHMARK(BM_LeaCompute);

void BM_PermutationImportance(benchmark::State& state) {
  const auto& p = Problem::get();
  const Scale scale = Scale::for_level(Scale::Level::kSmall);
  const auto model = models::make_model(models::ModelFamily::kGbdt, scale, 1);
  model->fit(p.X, p.y);
  Rng rng(9);
  explain::ImportanceConfig cfg;
  cfg.repeats = 1;
  cfg.max_rows = 256;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        explain::permutation_importance(*model, p.X, p.y, 1.0, rng, cfg));
  }
}
BENCHMARK(BM_PermutationImportance)->Unit(benchmark::kMillisecond);

// --- LEAF-shaped permutation importance -----------------------------------

/// One LEAF mitigation's importance call at small scale: a model fit on the
/// DVol task's initial 14-day training window, scored on the latest
/// labeled 14-day window before day 1100 (336 rows x 72 columns), 2
/// repeats over the KPI columns, as LeafScheme configures it.
struct LeafImportanceCase {
  data::SupervisedSet train;
  data::SupervisedSet latest;
  double norm_range = 0.0;
  explain::ImportanceConfig cfg;

  static const LeafImportanceCase& get() {
    static const LeafImportanceCase c = [] {
      const Scale scale = Scale::for_level(Scale::Level::kSmall);
      const data::CellularDataset ds = data::generate_fixed_dataset(scale, 42);
      const data::Featurizer featurizer(ds, data::TargetKpi::kDVol);
      const int anchor = cal::anchor_2018_07_01();
      LeafImportanceCase out;
      out.train = featurizer.window(anchor - 13, anchor);
      out.latest = core::latest_labeled_window(featurizer, 1100, 14);
      out.norm_range = featurizer.norm_range();
      out.cfg.repeats = core::LeafScheme::kImportanceRepeats;
      out.cfg.max_rows = core::LeafScheme::kImportanceMaxRows;
      out.cfg.scored_columns =
          static_cast<std::size_t>(featurizer.num_kpi_features());
      return out;
    }();
    return c;
  }

  std::unique_ptr<models::Regressor> fit(models::ModelFamily family) const {
    auto model =
        models::make_model(family, Scale::for_level(Scale::Level::kSmall), 1);
    model->fit(train.X, train.y);
    return model;
  }

  std::vector<double> scores(const models::Regressor& model) const {
    Rng rng(9);
    return explain::permutation_importance(model, latest.X, latest.y,
                                           norm_range, rng, cfg);
  }
};

/// Forwards predictions to a fitted model but keeps Regressor's default
/// column sweep, so importance runs the model-agnostic path.
class DefaultSweepModel final : public models::Regressor {
 public:
  explicit DefaultSweepModel(const models::Regressor& inner)
      : inner_(inner) {}
  void fit(const Matrix&, std::span<const double>,
           std::span<const double>) override {
    std::abort();  // predicts only
  }
  double predict_one(std::span<const double> x) const override {
    return inner_.predict_one(x);
  }
  void predict_into(const Matrix& X, std::span<double> out) const override {
    inner_.predict_into(X, out);
  }
  std::unique_ptr<models::Regressor> clone_untrained() const override {
    return inner_.clone_untrained();
  }
  std::string name() const override { return inner_.name(); }
  bool trained() const override { return inner_.trained(); }

 private:
  const models::Regressor& inner_;
};

/// range(0): model family; range(1): 1 for the model's own column sweep,
/// 0 for the default one.
void BM_LeafImportance(benchmark::State& state) {
  const LeafImportanceCase& c = LeafImportanceCase::get();
  const auto family = static_cast<models::ModelFamily>(state.range(0));
  const auto model = c.fit(family);
  const DefaultSweepModel fallback(*model);
  const models::Regressor* scored =
      state.range(1) != 0 ? model.get() : &fallback;
  for (auto _ : state) benchmark::DoNotOptimize(c.scores(*scored));
  state.SetLabel(models::to_string(family) +
                 (state.range(1) != 0 ? " own sweep" : " default sweep"));
}
BENCHMARK(BM_LeafImportance)
    ->ArgsProduct({{static_cast<int>(models::ModelFamily::kGbdt),
                    static_cast<int>(models::ModelFamily::kRandomForest),
                    static_cast<int>(models::ModelFamily::kExtraTrees)},
                   {0, 1}})
    ->Unit(benchmark::kMillisecond);

/// (tree, row) pairs the GBDT importance call of LeafImportanceCase
/// re-walks, summed over its 64 columns x 2 repeats.
constexpr std::uint64_t kGoldenLeafRewalks = 88968;

/// Checks the LEAF-shaped importance call of every tree family: its
/// scores must match the default sweep's bit for bit.  Prints the share of
/// (tree, row) pairs each call re-walks; with --smoke the GBDT count is
/// pinned.
void check_leaf_importance(bool smoke) {
  const LeafImportanceCase& c = LeafImportanceCase::get();
  std::printf("\nLEAF-shaped importance (%zu rows x %zu columns, %zu scored, "
              "%d repeats)\n",
              c.latest.X.rows(), c.latest.X.cols(), c.cfg.scored_columns,
              c.cfg.repeats);
  std::printf("%-14s %10s %12s %8s\n", "family", "re-walked", "pair-calls",
              "share");
  for (const models::ModelFamily family :
       {models::ModelFamily::kGbdt, models::ModelFamily::kRandomForest,
        models::ModelFamily::kExtraTrees}) {
    const auto model = c.fit(family);
    if (c.scores(*model) != c.scores(DefaultSweepModel(*model))) {
      std::fprintf(stderr,
                   "FATAL: %s importance differs from the default sweep\n",
                   models::to_string(family).c_str());
      std::exit(1);
    }
    const auto sweep = model->column_sweep(c.latest.X);
    const auto& trees = dynamic_cast<const models::TreeSweep&>(*sweep);
    std::uint64_t rewalks = 0;
    for (std::size_t col = 0; col < c.cfg.scored_columns; ++col)
      rewalks += trees.rewalks(col);
    rewalks *= static_cast<std::uint64_t>(c.cfg.repeats);
    const double calls = static_cast<double>(c.cfg.scored_columns) *
                         static_cast<double>(c.cfg.repeats);
    const auto* gbdt = dynamic_cast<const models::Gbdt*>(model.get());
    const double pairs =
        static_cast<double>(c.latest.X.rows()) *
        static_cast<double>(
            gbdt != nullptr
                ? gbdt->tree_count()
                : dynamic_cast<const models::Forest&>(*model).tree_count());
    std::printf("%-14s %10llu %12.0f %7.2f%%\n",
                models::to_string(family).c_str(),
                static_cast<unsigned long long>(rewalks), pairs * calls,
                100.0 * static_cast<double>(rewalks) / (pairs * calls));
    if (smoke && family == models::ModelFamily::kGbdt)
      bench::require_golden("leaf importance rewalks", rewalks,
                            kGoldenLeafRewalks);
  }
}

// --- snapshot byte paths ---------------------------------------------------

void BM_Crc32(benchmark::State& state) {
  std::vector<std::uint8_t> buf(1 << 20);
  Rng rng(5);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng() >> 56);
  for (auto _ : state) benchmark::DoNotOptimize(io::crc32(buf));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_Crc32);

/// The sections of a 6-shard LEAF fleet's snapshot after 20 steps, loaded
/// back into a writer.
const io::SnapshotWriter& fleet_snapshot_writer() {
  static const io::SnapshotWriter writer = [] {
    const Scale scale = Scale::for_level(Scale::Level::kSmall);
    const data::CellularDataset ds = data::generate_fixed_dataset(scale, 42);
    std::vector<serve::ShardSpec> specs;
    std::vector<std::string> names = {"meta"};
    for (std::size_t i = 0; i < 6; ++i) {
      specs.push_back({data::kAllTargets[i], models::ModelFamily::kGbdt,
                       "LEAF", 0});
      names.push_back("shard" + std::to_string(i));
    }
    names.push_back("tsdb");
    serve::FleetRuntime fleet(ds, scale, specs, 42);
    fleet.run_steps(20);
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "leaf_bench_micro_snapshot";
    std::filesystem::remove_all(dir);
    fleet.snapshot(dir.string());
    std::ifstream f(serve::SnapshotStore(dir.string()).path(1),
                    std::ios::binary);
    const std::vector<std::uint8_t> bytes(std::istreambuf_iterator<char>(f),
                                          {});
    std::filesystem::remove_all(dir);
    const io::SnapshotReader reader(bytes);
    io::SnapshotWriter w;
    for (const std::string& name : names) {
      const auto [offset, length] = reader.payload_range(name);
      w.section(name).put_raw(
          std::span<const std::uint8_t>(bytes).subspan(offset, length));
    }
    return w;
  }();
  return writer;
}

void BM_SnapshotEncodeParse(benchmark::State& state) {
  const io::SnapshotWriter& writer = fleet_snapshot_writer();
  std::size_t size = 0;
  for (auto _ : state) {
    std::vector<std::uint8_t> bytes = writer.encode();
    size = bytes.size();
    const io::SnapshotReader reader(std::move(bytes));
    benchmark::DoNotOptimize(reader.has("meta"));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_SnapshotEncodeParse)->Unit(benchmark::kMicrosecond);

// --- LEAF_THREADS scaling sweep -------------------------------------------

/// The host and build the sweep ran on: CPU model (first "model name" of
/// /proc/cpuinfo, "unknown" elsewhere), compiler, build type and the
/// active SIMD dispatch.
std::string host_json() {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    const std::size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      cpu = line.substr(colon + 2);
      break;
    }
  }
#ifdef NDEBUG
  const char* build = "optimized, NDEBUG";
#else
  const char* build = "assertions on";
#endif
#if defined(__clang__)
  const char* compiler_family = "Clang ";
#elif defined(__GNUC__)
  const char* compiler_family = "GNU ";
#else
  const char* compiler_family = "";
#endif
  return std::string("{\"cpu_model\": \"") + cpu + "\", \"compiler\": \"" +
         compiler_family + __VERSION__ + "\", \"build\": \"" + build +
         "\", \"simd_isa\": \"" + simd::active_isa() + "\"}";
}

struct SweepWorkload {
  const char* name;
  std::function<void()> body;
};

void run_thread_sweep(bool smoke) {
  const auto& p = Problem::get();
  const Scale scale = Scale::for_level(Scale::Level::kSmall);

  // Built here, so no timed rep generates its dataset.
  const LeafImportanceCase& leaf_case = LeafImportanceCase::get();

  // A fitted model for the importance workload (fit once, score per rep).
  const auto imp_model =
      models::make_model(models::ModelFamily::kGbdt, scale, 1);
  imp_model->fit(p.X, p.y);

  // Tiny dataset for the end-to-end run_scheme workload.
  Scale eval_scale = scale;
  eval_scale.fixed_enbs = 6;
  eval_scale.num_kpis = 16;
  eval_scale.gbdt_trees = 15;
  eval_scale.eval_stride_days = 4;
  const data::CellularDataset ds =
      data::generate_fixed_dataset(eval_scale, 42);
  const data::Featurizer featurizer(ds, data::TargetKpi::kDVol);
  const auto run_scheme = [&] {
    const auto m =
        models::make_model(models::ModelFamily::kGbdt, eval_scale, 1);
    core::TriggeredScheme scheme;
    benchmark::DoNotOptimize(
        core::run_scheme(featurizer, *m, scheme,
                         core::make_eval_config(eval_scale))
            .retrain_count());
  };

  const SweepWorkload workloads[] = {
      {"forest_fit",
       [&] {
         models::Forest f(models::ForestConfig::random_forest(48, 7), "RF");
         f.fit(p.X, p.y);
         benchmark::DoNotOptimize(f.trained());
       }},
      {"gbdt_fit",
       [&] {
         const auto m =
             models::make_model(models::ModelFamily::kGbdt, scale, 1);
         m->fit(p.X, p.y);
         benchmark::DoNotOptimize(m->trained());
       }},
      // One shard's refit as a fleet step runs it: the LEAF-shaped fit
      // (336 x 72) in the first chunk of an open two-chunk region, so the
      // other threads poll for its nested jobs instead of parking.
      {"gbdt_fit_in_region",
       [&] {
         par::parallel_for(2, [&](std::size_t i) {
           if (i == 0)
             benchmark::DoNotOptimize(
                 leaf_case.fit(models::ModelFamily::kGbdt));
         });
       }},
      {"permutation_importance",
       [&] {
         Rng rng(9);
         explain::ImportanceConfig cfg;
         cfg.repeats = 2;
         cfg.max_rows = 256;
         benchmark::DoNotOptimize(explain::permutation_importance(
             *imp_model, p.X, p.y, 1.0, rng, cfg));
       }},
      {"run_scheme", run_scheme},
      // The same call in the first chunk of an open two-chunk region, as
      // gbdt_fit_in_region runs one fit: its fits' regions then find the
      // other threads polling instead of parked.
      {"run_scheme_in_region",
       [&] {
         par::parallel_for(2, [&](std::size_t i) {
           if (i == 0) run_scheme();
         });
       }},
  };

  // --smoke: one rep at 1 and 2 threads — enough to exercise every
  // workload and produce a parseable BENCH_parallel.json.
  const std::vector<int> sweep_threads =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  const int reps = smoke ? 1 : 3;
  std::printf("\nLEAF_THREADS scaling sweep (best-of-%d wall ms)\n", reps);
  std::printf("%-24s", "workload");
  for (int t : sweep_threads) std::printf("  t=%-10d", t);
  std::printf("\n");

  std::ofstream json(bench::out_dir() + "/BENCH_parallel.json");
  json << "{\n  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n  \"host\": "
       << host_json() << ",\n  \"reps\": " << reps
       << ",\n  \"workloads\": [\n";
  bool first_wl = true;
  for (const auto& wl : workloads) {
    double serial_ms = 0.0;
    std::printf("%-24s", wl.name);
    if (!first_wl) json << ",\n";
    first_wl = false;
    json << "    {\"name\": \"" << wl.name << "\", \"runs\": [";
    bool first_run = true;
    for (int t : sweep_threads) {
      par::set_threads(t);
      const double ms = bench::time_best_ms(wl.name, wl.body, reps);
      if (t == 1) serial_ms = ms;
      const double speedup = ms > 0.0 ? serial_ms / ms : 0.0;
      std::printf("  %7.2f/%4.2fx", ms, speedup);
      if (!first_run) json << ", ";
      first_run = false;
      json << "{\"threads\": " << t << ", \"ms\": " << ms
           << ", \"speedup\": " << speedup << "}";
    }
    std::printf("\n");
    json << "]}";
  }
  json << "\n  ],\n  \"metrics\": " << bench::metrics_json() << "\n}\n";
  par::set_threads(0);  // restore the LEAF_THREADS / hardware default
  std::printf("wrote %s/BENCH_parallel.json\n", bench::out_dir().c_str());

  if constexpr (obs::kCompiledIn) {
    for (const char* site : {"bench.run_scheme", "run_scheme.initial_fit"}) {
      if (obs::MetricsRegistry::global().span_site(site).count() == 0) {
        std::fprintf(stderr, "FATAL: span site %s recorded nothing\n", site);
        std::exit(1);
      }
    }
  }
}

// --- leaf::simd kernel micro-suite (--kernels) ----------------------------

/// Seed of the kernel fingerprints (FNV-1a over each kernel's output,
/// chained into the suite fingerprint): the standard offset basis with its
/// last digit missing, kept because the suite fingerprint is pinned.
constexpr std::uint64_t kKernelSeed = 1469598103934665603ULL;

volatile double g_kernel_sink = 0.0;

struct KernelRow {
  const char* name;
  std::size_t n;          // elements processed per call
  double scalar_ns_op;
  double vector_ns_op;
  bool bit_identical;
  std::uint64_t fingerprint;  // over the (shared) result bits
};

/// Times one (scalar, vector) kernel pair: `iters` calls per timed rep,
/// best of `reps`, normalized to ns per element.
double time_kernel_ns_op(const char* site, const std::function<void()>& call,
                         std::size_t iters, std::size_t n, int reps) {
  const double ms = bench::time_best_ms(
      site,
      [&] {
        for (std::size_t it = 0; it < iters; ++it) call();
      },
      reps);
  return ms * 1e6 / (static_cast<double>(iters) * static_cast<double>(n));
}

// Suite fingerprint of `--kernels --smoke`; identical on SSE2, AVX2 and
// the scalar reference, and under every sanitizer.
constexpr std::uint64_t kGoldenKernelFingerprint = 0x11ab3e36019a9db3ULL;

void run_kernel_suite(bool smoke) {
  const int reps = smoke ? 2 : 7;
  // Odd sizes on purpose: every kernel call exercises the tail path.
  const std::size_t n = smoke ? 4101 : 16381;
  const std::size_t iters = smoke ? 40 : 250;

  Rng rng(123);
  std::vector<double> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.normal();
    b[i] = rng.normal();
  }
  // nrmse inputs: like a/b but with non-finite entries the kernel must
  // mask out identically on both paths.
  std::vector<double> pred = a, truth = b;
  pred[n / 3] = std::numeric_limits<double>::quiet_NaN();
  truth[n / 2] = std::numeric_limits<double>::infinity();
  pred[n - 1] = -std::numeric_limits<double>::infinity();

  // Column-major training block for the distance kernel.
  const std::size_t drows = smoke ? 2051 : 8195;
  const std::size_t dcols = 48;
  std::vector<double> colsm(drows * dcols);
  for (auto& v : colsm) v = rng.normal();
  std::vector<double> z(dcols);
  for (auto& v : z) v = rng.normal();
  std::vector<double> dist_s(drows), dist_v(drows);

  // Histogram inputs: identity gather over n rows, 32 bins.
  const int nbins = 32;
  std::vector<std::uint8_t> codes(n);
  for (auto& c : codes) c = static_cast<std::uint8_t>(rng.index(nbins));
  std::vector<std::size_t> rows_idx(n);
  std::iota(rows_idx.begin(), rows_idx.end(), std::size_t{0});
  std::vector<double> hw_s(nbins), hwy_s(nbins), hw_v(nbins), hwy_v(nbins);

  std::vector<double> y_s = b, y_v = b;

  std::vector<KernelRow> table;

  const auto bits_eq = [](const void* x, const void* y, std::size_t bytes) {
    return std::memcmp(x, y, bytes) == 0;
  };

  {  // dot (also covers sum/gemv row-dot shape)
    const double ds = simd::scalar::dot(a.data(), b.data(), n);
    const double dv = simd::vector::dot(a.data(), b.data(), n);
    KernelRow row{"dot", n, 0.0, 0.0, bits_eq(&ds, &dv, sizeof ds),
                  fnv1a(&dv, sizeof dv, kKernelSeed)};
    row.scalar_ns_op = time_kernel_ns_op(
        "kernel.dot.scalar",
        [&] { g_kernel_sink = simd::scalar::dot(a.data(), b.data(), n); },
        iters, n, reps);
    row.vector_ns_op = time_kernel_ns_op(
        "kernel.dot.vector",
        [&] { g_kernel_sink = simd::vector::dot(a.data(), b.data(), n); },
        iters, n, reps);
    table.push_back(row);
  }
  {  // axpy
    simd::scalar::axpy(0.37, a.data(), y_s.data(), n);
    simd::vector::axpy(0.37, a.data(), y_v.data(), n);
    KernelRow row{"axpy", n, 0.0, 0.0,
                  bits_eq(y_s.data(), y_v.data(), n * sizeof(double)),
                  fnv1a(y_v.data(), n * sizeof(double), kKernelSeed)};
    row.scalar_ns_op = time_kernel_ns_op(
        "kernel.axpy.scalar",
        [&] { simd::scalar::axpy(1e-9, a.data(), y_s.data(), n); }, iters, n,
        reps);
    row.vector_ns_op = time_kernel_ns_op(
        "kernel.axpy.vector",
        [&] { simd::vector::axpy(1e-9, a.data(), y_v.data(), n); }, iters, n,
        reps);
    table.push_back(row);
  }
  {  // nrmse core: finite-masked squared-error reduction
    const simd::ErrorAcc es = simd::scalar::squared_error(pred.data(),
                                                          truth.data(), n);
    const simd::ErrorAcc ev = simd::vector::squared_error(pred.data(),
                                                          truth.data(), n);
    const bool same = bits_eq(&es.sum_sq, &ev.sum_sq, sizeof es.sum_sq) &&
                      es.finite == ev.finite;
    std::uint64_t fp = fnv1a(&ev.sum_sq, sizeof ev.sum_sq, kKernelSeed);
    fp = fnv1a(&ev.finite, sizeof ev.finite, fp);
    KernelRow row{"nrmse", n, 0.0, 0.0, same, fp};
    row.scalar_ns_op = time_kernel_ns_op(
        "kernel.nrmse.scalar",
        [&] {
          g_kernel_sink =
              simd::scalar::squared_error(pred.data(), truth.data(), n).sum_sq;
        },
        iters, n, reps);
    row.vector_ns_op = time_kernel_ns_op(
        "kernel.nrmse.vector",
        [&] {
          g_kernel_sink =
              simd::vector::squared_error(pred.data(), truth.data(), n).sum_sq;
        },
        iters, n, reps);
    table.push_back(row);
  }
  {  // l2_distance: the KNN block kernel (8 distances in flight)
    simd::scalar::l2_distances_cols(colsm.data(), drows, z.data(), dcols,
                                    dist_s.data());
    simd::vector::l2_distances_cols(colsm.data(), drows, z.data(), dcols,
                                    dist_v.data());
    KernelRow row{"l2_distance", drows * dcols, 0.0, 0.0,
                  bits_eq(dist_s.data(), dist_v.data(),
                          drows * sizeof(double)),
                  fnv1a(dist_v.data(), drows * sizeof(double), kKernelSeed)};
    const std::size_t diters = smoke ? 8 : 30;
    row.scalar_ns_op = time_kernel_ns_op(
        "kernel.l2.scalar",
        [&] {
          simd::scalar::l2_distances_cols(colsm.data(), drows, z.data(), dcols,
                                          dist_s.data());
        },
        diters, drows * dcols, reps);
    row.vector_ns_op = time_kernel_ns_op(
        "kernel.l2.vector",
        [&] {
          simd::vector::l2_distances_cols(colsm.data(), drows, z.data(), dcols,
                                          dist_v.data());
        },
        diters, drows * dcols, reps);
    table.push_back(row);
  }
  {  // histogram: a scatter-bound row pass.  The vector path adds each
     // row's (w, wy) pair with one 2-wide op and merges a bin's two sums
     // per op; the gather and the bin scatter stay scalar, so expect a
     // modest speedup.
    const simd::HistBins hs = simd::scalar::hist_accumulate(
        codes.data(), rows_idx.data(), a.data(), b.data(), n, nbins,
        hw_s.data(), hwy_s.data());
    const simd::HistBins hv = simd::vector::hist_accumulate(
        codes.data(), rows_idx.data(), a.data(), b.data(), n, nbins,
        hw_v.data(), hwy_v.data());
    const bool same =
        bits_eq(hs.mask, hv.mask, sizeof hs.mask) && hs.lo_bin == hv.lo_bin &&
        hs.hi_bin == hv.hi_bin &&
        bits_eq(hw_s.data(), hw_v.data(), hw_s.size() * sizeof(double)) &&
        bits_eq(hwy_s.data(), hwy_v.data(), hwy_s.size() * sizeof(double));
    std::uint64_t fp =
        fnv1a(hw_v.data(), hw_v.size() * sizeof(double), kKernelSeed);
    fp = fnv1a(hwy_v.data(), hwy_v.size() * sizeof(double), fp);
    KernelRow row{"histogram", n, 0.0, 0.0, same, fp};
    const std::size_t hiters = smoke ? 20 : 120;
    row.scalar_ns_op = time_kernel_ns_op(
        "kernel.hist.scalar",
        [&] {
          simd::scalar::hist_accumulate(codes.data(), rows_idx.data(),
                                        a.data(), b.data(), n, nbins,
                                        hw_s.data(), hwy_s.data());
        },
        hiters, n, reps);
    row.vector_ns_op = time_kernel_ns_op(
        "kernel.hist.vector",
        [&] {
          simd::vector::hist_accumulate(codes.data(), rows_idx.data(),
                                        a.data(), b.data(), n, nbins,
                                        hw_v.data(), hwy_v.data());
        },
        hiters, n, reps);
    table.push_back(row);
  }

  std::printf("leaf::simd kernel suite  (isa=%s, compiled_in=%d, best-of-%d)\n",
              simd::vector::isa(), simd::compiled_in() ? 1 : 0, reps);
  std::printf("%-12s %10s %14s %14s %9s %5s\n", "kernel", "n", "scalar ns/op",
              "vector ns/op", "speedup", "bits");
  bool all_identical = true;
  std::uint64_t suite_fp = kKernelSeed;
  for (const auto& row : table) {
    const double speedup =
        row.vector_ns_op > 0.0 ? row.scalar_ns_op / row.vector_ns_op : 0.0;
    std::printf("%-12s %10zu %14.3f %14.3f %8.2fx %5s\n", row.name, row.n,
                row.scalar_ns_op, row.vector_ns_op, speedup,
                row.bit_identical ? "ok" : "DIFF");
    all_identical = all_identical && row.bit_identical;
    suite_fp = fnv1a(&row.fingerprint, sizeof row.fingerprint, suite_fp);
  }

  std::ofstream json(bench::out_dir() + "/BENCH_kernels.json");
  json << "{\n  \"isa\": \"" << simd::vector::isa() << "\",\n"
       << "  \"simd_compiled\": " << (simd::compiled_in() ? "true" : "false")
       << ",\n  \"all_bit_identical\": " << (all_identical ? "true" : "false")
       << ",\n  \"fingerprint\": \"" << std::hex << suite_fp << std::dec
       << "\",\n  \"kernels\": [\n";
  for (std::size_t i = 0; i < table.size(); ++i) {
    const auto& row = table[i];
    const double speedup =
        row.vector_ns_op > 0.0 ? row.scalar_ns_op / row.vector_ns_op : 0.0;
    json << "    {\"name\": \"" << row.name << "\", \"n\": " << row.n
         << ", \"scalar_ns_op\": " << row.scalar_ns_op
         << ", \"vector_ns_op\": " << row.vector_ns_op
         << ", \"speedup\": " << speedup << ", \"bit_identical\": "
         << (row.bit_identical ? "true" : "false") << ", \"fingerprint\": \""
         << std::hex << row.fingerprint << std::dec << "\"}"
         << (i + 1 < table.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"metrics\": " << bench::metrics_json() << "\n}\n";
  std::printf("wrote %s/BENCH_kernels.json\n", bench::out_dir().c_str());

  if (!all_identical) {
    std::fprintf(stderr,
                 "FATAL: scalar and vector kernel results are not "
                 "bit-identical\n");
    std::exit(1);
  }
  if (smoke)
    bench::require_golden("kernel suite fingerprint", suite_fp,
                          kGoldenKernelFingerprint, /*hex=*/true);
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --smoke / --kernels before google-benchmark sees the argv.
  bool smoke = false;
  bool kernels = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") {
      smoke = true;
      continue;
    }
    if (std::string_view(argv[i]) == "--kernels") {
      kernels = true;
      continue;
    }
    argv[kept++] = argv[i];
  }
  argc = kept;
  argv[argc] = nullptr;

  if (kernels) {
    run_kernel_suite(smoke);
    return 0;
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!smoke) benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  run_thread_sweep(smoke);
  check_leaf_importance(smoke);
  return 0;
}
