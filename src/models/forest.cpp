#include "models/forest.hpp"

#include <cassert>
#include <cmath>
#include <utility>

#include "obs/metrics.hpp"
#include "par/parallel.hpp"

namespace leaf::models {

ForestConfig ForestConfig::random_forest(int num_trees, std::uint64_t seed) {
  ForestConfig c;
  c.num_trees = num_trees;
  c.bootstrap = true;
  c.random_thresholds = false;
  c.seed = seed;
  return c;
}

ForestConfig ForestConfig::extra_trees(int num_trees, std::uint64_t seed) {
  ForestConfig c;
  c.num_trees = num_trees;
  c.bootstrap = false;
  c.random_thresholds = true;
  c.seed = seed;
  return c;
}

Forest::Forest(ForestConfig cfg, std::string display_name)
    : cfg_(cfg), name_(std::move(display_name)) {}

void Forest::fit(const Matrix& X, std::span<const double> y,
                 std::span<const double> w) {
  LEAF_SPAN("fit.Forest");
  static obs::Counter& fits_ctr = obs::MetricsRegistry::global().counter(
      "leaf_model_fits_total", obs::label("family", "Forest"));
  fits_ctr.inc();
  trained_ = false;
  trees_.clear();
  if (!check_fit_args(X, y, w)) return;

  const Rng root(cfg_.seed);
  const std::size_t n = X.rows();
  // One binning shared by every tree; the retrain-scoped edge cache (when
  // attached) carries edges across successive refits.
  const BinnedData bd(X, 64,
                      caches_ != nullptr ? &caches_->bin_edges : nullptr);

  TreeConfig tree_cfg;
  tree_cfg.max_depth = cfg_.max_depth;
  tree_cfg.min_samples_leaf = cfg_.min_samples_leaf;
  tree_cfg.random_thresholds = cfg_.random_thresholds;
  tree_cfg.features_per_split =
      cfg_.features_per_split > 0
          ? cfg_.features_per_split
          : std::max<int>(1, static_cast<int>(
                                 std::ceil(std::sqrt(static_cast<double>(X.cols()))) * 2.0));

  // Per-tree fits are independent: tree t draws everything (bootstrap and
  // split randomness) from the counter-based sub-stream root.substream(t),
  // so the ensemble is bit-identical at any LEAF_THREADS setting.
  const std::size_t n_trees = static_cast<std::size_t>(cfg_.num_trees);
  // Each tree grows into a store of its own, spliced in below in tree order.
  std::vector<FlatTrees> grown(n_trees);
  par::parallel_for_chunks(n_trees, [&](std::size_t begin, std::size_t end) {
    // One bootstrap buffer per chunk, cleared between trees, so chunk
    // boundaries cannot leak into the output.
    std::vector<std::size_t> rows;
    for (std::size_t t = begin; t < end; ++t) {
      Rng tree_rng = root.substream(t);
      rows.clear();
      if (cfg_.bootstrap) {
        rows.reserve(n);
        for (std::size_t i = 0; i < n; ++i) rows.push_back(tree_rng.index(n));
      }
      grown[t].grow(bd, y, w, rows, tree_cfg, tree_rng);
    }
  });
  std::size_t nodes = 0;
  for (const FlatTrees& tree : grown) nodes += tree.node_count();
  trees_.reserve(n_trees, nodes);
  // Each store is freed as it is spliced, bounding the fit's peak memory.
  for (FlatTrees& tree : grown) trees_.splice(std::move(tree));
  trained_ = trees_.tree_count() > 0;
}

double Forest::predict_one(std::span<const double> x) const {
  assert(trained_);
  return trees_.predict_one(x, 0.0, 1.0) /
         static_cast<double>(trees_.tree_count());
}

void Forest::predict_into(const Matrix& X, std::span<double> out) const {
  trees_.predict_into(X, 0.0, 1.0, out);
  const auto n = static_cast<double>(trees_.tree_count());
  for (double& v : out) v /= n;
}

std::unique_ptr<ColumnSweep> Forest::column_sweep(const Matrix& X) const {
  return std::make_unique<TreeSweep>(
      trees_, X, 0.0, 1.0, static_cast<double>(trees_.tree_count()));
}

std::unique_ptr<Regressor> Forest::clone_untrained() const {
  return std::make_unique<Forest>(cfg_, name_);
}

void Forest::save(io::Serializer& out) const {
  out.put_string(name_);
  out.put_i32(cfg_.num_trees);
  out.put_i32(cfg_.features_per_split);
  out.put_i32(cfg_.max_depth);
  out.put_i32(cfg_.min_samples_leaf);
  out.put_bool(cfg_.bootstrap);
  out.put_bool(cfg_.random_thresholds);
  out.put_u64(cfg_.seed);
  out.put_bool(trained_);
  trees_.save(out);
}

std::unique_ptr<Forest> Forest::load(io::Deserializer& in) {
  const std::string display_name = in.get_string();
  ForestConfig cfg;
  cfg.num_trees = in.get_i32();
  cfg.features_per_split = in.get_i32();
  cfg.max_depth = in.get_i32();
  cfg.min_samples_leaf = in.get_i32();
  cfg.bootstrap = in.get_bool();
  cfg.random_thresholds = in.get_bool();
  cfg.seed = in.get_u64();
  auto model = std::make_unique<Forest>(cfg, display_name);
  model->trained_ = in.get_bool();
  model->trees_.load(in);
  // Forest::fit is trained exactly when it grew a tree; a trained forest
  // without one would predict 0/0.
  if (model->trained_ != (model->trees_.tree_count() > 0))
    throw io::SnapshotError(
        "forest trained flag disagrees with its tree count");
  return model;
}

}  // namespace leaf::models
