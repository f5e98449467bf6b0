#include "models/gbdt.hpp"

#include <cassert>
#include <cmath>
#include <numeric>

#include "obs/metrics.hpp"

namespace leaf::models {

GbdtConfig GbdtConfig::catboost_like(int num_trees, std::uint64_t seed) {
  GbdtConfig c;
  c.num_trees = num_trees;
  c.learning_rate = 0.1;
  c.row_subsample = 0.85;
  c.tree.max_depth = 6;
  c.tree.min_samples_leaf = 3;
  c.tree.features_per_split = -1;
  c.seed = seed;
  return c;
}

GbdtConfig GbdtConfig::lightgbm_like(int num_trees, std::uint64_t seed) {
  GbdtConfig c;
  c.num_trees = num_trees;
  c.learning_rate = 0.08;
  c.row_subsample = 0.7;
  c.tree.max_depth = 8;
  c.tree.min_samples_leaf = 5;
  // LightGBM-style column sampling: consider a subset per split.
  c.tree.features_per_split = 0;  // resolved to sqrt at fit time
  c.seed = seed;
  return c;
}

Gbdt::Gbdt(GbdtConfig cfg, std::string display_name)
    : cfg_(cfg), name_(std::move(display_name)) {}

void Gbdt::fit(const Matrix& X, std::span<const double> y,
               std::span<const double> w) {
  LEAF_SPAN("fit.GBDT");
  static obs::Counter& fits_ctr = obs::MetricsRegistry::global().counter(
      "leaf_model_fits_total", obs::label("family", "GBDT"));
  fits_ctr.inc();
  trained_ = false;
  trees_.clear();
  if (!check_fit_args(X, y, w)) return;

  Rng rng(cfg_.seed);
  const std::size_t n = X.rows();

  TreeConfig tree_cfg = cfg_.tree;
  if (tree_cfg.features_per_split == 0) {
    tree_cfg.features_per_split = std::max<int>(
        1, static_cast<int>(std::sqrt(static_cast<double>(X.cols())) * 2.0));
  }

  const BinnedData bd(X, 64,
                      caches_ != nullptr ? &caches_->bin_edges : nullptr);

  // F0: weighted mean.
  double sw = 0.0, swy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double wi = w.empty() ? 1.0 : w[i];
    sw += wi;
    swy += wi * y[i];
  }
  base_ = sw > 0.0 ? swy / sw : 0.0;

  std::vector<double> pred(n, base_);
  std::vector<double> residual(n);
  const std::size_t subsample =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   cfg_.row_subsample * static_cast<double>(n)));

  for (int t = 0; t < cfg_.num_trees; ++t) {
    for (std::size_t i = 0; i < n; ++i) residual[i] = y[i] - pred[i];

    std::vector<std::size_t> rows =
        subsample < n ? rng.sample_without_replacement(n, subsample)
                      : std::vector<std::size_t>{};

    trees_.grow(bd, residual, w, rows, tree_cfg, rng);
    trees_.add_tree(X, trees_.tree_count() - 1, cfg_.learning_rate, pred);
  }
  trees_.shrink_to_fit();
  trained_ = true;
}

double Gbdt::predict_one(std::span<const double> x) const {
  assert(trained_);
  return trees_.predict_one(x, base_, cfg_.learning_rate);
}

void Gbdt::predict_into(const Matrix& X, std::span<double> out) const {
  trees_.predict_into(X, base_, cfg_.learning_rate, out);
}

std::unique_ptr<ColumnSweep> Gbdt::column_sweep(const Matrix& X) const {
  return std::make_unique<TreeSweep>(trees_, X, base_, cfg_.learning_rate,
                                     1.0);
}

std::unique_ptr<Regressor> Gbdt::clone_untrained() const {
  return std::make_unique<Gbdt>(cfg_, name_);
}

void Gbdt::save(io::Serializer& out) const {
  out.put_string(name_);
  out.put_i32(cfg_.num_trees);
  out.put_f64(cfg_.learning_rate);
  out.put_f64(cfg_.row_subsample);
  save_tree_config(out, cfg_.tree);
  out.put_u64(cfg_.seed);
  out.put_bool(trained_);
  out.put_f64(base_);
  trees_.save(out);
}

std::unique_ptr<Gbdt> Gbdt::load(io::Deserializer& in) {
  const std::string display_name = in.get_string();
  GbdtConfig cfg;
  cfg.num_trees = in.get_i32();
  cfg.learning_rate = in.get_f64();
  cfg.row_subsample = in.get_f64();
  cfg.tree = load_tree_config(in);
  cfg.seed = in.get_u64();
  auto model = std::make_unique<Gbdt>(cfg, display_name);
  model->trained_ = in.get_bool();
  model->base_ = in.get_f64();
  model->trees_.load(in);
  return model;
}

}  // namespace leaf::models
