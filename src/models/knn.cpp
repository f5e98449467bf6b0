#include "models/knn.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "simd/simd.hpp"

namespace leaf::models {

Knn::Knn(KnnConfig cfg) : cfg_(cfg) {}

void Knn::fit(const Matrix& X, std::span<const double> y,
              std::span<const double> w) {
  LEAF_SPAN("fit.KNN");
  static obs::Counter& fits_ctr = obs::MetricsRegistry::global().counter(
      "leaf_model_fits_total", obs::label("family", "KNN"));
  fits_ctr.inc();
  trained_ = false;
  if (!check_fit_args(X, y, w)) return;
  scaler_.fit(X);
  train_cols_ = scaler_.transform(X).transposed();
  y_.assign(y.begin(), y.end());
  if (w.empty()) {
    w_.assign(y.size(), 1.0);
  } else {
    w_.assign(w.begin(), w.end());
  }
  trained_ = true;
}

double Knn::predict_one(std::span<const double> x) const {
  assert(trained_);
  if (x.size() != train_cols_.rows())
    throw std::invalid_argument(
        "knn query has " + std::to_string(x.size()) + " features, trained on " +
        std::to_string(train_cols_.rows()));
  // Per-query scratch is thread_local: predict_one runs on the leaf::par
  // pool (one query per row), and per-call vector churn dominated small
  // queries.
  thread_local std::vector<double> z;
  thread_local std::vector<double> dist2;
  thread_local std::vector<std::pair<double, std::size_t>> d;
  z.resize(x.size());
  scaler_.transform_row(x, z);

  const std::size_t n = train_cols_.cols();
  const std::size_t k = std::min<std::size_t>(static_cast<std::size_t>(cfg_.k), n);
  if (k == 0) return 0.0;  // no neighbours to average

  // All query->train distances in one kernel over the transposed training
  // set, instead of a strided pass per training row.
  dist2.resize(n);
  simd::l2_distances_cols(train_cols_.flat(), n, z, dist2);

  // Partial selection of the k smallest distances.
  d.resize(n);
  for (std::size_t r = 0; r < n; ++r) d[r] = {dist2[r], r};
  std::nth_element(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   d.end());

  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const auto [dist2, r] = d[i];
    const double dist = std::max(cfg_.min_distance, std::sqrt(dist2));
    const double weight = w_[r] / dist;
    num += weight * y_[r];
    den += weight;
  }
  return den > 0.0 ? num / den : 0.0;
}

std::unique_ptr<Regressor> Knn::clone_untrained() const {
  return std::make_unique<Knn>(cfg_);
}

void Knn::save(io::Serializer& out) const {
  out.put_i32(cfg_.k);
  out.put_f64(cfg_.min_distance);
  out.put_bool(trained_);
  io::write(out, scaler_);
  io::write(out, train_cols_.transposed());
  out.put_doubles(y_);
  out.put_doubles(w_);
}

std::unique_ptr<Knn> Knn::load(io::Deserializer& in) {
  KnnConfig cfg;
  cfg.k = in.get_i32();
  cfg.min_distance = in.get_f64();
  auto model = std::make_unique<Knn>(cfg);
  model->trained_ = in.get_bool();
  io::read_standardizer(in, model->scaler_);
  const Matrix train = io::read_matrix(in);
  model->y_ = in.get_doubles();
  model->w_ = in.get_doubles();
  if (model->y_.size() != train.rows() || model->w_.size() != train.rows())
    throw io::SnapshotError("knn training arrays have inconsistent sizes");
  // predict_one checks the query against the training width and then
  // standardizes it with the scaler, so the two widths must agree.
  if (train.cols() != model->scaler_.mean().size())
    throw io::SnapshotError("knn training width differs from its standardizer");
  model->train_cols_ = train.transposed();
  return model;
}

}  // namespace leaf::models
