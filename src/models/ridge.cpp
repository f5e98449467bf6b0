#include "models/ridge.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "simd/simd.hpp"

namespace leaf::models {

bool cholesky_solve(Matrix& a, std::vector<double>& b) {
  const std::size_t n = a.rows();
  assert(a.cols() == n && b.size() == n);
  // Decompose A = L L^T in the lower triangle.  The k-loops run over
  // row prefixes (contiguous in the row-major storage), so they are dot
  // kernels; the back substitution walks a column and stays scalar.
  for (std::size_t j = 0; j < n; ++j) {
    const auto rowj = a.row(j);
    const double d = a(j, j) - simd::dot(rowj.first(j), rowj.first(j));
    if (d <= 0.0) return false;
    const double ljj = std::sqrt(d);
    a(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      const auto rowi = a.row(i);
      const double s = a(i, j) - simd::dot(rowi.first(j), rowj.first(j));
      a(i, j) = s / ljj;
    }
  }
  // Forward substitution L z = b.
  for (std::size_t i = 0; i < n; ++i) {
    const double s =
        b[i] - simd::dot(a.row(i).first(i), std::span<const double>(b).first(i));
    b[i] = s / a(i, i);
  }
  // Back substitution L^T x = z.
  for (std::size_t ii = n; ii-- > 0;) {
    double s = b[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= a(k, ii) * b[k];
    b[ii] = s / a(ii, ii);
  }
  return true;
}

Ridge::Ridge(RidgeConfig cfg) : cfg_(cfg) {}

void Ridge::fit(const Matrix& X, std::span<const double> y,
                std::span<const double> w) {
  LEAF_SPAN("fit.Ridge");
  static obs::Counter& fits_ctr = obs::MetricsRegistry::global().counter(
      "leaf_model_fits_total", obs::label("family", "Ridge"));
  fits_ctr.inc();
  trained_ = false;
  if (!check_fit_args(X, y, w)) return;
  scaler_.fit(X);
  const Matrix Z = scaler_.transform(X);
  const std::size_t n = Z.rows(), k = Z.cols();

  // Weighted normal equations on standardized features; the intercept is
  // handled by centering y.
  double sw = 0.0, swy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double wi = w.empty() ? 1.0 : w[i];
    sw += wi;
    swy += wi * y[i];
  }
  const double ybar = sw > 0.0 ? swy / sw : 0.0;

  // Rank-1 accumulation per training row: b += (wi*yc) * z_i and, for the
  // upper triangle, a.row(p)[p..] += (wi*z_ip) * z_i[p..] — both axpy
  // kernels over contiguous row tails.
  Matrix a(k, k, 0.0);
  std::vector<double> b(k, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double wi = w.empty() ? 1.0 : w[i];
    const auto row = Z.row(i);
    const double yc = y[i] - ybar;
    simd::axpy(wi * yc, row, b);
    for (std::size_t p = 0; p < k; ++p) {
      simd::axpy(wi * row[p], row.subspan(p), a.row(p).subspan(p));
    }
  }
  for (std::size_t p = 0; p < k; ++p) {
    a(p, p) += cfg_.lambda;
    for (std::size_t q = p + 1; q < k; ++q) a(q, p) = a(p, q);
  }

  if (!cholesky_solve(a, b)) {
    // Extremely ill-conditioned (shouldn't happen with lambda > 0): fall
    // back to predicting the mean.
    beta_.assign(k, 0.0);
  } else {
    beta_ = std::move(b);
  }
  intercept_ = ybar;
  trained_ = true;
}

double Ridge::predict_one(std::span<const double> x) const {
  assert(trained_);
  if (x.size() != beta_.size())
    throw std::invalid_argument(
        "ridge query has " + std::to_string(x.size()) +
        " features, trained on " + std::to_string(beta_.size()));
  std::vector<double> z(x.size());
  scaler_.transform_row(x, z);
  return intercept_ + simd::dot(beta_, z);
}

std::unique_ptr<Regressor> Ridge::clone_untrained() const {
  return std::make_unique<Ridge>(cfg_);
}

void Ridge::save(io::Serializer& out) const {
  out.put_f64(cfg_.lambda);
  out.put_bool(trained_);
  io::write(out, scaler_);
  out.put_doubles(beta_);
  out.put_f64(intercept_);
}

std::unique_ptr<Ridge> Ridge::load(io::Deserializer& in) {
  RidgeConfig cfg;
  cfg.lambda = in.get_f64();
  auto model = std::make_unique<Ridge>(cfg);
  model->trained_ = in.get_bool();
  io::read_standardizer(in, model->scaler_);
  model->beta_ = in.get_doubles();
  model->intercept_ = in.get_f64();
  // predict_one checks the query against the coefficient count and then
  // standardizes it with the scaler, so the two widths must agree.
  if (model->beta_.size() != model->scaler_.mean().size())
    throw io::SnapshotError(
        "ridge coefficient count differs from its standardizer width");
  return model;
}

}  // namespace leaf::models
