#include "explain/importance.hpp"

#include <algorithm>
#include <numeric>

#include "common/metrics.hpp"

namespace leaf::explain {

std::vector<double> permutation_importance(const models::Regressor& model,
                                           const Matrix& X,
                                           std::span<const double> y,
                                           double norm_range, Rng& rng,
                                           const ImportanceConfig& cfg) {
  const std::size_t n_all = X.rows();
  const std::size_t k = X.cols();
  std::vector<double> scores(k, 0.0);
  if (n_all == 0 || cfg.repeats <= 0) return scores;

  // Optional row subsample for tractability.
  Matrix Xs;
  std::vector<double> ys;
  const Matrix* Xp = &X;
  std::span<const double> yp = y;
  if (n_all > cfg.max_rows) {
    const auto rows = rng.sample_without_replacement(n_all, cfg.max_rows);
    Xs = X.gather_rows(rows);
    ys.reserve(rows.size());
    for (std::size_t r : rows) ys.push_back(y[r]);
    Xp = &Xs;
    yp = ys;
  }
  const std::size_t n = Xp->rows();

  const std::unique_ptr<models::ColumnSweep> sweep = model.column_sweep(*Xp);
  const double base_err = metrics::nrmse(sweep->base(), yp, norm_range);

  // Task (c, rep) permutes column c with the counter-based sub-stream
  // root.substream(c * repeats + rep), so a column's score does not depend
  // on how many columns are scored; the caller's generator advances
  // exactly once (the fork), as a stable part of the function's contract.
  // Tasks run one after another on this thread, so the caller's model is
  // never called concurrently and a decorator around it need not be
  // thread-safe.
  const Rng root = rng.fork(0x1A9F);
  const std::size_t reps = static_cast<std::size_t>(cfg.repeats);
  std::vector<double> permuted(n);
  std::vector<double> pred(n);
  std::vector<std::size_t> perm(n);
  const std::size_t scored = std::min(cfg.scored_columns, k);
  for (std::size_t c = 0; c < scored; ++c) {
    double acc = 0.0;  // repeats fold in repeat order
    for (std::size_t rep = 0; rep < reps; ++rep) {
      Rng task_rng = root.substream(c * reps + rep);
      std::iota(perm.begin(), perm.end(), std::size_t{0});
      task_rng.shuffle(perm);
      for (std::size_t r = 0; r < n; ++r) permuted[r] = (*Xp)(perm[r], c);
      sweep->predict(c, permuted, pred);
      acc += metrics::nrmse(pred, yp, norm_range) - base_err;
    }
    scores[c] = acc / static_cast<double>(reps);
  }
  return scores;
}

}  // namespace leaf::explain
