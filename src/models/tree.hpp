// Histogram-based regression trees — the weak learners shared by the GBDT
// (CatBoost / LightGBM stand-ins) and the bagging ensembles (Random
// Forest, Extra Trees) — grown straight into one node store per ensemble
// (`FlatTrees`).
//
// Features are pre-quantized into at most `max_bins` quantile bins
// (`BinnedData`), so finding the best split of a node costs
// O(rows + bins) per candidate feature.  Binning is computed once per
// training set and shared by every tree of an ensemble.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "io/serializer.hpp"
#include "models/column_sweep.hpp"

namespace leaf::models {

/// Retrain-scoped cache of per-column bin edges (owned by core::Evaluation,
/// which attaches it to every model it refits).
///
/// Successive retrains in the walk-forward loop bin training windows that
/// overlap heavily, yet BinnedData used to re-derive quantile edges from a
/// full per-column sort every time.  With a cache attached, a column whose
/// value range is still covered by the previously derived edges reuses
/// them outright (skipping the O(n log n) sort); a column whose range grew
/// keeps the old edges and *extends* them with quantiles of only the
/// out-of-range values.  Columns whose range shrank, or whose extension
/// would exceed the bin budget, fall back to a fresh derivation.
///
/// Range coverage alone is not enough: after a drift event the column's
/// *distribution* can shift far inside an unchanged range, and quantile
/// edges derived pre-drift then concentrate the post-drift mass into a few
/// bins — retrained trees split badly exactly when retraining matters
/// most.  Reused edges are therefore accepted only if the bin occupancy
/// they produce on the new column stays within a constant factor of the
/// occupancy balance they had when freshly derived (measured on the codes,
/// which have to be computed either way); concentrated mass fails the
/// check and forces a fresh derivation.
///
/// Reuse is deterministic — the cache state is a pure function of the
/// sequence of matrices binned through it — but not bit-identical to
/// uncached edges; it is a retrain-speed/bin-optimality trade, which is
/// why it's opt-in per training loop rather than global.
///
/// Thread safety: a binning writes each column's state from the pool
/// thread that bins that column, and adds the reuse/extend/rebuild
/// tallies on the constructing thread afterwards, so the state and
/// tallies are the same at any thread count.  Two binnings must not use
/// one cache at the same time.
class BinEdgeCache {
 public:
  void clear() { cols_.clear(); }
  std::size_t reused() const { return reused_; }
  std::size_t extended() const { return extended_; }
  std::size_t rebuilt() const { return rebuilt_; }

  /// Snapshot support (leaf::io): the cache state influences which bin
  /// edges retrained models see, so crash-equivalent restarts must carry
  /// it across the snapshot boundary.
  void save(io::Serializer& out) const;
  void load(io::Deserializer& in);

 private:
  friend class BinnedData;
  struct ColState {
    std::vector<double> edges;
    double lo = 0.0, hi = 0.0;  ///< value range the edges were derived for
    /// max bin share / ideal share at the last fresh derivation (>= 1;
    /// exact quantile edges over tied data are legitimately imbalanced, so
    /// staleness is judged relative to this, not to perfection).
    double imbalance = 1.0;
    bool valid = false;
  };
  std::vector<ColState> cols_;
  int max_bins_ = 0;
  std::size_t reused_ = 0, extended_ = 0, rebuilt_ = 0;
};

/// Quantile-binned view of a feature matrix.
class BinnedData {
 public:
  /// Bins each column of X into <= max_bins quantile bins.  max_bins must
  /// be <= 256 (bins are stored as uint8).  Columns are binned in parallel
  /// over leaf::par; each writes only its own codes, edges and cache
  /// state, so the result is the same at any thread count.  An optional
  /// BinEdgeCache carries edges across successive binnings (one cache per
  /// sequential training loop, see its thread-safety note).
  explicit BinnedData(const Matrix& X, int max_bins,
                      BinEdgeCache* cache = nullptr);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  int num_bins(std::size_t col) const { return bin_count_[col]; }

  std::uint8_t bin(std::size_t row, std::size_t col) const {
    return codes_[col * rows_ + row];  // column-major for split scans
  }

  /// Contiguous codes of one feature column (rows() entries) — the gather
  /// source for simd::hist_accumulate.
  const std::uint8_t* codes_col(std::size_t col) const {
    return codes_.data() + col * rows_;
  }

  /// Raw-value threshold separating bins <= b from bins > b of a column
  /// (midpoint between adjacent bin representative edges).
  double threshold(std::size_t col, int b) const;

 private:
  std::size_t rows_, cols_;
  std::vector<std::uint8_t> codes_;       // column-major
  std::vector<int> bin_count_;            // per column
  std::vector<std::vector<double>> edges_;  // per column, ascending
};

struct TreeConfig {
  int max_depth = 6;
  int min_samples_leaf = 3;
  double min_gain = 1e-12;
  /// Features considered per split; -1 means all.
  int features_per_split = -1;
  /// Extra-Trees mode: one random split bin per candidate feature instead
  /// of scanning every bin.
  bool random_thresholds = false;
};

/// TreeConfig snapshot helpers (leaf::io).
void save_tree_config(io::Serializer& out, const TreeConfig& cfg);
TreeConfig load_tree_config(io::Deserializer& in);

/// The trees of one ensemble (Gbdt, Forest) in a single
/// structure-of-arrays node store.  Node n splits on feature
/// slot_[n] - 1 at threshold_[n] and continues at left_[n]
/// (x <= threshold) or left_[n] + 1 (otherwise, NaN included).  A leaf has
/// left_[n] == n, slot 0 and threshold 0.0.  Indices are absolute within
/// the store; a tree's nodes are contiguous, starting at its root.
///
/// Prediction walks a block of rows tree by tree, eight rows at a time as
/// independent traversal chains, and adds each tree's leaf value to every
/// row's sum in tree order, so the sums are bit-identical to summing a
/// plain per-row walk (x <= threshold ? left : right) over the trees.
class FlatTrees {
 public:
  void clear();
  /// Sizes the store for `trees` more trees of `nodes` nodes in all.
  void reserve(std::size_t trees, std::size_t nodes);
  /// Grows one regression tree on (binned) rows given targets and optional
  /// weights and appends it.  `rows` selects the training subset
  /// (bootstrap / subsample); empty means all rows.  The tree stores *raw*
  /// thresholds taken from `bd`.  A node's children are appended after it,
  /// the right one right after the left.  The tree always has at least its
  /// root.  Split search runs over leaf::par in batches of nodes (a whole
  /// level when the search draws no randomness, see tree.cpp); the grown
  /// tree and the draws from `rng` are the same at any thread count.
  void grow(const BinnedData& bd, std::span<const double> y,
            std::span<const double> w, std::span<const std::size_t> rows,
            const TreeConfig& cfg, Rng& rng);
  /// Appends every tree of `other`, in order, shifting its root and child
  /// indices past this store's nodes.  `other` is freed on return.
  void splice(FlatTrees other);
  /// Drops spare capacity once the last tree is in.
  void shrink_to_fit();

  std::size_t tree_count() const { return roots_.size(); }
  std::size_t node_count() const { return left_.size(); }

  /// out[r] = base + scale*t0(X.row(r)) + scale*t1(X.row(r)) + ... over
  /// every tree, in tree order.  Opens the `predict.batch` span and counts
  /// rows like Regressor::predict_into; rows are split over leaf::par in
  /// blocks when X has at least 32 of them.
  void predict_into(const Matrix& X, double base, double scale,
                    std::span<double> out) const;
  /// The one-row case of predict_into (no span, no row count).
  double predict_one(std::span<const double> x, double base,
                     double scale) const;
  /// out[r] += scale * t(X.row(r)) for the single tree t (the GBDT fit's
  /// per-round refresh).
  void add_tree(const Matrix& X, std::size_t t, double scale,
                std::span<double> out) const;

  /// Snapshot support (leaf::io): a tree count, then per tree its node
  /// count and nodes (feature, threshold, left, right, value; children
  /// index within the tree, -1s for a leaf's feature and children).
  /// `load` requires every split's left child to come after it and its
  /// right child right after the left, and every leaf in the form grow
  /// writes (threshold 0.0), so no payload it accepts can make a traversal
  /// loop.  `save` writes back the exact bytes `load` accepted.
  void save(io::Serializer& out) const;
  void load(io::Deserializer& in);

 private:
  friend class TreeSweep;

  /// Throws std::invalid_argument when rows of `cols` values are too
  /// narrow for the split features.
  void check_width(std::size_t cols) const;
  /// out[r] += scale * t(row r) for t in [tree_begin, tree_end), over
  /// `rows` row-major rows of `cols` values.
  void accumulate(const double* data, std::size_t cols, std::size_t rows,
                  std::size_t tree_begin, std::size_t tree_end, double scale,
                  double* out) const;

  std::vector<std::int32_t> slot_;
  std::vector<double> threshold_;
  std::vector<std::int32_t> left_;
  std::vector<double> value_;
  std::vector<std::int32_t> roots_;  ///< first node of each tree
  std::vector<int> depth_;           ///< splits on each tree's longest path
  /// Largest split feature + 1 (0 when no tree splits): narrower inputs
  /// are rejected with std::invalid_argument.
  std::size_t width_ = 0;
};

/// The ColumnSweep of a tree ensemble whose prediction is
/// (base + scale*t0(x) + scale*t1(x) + ...) / divisor: a Gbdt (divisor 1)
/// or a Forest (base 0, scale 1, divisor = tree count).
///
/// Construction copies X, walks each (tree, row) pair of it down once and
/// climbs back from the leaf once.  It keeps the leaf, and for each column
/// the pairs whose path tests that column, with the first node that tests
/// it, in one flat array.  A call for column c re-walks only c's pairs,
/// from that node.  A row with a changed leaf is
/// re-summed over its trees in tree order with the expression
/// predict_into uses, so its bits are the same; every other row copies
/// its base prediction.  Memory is O(rows * (columns + trees * depth)).
/// The trees must outlive the sweep; X need not.
class TreeSweep final : public ColumnSweep {
 public:
  TreeSweep(const FlatTrees& trees, const Matrix& X, double base,
            double scale, double divisor);

  std::span<const double> base() const override { return base_pred_; }
  void predict(std::size_t c, std::span<const double> values,
               std::span<double> out) override;

  /// The (tree, row) pairs a call for column c re-walks.
  std::size_t rewalks(std::size_t c) const { return column_paths(c).size(); }

 private:
  /// A (tree, row) pair whose path first tests some column at `node` (the
  /// node gives the tree).
  struct PathEntry {
    std::uint32_t row;
    std::int32_t node;
  };

  /// The pairs whose path tests column c, by row.
  std::span<const PathEntry> column_paths(std::size_t c) const {
    return {paths_.data() + path_begin_[c],
            path_begin_[c + 1] - path_begin_[c]};
  }

  /// out[r] = (base + scale * the sum of r's leaves in cur_, in tree
  /// order) / divisor for each listed row r.
  void sum_rows(std::span<const std::uint32_t> rows,
                std::span<double> out) const;

  const FlatTrees& trees_;
  double base_, scale_, divisor_;
  /// X's rows with a 0.0 in front: a node of slot s reads
  /// xs_[row * stride_ + s], and a leaf (slot 0) reads 0.0, as in walk8.
  std::size_t stride_;
  std::vector<double> xs_;
  std::vector<std::uint32_t> node_tree_;  ///< per node: its tree
  /// Per node: steps from it that end on its leaf (its tree's depth less
  /// its own; a leaf steps to itself).
  std::vector<std::int32_t> node_steps_;
  /// Every column's pairs, column after column: column c's are
  /// paths_[path_begin_[c], path_begin_[c + 1]).
  std::vector<PathEntry> paths_;
  std::vector<std::size_t> path_begin_;
  /// Leaf of pair (t, r) at [r * trees + t]: X's leaves, and X's leaves
  /// with the current call's changes.
  std::vector<std::int32_t> leaf_, cur_;
  std::vector<std::size_t> changed_;  ///< pairs the current call moved
  std::vector<std::uint32_t> rows_;   ///< their rows, ascending
  std::vector<double> base_pred_;
};

}  // namespace leaf::models
