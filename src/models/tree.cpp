#include "models/tree.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "par/parallel.hpp"
#include "simd/simd.hpp"

namespace leaf::models {

namespace {
// Bin-edge cache outcome counters (retrain-scoped cache, see BinEdgeCache).
obs::Counter& binedge_ctr(const char* outcome) {
  return obs::MetricsRegistry::global().counter(
      "leaf_cache_binedge_total", obs::label("outcome", outcome));
}
}  // namespace

BinnedData::BinnedData(const Matrix& X, int max_bins, BinEdgeCache* cache)
    : rows_(X.rows()), cols_(X.cols()) {
  assert(max_bins >= 2 && max_bins <= 256);
  codes_.resize(rows_ * cols_);
  bin_count_.resize(cols_);
  edges_.resize(cols_);

  if (cache != nullptr &&
      (cache->max_bins_ != max_bins || cache->cols_.size() != cols_)) {
    cache->cols_.assign(cols_, {});
    cache->max_bins_ = max_bins;
  }

  // One O(rows*cols) transpose for the whole binning, so each column below
  // is a contiguous row of Xt instead of a strided gather.
  const Matrix Xt = X.transposed();
  // How the cache served each column; tallied after the loop.
  enum class Outcome : std::uint8_t { kUncached, kReused, kExtended, kRebuilt };
  std::vector<Outcome> outcome(cols_, Outcome::kUncached);
  // Columns are independent: column c writes only its own codes, edges,
  // bin count, cache state and outcome, so they bin in parallel.
  par::parallel_for(cols_, [&](std::size_t c) {
    const std::span<const double> col = Xt.row(c);
    double lo = col[0], hi = col[0];
    for (double v : col) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }

    std::vector<double>& edges = edges_[c];
    BinEdgeCache::ColState* st =
        cache != nullptr ? &cache->cols_[c] : nullptr;

    // Assigns codes (bin = count of edges strictly below value) for the
    // current `edges` and returns the occupancy imbalance: the largest
    // bin's share of rows over the ideal uniform share (>= 1).
    std::vector<std::size_t> occupancy;
    const auto assign_codes = [&]() -> double {
      const std::size_t nb = edges.size() + 1;
      occupancy.assign(nb, 0);
      for (std::size_t r = 0; r < rows_; ++r) {
        const auto it = std::lower_bound(edges.begin(), edges.end(), col[r]);
        const auto code = static_cast<std::uint8_t>(it - edges.begin());
        codes_[c * rows_ + r] = code;
        ++occupancy[code];
      }
      const std::size_t worst =
          *std::max_element(occupancy.begin(), occupancy.end());
      return static_cast<double>(worst * nb) / static_cast<double>(rows_);
    };
    // Cached edges (reused or extended) are only kept if their occupancy
    // on the new column stays within 2x of their build-time balance;
    // beyond that the distribution has shifted under them and stale
    // quantiles would starve the split search of resolution.
    const auto still_balanced = [&] {
      return assign_codes() <= 2.0 * st->imbalance;
    };

    if (st != nullptr && st->valid && lo >= st->lo && hi <= st->hi) {
      // Previous edges still cover the column's range: reuse, skipping
      // the per-column sort entirely.
      edges = st->edges;
      if (still_balanced()) outcome[c] = Outcome::kReused;
    } else if (st != nullptr && st->valid && lo >= st->lo && hi > st->hi &&
               static_cast<int>(st->edges.size()) < max_bins - 1) {
      // Range grew upward (the common case for sliding training windows):
      // keep the old edges and extend with quantiles of the new tail,
      // spending the remaining edge budget proportionally to its mass.
      std::vector<double> tail;
      for (double v : col) {
        if (v > st->hi) tail.push_back(v);
      }
      if (!tail.empty()) {
        std::sort(tail.begin(), tail.end());
        const std::size_t budget =
            static_cast<std::size_t>(max_bins - 1) - st->edges.size();
        const std::size_t want = std::max<std::size_t>(
            1, static_cast<std::size_t>(max_bins) * tail.size() / rows_);
        const std::size_t extra = std::min(budget, want);
        edges = st->edges;
        for (std::size_t b = 1; b <= extra; ++b) {
          const double q =
              static_cast<double>(b) / static_cast<double>(extra + 1);
          const double e = tail[static_cast<std::size_t>(
              q * static_cast<double>(tail.size() - 1))];
          if (edges.empty() || e > edges.back()) edges.push_back(e);
        }
        while (!edges.empty() && edges.back() >= hi) edges.pop_back();
        if (still_balanced()) {
          st->edges = edges;
          st->hi = hi;
          outcome[c] = Outcome::kExtended;
        }
      }
    }
    if (outcome[c] == Outcome::kUncached) {
      // Fresh derivation: candidate edges from quantiles; deduplicate to
      // handle ties / constant columns.
      std::vector<double> sorted(col.begin(), col.end());
      std::sort(sorted.begin(), sorted.end());
      edges.clear();
      for (int b = 1; b < max_bins; ++b) {
        const double q = static_cast<double>(b) / max_bins;
        const double e = sorted[static_cast<std::size_t>(
            q * static_cast<double>(rows_ - 1))];
        if (edges.empty() || e > edges.back()) edges.push_back(e);
      }
      // An edge at (or above) the column maximum separates nothing: drop
      // it so constant columns yield a single bin and no empty top bins
      // exist.
      while (!edges.empty() && edges.back() >= sorted.back()) edges.pop_back();
      const double imbalance = assign_codes();
      if (st != nullptr) {
        st->edges = edges;
        st->lo = lo;
        st->hi = hi;
        st->imbalance = imbalance;  // staleness is judged against this
        st->valid = true;
        outcome[c] = Outcome::kRebuilt;
      }
    }
    bin_count_[c] = static_cast<int>(edges.size()) + 1;
  });

  if (cache == nullptr) return;
  std::size_t reused = 0, extended = 0, rebuilt = 0;
  for (const Outcome o : outcome) {
    reused += o == Outcome::kReused;
    extended += o == Outcome::kExtended;
    rebuilt += o == Outcome::kRebuilt;
  }
  cache->reused_ += reused;
  cache->extended_ += extended;
  cache->rebuilt_ += rebuilt;
  // An outcome's series is registered at its first occurrence.
  if (reused > 0) {
    static obs::Counter& ctr = binedge_ctr("reused");
    ctr.inc(reused);
  }
  if (extended > 0) {
    static obs::Counter& ctr = binedge_ctr("extended");
    ctr.inc(extended);
  }
  if (rebuilt > 0) {
    static obs::Counter& ctr = binedge_ctr("rebuilt");
    ctr.inc(rebuilt);
  }
}

double BinnedData::threshold(std::size_t col, int b) const {
  // Values with code <= b are <= edges_[col][b] (when it exists); splitting
  // at that edge reproduces the binned partition exactly for training rows.
  const auto& edges = edges_[col];
  assert(b >= 0 && b < static_cast<int>(edges.size()));
  return edges[static_cast<std::size_t>(b)];
}

namespace {

/// Below this many rows a batch's split scans stay serial: the dispatch
/// would cost more than the histogram work it distributes.  From about 64
/// rows a batch's scans (16 candidates at small scale for one node, every
/// column for each node of a level) outweigh a post to a pool thread that
/// is polling (BENCH_nested_par.json).  The cutoff only gates *whether*
/// the pool is used, never the result.
constexpr std::size_t kParallelNodeRows = 64;

/// SoA histogram accumulators for one candidate feature, sized on demand
/// and filled by simd::hist_accumulate, which writes every bin (+0.0 where
/// no node row fell) and returns the set of bins the node touched.  The
/// cut scans below read only those.  One per thread, for the thread's
/// life: a scan unit never yields mid-scan, so no two units share one, and
/// a thread that claims units of several regions keeps its scratch warm.
struct HistScratch {
  std::vector<double> sum_w;
  std::vector<double> sum_wy;
};

HistScratch& thread_scratch() {
  thread_local HistScratch scratch;
  return scratch;
}

}  // namespace

void FlatTrees::grow(const BinnedData& bd, std::span<const double> y,
                     std::span<const double> w,
                     std::span<const std::size_t> rows, const TreeConfig& cfg,
                     Rng& rng) {
  assert(bd.rows() == y.size());
  assert(w.empty() || w.size() == y.size());

  // Appends a leaf in the store's form (slot 0, threshold 0.0, its own
  // left child, value 0) and returns its index; a split rewrites it.
  const auto push_leaf = [this] {
    const auto n = static_cast<std::int32_t>(node_count());
    slot_.push_back(0);
    threshold_.push_back(0.0);
    left_.push_back(n);
    value_.push_back(0.0);
    return n;
  };
  roots_.push_back(push_leaf());
  depth_.push_back(0);

  std::vector<std::size_t> work;
  if (rows.empty()) {
    work.resize(bd.rows());
    std::iota(work.begin(), work.end(), std::size_t{0});
  } else {
    work.assign(rows.begin(), rows.end());
  }
  if (work.empty()) return;  // the root stays a leaf of value 0

  const auto weight_of = [&](std::size_t r) {
    return w.empty() ? 1.0 : w[r];
  };

  const std::size_t n_features = bd.cols();
  std::vector<int> feature_pool(n_features);
  std::iota(feature_pool.begin(), feature_pool.end(), 0);
  const std::size_t nc =
      cfg.features_per_split > 0
          ? std::min(static_cast<std::size_t>(cfg.features_per_split),
                     n_features)
          : n_features;

  // Nodes are searched in batches.  When the split search draws no
  // randomness (every column a candidate, exhaustive cuts: the catboost-
  // like GBDT), a batch is every pending node, so each tree level is one
  // pool region over (node, candidate) units.  Otherwise a batch is the
  // next node in depth-first pop order (right child first), so candidate
  // and cut draws keep their sequence.  Either way a node's rows are the
  // same: the partition below is stable within the node's own range of
  // `work`, so processing order cannot reorder them.
  const bool level_batches = nc == n_features && !cfg.random_thresholds;

  // A node's search outcome, numbered in processing order.  A split's
  // children are the decisions at `left` and `left + 1`.
  struct Decision {
    double value = 0.0;
    int feature = -1;  // -1: leaf
    int bin = -1;
    std::uint32_t left = 0;
  };
  std::vector<Decision> decisions(1);

  struct Pending {
    std::uint32_t decision;
    std::size_t begin, end;  // range in `work`
    int depth;
  };
  std::vector<Pending> pending{{0, 0, work.size(), 0}}, batch;

  // Per-row SoA gather aligned with `work`: gw[i] / gwy[i] are the weight
  // and weight*target of row work[i], filled for a node's range when it
  // is searched and shared (read-only) by every candidate's histogram.
  std::vector<double> gw(work.size()), gwy(work.size());
  // Partition scratch: a node's right-hand rows, at its own range.
  std::vector<std::size_t> right_rows(work.size());

  // Best cut of one candidate feature within one node; gain <= min_gain
  // means no usable cut.  Pure function of the node range and the
  // pre-drawn random bits, so units can be scanned in any order / on any
  // thread with identical results.
  struct FeatureSplit {
    double gain;
    int bin;
  };
  const auto scan_feature = [&](std::size_t f, std::uint64_t rand_bits,
                                std::size_t begin, std::size_t end,
                                double sum_w, double sum_wy,
                                double parent_score) -> FeatureSplit {
    FeatureSplit best{cfg.min_gain, -1};
    const int nb = bd.num_bins(f);
    if (nb < 2) return best;
    HistScratch& bins = thread_scratch();
    bins.sum_w.resize(static_cast<std::size_t>(nb));
    bins.sum_wy.resize(static_cast<std::size_t>(nb));
    const simd::HistBins hb = simd::hist_accumulate(
        bd.codes_col(f), work.data() + begin, gw.data() + begin,
        gwy.data() + begin, end - begin, nb, bins.sum_w.data(),
        bins.sum_wy.data());
    const int lo_bin = hb.lo_bin, hi_bin = hb.hi_bin;
    if (lo_bin >= hi_bin) return best;  // constant within node

    // Both scans add only touched bins into the running sums.  That is
    // exact: an untouched bin holds +0.0, and the sums start at +0.0 and
    // so never become -0.0 under round-to-nearest, where x + 0.0 == x
    // bitwise.  A cut after an untouched bin thus has the same gain as the
    // cut before it, which the strict > below never picks.
    double lw = 0.0, lwy = 0.0;
    if (cfg.random_thresholds) {
      // Extra-Trees: a single uniformly random cut in [lo_bin, hi_bin),
      // taken from the candidate's pre-drawn bits.
      const int b = lo_bin + static_cast<int>(
                                 rand_bits %
                                 static_cast<std::uint64_t>(hi_bin - lo_bin));
      hb.for_each_below(b + 1, [&](int bb) {
        lw += bins.sum_w[static_cast<std::size_t>(bb)];
        lwy += bins.sum_wy[static_cast<std::size_t>(bb)];
      });
      const double rw = sum_w - lw, rwy = sum_wy - lwy;
      if (lw <= 0.0 || rw <= 0.0) return best;
      const double gain = lwy * lwy / lw + rwy * rwy / rw - parent_score;
      if (gain > best.gain) best = {gain, b};
    } else {
      // Exhaustive scan over the cuts after each touched bin.
      hb.for_each_below(hi_bin, [&](int b) {
        lw += bins.sum_w[static_cast<std::size_t>(b)];
        lwy += bins.sum_wy[static_cast<std::size_t>(b)];
        const double rw = sum_w - lw, rwy = sum_wy - lwy;
        if (lw <= 0.0 || rw <= 0.0) return;
        const double gain = lwy * lwy / lw + rwy * rwy / rw - parent_score;
        if (gain > best.gain) best = {gain, b};
      });
    }
    return best;
  };

  // The batch's nodes that may split, with their totals.
  struct Open {
    Pending at;
    double sum_w, sum_wy, parent_score;
  };
  std::vector<Open> open;
  std::vector<std::uint64_t> rand_bits;  // [node of `open` * nc + candidate]
  std::vector<FeatureSplit> cands;       // same layout

  while (!pending.empty()) {
    if (level_batches) {
      batch.swap(pending);
      pending.clear();
    } else {
      batch.assign(1, pending.back());
      pending.pop_back();
    }

    open.clear();
    rand_bits.clear();
    std::size_t open_rows = 0;
    for (const Pending& p : batch) {
      // Node totals stay a sequential reduction on purpose: they feed
      // leaf values and split gains directly, and reassociating this sum
      // (e.g. through a reduce8 lane tree) measurably perturbs grown trees.
      double sum_w = 0.0, sum_wy = 0.0;
      for (std::size_t i = p.begin; i < p.end; ++i) {
        const std::size_t r = work[i];
        gw[i] = weight_of(r);
        gwy[i] = gw[i] * y[r];
        sum_w += gw[i];
        sum_wy += gwy[i];
      }
      const std::size_t n_node = p.end - p.begin;
      decisions[p.decision].value = sum_w > 0.0 ? sum_wy / sum_w : 0.0;
      if (p.depth >= cfg.max_depth ||
          n_node < 2 * static_cast<std::size_t>(cfg.min_samples_leaf) ||
          sum_w <= 0.0) {
        continue;  // leaf
      }
      if (nc < n_features) {
        // Candidate features: partial Fisher–Yates over the shared pool.
        for (std::size_t i = 0; i < nc; ++i)
          std::swap(feature_pool[i],
                    feature_pool[i + rng.index(n_features - i)]);
      }
      // Extra-Trees cut randomness is pre-drawn per candidate, in
      // candidate order, so the scans touch no shared generator state.
      if (cfg.random_thresholds)
        for (std::size_t fc = 0; fc < nc; ++fc) rand_bits.push_back(rng());
      open.push_back({p, sum_w, sum_wy, sum_wy * sum_wy / sum_w});
      open_rows += n_node;
    }
    if (open.empty()) continue;

    // Histogram + cut search per (node, candidate) unit: the per-tree hot
    // loop.  Units run candidate-major, so the pool's contiguous chunks
    // each cover about the same number of rows.
    const std::size_t n_open = open.size();
    cands.resize(n_open * nc);
    const auto scan_unit = [&](std::size_t u) {
      const std::size_t fc = u / n_open, k = u % n_open;
      const Open& o = open[k];
      cands[k * nc + fc] = scan_feature(
          static_cast<std::size_t>(feature_pool[fc]),
          cfg.random_thresholds ? rand_bits[k * nc + fc] : 0, o.at.begin,
          o.at.end, o.sum_w, o.sum_wy, o.parent_score);
    };
    if (open_rows >= kParallelNodeRows) {
      par::parallel_for(cands.size(), scan_unit);
    } else {
      for (std::size_t u = 0; u < cands.size(); ++u) scan_unit(u);
    }

    for (std::size_t k = 0; k < n_open; ++k) {
      const Pending& p = open[k].at;
      // Ordered reduction in candidate order (strictly-greater keeps the
      // earliest maximum).
      double best_gain = cfg.min_gain;
      int best_feature = -1;
      int best_bin = -1;
      for (std::size_t fc = 0; fc < nc; ++fc) {
        const FeatureSplit& c = cands[k * nc + fc];
        if (c.gain > best_gain) {
          best_gain = c.gain;
          best_feature = feature_pool[fc];
          best_bin = c.bin;
        }
      }
      if (best_feature < 0) continue;  // no useful split -> leaf

      // Stable partition of `work[p.begin, p.end)` by the chosen split:
      // left rows compact in place, right rows go through `right_rows`
      // and follow them, each side in its original order.
      const std::uint8_t* codes =
          bd.codes_col(static_cast<std::size_t>(best_feature));
      std::size_t mid = p.begin, right = p.begin;
      for (std::size_t i = p.begin; i < p.end; ++i) {
        const std::size_t r = work[i];
        if (codes[r] <= best_bin) {
          work[mid++] = r;
        } else {
          right_rows[right++] = r;
        }
      }
      std::copy(right_rows.begin() + static_cast<std::ptrdiff_t>(p.begin),
                right_rows.begin() + static_cast<std::ptrdiff_t>(right),
                work.begin() + static_cast<std::ptrdiff_t>(mid));
      if (mid == p.begin || mid == p.end) continue;  // degenerate
      if (mid - p.begin < static_cast<std::size_t>(cfg.min_samples_leaf) ||
          p.end - mid < static_cast<std::size_t>(cfg.min_samples_leaf)) {
        continue;
      }

      width_ = std::max(width_, static_cast<std::size_t>(best_feature) + 1);
      depth_.back() = std::max(depth_.back(), p.depth + 1);
      const auto left = static_cast<std::uint32_t>(decisions.size());
      decisions[p.decision].feature = best_feature;
      decisions[p.decision].bin = best_bin;
      decisions[p.decision].left = left;
      decisions.resize(decisions.size() + 2);
      pending.push_back({left, p.begin, mid, p.depth + 1});
      pending.push_back({left + 1, mid, p.end, p.depth + 1});
    }
  }

  // Number the nodes by replaying the decisions in depth-first pop order
  // (right child first): a split appends its two children when it is
  // popped.  The store's indices, and so its `save` bytes, depend only on
  // the decisions, never on the order they were reached in.
  struct Placed {
    std::uint32_t decision;
    std::int32_t node;
  };
  std::vector<Placed> stack{{0, roots_.back()}};
  while (!stack.empty()) {
    const Placed at = stack.back();
    stack.pop_back();
    const Decision& d = decisions[at.decision];
    const auto node = static_cast<std::size_t>(at.node);
    value_[node] = d.value;
    if (d.feature < 0) continue;
    const std::int32_t left = push_leaf();
    push_leaf();  // the right child, at left + 1
    slot_[node] = d.feature + 1;
    threshold_[node] = bd.threshold(static_cast<std::size_t>(d.feature), d.bin);
    left_[node] = left;
    stack.push_back({d.left, left});
    stack.push_back({d.left + 1, left + 1});
  }
}

void save_tree_config(io::Serializer& out, const TreeConfig& cfg) {
  out.put_i32(cfg.max_depth);
  out.put_i32(cfg.min_samples_leaf);
  out.put_f64(cfg.min_gain);
  out.put_i32(cfg.features_per_split);
  out.put_bool(cfg.random_thresholds);
}

TreeConfig load_tree_config(io::Deserializer& in) {
  TreeConfig cfg;
  cfg.max_depth = in.get_i32();
  cfg.min_samples_leaf = in.get_i32();
  cfg.min_gain = in.get_f64();
  cfg.features_per_split = in.get_i32();
  cfg.random_thresholds = in.get_bool();
  return cfg;
}

void FlatTrees::clear() {
  slot_.clear();
  threshold_.clear();
  left_.clear();
  value_.clear();
  roots_.clear();
  depth_.clear();
  width_ = 0;
}

void FlatTrees::reserve(std::size_t trees, std::size_t nodes) {
  slot_.reserve(node_count() + nodes);
  threshold_.reserve(node_count() + nodes);
  left_.reserve(node_count() + nodes);
  value_.reserve(node_count() + nodes);
  roots_.reserve(tree_count() + trees);
  depth_.reserve(tree_count() + trees);
}

void FlatTrees::splice(FlatTrees other) {
  const auto shift = static_cast<std::int32_t>(node_count());
  for (const std::int32_t root : other.roots_) roots_.push_back(root + shift);
  for (const std::int32_t left : other.left_) left_.push_back(left + shift);
  depth_.insert(depth_.end(), other.depth_.begin(), other.depth_.end());
  slot_.insert(slot_.end(), other.slot_.begin(), other.slot_.end());
  threshold_.insert(threshold_.end(), other.threshold_.begin(),
                    other.threshold_.end());
  value_.insert(value_.end(), other.value_.begin(), other.value_.end());
  width_ = std::max(width_, other.width_);
}

void FlatTrees::shrink_to_fit() {
  slot_.shrink_to_fit();
  threshold_.shrink_to_fit();
  left_.shrink_to_fit();
  value_.shrink_to_fit();
  roots_.shrink_to_fit();
  depth_.shrink_to_fit();
}

namespace {

/// Rows per block: the block's rows and one tree's nodes stay in L1 while
/// every tree walks the block.
constexpr std::size_t kBlockRows = 64;
/// Traversal chains interleaved per tree walk.
constexpr std::size_t kLanes = 8;
/// Below this many rows prediction stays on the calling thread.
constexpr std::size_t kParallelRows = 32;

/// Walks eight rows `depth` steps down the tree rooted at `root` and adds
/// scale * leaf value to acc[l].  `xt` holds the rows slot-major
/// (xt[slot * 8 + l]) with slot 0 fixed at 0.0.  Each step is branch-free:
/// a node moves to left + !(x <= threshold), so NaN goes right, and a leaf
/// (left == itself, slot 0, threshold 0.0) compares 0.0 <= 0.0 and stays.
void walk8(const std::int32_t* slot, const double* threshold,
           const std::int32_t* left, const double* value, std::int32_t root,
           int depth, const double* xt, double scale, double* acc) {
  std::int32_t at[kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) at[l] = root;
  for (int d = 0; d < depth; ++d) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      const std::int32_t n = at[l];
      const double x = xt[static_cast<std::size_t>(slot[n]) * kLanes + l];
      at[l] = left[n] + static_cast<std::int32_t>(!(x <= threshold[n]));
    }
  }
  for (std::size_t l = 0; l < kLanes; ++l) acc[l] += scale * value[at[l]];
}

/// walk8 for one row, read in place (x[slot - 1]) until it reaches a leaf.
void walk1(const std::int32_t* slot, const double* threshold,
           const std::int32_t* left, const double* value, std::int32_t root,
           const double* x, double scale, double* acc) {
  std::int32_t n = root;
  for (std::int32_t child = left[n]; child != n; child = left[n])
    n = child + static_cast<std::int32_t>(!(x[slot[n] - 1] <= threshold[n]));
  *acc += scale * value[n];
}

}  // namespace

void FlatTrees::check_width(std::size_t cols) const {
  if (cols < width_) {
    throw std::invalid_argument(
        "tree ensemble reads feature " + std::to_string(width_ - 1) +
        " but the input has " + std::to_string(cols) + " columns");
  }
}

void FlatTrees::accumulate(const double* data, std::size_t cols,
                           std::size_t rows, std::size_t tree_begin,
                           std::size_t tree_end, double scale,
                           double* out) const {
  check_width(cols);
  // Tree-major within a block: each tree walks every row of the block
  // before the next tree starts, and row r's sum still gains its trees in
  // tree order.
  const std::size_t group = (cols + 1) * kLanes;
  const auto blocks = [&](std::size_t row_begin, std::size_t row_end) {
    std::vector<double> xt;
    for (std::size_t b = row_begin; b < row_end; b += kBlockRows) {
      const std::size_t e = std::min(row_end, b + kBlockRows);
      const std::size_t full = b + (e - b) / kLanes * kLanes;
      // Slot-major copy of the block's whole groups of eight rows.
      xt.resize((full - b) / kLanes * group);
      for (std::size_t g = b; g < full; g += kLanes) {
        double* dst = xt.data() + (g - b) / kLanes * group;
        for (std::size_t l = 0; l < kLanes; ++l) {
          const double* src = data + (g + l) * cols;
          dst[l] = 0.0;
          for (std::size_t f = 0; f < cols; ++f)
            dst[(f + 1) * kLanes + l] = src[f];
        }
      }
      for (std::size_t t = tree_begin; t < tree_end; ++t) {
        for (std::size_t g = b; g < full; g += kLanes)
          walk8(slot_.data(), threshold_.data(), left_.data(), value_.data(),
                roots_[t], depth_[t], xt.data() + (g - b) / kLanes * group,
                scale, out + g);
        for (std::size_t r = full; r < e; ++r)
          walk1(slot_.data(), threshold_.data(), left_.data(), value_.data(),
                roots_[t], data + r * cols, scale, out + r);
      }
    }
  };
  if (rows < kParallelRows) {
    blocks(0, rows);
    return;
  }
  // Rows are independent and land in per-row slots, so the split (and
  // thus the thread count) cannot change any result.
  const std::size_t n_blocks = (rows + kBlockRows - 1) / kBlockRows;
  par::parallel_for_chunks(n_blocks, [&](std::size_t cb, std::size_t ce) {
    blocks(cb * kBlockRows, std::min(rows, ce * kBlockRows));
  });
}

void FlatTrees::predict_into(const Matrix& X, double base, double scale,
                             std::span<double> out) const {
  assert(out.size() == X.rows());
  LEAF_SPAN("predict.batch");
  static obs::Counter& rows_ctr =
      obs::MetricsRegistry::global().counter("leaf_predict_rows_total");
  rows_ctr.inc(X.rows());
  std::fill(out.begin(), out.end(), base);
  accumulate(X.flat().data(), X.cols(), X.rows(), 0, tree_count(), scale,
             out.data());
}

double FlatTrees::predict_one(std::span<const double> x, double base,
                              double scale) const {
  double acc = base;
  accumulate(x.data(), x.size(), 1, 0, tree_count(), scale, &acc);
  return acc;
}

void FlatTrees::add_tree(const Matrix& X, std::size_t t, double scale,
                         std::span<double> out) const {
  assert(out.size() == X.rows() && t < tree_count());
  accumulate(X.flat().data(), X.cols(), X.rows(), t, t + 1, scale,
             out.data());
}

TreeSweep::TreeSweep(const FlatTrees& trees, const Matrix& X, double base,
                     double scale, double divisor)
    : trees_(trees),
      base_(base),
      scale_(scale),
      divisor_(divisor),
      stride_(X.cols() + 1) {
  trees.check_width(X.cols());
  const std::size_t rows = X.rows();
  const std::size_t n_trees = trees.tree_count();
  if (rows > UINT32_MAX)
    throw std::length_error("column sweep: more than 2^32 rows");
  const std::int32_t* slot = trees.slot_.data();
  const double* threshold = trees.threshold_.data();
  const std::int32_t* left = trees.left_.data();

  xs_.assign(rows * stride_, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::span<const double> x = X.row(r);
    std::copy(x.begin(), x.end(), xs_.begin() + r * stride_ + 1);
  }
  // Tree order lists each tree's nodes after its root, every child after
  // its parent.  A pair is listed under each column its path tests, at the
  // first node on the path that does; whether a node is that first test
  // is a property of the node alone (no ancestor tests its column), so
  // first_col[n] holds n's column then, and -1 otherwise.
  const std::size_t cols = X.cols();
  const std::size_t n_nodes = trees.node_count();
  node_tree_.resize(n_nodes);
  node_steps_.resize(n_nodes);
  std::vector<std::int32_t> parent(n_nodes, -1), first_col(n_nodes, -1);
  for (std::size_t t = 0; t < n_trees; ++t) {
    const auto begin = static_cast<std::size_t>(trees.roots_[t]);
    const std::size_t end = t + 1 < n_trees
                                ? static_cast<std::size_t>(trees.roots_[t + 1])
                                : n_nodes;
    node_steps_[begin] = trees.depth_[t];
    for (std::size_t n = begin; n < end; ++n) {
      node_tree_[n] = static_cast<std::uint32_t>(t);
      const auto child = static_cast<std::size_t>(left[n]);
      if (child == n) continue;
      node_steps_[child] = node_steps_[n] - 1;
      node_steps_[child + 1] = node_steps_[n] - 1;
      parent[child] = parent[child + 1] = static_cast<std::int32_t>(n);
      std::int32_t a = parent[n];
      while (a >= 0 && slot[a] != slot[n])
        a = parent[static_cast<std::size_t>(a)];
      if (a < 0) first_col[n] = slot[n] - 1;
    }
  }

  // One walk down finds every pair's leaf.  A column's entry count is the
  // number of pairs passing its first-test nodes, summed up from the
  // leaves (children follow parents, so a reverse pass adds each node
  // into its parent after all of its own children).
  leaf_.resize(rows * n_trees);
  std::vector<std::size_t> visits(n_nodes, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* x = xs_.data() + r * stride_;
    for (std::size_t t = 0; t < n_trees; ++t) {
      std::int32_t n = trees.roots_[t];
      for (std::int32_t child = left[n]; child != n; child = left[n])
        n = child + static_cast<std::int32_t>(!(x[slot[n]] <= threshold[n]));
      leaf_[r * n_trees + t] = n;
      ++visits[static_cast<std::size_t>(n)];
    }
  }
  path_begin_.assign(cols + 1, 0);
  for (std::size_t n = n_nodes; n-- > 0;) {
    if (parent[n] >= 0)
      visits[static_cast<std::size_t>(parent[n])] += visits[n];
    if (first_col[n] >= 0)
      path_begin_[static_cast<std::size_t>(first_col[n]) + 1] += visits[n];
  }
  for (std::size_t c = 0; c < cols; ++c) path_begin_[c + 1] += path_begin_[c];

  // The lists, column after column (CSR): each pair, in pair order, climbs
  // from its leaf and appends itself to the list of every first-test node
  // it passes.  A pair adds at most one entry to a column, so each list
  // comes out in pair order (by row).
  paths_.resize(path_begin_.back());
  std::vector<std::size_t> fill(path_begin_.begin(), path_begin_.end() - 1);
  for (std::size_t pair = 0; pair < leaf_.size(); ++pair) {
    const auto r = static_cast<std::uint32_t>(pair / n_trees);
    for (std::int32_t n = parent[static_cast<std::size_t>(leaf_[pair])]; n >= 0;
         n = parent[static_cast<std::size_t>(n)]) {
      const std::int32_t c = first_col[static_cast<std::size_t>(n)];
      if (c >= 0) paths_[fill[static_cast<std::size_t>(c)]++] = {r, n};
    }
  }
  cur_ = leaf_;
  base_pred_.resize(rows);
  std::vector<std::uint32_t> all(rows);
  std::iota(all.begin(), all.end(), std::uint32_t{0});
  sum_rows(all, base_pred_);
}

void TreeSweep::sum_rows(std::span<const std::uint32_t> rows,
                         std::span<double> out) const {
  // Four rows at a time as independent sums; each still adds its trees in
  // tree order.  A short last group repeats its first row.
  constexpr std::size_t kRows = 4;
  const std::size_t n_trees = trees_.tree_count();
  const double* value = trees_.value_.data();
  for (std::size_t i = 0; i < rows.size(); i += kRows) {
    const std::size_t m = std::min(kRows, rows.size() - i);
    const std::int32_t* leaf[kRows];
    double acc[kRows];
    for (std::size_t k = 0; k < kRows; ++k) {
      leaf[k] = cur_.data() + std::size_t{rows[i + (k < m ? k : 0)]} * n_trees;
      acc[k] = base_;
    }
    for (std::size_t t = 0; t < n_trees; ++t)
      for (std::size_t k = 0; k < kRows; ++k)
        acc[k] += scale_ * value[leaf[k][t]];
    for (std::size_t k = 0; k < m; ++k)
      out[rows[i + k]] = acc[k] / divisor_;  // exact when divisor_ is 1
  }
}

void TreeSweep::predict(std::size_t c, std::span<const double> values,
                        std::span<double> out) {
  assert(c + 1 < path_begin_.size() &&
         values.size() * stride_ == xs_.size() &&
         out.size() == values.size());
  const std::int32_t* slot = trees_.slot_.data();
  const double* threshold = trees_.threshold_.data();
  const std::int32_t* left = trees_.left_.data();
  const std::size_t n_trees = trees_.tree_count();
  const auto c_slot = static_cast<std::int32_t>(c + 1);
  const std::span<const PathEntry> entries = column_paths(c);
  changed_.clear();
  rows_.clear();
  // kLanes pairs at a time as independent branch-free chains (as walk8),
  // each for as many steps as the deepest one needs; a short last group
  // repeats its first pair.
  for (std::size_t i = 0; i < entries.size(); i += kLanes) {
    const std::size_t m = std::min(kLanes, entries.size() - i);
    std::int32_t at[kLanes];
    const double* x[kLanes];
    double v[kLanes];
    std::int32_t steps = 0;
    for (std::size_t l = 0; l < kLanes; ++l) {
      const PathEntry& e = entries[i + (l < m ? l : 0)];
      at[l] = e.node;
      x[l] = xs_.data() + std::size_t{e.row} * stride_;
      v[l] = values[e.row];
      steps = std::max(steps, node_steps_[static_cast<std::size_t>(e.node)]);
    }
    for (std::int32_t d = 0; d < steps; ++d) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        const std::int32_t n = at[l];
        const double xv = slot[n] == c_slot ? v[l] : x[l][slot[n]];
        at[l] = left[n] + static_cast<std::int32_t>(!(xv <= threshold[n]));
      }
    }
    for (std::size_t l = 0; l < m; ++l) {
      const PathEntry& e = entries[i + l];
      const std::size_t pair =
          std::size_t{e.row} * n_trees +
          node_tree_[static_cast<std::size_t>(e.node)];
      if (at[l] == cur_[pair]) continue;
      cur_[pair] = at[l];
      changed_.push_back(pair);
      // Entries ascend by row, so a row repeats only back to back.
      if (rows_.empty() || rows_.back() != e.row) rows_.push_back(e.row);
    }
  }
  std::copy(base_pred_.begin(), base_pred_.end(), out.begin());
  sum_rows(rows_, out);
  for (const std::size_t pair : changed_) cur_[pair] = leaf_[pair];
}

void FlatTrees::save(io::Serializer& out) const {
  out.put_u64(tree_count());
  for (std::size_t t = 0; t < tree_count(); ++t) {
    const std::int32_t root = roots_[t];
    const std::size_t end = t + 1 < tree_count()
                                ? static_cast<std::size_t>(roots_[t + 1])
                                : node_count();
    out.put_u64(end - static_cast<std::size_t>(root));
    for (auto n = static_cast<std::size_t>(root); n < end; ++n) {
      const bool leaf = left_[n] == static_cast<std::int32_t>(n);
      out.put_i32(leaf ? -1 : slot_[n] - 1);
      out.put_f64(threshold_[n]);
      out.put_i32(leaf ? -1 : left_[n] - root);
      out.put_i32(leaf ? -1 : left_[n] - root + 1);
      out.put_f64(value_[n]);
    }
  }
}

void FlatTrees::load(io::Deserializer& in) {
  constexpr std::size_t kNodeBytes = 4 + 8 + 4 + 4 + 8;
  clear();
  const std::size_t trees = in.get_count(8);  // >= node-count word per tree
  // Size the store exactly first, from the node-count words alone, so a
  // restore allocates each array once.
  std::size_t nodes = 0;
  io::Deserializer scan = in;
  for (std::size_t t = 0; t < trees; ++t) {
    const std::size_t count = scan.get_count(kNodeBytes);
    scan.skip(count * kNodeBytes);
    nodes += count;
  }
  if (nodes >
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()))
    throw io::SnapshotError("tree ensemble has too many nodes");
  reserve(trees, nodes);
  std::vector<int> level;  // splits above each node of the current tree
  for (std::size_t t = 0; t < trees; ++t) {
    const std::size_t count = in.get_count(kNodeBytes);
    const std::size_t root = node_count();
    if (count == 0) throw io::SnapshotError("decision tree has no nodes");
    roots_.push_back(static_cast<std::int32_t>(root));
    depth_.push_back(0);
    level.assign(count, 0);
    slot_.resize(root + count);
    threshold_.resize(root + count);
    left_.resize(root + count);
    value_.resize(root + count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t n = root + i;
      const std::int32_t feature = in.get_i32();
      threshold_[n] = in.get_f64();
      const std::int64_t left = in.get_i32();
      const std::int64_t right = in.get_i32();
      value_[n] = in.get_f64();
      if (feature < 0) {
        // The one leaf form grow writes; walk8 relies on the 0.0 threshold.
        if (feature != -1 || left != -1 || right != -1 ||
            threshold_[n] != 0.0)
          throw io::SnapshotError("decision tree leaf is malformed");
        slot_[n] = 0;
        left_[n] = static_cast<std::int32_t>(n);
        continue;
      }
      // A split's children come after it, right next to each other, so
      // every traversal moves forward and none can loop.
      if (left <= static_cast<std::int64_t>(i) || right != left + 1 ||
          right >= static_cast<std::int64_t>(count))
        throw io::SnapshotError("decision tree child index out of range");
      if (feature == std::numeric_limits<std::int32_t>::max())
        throw io::SnapshotError("decision tree feature index out of range");
      slot_[n] = feature + 1;
      const auto l = static_cast<std::size_t>(left);
      left_[n] = static_cast<std::int32_t>(root + l);
      width_ = std::max(width_, static_cast<std::size_t>(feature) + 1);
      for (std::size_t c = l; c <= l + 1; ++c) {
        level[c] = std::max(level[c], level[i] + 1);
        depth_.back() = std::max(depth_.back(), level[c]);
      }
    }
  }
}

void BinEdgeCache::save(io::Serializer& out) const {
  out.put_i32(max_bins_);
  out.put_u64(reused_);
  out.put_u64(extended_);
  out.put_u64(rebuilt_);
  out.put_u64(cols_.size());
  for (const ColState& st : cols_) {
    out.put_doubles(st.edges);
    out.put_f64(st.lo);
    out.put_f64(st.hi);
    out.put_f64(st.imbalance);
    out.put_bool(st.valid);
  }
}

void BinEdgeCache::load(io::Deserializer& in) {
  max_bins_ = in.get_i32();
  reused_ = in.get_u64();
  extended_ = in.get_u64();
  rebuilt_ = in.get_u64();
  const std::size_t count = in.get_count(8 + 8 + 8 + 8 + 1);
  cols_.assign(count, ColState{});
  for (ColState& st : cols_) {
    st.edges = in.get_doubles();
    st.lo = in.get_f64();
    st.hi = in.get_f64();
    st.imbalance = in.get_f64();
    st.valid = in.get_bool();
  }
}

}  // namespace leaf::models
