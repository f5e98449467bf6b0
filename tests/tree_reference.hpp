// Scalar reference for tree stores in tests: the node lists
// models::FlatTrees::save writes, read back and walked one row at a time
// with a plain `x <= threshold ? left : right`, independent of the store's
// own traversal kernels.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "io/serializer.hpp"
#include "models/tree.hpp"

namespace leaf::testing {

/// One node as FlatTrees::save writes it: feature, children and -1s for a
/// leaf, children indexed within the tree.
struct SavedNode {
  std::int32_t feature;
  double threshold;
  std::int32_t left, right;
  double value;
};
using SavedTree = std::vector<SavedNode>;

/// Every tree of `store`, in order, as its saved node list.
inline std::vector<SavedTree> saved_trees(const models::FlatTrees& store) {
  io::Serializer out;
  store.save(out);
  io::Deserializer in(out.bytes());
  std::vector<SavedTree> trees(in.get_u64());
  for (SavedTree& tree : trees) {
    tree.resize(in.get_u64());
    for (SavedNode& n : tree) {
      n.feature = in.get_i32();
      n.threshold = in.get_f64();
      n.left = in.get_i32();
      n.right = in.get_i32();
      n.value = in.get_f64();
    }
  }
  EXPECT_TRUE(in.exhausted());
  return trees;
}

/// Grows one tree into a store of its own and returns its saved nodes.
inline SavedTree grow_tree(const models::BinnedData& bd,
                           std::span<const double> y,
                           std::span<const double> w,
                           std::span<const std::size_t> rows,
                           const models::TreeConfig& cfg, Rng& rng) {
  models::FlatTrees store;
  store.grow(bd, y, w, rows, cfg, rng);
  std::vector<SavedTree> trees = saved_trees(store);
  EXPECT_EQ(trees.size(), 1u);
  return trees.at(0);
}

/// The value of the leaf `x` reaches in `tree`.
inline double walk(const SavedTree& tree, std::span<const double> x) {
  std::size_t i = 0;
  while (tree[i].feature >= 0) {
    const SavedNode& n = tree[i];
    const double v = x[static_cast<std::size_t>(n.feature)];
    i = static_cast<std::size_t>(v <= n.threshold ? n.left : n.right);
  }
  return tree[i].value;
}

/// Nodes on the longest root-to-leaf path (a lone root has depth 1).
inline int tree_depth(const SavedTree& tree) {
  if (tree.empty()) return 0;
  std::vector<std::pair<std::size_t, int>> stack{{0, 1}};
  int best = 0;
  while (!stack.empty()) {
    const auto [i, d] = stack.back();
    stack.pop_back();
    best = std::max(best, d);
    const SavedNode& n = tree[i];
    if (n.feature >= 0) {
      stack.push_back({static_cast<std::size_t>(n.left), d + 1});
      stack.push_back({static_cast<std::size_t>(n.right), d + 1});
    }
  }
  return best;
}

}  // namespace leaf::testing
