// parallel_for_chunks / parallel_for / parallel_map over the leaf::par pool.
//
// All helpers share the determinism contract of pool.hpp: iteration space
// is split into at most threads() contiguous chunks and per-index results
// are written to per-index slots, so the output is bit-identical at any
// LEAF_THREADS setting.  Callers that need
// randomness per task must derive it from the task index
// (Rng::substream(i)), never from a shared generator.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <type_traits>
#include <vector>

#include "par/pool.hpp"

namespace leaf::par {

/// Runs fn(begin, end) over contiguous ranges covering [0, n).  The chunk
/// *boundaries* depend on the thread count, so fn must give each index a
/// result independent of its neighbours; per-chunk scratch buffers are
/// fine as long as they are (re)initialized deterministically per index.
template <typename F>
void parallel_for_chunks(std::size_t n, F&& fn) {
  if (n == 0) return;
  const int t = threads();
  if (t <= 1 || n == 1) {
    fn(std::size_t{0}, n);
    return;
  }
  const std::size_t n_chunks = std::min<std::size_t>(n, static_cast<std::size_t>(t));
  const std::function<void(std::size_t)> chunk = [&](std::size_t c) {
    fn(n * c / n_chunks, n * (c + 1) / n_chunks);
  };
  pool().run(n_chunks, chunk);
}

/// Runs fn(i) for every i in [0, n), statically chunked over the pool.
template <typename F>
void parallel_for(std::size_t n, F&& fn) {
  parallel_for_chunks(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

/// Returns {fn(0), fn(1), ..., fn(n-1)} in index order.  The element type
/// must be default-constructible and movable.
template <typename F>
auto parallel_map(std::size_t n, F&& fn) {
  using T = std::decay_t<std::invoke_result_t<F&, std::size_t>>;
  std::vector<T> out(n);
  parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace leaf::par
