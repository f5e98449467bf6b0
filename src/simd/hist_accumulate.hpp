// hist_accumulate's body, shared by the scalar reference and the vector
// path (kernels_scalar.cpp, kernels_vector.cpp; no other includer).  The
// row pass is a gather/scatter with no contiguous-load shape worth
// intrinsics, so both implementations run this same loop and differ only
// in the per-row pair add and the lane merge they pass in.  See
// kernels.hpp for the contract.
#pragma once

#include <cstring>
#include <vector>

#include "simd/kernels.hpp"

namespace leaf::simd::detail {

/// This thread's lane-private histograms: kLanes x nbins (w, wy) pairs,
/// lane-major, so lane j of bin b is the pair at 2 * (j * nbins + b).
/// Grows on demand and is all-zero between calls.
inline double* hist_lanes(std::size_t nbins) {
  thread_local std::vector<double> scratch;
  if (scratch.size() < 2 * kLanes * nbins) scratch.resize(2 * kLanes * nbins);
  return scratch.data();
}

/// reduce8 over the 8 lanes of bin b, for the w (k = 0) or wy (k = 1) half
/// of the pairs.
inline double merge_bin(const double* h, std::size_t nbins, std::size_t b,
                        std::size_t k) {
  double lanes[kLanes];
  for (std::size_t j = 0; j < kLanes; ++j)
    lanes[j] = h[2 * (j * nbins + b) + k];
  return reduce8(lanes);
}

/// `MaskWords` is 1 when there are at most 64 bins, so the touched set
/// stays in one register instead of a read-modify-write chain through
/// memory.  `add_pair(p, w, wy)` does p[0] += w, p[1] += wy.
/// `merge(h, lo, hi, sum_w, sum_wy)` writes sum_w[b] = merge_bin(h, nbins,
/// b, 0) and sum_wy[b] = merge_bin(h, nbins, b, 1) for every b in [lo, hi].
template <std::size_t MaskWords, class AddPair, class Merge>
HistBins hist_accumulate(const std::uint8_t* codes, const std::size_t* rows,
                         const double* w, const double* wy, std::size_t n,
                         std::size_t nbins, double* sum_w, double* sum_wy,
                         AddPair add_pair, Merge merge) {
  std::memset(sum_w, 0, nbins * sizeof(double));  // all-zero bytes: +0.0
  std::memset(sum_wy, 0, nbins * sizeof(double));
  std::uint64_t mask[MaskWords] = {};
  const auto touch = [&mask](std::size_t b) {
    mask[MaskWords == 1 ? 0 : b >> 6] |= std::uint64_t{1} << (b & 63);
  };
  const auto bounds = [&mask] {
    HistBins bins;
    for (std::size_t wd = 0; wd < MaskWords; ++wd) bins.mask[wd] = mask[wd];
    bins.set_bounds();
    return bins;
  };

  if (n < kHistLaneCutoff) {
    // Small nodes: one sequential accumulator; lane-private copies would
    // cost more to merge and clear than the rows cost to add.
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t b = codes[rows[i]];
      sum_w[b] += w[i];
      sum_wy[b] += wy[i];
      touch(b);
    }
    return bounds();
  }

  // Row i accumulates into lane i % 8.
  double* h = hist_lanes(nbins);
  const std::size_t nb = n & ~(kLanes - 1);
  for (std::size_t i = 0; i < nb; i += kLanes) {
    for (std::size_t j = 0; j < kLanes; ++j) {
      const std::size_t b = codes[rows[i + j]];
      add_pair(h + 2 * (j * nbins + b), w[i + j], wy[i + j]);
      touch(b);
    }
  }
  for (std::size_t i = nb; i < n; ++i) {
    const std::size_t b = codes[rows[i]];
    add_pair(h + 2 * ((i - nb) * nbins + b), w[i], wy[i]);
    touch(b);
  }
  const HistBins bins = bounds();
  const auto lo = static_cast<std::size_t>(bins.lo_bin);
  const auto hi = static_cast<std::size_t>(bins.hi_bin);
  merge(h, lo, hi, sum_w, sum_wy);
  // Only bins [lo, hi] of each lane were dirtied: clear them as one
  // contiguous run.
  std::memset(h + 2 * lo, 0,
              2 * ((kLanes - 1) * nbins + hi + 1 - lo) * sizeof(double));
  return bins;
}

}  // namespace leaf::simd::detail
