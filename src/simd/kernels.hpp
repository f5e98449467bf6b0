// leaf::simd kernel contracts — the fixed 8-lane virtual-vector layer.
//
// Every kernel here exists twice: a vectorized implementation
// (kernels_vector.cpp — SSE2 / AVX2 / NEON intrinsics, compiled only with
// -DLEAF_SIMD=ON) and a scalar reference (kernels_scalar.cpp, compiled
// with auto-vectorization disabled so benchmarks compare honest scalar
// code).  Both implement the *identical* floating-point operation DAG:
//
//   * A reduction kernel accumulates into 8 virtual lanes — element i
//     belongs to lane i % 8 — and collapses them with one fixed tree:
//         ((L0+L1)+(L2+L3)) + ((L4+L5)+(L6+L7))           (reduce8)
//     SSE2/NEON hold the lanes as four 2-wide registers {L0,L1}..{L6,L7},
//     AVX2 as two 4-wide registers {L0..L3},{L4..L7}; in every case the
//     per-lane accumulation order (ascending i) and the reduction tree
//     are the same, so the result is bit-identical across ISAs, across
//     -DLEAF_SIMD=ON/OFF builds, and at any LEAF_THREADS.
//   * An elementwise kernel (axpy, per-row distances) has no cross-lane
//     reduction at all; per-element operation order is the natural one.
//
// Because IEEE-754 ops are deterministic given an operation DAG, "same
// DAG" is the whole determinism story — which is why both TUs are built
// with -ffp-contract=off (an FMA would change the DAG on exactly one
// side) and why kernels live out-of-line instead of in headers.
//
// Adding a kernel: declare it in both namespaces below, write the scalar
// reference first (it *defines* the contract), mirror its lane/tail/tree
// structure with intrinsics, add it to the bench_micro --kernels suite
// and the bit-identity property test in tests/test_simd.cpp.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace leaf::simd {

/// Virtual vector width.  Fixed at 8 regardless of the physical ISA so
/// results never depend on which instruction set executed the kernel.
inline constexpr std::size_t kLanes = 8;

/// Fixed lane-reduction tree shared by every reduction kernel and both
/// implementations.  Do not "simplify": the exact association order is
/// the cross-ISA determinism contract.
inline double reduce8(const double lanes[kLanes]) {
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

/// Result of the finite-pair squared-error reduction (metrics::nrmse):
/// sum of (pred-truth)^2 over pairs where both sides are finite, and the
/// number of such pairs.
struct ErrorAcc {
  double sum_sq = 0.0;
  std::uint64_t finite = 0;
};

/// The bins one histogram accumulation touched: bit b % 64 of mask[b / 64]
/// is set when at least one row fell into bin b, and lo_bin / hi_bin are
/// the lowest and highest set bits (lo > hi means no rows).  A set is
/// order-independent, so this is trivially deterministic.
struct HistBins {
  static constexpr int kMaxBins = 256;  ///< codes are uint8
  std::uint64_t mask[kMaxBins / 64] = {0, 0, 0, 0};
  int lo_bin = 0;
  int hi_bin = -1;

  bool touched(int b) const { return (mask[b >> 6] >> (b & 63)) & 1; }

  /// Derives lo_bin / hi_bin from the mask once every row is in.
  void set_bounds() {
    lo_bin = 0;
    hi_bin = -1;
    for (int wd = 0; wd < kMaxBins / 64; ++wd) {
      if (mask[wd] == 0) continue;
      if (hi_bin < 0) lo_bin = wd * 64 + std::countr_zero(mask[wd]);
      hi_bin = wd * 64 + 63 - std::countl_zero(mask[wd]);
    }
  }

  /// Calls fn(b) for every touched bin b < end, in ascending order.
  template <class Fn>
  void for_each_below(int end, Fn&& fn) const {
    for (int wd = 0; wd * 64 < end; ++wd) {
      std::uint64_t m = mask[wd];
      if (end - wd * 64 < 64) m &= (std::uint64_t{1} << (end - wd * 64)) - 1;
      for (; m != 0; m &= m - 1) fn(wd * 64 + std::countr_zero(m));
    }
  }
};

/// Below this many rows a histogram accumulates sequentially into a
/// single lane instead of 8 lane-private histograms: merging and clearing
/// 8 copies of the accumulator would dwarf the row work.  The cutoff is
/// part of the kernel contract — both implementations switch at the same
/// size, so it can never cause divergence.
inline constexpr std::size_t kHistLaneCutoff = 64;

namespace scalar {

double dot(const double* a, const double* b, std::size_t n);
/// y[i] += alpha * x[i] (elementwise; bit-identical to the classic loop).
void axpy(double alpha, const double* x, double* y, std::size_t n);
ErrorAcc squared_error(const double* pred, const double* truth,
                       std::size_t n);
/// Squared L2 distances of a query `z` (ncols entries) to `rows` points
/// stored column-major (`cols[c * rows + r]`): out[r] = sum_c (x_rc-z_c)^2.
/// Per-distance accumulation is sequential over c, so each out[r] is
/// bit-identical to the classic row-major loop.
void l2_distances_cols(const double* cols, std::size_t rows, const double* z,
                       std::size_t ncols, double* out);
/// Weighted histogram build for one feature of a tree node: for each of
/// the n node rows, bin b = codes[rows[i]] accumulates w[i] into sum_w[b]
/// and wy[i] into sum_wy[b] (SoA accumulators; all num_bins entries are
/// written, and a bin no row fell into holds exactly +0.0).  Returns the
/// set of touched bins, so a caller can visit only those.
///
/// Nodes below kHistLaneCutoff rows accumulate sequentially.  Larger nodes
/// add row i into lane i % 8 of 8 lane-private histograms, in ascending i,
/// and merge each bin with reduce8.  The lane histograms live in one
/// thread-local scratch, lane-major, each entry a (w, wy) pair
/// ([lane][bin][w|wy]): a row is one 2-wide add, and the merge runs the
/// reduce8 tree on both halves of a pair at once.  The scratch is all-zero
/// between calls: each call clears the span it dirtied, bins lo..hi of
/// every lane, as one contiguous run after merging, instead of zeroing
/// 8 x num_bins pairs on entry.
HistBins hist_accumulate(const std::uint8_t* codes, const std::size_t* rows,
                         const double* w, const double* wy, std::size_t n,
                         int num_bins, double* sum_w, double* sum_wy);

}  // namespace scalar

namespace vector {

/// Physical ISA the vector path was compiled for: "avx2", "sse2", "neon",
/// or "lanes" (no intrinsics available; generic 8-lane code).  In a
/// -DLEAF_SIMD=OFF build these symbols forward to scalar:: and the isa is
/// "scalar".
const char* isa();

double dot(const double* a, const double* b, std::size_t n);
void axpy(double alpha, const double* x, double* y, std::size_t n);
ErrorAcc squared_error(const double* pred, const double* truth,
                       std::size_t n);
void l2_distances_cols(const double* cols, std::size_t rows, const double* z,
                       std::size_t ncols, double* out);
HistBins hist_accumulate(const std::uint8_t* codes, const std::size_t* rows,
                         const double* w, const double* wy, std::size_t n,
                         int num_bins, double* sum_w, double* sum_wy);

}  // namespace vector

}  // namespace leaf::simd
