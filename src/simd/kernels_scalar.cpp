// Scalar reference kernels.  These *define* the fixed-lane contract: the
// vector implementations in kernels_vector.cpp must reproduce exactly the
// operation DAG written here.  This TU is compiled with auto-vectorization
// disabled (-fno-tree-vectorize -fno-tree-slp-vectorize) so that the
// scalar side of bench_micro --kernels is honest scalar code, and with
// -ffp-contract=off so the compiler cannot fuse a*b+c into an FMA that
// the intrinsics side does not perform.
#include "simd/kernels.hpp"

#include <cmath>

#include "simd/hist_accumulate.hpp"

namespace leaf::simd::scalar {

namespace {

// Zero-initialized lane accumulator block.
struct Lanes {
  double v[kLanes] = {0, 0, 0, 0, 0, 0, 0, 0};
};

}  // namespace

double dot(const double* a, const double* b, std::size_t n) {
  Lanes acc;
  const std::size_t nb = n & ~(kLanes - 1);
  for (std::size_t i = 0; i < nb; i += kLanes) {
    for (std::size_t j = 0; j < kLanes; ++j) acc.v[j] += a[i + j] * b[i + j];
  }
  for (std::size_t i = nb; i < n; ++i) acc.v[i - nb] += a[i] * b[i];
  return reduce8(acc.v);
}

void axpy(double alpha, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

ErrorAcc squared_error(const double* pred, const double* truth,
                       std::size_t n) {
  // Non-finite pairs contribute a masked +0.0 to their lane instead of
  // branching, mirroring how the SIMD path works (blend, not branch).
  // Adding +0.0 is a bitwise no-op here because a lane accumulator only
  // ever holds values >= +0.0.
  Lanes sq;
  Lanes cnt;
  const std::size_t nb = n & ~(kLanes - 1);
  auto lane_add = [&](std::size_t lane, double p, double t) {
    const bool fin = std::isfinite(p) && std::isfinite(t);
    const double d = fin ? p - t : 0.0;
    sq.v[lane] += d * d;
    cnt.v[lane] += fin ? 1.0 : 0.0;
  };
  for (std::size_t i = 0; i < nb; i += kLanes) {
    for (std::size_t j = 0; j < kLanes; ++j) lane_add(j, pred[i + j], truth[i + j]);
  }
  for (std::size_t i = nb; i < n; ++i) lane_add(i - nb, pred[i], truth[i]);
  ErrorAcc out;
  out.sum_sq = reduce8(sq.v);
  // Lane counts are small integers, so the double sum is exact.
  out.finite = static_cast<std::uint64_t>(reduce8(cnt.v));
  return out;
}

void l2_distances_cols(const double* cols, std::size_t rows, const double* z,
                       std::size_t ncols, double* out) {
  // Each out[r] accumulates sequentially over c — the same DAG as the
  // classic row-major loop, so this kernel is bit-compatible with the
  // code it replaced.  The blocked shape (8 row-accumulators advancing
  // one column at a time) is what the SIMD path executes in registers.
  const std::size_t rb = rows & ~(kLanes - 1);
  for (std::size_t r = 0; r < rb; r += kLanes) {
    Lanes acc;
    for (std::size_t c = 0; c < ncols; ++c) {
      const double* colp = cols + c * rows + r;
      for (std::size_t j = 0; j < kLanes; ++j) {
        const double d = colp[j] - z[c];
        acc.v[j] += d * d;
      }
    }
    for (std::size_t j = 0; j < kLanes; ++j) out[r + j] = acc.v[j];
  }
  for (std::size_t r = rb; r < rows; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < ncols; ++c) {
      const double d = cols[c * rows + r] - z[c];
      acc += d * d;
    }
    out[r] = acc;
  }
}

HistBins hist_accumulate(const std::uint8_t* codes, const std::size_t* rows,
                         const double* w, const double* wy, std::size_t n,
                         int num_bins, double* sum_w, double* sum_wy) {
  const auto nbins = static_cast<std::size_t>(num_bins);
  const auto add_pair = [](double* p, double wi, double wyi) {
    p[0] += wi;
    p[1] += wyi;
  };
  const auto merge = [nbins](const double* h, std::size_t lo, std::size_t hi,
                             double* sw, double* swy) {
    for (std::size_t b = lo; b <= hi; ++b) {
      sw[b] = detail::merge_bin(h, nbins, b, 0);
      swy[b] = detail::merge_bin(h, nbins, b, 1);
    }
  };
  return nbins <= 64
             ? detail::hist_accumulate<1>(codes, rows, w, wy, n, nbins, sum_w,
                                          sum_wy, add_pair, merge)
             : detail::hist_accumulate<4>(codes, rows, w, wy, n, nbins, sum_w,
                                          sum_wy, add_pair, merge);
}

}  // namespace leaf::simd::scalar
