// Vectorized kernels.  Each ISA supplies a tiny Ops struct (load / store /
// add / sub / mul / compare / mask); the kernel bodies are shared templates
// that hold the 8 virtual lanes in kLanes / Ops::width registers and end
// with the same reduce8 tree as the scalar reference.  Because the bodies
// are shared, an ISA cannot accidentally change the operation DAG — it can
// only change which instructions execute it.
//
// Compiled with -ffp-contract=off: GCC never contracts intrinsics, but
// clang may fuse add(mul(..)) builtins into FMAs, which would change the
// DAG relative to the scalar reference.
//
// In a -DLEAF_SIMD=OFF build (LEAF_SIMD_ENABLED == 0) every vector::
// symbol forwards to its scalar:: twin, so call sites and the dispatch
// layer are build-independent.
#include "simd/kernels.hpp"

#include <cmath>
#include <limits>

#include "simd/hist_accumulate.hpp"

#if LEAF_SIMD_ENABLED
#if defined(__AVX2__) || defined(__SSE2__) || defined(__x86_64__) || \
    defined(_M_X64)
#include <immintrin.h>
#define LEAF_SIMD_X86 1
#elif defined(__ARM_NEON) || defined(__aarch64__)
#include <arm_neon.h>
#define LEAF_SIMD_NEON 1
#endif
#endif  // LEAF_SIMD_ENABLED

namespace leaf::simd::vector {

#if LEAF_SIMD_ENABLED && (defined(LEAF_SIMD_X86) || defined(LEAF_SIMD_NEON))

namespace {

#if defined(LEAF_SIMD_X86) && defined(__AVX2__)

constexpr const char* kIsa = "avx2";

// Lanes 0..3 and 4..7 live in two 4-wide registers.
struct Ops {
  using V = __m256d;
  static constexpr std::size_t width = 4;
  static V zero() { return _mm256_setzero_pd(); }
  static V load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, V v) { _mm256_storeu_pd(p, v); }
  static V set1(double x) { return _mm256_set1_pd(x); }
  static V add(V a, V b) { return _mm256_add_pd(a, b); }
  static V sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V abs(V v) { return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v); }
  static V cmplt(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static V and_(V a, V b) { return _mm256_and_pd(a, b); }
};

#elif defined(LEAF_SIMD_X86)

constexpr const char* kIsa = "sse2";

// Lane pairs {0,1} {2,3} {4,5} {6,7} live in four 2-wide registers.
struct Ops {
  using V = __m128d;
  static constexpr std::size_t width = 2;
  static V zero() { return _mm_setzero_pd(); }
  static V load(const double* p) { return _mm_loadu_pd(p); }
  static void store(double* p, V v) { _mm_storeu_pd(p, v); }
  static V set1(double x) { return _mm_set1_pd(x); }
  static V add(V a, V b) { return _mm_add_pd(a, b); }
  static V sub(V a, V b) { return _mm_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm_mul_pd(a, b); }
  static V abs(V v) { return _mm_andnot_pd(_mm_set1_pd(-0.0), v); }
  static V cmplt(V a, V b) { return _mm_cmplt_pd(a, b); }
  static V and_(V a, V b) { return _mm_and_pd(a, b); }
};

#else  // LEAF_SIMD_NEON

constexpr const char* kIsa = "neon";

struct Ops {
  using V = float64x2_t;
  static constexpr std::size_t width = 2;
  static V zero() { return vdupq_n_f64(0.0); }
  static V load(const double* p) { return vld1q_f64(p); }
  static void store(double* p, V v) { vst1q_f64(p, v); }
  static V set1(double x) { return vdupq_n_f64(x); }
  static V add(V a, V b) { return vaddq_f64(a, b); }
  static V sub(V a, V b) { return vsubq_f64(a, b); }
  static V mul(V a, V b) { return vmulq_f64(a, b); }
  static V abs(V v) { return vabsq_f64(v); }
  static V cmplt(V a, V b) {
    return vreinterpretq_f64_u64(vcltq_f64(a, b));
  }
  static V and_(V a, V b) {
    return vreinterpretq_f64_u64(
        vandq_u64(vreinterpretq_u64_f64(a), vreinterpretq_u64_f64(b)));
  }
};

#endif

// One (w, wy) histogram pair in a 2-wide register, on every ISA: the
// unit of hist_accumulate's row pass.
struct Pair {
#if defined(LEAF_SIMD_X86)
  using P = __m128d;
  static P load(const double* p) { return _mm_loadu_pd(p); }
  static void store(double* p, P v) { _mm_storeu_pd(p, v); }
  static P make(double lo, double hi) { return _mm_set_pd(hi, lo); }
  static P add(P a, P b) { return _mm_add_pd(a, b); }
#else
  using P = float64x2_t;
  static P load(const double* p) { return vld1q_f64(p); }
  static void store(double* p, P v) { vst1q_f64(p, v); }
  static P make(double lo, double hi) {
    return vsetq_lane_f64(hi, vdupq_n_f64(lo), 1);
  }
  static P add(P a, P b) { return vaddq_f64(a, b); }
#endif
};

constexpr std::size_t kW = Ops::width;
constexpr std::size_t kRegs = kLanes / kW;
static_assert(kLanes % kW == 0);

using V = Ops::V;

}  // namespace

const char* isa() { return kIsa; }

double dot(const double* a, const double* b, std::size_t n) {
  V acc[kRegs];
  for (std::size_t r = 0; r < kRegs; ++r) acc[r] = Ops::zero();
  const std::size_t nb = n & ~(kLanes - 1);
  for (std::size_t i = 0; i < nb; i += kLanes) {
    for (std::size_t r = 0; r < kRegs; ++r) {
      acc[r] = Ops::add(
          acc[r], Ops::mul(Ops::load(a + i + r * kW), Ops::load(b + i + r * kW)));
    }
  }
  alignas(64) double lanes[kLanes];
  for (std::size_t r = 0; r < kRegs; ++r) Ops::store(lanes + r * kW, acc[r]);
  for (std::size_t i = nb; i < n; ++i) lanes[i - nb] += a[i] * b[i];
  return reduce8(lanes);
}

void axpy(double alpha, const double* x, double* y, std::size_t n) {
  // Elementwise: each y[i] sees exactly y[i] + alpha * x[i], so any
  // register width preserves bit-identity with the scalar loop.
  const V va = Ops::set1(alpha);
  const std::size_t nw = n & ~(kW - 1);
  for (std::size_t i = 0; i < nw; i += kW) {
    Ops::store(y + i, Ops::add(Ops::load(y + i), Ops::mul(va, Ops::load(x + i))));
  }
  for (std::size_t i = nw; i < n; ++i) y[i] += alpha * x[i];
}

ErrorAcc squared_error(const double* pred, const double* truth,
                       std::size_t n) {
  // finite(x) <=> |x| < inf under an ordered-quiet compare (NaN -> false).
  // Masking d to +0.0 and adding matches the scalar reference, which also
  // adds a literal 0.0 for non-finite pairs.
  V sq[kRegs], cnt[kRegs];
  for (std::size_t r = 0; r < kRegs; ++r) sq[r] = cnt[r] = Ops::zero();
  const V inf = Ops::set1(std::numeric_limits<double>::infinity());
  const V one = Ops::set1(1.0);
  const std::size_t nb = n & ~(kLanes - 1);
  for (std::size_t i = 0; i < nb; i += kLanes) {
    for (std::size_t r = 0; r < kRegs; ++r) {
      const V p = Ops::load(pred + i + r * kW);
      const V t = Ops::load(truth + i + r * kW);
      const V m = Ops::and_(Ops::cmplt(Ops::abs(p), inf),
                            Ops::cmplt(Ops::abs(t), inf));
      const V d = Ops::and_(Ops::sub(p, t), m);
      sq[r] = Ops::add(sq[r], Ops::mul(d, d));
      cnt[r] = Ops::add(cnt[r], Ops::and_(one, m));
    }
  }
  alignas(64) double sq_lanes[kLanes], cnt_lanes[kLanes];
  for (std::size_t r = 0; r < kRegs; ++r) {
    Ops::store(sq_lanes + r * kW, sq[r]);
    Ops::store(cnt_lanes + r * kW, cnt[r]);
  }
  for (std::size_t i = nb; i < n; ++i) {
    const bool fin = std::isfinite(pred[i]) && std::isfinite(truth[i]);
    const double d = fin ? pred[i] - truth[i] : 0.0;
    sq_lanes[i - nb] += d * d;
    cnt_lanes[i - nb] += fin ? 1.0 : 0.0;
  }
  ErrorAcc out;
  out.sum_sq = reduce8(sq_lanes);
  out.finite = static_cast<std::uint64_t>(reduce8(cnt_lanes));
  return out;
}

void l2_distances_cols(const double* cols, std::size_t rows, const double* z,
                       std::size_t ncols, double* out) {
  // Vectorized across *rows* (8 query distances in flight), sequential
  // over columns — the per-distance DAG is the classic row-major loop.
  const std::size_t rb = rows & ~(kLanes - 1);
  for (std::size_t r0 = 0; r0 < rb; r0 += kLanes) {
    V acc[kRegs];
    for (std::size_t r = 0; r < kRegs; ++r) acc[r] = Ops::zero();
    for (std::size_t c = 0; c < ncols; ++c) {
      const double* colp = cols + c * rows + r0;
      const V vz = Ops::set1(z[c]);
      for (std::size_t r = 0; r < kRegs; ++r) {
        const V d = Ops::sub(Ops::load(colp + r * kW), vz);
        acc[r] = Ops::add(acc[r], Ops::mul(d, d));
      }
    }
    for (std::size_t r = 0; r < kRegs; ++r) Ops::store(out + r0 + r * kW, acc[r]);
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
  // A row adds its (w, wy) pair with one 2-wide op.  In the merge, lane j
  // of kW / 2 adjacent bins' pairs is one register, so reduce8's tree runs
  // on kW / 2 bins' two sums per op.
  const auto nbins = static_cast<std::size_t>(num_bins);
  const auto add_pair = [](double* p, double wi, double wyi) {
    Pair::store(p, Pair::add(Pair::load(p), Pair::make(wi, wyi)));
  };
  const auto merge = [nbins](const double* h, std::size_t lo, std::size_t hi,
                             double* sw, double* swy) {
    constexpr std::size_t kBins = kW / 2;
    std::size_t b = lo;
    for (; b + kBins <= hi + 1; b += kBins) {
      V l[kLanes];
      for (std::size_t j = 0; j < kLanes; ++j)
        l[j] = Ops::load(h + 2 * (j * nbins + b));
      alignas(32) double sums[kW];
      Ops::store(sums, Ops::add(Ops::add(Ops::add(l[0], l[1]),
                                         Ops::add(l[2], l[3])),
                                Ops::add(Ops::add(l[4], l[5]),
                                         Ops::add(l[6], l[7]))));
      for (std::size_t k = 0; k < kBins; ++k) {
        sw[b + k] = sums[2 * k];
        swy[b + k] = sums[2 * k + 1];
      }
    }
    for (; b <= hi; ++b) {
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

#else  // !LEAF_SIMD_ENABLED or no recognized ISA: forward to the reference.

const char* isa() {
#if LEAF_SIMD_ENABLED
  return "lanes";
#else
  return "scalar";
#endif
}

double dot(const double* a, const double* b, std::size_t n) {
  return scalar::dot(a, b, n);
}
void axpy(double alpha, const double* x, double* y, std::size_t n) {
  scalar::axpy(alpha, x, y, n);
}
ErrorAcc squared_error(const double* pred, const double* truth,
                       std::size_t n) {
  return scalar::squared_error(pred, truth, n);
}
void l2_distances_cols(const double* cols, std::size_t rows, const double* z,
                       std::size_t ncols, double* out) {
  scalar::l2_distances_cols(cols, rows, z, ncols, out);
}
HistBins hist_accumulate(const std::uint8_t* codes, const std::size_t* rows,
                         const double* w, const double* wy, std::size_t n,
                         int num_bins, double* sum_w, double* sum_wy) {
  return scalar::hist_accumulate(codes, rows, w, wy, n, num_bins, sum_w,
                                 sum_wy);
}

#endif

}  // namespace leaf::simd::vector
