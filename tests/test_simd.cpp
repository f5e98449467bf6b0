// leaf::simd — the fixed-lane determinism contract.
//
// The load-bearing property is that vector:: and scalar:: produce
// *bit-identical* results for every kernel, every size (tails included),
// and non-finite inputs: that is what makes -DLEAF_SIMD=ON/OFF builds and
// different ISAs interchangeable.  Golden tests pin the scalar reference
// to the documented 8-lane DAG so neither side can drift.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "simd/kernels.hpp"
#include "simd/simd.hpp"

namespace leaf {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

#define EXPECT_BITS_EQ(a, b) EXPECT_EQ(bits(a), bits(b))

std::vector<double> random_vec(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  // Wide magnitude spread so reassociation would actually change bits.
  for (auto& x : v) x = rng.normal() * std::pow(10.0, rng.normal() * 3.0);
  return v;
}

// Sizes that cover the empty case, every tail residue mod 8, the
// histogram lane cutoff boundary, and a large block.
const std::size_t kSizes[] = {0,  1,  2,  3,  4,  5,  6,   7,   8,    9,
                              10, 11, 12, 13, 14, 15, 16,  17,  31,   63,
                              64, 65, 100, 128, 1000};

TEST(SimdKernels, Reduce8IsTheDocumentedTree) {
  // Values where association visibly matters.
  const double lanes[8] = {1e16, 1.0, -1e16, 1.0, 3.0, 1e-8, 7.0, -3.0};
  const double expect = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
                        ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
  EXPECT_BITS_EQ(simd::reduce8(lanes), expect);
}

// The sum of `a` taken as dot(a, ones): a[i] * 1.0 == a[i] exactly, so the
// kernel's lane accumulation is the plain lane sum of `a`.
TEST(SimdKernels, SumMatchesExplicitLaneSimulation) {
  Rng rng(7);
  for (const std::size_t n : kSizes) {
    const std::vector<double> a = random_vec(n, rng);
    const std::vector<double> ones(n, 1.0);
    // Independent simulation of the contract: element i -> lane i % 8
    // within blocks of 8, tail element i -> lane i - nb, then reduce8.
    double lanes[simd::kLanes] = {0, 0, 0, 0, 0, 0, 0, 0};
    const std::size_t nb = n & ~std::size_t{7};
    for (std::size_t i = 0; i < nb; i += 8)
      for (std::size_t j = 0; j < 8; ++j) lanes[j] += a[i + j];
    for (std::size_t i = nb; i < n; ++i) lanes[i - nb] += a[i];
    EXPECT_BITS_EQ(simd::scalar::dot(a.data(), ones.data(), n),
                   simd::reduce8(lanes))
        << "n=" << n;
    EXPECT_BITS_EQ(simd::vector::dot(a.data(), ones.data(), n),
                   simd::reduce8(lanes))
        << "n=" << n;
  }
}

TEST(SimdKernels, VectorMatchesScalarBitForBit) {
  Rng rng(11);
  for (const std::size_t n : kSizes) {
    const std::vector<double> a = random_vec(n, rng);
    const std::vector<double> b = random_vec(n, rng);

    EXPECT_BITS_EQ(simd::vector::dot(a.data(), b.data(), n),
                   simd::scalar::dot(a.data(), b.data(), n))
        << "dot n=" << n;

    std::vector<double> ys = b, yv = b;
    simd::scalar::axpy(0.37, a.data(), ys.data(), n);
    simd::vector::axpy(0.37, a.data(), yv.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(bits(ys[i]), bits(yv[i])) << "axpy n=" << n << " i=" << i;

    const simd::ErrorAcc es = simd::scalar::squared_error(a.data(), b.data(), n);
    const simd::ErrorAcc ev = simd::vector::squared_error(a.data(), b.data(), n);
    EXPECT_BITS_EQ(ev.sum_sq, es.sum_sq) << "squared_error n=" << n;
    EXPECT_EQ(ev.finite, es.finite) << "squared_error n=" << n;
  }
}

TEST(SimdKernels, SquaredErrorMasksNonFinitePairsIdentically) {
  Rng rng(13);
  const std::size_t n = 129;  // odd tail
  std::vector<double> p = random_vec(n, rng), t = random_vec(n, rng);
  p[3] = std::numeric_limits<double>::quiet_NaN();
  t[17] = std::numeric_limits<double>::infinity();
  p[100] = -std::numeric_limits<double>::infinity();
  t[100] = std::numeric_limits<double>::quiet_NaN();
  p[n - 1] = std::numeric_limits<double>::quiet_NaN();

  const simd::ErrorAcc es = simd::scalar::squared_error(p.data(), t.data(), n);
  const simd::ErrorAcc ev = simd::vector::squared_error(p.data(), t.data(), n);
  EXPECT_BITS_EQ(ev.sum_sq, es.sum_sq);
  EXPECT_EQ(ev.finite, es.finite);
  EXPECT_EQ(es.finite, static_cast<std::uint64_t>(n - 4));
  EXPECT_TRUE(std::isfinite(es.sum_sq));

  // The masked pairs contribute exactly nothing: recompute with them
  // removed and the count must agree (sum differs only by lane layout).
  std::uint64_t manual = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (std::isfinite(p[i]) && std::isfinite(t[i])) ++manual;
  EXPECT_EQ(es.finite, manual);
}

TEST(SimdKernels, DistancesColsMatchClassicRowMajorLoop) {
  Rng rng(17);
  for (const std::size_t rows : {std::size_t{0}, std::size_t{1},
                                 std::size_t{7}, std::size_t{8},
                                 std::size_t{13}, std::size_t{200}}) {
    const std::size_t cols = 5;
    std::vector<double> cm(rows * cols);
    for (auto& v : cm) v = rng.normal();
    std::vector<double> z(cols);
    for (auto& v : z) v = rng.normal();

    std::vector<double> out_s(rows), out_v(rows);
    simd::scalar::l2_distances_cols(cm.data(), rows, z.data(), cols,
                                    out_s.data());
    simd::vector::l2_distances_cols(cm.data(), rows, z.data(), cols,
                                    out_v.data());
    for (std::size_t r = 0; r < rows; ++r) {
      // Pre-kernel KNN DAG: sequential over features per distance.
      double d2 = 0.0;
      for (std::size_t c = 0; c < cols; ++c) {
        const double d = cm[c * rows + r] - z[c];
        d2 += d * d;
      }
      ASSERT_EQ(bits(out_s[r]), bits(d2)) << "rows=" << rows << " r=" << r;
      ASSERT_EQ(bits(out_v[r]), bits(d2)) << "rows=" << rows << " r=" << r;
    }
  }
}

// One histogram call's inputs and both implementations' outputs.
struct HistCall {
  std::vector<std::uint8_t> codes;
  std::vector<std::size_t> rows;
  std::vector<double> w, wy;
  int nb = 0;

  // n rows over every other bin of [0, nb) (bin 0 and nb - 1 always
  // included when n >= 2), gathered through a non-identity row index.
  HistCall(std::size_t n, int num_bins, Rng& rng) : nb(num_bins) {
    codes.resize(2 * n + 1);
    const auto evens = static_cast<std::size_t>(nb + 1) / 2;
    for (auto& c : codes) {
      const int b = 2 * static_cast<int>(rng.index(evens));
      c = static_cast<std::uint8_t>(std::min(b, nb - 1));
    }
    rows.resize(n);
    for (auto& r : rows) r = rng.index(codes.size());
    if (n >= 2) {
      codes[rows[0]] = 0;
      codes[rows[n - 1]] = static_cast<std::uint8_t>(nb - 1);
    }
    w.resize(n);
    wy.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      w[i] = 0.5 + rng.uniform();
      wy[i] = w[i] * rng.normal();
    }
  }

  struct Out {
    simd::HistBins bins;
    std::vector<double> sum_w, sum_wy;
  };
  template <class Kernel>
  Out run(Kernel kernel) const {
    // Garbage in the outputs: the kernel must write every bin.
    Out o{{},
          std::vector<double>(static_cast<std::size_t>(nb), -7.0),
          std::vector<double>(static_cast<std::size_t>(nb), -7.0)};
    o.bins = kernel(codes.data(), rows.data(), w.data(), wy.data(),
                    rows.size(), nb, o.sum_w.data(), o.sum_wy.data());
    return o;
  }
};

void expect_same_hist(const HistCall::Out& a, const HistCall::Out& b) {
  for (int wd = 0; wd < simd::HistBins::kMaxBins / 64; ++wd)
    EXPECT_EQ(a.bins.mask[wd], b.bins.mask[wd]) << "word " << wd;
  EXPECT_EQ(a.bins.lo_bin, b.bins.lo_bin);
  EXPECT_EQ(a.bins.hi_bin, b.bins.hi_bin);
  ASSERT_EQ(a.sum_w.size(), b.sum_w.size());
  for (std::size_t bb = 0; bb < a.sum_w.size(); ++bb) {
    ASSERT_EQ(bits(a.sum_w[bb]), bits(b.sum_w[bb])) << "b=" << bb;
    ASSERT_EQ(bits(a.sum_wy[bb]), bits(b.sum_wy[bb])) << "b=" << bb;
  }
}

TEST(SimdKernels, HistAccumulateReturnsTheTouchedBinSet) {
  Rng rng(23);
  for (const int nb : {2, 64, 65, 256}) {
    for (const std::size_t n :
         {simd::kHistLaneCutoff - 1, simd::kHistLaneCutoff,
          simd::kHistLaneCutoff + 1, std::size_t{500}}) {
      SCOPED_TRACE("nb=" + std::to_string(nb) + " n=" + std::to_string(n));
      const HistCall call(n, nb, rng);
      const HistCall::Out s = call.run(simd::scalar::hist_accumulate);
      const HistCall::Out v = call.run(simd::vector::hist_accumulate);
      expect_same_hist(s, v);

      // Order-free reference: the set of codes seen.
      std::vector<bool> seen(simd::HistBins::kMaxBins, false);
      for (std::size_t r : call.rows) seen[call.codes[r]] = true;
      int lo = nb, hi = -1;
      for (int b = 0; b < simd::HistBins::kMaxBins; ++b) {
        EXPECT_EQ(s.bins.touched(b), seen[static_cast<std::size_t>(b)])
            << "b=" << b;
        if (seen[static_cast<std::size_t>(b)]) {
          lo = std::min(lo, b);
          hi = std::max(hi, b);
        } else if (b < nb) {
          EXPECT_EQ(bits(s.sum_w[static_cast<std::size_t>(b)]), bits(0.0))
              << "b=" << b;
          EXPECT_EQ(bits(s.sum_wy[static_cast<std::size_t>(b)]), bits(0.0))
              << "b=" << b;
        }
      }
      EXPECT_EQ(s.bins.lo_bin, lo);
      EXPECT_EQ(s.bins.hi_bin, hi);

      // for_each_below visits exactly the set bits under `end`, ascending,
      // for ends on both sides of every mask word boundary.
      for (const int end : {0, 1, 63, 64, 65, 127, 128, 129, 255, 256}) {
        std::vector<int> visited, want;
        s.bins.for_each_below(end, [&](int b) { visited.push_back(b); });
        for (int b = 0; b < end; ++b)
          if (seen[static_cast<std::size_t>(b)]) want.push_back(b);
        EXPECT_EQ(visited, want) << "end=" << end;
      }
    }
  }
}

TEST(SimdKernels, HistAccumulateLeavesItsLaneScratchClean) {
  // A 2-bin call after a wide 256-bin one must see all-zero lanes: compare
  // it with the same call on a fresh thread, whose scratch is new.
  Rng rng(29);
  const HistCall wide(500, 256, rng);
  const HistCall narrow(500, 2, rng);
  const auto check = [&](auto kernel) {
    HistCall::Out alone;
    std::thread([&] { alone = narrow.run(kernel); }).join();
    (void)wide.run(kernel);
    expect_same_hist(narrow.run(kernel), alone);
  };
  {
    SCOPED_TRACE("scalar");
    check(simd::scalar::hist_accumulate);
  }
  {
    SCOPED_TRACE("vector");
    check(simd::vector::hist_accumulate);
  }
}

TEST(SimdKernels, HistAccumulateMatchesReferenceAcrossCutoff) {
  Rng rng(19);
  const int nb = 11;
  // Straddle kHistLaneCutoff: both the sequential and the lane-private
  // regime, plus the exact boundary on each side.
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{5}, simd::kHistLaneCutoff - 1,
        simd::kHistLaneCutoff, simd::kHistLaneCutoff + 1, std::size_t{500}}) {
    std::vector<std::uint8_t> codes(n > 0 ? 2 * n : 1);
    for (auto& c : codes) c = static_cast<std::uint8_t>(rng.index(nb));
    // Non-identity gather: rows picked from the wider codes array.
    std::vector<std::size_t> rows(n);
    for (auto& r : rows) r = rng.index(codes.size());
    std::vector<double> w(n), wy(n);
    for (std::size_t i = 0; i < n; ++i) {
      w[i] = 0.5 + rng.uniform();
      wy[i] = w[i] * rng.normal();
    }

    std::vector<double> sw_s(nb), swy_s(nb), sw_v(nb), swy_v(nb);
    const simd::HistBins hs = simd::scalar::hist_accumulate(
        codes.data(), rows.data(), w.data(), wy.data(), n, nb, sw_s.data(),
        swy_s.data());
    const simd::HistBins hv = simd::vector::hist_accumulate(
        codes.data(), rows.data(), w.data(), wy.data(), n, nb, sw_v.data(),
        swy_v.data());
    EXPECT_EQ(hs.lo_bin, hv.lo_bin) << "n=" << n;
    EXPECT_EQ(hs.hi_bin, hv.hi_bin) << "n=" << n;
    for (int b = 0; b < nb; ++b) {
      ASSERT_EQ(bits(sw_s[static_cast<std::size_t>(b)]),
                bits(sw_v[static_cast<std::size_t>(b)]))
          << "n=" << n << " b=" << b;
      ASSERT_EQ(bits(swy_s[static_cast<std::size_t>(b)]),
                bits(swy_v[static_cast<std::size_t>(b)]))
          << "n=" << n << " b=" << b;
    }

    // Near-equality vs an order-free reference (lane-private accumulation
    // reassociates, so exact equality is only promised vector vs scalar).
    std::vector<double> ref_w(nb, 0.0), ref_wy(nb, 0.0);
    int lo = nb, hi = -1;
    for (std::size_t i = 0; i < n; ++i) {
      const int b = codes[rows[i]];
      ref_w[static_cast<std::size_t>(b)] += w[i];
      ref_wy[static_cast<std::size_t>(b)] += wy[i];
      lo = std::min(lo, b);
      hi = std::max(hi, b);
    }
    if (n > 0) {
      EXPECT_EQ(hs.lo_bin, lo) << "n=" << n;
      EXPECT_EQ(hs.hi_bin, hi) << "n=" << n;
    } else {
      EXPECT_GT(hs.lo_bin, hs.hi_bin);
    }
    for (int b = 0; b < nb; ++b) {
      EXPECT_NEAR(sw_s[static_cast<std::size_t>(b)],
                  ref_w[static_cast<std::size_t>(b)],
                  1e-9 * (1.0 + std::abs(ref_w[static_cast<std::size_t>(b)])))
          << "n=" << n << " b=" << b;
      EXPECT_NEAR(swy_s[static_cast<std::size_t>(b)],
                  ref_wy[static_cast<std::size_t>(b)],
                  1e-9 * (1.0 + std::abs(ref_wy[static_cast<std::size_t>(b)])))
          << "n=" << n << " b=" << b;
    }
  }
}

TEST(SimdDispatch, KillSwitchRoutesToScalarWithIdenticalResults) {
  Rng rng(23);
  const std::vector<double> a = random_vec(777, rng);
  const std::vector<double> b = random_vec(777, rng);

  const bool was_active = simd::vector_active();
  simd::set_vector_active(true);
  const double on_dot = simd::dot(a, b);
  const bool on_says_vector = simd::vector_active();
  simd::set_vector_active(false);
  EXPECT_FALSE(simd::vector_active());
  EXPECT_STREQ(simd::active_isa(), "scalar");
  const double off_dot = simd::dot(a, b);
  simd::set_vector_active(was_active);

  // The whole point: flipping the switch is invisible in results.
  EXPECT_BITS_EQ(on_dot, off_dot);
  if (simd::compiled_in()) {
    EXPECT_TRUE(on_says_vector);
  }
}

TEST(SimdDispatch, CountsKernelCalls) {
  if constexpr (!obs::kCompiledIn) {
    GTEST_SKIP() << "obs compiled out";
  }
  obs::Counter& c = obs::MetricsRegistry::global().counter(
      "leaf_simd_calls_total", obs::label("kernel", "dot"));
  const std::uint64_t before = c.value();
  const std::vector<double> a(17, 1.0);
  EXPECT_DOUBLE_EQ(simd::dot(a, a), 17.0);
  EXPECT_EQ(c.value(), before + 1);
}

TEST(SimdAlignedBuffer, AlignmentGrowthAndMove) {
  simd::AlignedBuffer buf;
  EXPECT_EQ(buf.capacity(), 0u);
  EXPECT_EQ(buf.grows(), 0u);

  const std::span<double> s = buf.acquire(10);
  EXPECT_EQ(s.size(), 10u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(s.data()) % 64, 0u);
  EXPECT_EQ(buf.grows(), 1u);
  EXPECT_GE(buf.capacity(), 10u);

  // Reuse within capacity: no new allocation.
  double* const p = buf.data();
  EXPECT_FALSE(buf.reserve(buf.capacity()));
  (void)buf.acquire(5);
  EXPECT_EQ(buf.data(), p);
  EXPECT_EQ(buf.grows(), 1u);

  // Growth is geometric from the high-water mark.
  const std::size_t old_cap = buf.capacity();
  EXPECT_TRUE(buf.reserve(old_cap + 1));
  EXPECT_GE(buf.capacity(), 2 * old_cap);
  EXPECT_EQ(buf.grows(), 2u);

  // Move transfers ownership and zeroes the source.
  simd::AlignedBuffer other(std::move(buf));
  EXPECT_EQ(other.grows(), 2u);
  EXPECT_GE(other.capacity(), old_cap + 1);
  EXPECT_EQ(buf.capacity(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(buf.data(), nullptr);
}

}  // namespace
}  // namespace leaf
