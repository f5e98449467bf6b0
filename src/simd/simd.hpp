// leaf::simd — dispatched entry points for the fixed-lane kernels.
//
// Call sites use these span-based wrappers, never scalar::/vector::
// directly.  Dispatch picks the vector path when the build compiled it in
// (-DLEAF_SIMD=ON, the default) AND the runtime kill-switch allows it
// (LEAF_SIMD=0/off in the environment forces scalar).  Because both paths
// execute the identical operation DAG (see kernels.hpp), dispatch is
// invisible in results — flipping LEAF_SIMD changes only which
// instructions run, which is what makes the ON/OFF fingerprint check in
// CI meaningful.
//
// Each wrapper bumps a `leaf_simd_calls_total{kernel="..."}` counter in
// the global obs registry; the call counts are pure functions of the
// logical execution (no kernel is called a thread-count-dependent number
// of times), so they participate in the LEAF_THREADS determinism checks.
#pragma once

#include <cstddef>
#include <new>
#include <span>
#include <utility>

#include "simd/kernels.hpp"

namespace leaf::simd {

/// True when the vector kernels were compiled in (-DLEAF_SIMD=ON).
bool compiled_in();

/// True when dispatch currently routes to vector::.  Starts as
/// compiled_in() unless the LEAF_SIMD environment variable says
/// "0"/"off"/"false".
bool vector_active();

/// Runtime override (tests, benches).  Enabling has no effect in a
/// -DLEAF_SIMD=OFF build, where vector:: is scalar:: anyway.
void set_vector_active(bool on);

/// ISA dispatch resolves to right now: "avx2", "sse2", "neon", "lanes",
/// or "scalar".
const char* active_isa();

double dot(std::span<const double> a, std::span<const double> b);
void axpy(double alpha, std::span<const double> x, std::span<double> y);
ErrorAcc squared_error(std::span<const double> pred,
                       std::span<const double> truth);
/// out[r] = squared L2 distance from row r of the column-major matrix
/// `cols` (rows x z.size()) to the query z.  out.size() must be >= rows.
void l2_distances_cols(std::span<const double> cols, std::size_t rows,
                       std::span<const double> z, std::span<double> out);
HistBins hist_accumulate(const std::uint8_t* codes, const std::size_t* rows,
                         const double* w, const double* wy, std::size_t n,
                         int num_bins, double* sum_w, double* sum_wy);

/// Grow-only 64-byte-aligned scratch arena for per-step predict buffers
/// and kernel workspaces.  acquire(n) hands back an n-double span without
/// touching the allocator unless n exceeds the high-water capacity —
/// repeated serving steps reuse one allocation instead of churning
/// std::vector.  Contents are unspecified after acquire.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  ~AlignedBuffer() { release(); }

  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        capacity_(std::exchange(other.capacity_, 0)),
        grows_(std::exchange(other.grows_, 0)) {}
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      capacity_ = std::exchange(other.capacity_, 0);
      grows_ = std::exchange(other.grows_, 0);
    }
    return *this;
  }
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  /// Ensures capacity for n doubles; returns true when that required a
  /// (re)allocation.  Geometric growth keeps the grow count logarithmic.
  bool reserve(std::size_t n) {
    if (n <= capacity_) return false;
    std::size_t cap = capacity_ ? capacity_ : 64;
    while (cap < n) cap *= 2;
    release();
    data_ = static_cast<double*>(
        ::operator new(cap * sizeof(double), std::align_val_t{64}));
    capacity_ = cap;
    ++grows_;
    return true;
  }

  /// reserve(n) and hand back the first n doubles (uninitialized).
  std::span<double> acquire(std::size_t n) {
    reserve(n);
    return {data_, n};
  }

  double* data() { return data_; }
  std::size_t capacity() const { return capacity_; }
  /// Allocations performed over this buffer's lifetime.
  std::uint64_t grows() const { return grows_; }

 private:
  void release() {
    if (data_ != nullptr) {
      ::operator delete(data_, std::align_val_t{64});
      data_ = nullptr;
    }
  }

  double* data_ = nullptr;
  std::size_t capacity_ = 0;
  std::uint64_t grows_ = 0;
};

}  // namespace leaf::simd
