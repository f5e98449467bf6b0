#include "simd/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.hpp"

namespace leaf::simd {

namespace {

bool env_allows_vector() {
  const char* v = std::getenv("LEAF_SIMD");
  if (v == nullptr) return true;
  return !(std::strcmp(v, "0") == 0 || std::strcmp(v, "off") == 0 ||
           std::strcmp(v, "false") == 0);
}

std::atomic<bool>& active_flag() {
  static std::atomic<bool> active{LEAF_SIMD_ENABLED != 0 &&
                                  env_allows_vector()};
  return active;
}

obs::Counter& kernel_counter(const char* kernel) {
  return obs::MetricsRegistry::global().counter("leaf_simd_calls_total",
                                                obs::label("kernel", kernel));
}

}  // namespace

bool compiled_in() { return LEAF_SIMD_ENABLED != 0; }

bool vector_active() {
  return active_flag().load(std::memory_order_relaxed);
}

void set_vector_active(bool on) {
  active_flag().store(on && compiled_in(), std::memory_order_relaxed);
}

const char* active_isa() {
  return vector_active() ? vector::isa() : "scalar";
}

double dot(std::span<const double> a, std::span<const double> b) {
  static obs::Counter& calls = kernel_counter("dot");
  calls.inc();
  return vector_active() ? vector::dot(a.data(), b.data(), a.size())
                         : scalar::dot(a.data(), b.data(), a.size());
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  static obs::Counter& calls = kernel_counter("axpy");
  calls.inc();
  if (vector_active()) {
    vector::axpy(alpha, x.data(), y.data(), x.size());
  } else {
    scalar::axpy(alpha, x.data(), y.data(), x.size());
  }
}

ErrorAcc squared_error(std::span<const double> pred,
                       std::span<const double> truth) {
  static obs::Counter& calls = kernel_counter("squared_error");
  calls.inc();
  return vector_active()
             ? vector::squared_error(pred.data(), truth.data(), pred.size())
             : scalar::squared_error(pred.data(), truth.data(), pred.size());
}

void l2_distances_cols(std::span<const double> cols, std::size_t rows,
                       std::span<const double> z, std::span<double> out) {
  static obs::Counter& calls = kernel_counter("l2_distances_cols");
  calls.inc();
  if (vector_active()) {
    vector::l2_distances_cols(cols.data(), rows, z.data(), z.size(),
                              out.data());
  } else {
    scalar::l2_distances_cols(cols.data(), rows, z.data(), z.size(),
                              out.data());
  }
}

HistBins hist_accumulate(const std::uint8_t* codes, const std::size_t* rows,
                         const double* w, const double* wy, std::size_t n,
                         int num_bins, double* sum_w, double* sum_wy) {
  static obs::Counter& calls = kernel_counter("hist_accumulate");
  calls.inc();
  return vector_active()
             ? vector::hist_accumulate(codes, rows, w, wy, n, num_bins, sum_w,
                                       sum_wy)
             : scalar::hist_accumulate(codes, rows, w, wy, n, num_bins, sum_w,
                                       sum_wy);
}

}  // namespace leaf::simd
