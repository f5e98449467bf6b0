#include "common/rng.hpp"

#include <cassert>
#include <cmath>
#include <numeric>

namespace leaf {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : state_) s = splitmix64(sm);
}

Rng::State Rng::capture() const {
  return State{state_, cached_normal_, has_cached_normal_};
}

void Rng::restore(const State& s) {
  state_ = s.words;
  cached_normal_ = s.cached_normal;
  has_cached_normal_ = s.has_cached_normal;
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

Rng Rng::fork(std::uint64_t tag) {
  std::uint64_t mix = (*this)() ^ (tag * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);
  return Rng(mix);
}

Rng Rng::substream(std::uint64_t index) const {
  // Fold the full 256-bit state down to one word, perturb it with the
  // task counter, and run two SplitMix64 rounds for avalanche; the child
  // constructor expands the result back into xoshiro state.  Pure
  // function of (state, index): the parent stream is untouched.
  std::uint64_t chain = state_[0] ^ rotl(state_[1], 17) ^ rotl(state_[2], 31) ^
                        rotl(state_[3], 47);
  chain ^= index * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL;
  const std::uint64_t a = splitmix64(chain);
  const std::uint64_t b = splitmix64(chain);
  return Rng(a ^ rotl(b, 32));
}

double Rng::uniform() {
  // 53 random mantissa bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::size_t Rng::index(std::size_t n) {
  assert(n > 0);
  // Lemire-style bounded draw with rejection to remove modulo bias.
  std::uint64_t threshold = (~static_cast<std::uint64_t>(0) - n + 1) % n;
  for (;;) {
    std::uint64_t r = (*this)();
    if (r >= threshold) return static_cast<std::size_t>(r % n);
  }
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller with a guard against log(0).
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Rng::heavy_tail(double dof) {
  assert(dof > 0.0);
  // Student-t via normal / sqrt(chi^2_k / k), chi^2 built from normals.
  double chi2 = 0.0;
  const int k = std::max(1, static_cast<int>(dof));
  for (int i = 0; i < k; ++i) {
    const double z = normal();
    chi2 += z * z;
  }
  return normal() / std::sqrt(chi2 / static_cast<double>(k));
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  assert(k <= n);
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});
  // Partial Fisher–Yates: the first k slots end up holding the sample.
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t j = i + index(n - i);
    std::swap(all[i], all[j]);
  }
  all.resize(k);
  return all;
}

std::vector<std::size_t> Rng::weighted_sample_with_replacement(
    std::span<const double> weights, std::size_t k) {
  // Build a cumulative distribution once, then draw k times by binary
  // search — O(n + k log n) instead of k linear scans.
  std::vector<double> cdf(weights.size());
  double total = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    total += std::max(0.0, weights[i]);
    cdf[i] = total;
  }
  std::vector<std::size_t> out;
  out.reserve(k);
  if (total <= 0.0) {
    for (std::size_t i = 0; i < k; ++i) out.push_back(index(weights.size()));
    return out;
  }
  for (std::size_t i = 0; i < k; ++i) {
    const double target = uniform() * total;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), target);
    out.push_back(static_cast<std::size_t>(it - cdf.begin()));
  }
  return out;
}

}  // namespace leaf
