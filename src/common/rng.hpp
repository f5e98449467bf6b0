// Deterministic pseudo-random number generation for the LEAF reproduction.
//
// Every stochastic component in this repository (the synthetic cellular
// dataset, tree subsampling, permutation importance, over-sampling, ...)
// draws from an explicitly seeded `leaf::Rng`.  No component ever touches
// global random state, so every experiment, test, and benchmark is
// bit-reproducible given its seed.
//
// The generator is xoshiro256** (Blackman & Vigna), seeded through
// SplitMix64 — fast, high quality, and trivially implementable without
// external dependencies.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace leaf {

/// SplitMix64 step: used to expand a single 64-bit seed into generator
/// state and to derive independent child seeds.
std::uint64_t splitmix64(std::uint64_t& state);

/// Deterministic random number generator (xoshiro256**).
///
/// Satisfies the `UniformRandomBitGenerator` concept so it can be used with
/// `std::shuffle` and the `<random>` distributions, but also offers the
/// small set of distributions this project needs directly, with stable
/// cross-platform output (libstdc++'s distribution implementations are not
/// guaranteed stable across versions; ours are).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Complete generator state (xoshiro words + the Box–Muller carry), so a
  /// generator can be checkpointed and resumed mid-stream (leaf::io).
  struct State {
    std::array<std::uint64_t, 4> words{};
    double cached_normal = 0.0;
    bool has_cached_normal = false;
  };

  /// Seeds the generator; two `Rng`s built from the same seed produce
  /// identical streams.
  explicit Rng(std::uint64_t seed = 0xC0FFEE0DDBA11ULL);

  /// Captures the full state; restore() resumes the stream bit-exactly.
  State capture() const;
  void restore(const State& s);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Raw 64 uniform random bits.
  result_type operator()();

  /// Derives an independent child generator.  Children created with
  /// distinct tags have independent streams; the parent stream advances by
  /// one draw.
  Rng fork(std::uint64_t tag = 0);

  /// Counter-based sub-stream derivation for parallel work (leaf::par).
  /// Unlike fork(), the parent does NOT advance: the child is a pure
  /// function of the parent's current state and `index`, so a parallel
  /// site can hand task i the generator `substream(i)` regardless of
  /// which thread runs the task or in what order — distinct indices give
  /// independent streams and the overall output is identical at any
  /// thread count.
  Rng substream(std::uint64_t index) const;

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n).  Requires n > 0.
  std::size_t index(std::size_t n);
  /// Standard normal via Box–Muller (cached second deviate).
  double normal();
  /// Normal with the given mean / standard deviation.
  double normal(double mean, double stddev);
  /// Bernoulli trial.
  bool bernoulli(double p);
  /// Log-normal: exp(Normal(mu, sigma)).
  double lognormal(double mu, double sigma);
  /// Student-t-ish heavy-tailed draw used for bursty KPI noise: a normal
  /// divided by sqrt of an averaged chi-square with `dof` degrees of
  /// freedom.  Small `dof` => heavy tails.
  double heavy_tail(double dof);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = index(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// k distinct indices sampled uniformly from [0, n) (k <= n).
  std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k);

  /// k indices sampled from [0, n) with replacement, proportional to
  /// `weights` (which must have size n).  Used by the LEAF over-sampler.
  std::vector<std::size_t> weighted_sample_with_replacement(
      std::span<const double> weights, std::size_t k);

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace leaf
