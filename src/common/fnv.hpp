// 64-bit FNV-1a, the one hash behind every pinned fingerprint: trace span
// ids and sampling, tsdb store fingerprints, meta-drift rule seeds, and
// the bench and test goldens.
#pragma once

#include <cstddef>
#include <cstdint>

namespace leaf {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// FNV-1a over `n` bytes, continuing from `h`.
inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t h = kFnvOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// One FNV-1a round over a whole 64-bit word (xor the word, multiply) —
/// not the byte-wise hash of its bytes.  The result fingerprints use it.
inline std::uint64_t fnv1a_word(std::uint64_t h, std::uint64_t word) {
  return (h ^ word) * kFnvPrime;
}

}  // namespace leaf
