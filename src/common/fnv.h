// FNV-1a (64-bit): the one hash behind every digest and identity in the
// tree — engine state and checkpoint digests, job-spec fingerprints,
// derived seeds and engine-cache batch keys. Two forms: bytes in order,
// and a 64-bit word folded in as its eight little-endian bytes, spelled
// out so a digest never depends on the host's byte order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace tmsim {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Folds `len` bytes at `data` into `h`, in order.
inline std::uint64_t fnv1a_bytes(std::uint64_t h, const void* data,
                                 std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

inline std::uint64_t fnv1a_bytes(std::uint64_t h, std::string_view s) {
  return fnv1a_bytes(h, s.data(), s.size());
}

/// Folds `word` into `h` as its eight bytes, least significant first.
inline std::uint64_t fnv1a_word(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace tmsim
