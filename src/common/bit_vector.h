// Arbitrary-width bit vector with bit-accurate field packing.
//
// This is the fundamental data type of the reproduction: the paper's method
// extracts every register of a hardware block and concatenates the values
// into one memory word ("old" and "new", §5.2). BitVector is that memory
// word. StateLayout (noc/state_layout.h) assigns (offset,width) slots, so the
// register file layout in our state memory is explicit and countable —
// which is how bench/table1 derives the paper's Table 1. Fields are read
// and written through get_field/set_field; the router state codec, which
// runs every delta cycle, instead compiles its layout into shifts and masks
// over words() and writes the word back whole with store_words().
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"

namespace tmsim {

/// Fixed-width sequence of bits, LSB-first, backed by 64-bit words.
/// Width is fixed at construction; all accesses are bounds-checked.
class BitVector {
 public:
  /// Creates an all-zero vector of `width` bits. Width zero is allowed
  /// (useful for blocks with no state).
  explicit BitVector(std::size_t width = 0);

  /// Number of bits.
  std::size_t width() const { return width_; }

  /// Reads a single bit.
  bool get_bit(std::size_t pos) const {
    TMSIM_CHECK_MSG(pos < width_, "bit read out of range");
    return (words_[pos / 64] >> (pos % 64)) & 1u;
  }

  /// Writes a single bit.
  void set_bit(std::size_t pos, bool value) {
    TMSIM_CHECK_MSG(pos < width_, "bit write out of range");
    const std::uint64_t mask = std::uint64_t{1} << (pos % 64);
    if (value) {
      words_[pos / 64] |= mask;
    } else {
      words_[pos / 64] &= ~mask;
    }
  }

  /// Reads `width` (1..64) bits starting at `offset`, returned LSB-aligned.
  std::uint64_t get_field(std::size_t offset, std::size_t width) const {
    TMSIM_CHECK_MSG(width >= 1 && width <= 64, "field width must be 1..64");
    TMSIM_CHECK_MSG(offset + width <= width_, "field read out of range");
    const std::size_t word = offset / 64;
    const std::size_t shift = offset % 64;
    std::uint64_t value = words_[word] >> shift;
    if (shift != 0 && shift + width > 64) {
      value |= words_[word + 1] << (64 - shift);
    }
    if (width < 64) {
      value &= (std::uint64_t{1} << width) - 1;
    }
    return value;
  }

  /// Writes the low `width` (1..64) bits of `value` at `offset`. Bits of
  /// `value` above `width` must be zero (checked) — silently dropping bits
  /// is how bit-accuracy bugs hide.
  void set_field(std::size_t offset, std::size_t width, std::uint64_t value) {
    TMSIM_CHECK_MSG(width >= 1 && width <= 64, "field width must be 1..64");
    TMSIM_CHECK_MSG(offset + width <= width_, "field write out of range");
    if (width < 64) {
      TMSIM_CHECK_MSG((value >> width) == 0,
                      "value has bits above the field width");
    }
    const std::size_t word = offset / 64;
    const std::size_t shift = offset % 64;
    const std::uint64_t mask =
        width == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
    words_[word] = (words_[word] & ~(mask << shift)) | (value << shift);
    if (shift != 0 && shift + width > 64) {
      const std::size_t spill = shift + width - 64;
      const std::uint64_t spill_mask = (std::uint64_t{1} << spill) - 1;
      words_[word + 1] =
          (words_[word + 1] & ~spill_mask) | (value >> (64 - shift));
    }
  }

  /// Copies `width` bits from `src` starting at `src_offset` into this
  /// vector at `dst_offset`. Used for whole-register-file moves.
  void copy_bits(std::size_t dst_offset, const BitVector& src,
                 std::size_t src_offset, std::size_t width);

  /// Sets every bit to zero.
  void clear();

  /// Number of set bits.
  std::size_t popcount() const;

  /// Hex string, MSB first, width rounded up to nibbles (debug/trace aid).
  std::string to_hex() const;

  friend bool operator==(const BitVector& a, const BitVector& b);
  friend bool operator!=(const BitVector& a, const BitVector& b) {
    return !(a == b);
  }

  /// Raw word access for the memory models (read-only).
  const std::vector<std::uint64_t>& words() const { return words_; }

  /// Replaces the whole vector with `src`, LSB word first. `src` must hold
  /// exactly words().size() words with every bit above width() zero
  /// (checked once here) — the bulk store of a codec that assembles the
  /// word itself.
  void store_words(std::span<const std::uint64_t> src) {
    TMSIM_CHECK_MSG(src.size() == words_.size(), "word count mismatch");
    if (width_ % 64 != 0) {
      TMSIM_CHECK_MSG((src.back() >> (width_ % 64)) == 0,
                      "bits set above the vector width");
    }
    std::copy(src.begin(), src.end(), words_.begin());
  }

 private:
  std::size_t width_;
  std::vector<std::uint64_t> words_;
};

/// Convenience: builds a BitVector of `width` bits holding `value`.
BitVector make_bit_vector(std::size_t width, std::uint64_t value);

}  // namespace tmsim
