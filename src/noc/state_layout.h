// StateLayout: the paper's "register extraction" (§4, §5.2).
//
// "The only modification is the extraction of all registers in the design
//  and their mapping on a memory position."
//
// A StateLayout assigns every register of a block a named (offset, width)
// slot in the block's state-memory word, grouped into categories so that
// bench/table1 can regenerate the paper's Table 1 (register bits per
// router, per category) directly from the implementation instead of
// quoting it. The layout is the only definition of field offsets:
// RouterStateCodec compiles it into a plan of shifts and masks for the hot
// path (DESIGN.md §7), and read/write below stay the field-at-a-time
// reference that the codec tests compare against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/bit_vector.h"
#include "common/error.h"

namespace tmsim::noc {

/// One named register slot inside a state word.
struct FieldSlot {
  std::string name;
  std::string category;
  std::size_t offset = 0;
  std::size_t width = 0;
};

/// Append-only builder of a block's register file layout.
class StateLayout {
 public:
  /// Reserves `width` bits for register `name` in `category`; returns the
  /// field index used with read/write below.
  std::size_t add_field(std::string category, std::string name,
                        std::size_t width) {
    TMSIM_CHECK_MSG(width >= 1 && width <= 64, "field width must be 1..64");
    FieldSlot slot{std::move(name), std::move(category), total_bits_, width};
    total_bits_ += width;
    fields_.push_back(std::move(slot));
    return fields_.size() - 1;
  }

  std::size_t total_bits() const { return total_bits_; }
  const std::vector<FieldSlot>& fields() const { return fields_; }

  const FieldSlot& field(std::size_t index) const { return fields_.at(index); }

  std::uint64_t read(const BitVector& word, std::size_t index) const {
    const FieldSlot& f = fields_.at(index);
    return word.get_field(f.offset, f.width);
  }

  void write(BitVector& word, std::size_t index, std::uint64_t value) const {
    const FieldSlot& f = fields_.at(index);
    word.set_field(f.offset, f.width, value);
  }

  /// Total register bits per category — the rows of the paper's Table 1.
  std::map<std::string, std::size_t> bits_by_category() const {
    std::map<std::string, std::size_t> out;
    for (const auto& f : fields_) {
      out[f.category] += f.width;
    }
    return out;
  }

 private:
  std::vector<FieldSlot> fields_;
  std::size_t total_bits_ = 0;
};

}  // namespace tmsim::noc
