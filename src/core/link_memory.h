// LinkMemory: storage for inter-block wires (§4.2).
//
// Combinational links: "For the links we have a separate memory, where
// every link has only a single memory position and not two as for the
// registers. Per memory position one additional status bit is stored.
// This bit indicates whether the last written value Has Been Read (HBR)."
//
// Registered links (§4.1 systems) are double-banked like block state and
// carry no HBR bit — the reader always consumes the previous cycle's
// value, so evaluation order cannot matter.
//
// The memory is flat: every link is at most 64 bits wide (SystemModel
// enforces it), so each position is one uint64_t indexed by LinkId, and
// the HBR bits are a bitset. The engine's hot path moves raw words
// (word / write_word); the BitVector accessors are the boundary view for
// testbenches, checkpoints and waveforms.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bit_vector.h"
#include "common/error.h"
#include "core/system_model.h"

namespace tmsim::core {

class LinkMemory {
 public:
  explicit LinkMemory(const SystemModel& model);

  /// Value a *reader* of link l sees right now: the single stored value
  /// for combinational links, the old bank for registered links.
  std::uint64_t word(LinkId l) const {
    check(l);
    return bank_[old_bank_ & registered_[l]][l];
  }

  /// Writer-side update from a block evaluation (or the testbench for
  /// external inputs). For combinational links, returns true when the
  /// stored value changed — the caller must then clear the HBR bit and
  /// destabilize the reader. Registered links write the new bank and
  /// always return false (never destabilizing). Bits above the link's
  /// width are rejected.
  bool write_word(LinkId l, std::uint64_t value) {
    check(l);
    TMSIM_CHECK_MSG((value & ~mask_[l]) == 0, "value wider than its link");
    if (registered_[l]) {
      bank_[1 - old_bank_][l] = value;
      return false;
    }
    std::uint64_t& slot = bank_[0][l];
    if (slot == value) {
      return false;
    }
    slot = value;
    return true;
  }

  /// BitVector views of word / write_word (width checked).
  BitVector read(LinkId l) const;
  bool write(LinkId l, const BitVector& value);

  /// HBR handling (combinational links only).
  bool has_been_read(LinkId l) const {
    check_comb(l);
    return (hbr_[l / 64] >> (l % 64)) & 1u;
  }
  void mark_read(LinkId l) {
    check_comb(l);
    hbr_[l / 64] |= std::uint64_t{1} << (l % 64);
  }
  void clear_hbr(LinkId l) {
    check_comb(l);
    hbr_[l / 64] &= ~(std::uint64_t{1} << (l % 64));
  }
  /// Start of a system cycle: "Every system cycle is started by resetting
  /// all status bits to zero."
  void reset_all_hbr() { std::fill(hbr_.begin(), hbr_.end(), 0); }

  /// End of system cycle: flip registered-link banks (pointer swap).
  void swap_registered_banks() { old_bank_ = 1 - old_bank_; }

  /// Power-on: every value (both banks) and every HBR bit back to zero.
  void clear();

  /// Total storage bits (values + HBR bits), for the resource model.
  std::size_t total_bits() const;

 private:
  void check(LinkId l) const {
    TMSIM_CHECK_MSG(l < width_.size(), "link index out of range");
  }
  void check_comb(LinkId l) const {
    check(l);
    TMSIM_CHECK_MSG(!registered_[l],
                    "HBR bit exists only on combinational links");
  }

  // Per link: bank_[0] holds combinational values and one registered
  // bank, bank_[1] the other registered bank.
  std::vector<std::uint64_t> bank_[2];
  std::vector<std::uint64_t> mask_;      // low `width` bits set
  std::vector<std::uint8_t> width_;
  std::vector<std::uint8_t> registered_;  // 0 or 1: bank index mask
  std::vector<std::uint64_t> hbr_;        // bitset over LinkIds
  std::size_t old_bank_ = 0;
};

}  // namespace tmsim::core
