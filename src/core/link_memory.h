// LinkMemory: storage for inter-block wires (§4.2).
//
// Combinational links: "For the links we have a separate memory, where
// every link has only a single memory position and not two as for the
// registers. Per memory position one additional status bit is stored.
// This bit indicates whether the last written value Has Been Read (HBR)."
// A combinational link has one reader (SystemModel::finalize), so its
// HBR bit says no more than whether that reader is unstable, which the
// engine's per-block unstable bitmap already records: this memory stores
// the values alone, and only total_bits() still counts one HBR bit per
// combinational link, as the FPGA provisions it.
//
// Registered links (§4.1 systems) are double-banked like block state and
// carry no HBR bit — the reader always consumes the previous cycle's
// value, so evaluation order cannot matter.
//
// The memory is flat: every link is at most 64 bits wide (SystemModel
// enforces it), so each position is one uint64_t indexed by LinkId. The
// engine's hot path moves raw words (word / write_word); the BitVector
// accessors are the boundary view for testbenches, checkpoints and
// waveforms.
#pragma once

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
  /// stored value changed — the caller must then destabilize the
  /// reader. Registered links write the new bank and
  /// always return false (never destabilizing). Bits above the link's
  /// width are rejected.
  bool write_word(LinkId l, std::uint64_t value) {
    check(l);
    TMSIM_CHECK_MSG((value & ~mask_[l]) == 0, "value wider than its link");
    // Branch-free: a loaded cycle's writes change about half their links,
    // at random, so a branch on the compare mispredicts.
    const bool registered = registered_[l] != 0;
    std::uint64_t* const bank =
        registered ? bank_[1 - old_bank_].data() : bank_[0].data();
    const bool changed = !registered & (bank[l] != value);
    bank[l] = value;
    return changed;
  }

  /// BitVector views of word / write_word (width checked).
  BitVector read(LinkId l) const;
  bool write(LinkId l, const BitVector& value);

  /// End of system cycle: flip registered-link banks (pointer swap).
  void swap_registered_banks() { old_bank_ = 1 - old_bank_; }

  /// Power-on: every value (both banks) back to zero.
  void clear();

  /// Total storage bits of the FPGA's link memory (values plus one HBR
  /// bit per combinational link), for the resource model.
  std::size_t total_bits() const;

 private:
  void check(LinkId l) const {
    TMSIM_CHECK_MSG(l < width_.size(), "link index out of range");
  }

  // Per link: bank_[0] holds combinational values and one registered
  // bank, bank_[1] the other registered bank.
  std::vector<std::uint64_t> bank_[2];
  std::vector<std::uint64_t> mask_;      // low `width` bits set
  std::vector<std::uint8_t> width_;
  std::vector<std::uint8_t> registered_;  // 0 or 1: bank index mask
  std::size_t old_bank_ = 0;
};

}  // namespace tmsim::core
