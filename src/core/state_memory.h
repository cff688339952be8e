// StateMemory: the double-banked register store of §4.1 / §5.2.
//
// "In the memory, both the old and new version of the register values are
//  stored [...] this copy action is performed by switching the offset
//  pointer of the current state and new state."
//
// One resident BlockState per block per bank, made by the block itself
// (SimBlock::make_state): a RouterBlock keeps its registers as a native
// noc::RouterState, any other block as its state word (WordState). The
// bank swap is a pointer flip, never a copy (even system cycles read
// bank 0 / write bank 1, odd cycles the reverse). The state word — what
// the FPGA's block RAM holds — is built from a bank only at the
// architectural boundary (read_old); evaluations never touch it.
// Heterogeneous blocks have words of different widths; word_width()
// reports the widest, which is what the FPGA implementation must
// provision (§7.1) and what the resource model uses.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/bit_vector.h"
#include "common/error.h"
#include "core/sim_block.h"

namespace tmsim::core {

class StateMemory {
 public:
  /// One state per bank for each of `blocks`, in order, holding its reset
  /// state. The blocks are only used here, not retained.
  explicit StateMemory(const std::vector<const SimBlock*>& blocks);

  std::size_t num_blocks() const { return num_blocks_; }
  /// Widest word — the physical memory width the FPGA would provision.
  std::size_t word_width() const { return word_width_; }
  /// Total bits held (both banks), counted as state words.
  std::size_t total_bits() const { return 2 * bank_bits_; }

  /// Current ("old") state of block b — what evaluations read.
  const BlockState& old_state(std::size_t block) const {
    return *states_[old_offset_ + check_block(block)];
  }

  /// Next ("new") state slot of block b — what evaluations write.
  /// Re-evaluation overwrites the slot; the old bank is untouched, which
  /// is exactly why re-evaluation is safe ("the router's old state is
  /// available during the whole system cycle", §4.2).
  BlockState& new_state(std::size_t block) {
    return *states_[new_offset() + check_block(block)];
  }

  /// Copies block b's old state into its new-bank slot — what the
  /// worklist scheduler's quiescence fast path does instead of a full
  /// evaluation, so the global bank swap cannot rot a skipped block's
  /// state. A register copy, far cheaper than any real block's step().
  void carry_over(std::size_t block) {
    new_state(block).assign(old_state(block));
  }

  /// The old bank's state word of block b (the architectural boundary).
  BitVector read_old(std::size_t block) const {
    return old_state(block).to_word();
  }

  /// Direct initialization of the old bank (reset / test preloading).
  void load_old(std::size_t block, const BitVector& word) {
    states_[old_offset_ + check_block(block)]->load_word(word);
  }

  /// End of system cycle: flip the offset pointer. O(1), no data moves.
  void swap_banks() { old_offset_ = new_offset(); }

  /// Offset of the bank currently holding old state (0 or num_blocks) —
  /// exposed so tests can verify the pointer-swap mechanism.
  std::size_t old_offset() const { return old_offset_; }

 private:
  std::size_t new_offset() const {
    return old_offset_ == 0 ? num_blocks_ : 0;
  }
  std::size_t check_block(std::size_t block) const {
    TMSIM_CHECK_MSG(block < num_blocks_, "block index out of range");
    return block;
  }

  std::size_t num_blocks_ = 0;
  std::size_t word_width_ = 0;
  std::size_t bank_bits_ = 0;
  std::size_t old_offset_ = 0;
  std::vector<std::unique_ptr<BlockState>> states_;  // [2 * num_blocks]
};

}  // namespace tmsim::core
