// StateMemory: the double-banked register store of §4.1 / §5.2.
//
// "In the memory, both the old and new version of the register values are
//  stored [...] this copy action is performed by switching the offset
//  pointer of the current state and new state."
//
// One resident BlockState per block per bank, made by the block itself
// (SimBlock::make_state): a RouterBlock keeps its registers as a native
// noc::RouterState, any other block as its state word (WordState). The
// offset pointer is kept per block: one parity bit says which of the
// block's two slots holds its old state. An evaluation writes the other
// slot, and committing the block at the end of the system cycle flips
// its bit — the paper's pointer switch, never a copy. A block that was
// not evaluated in a cycle is simply not committed: its old slot stays
// old, so skipping it costs nothing (DESIGN.md §7). The state word —
// what the FPGA's block RAM holds — is built from a slot only at the
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
    return *states_[2 * check_block(block) + parity_[block]];
  }

  /// Next ("new") state slot of block b — what evaluations write.
  /// Re-evaluation overwrites the slot; the old slot is untouched, which
  /// is exactly why re-evaluation is safe ("the router's old state is
  /// available during the whole system cycle", §4.2).
  BlockState& new_state(std::size_t block) {
    return *states_[2 * check_block(block) + (parity_[block] ^ 1)];
  }

  /// End of system cycle for block b: its new slot becomes its old one.
  /// Flips b's pointer only; no data moves and no other block changes.
  void commit(std::size_t block) { parity_[check_block(block)] ^= 1; }

  /// Which of block b's two slots holds its old state (0 or 1) — exposed
  /// so tests can verify the per-block pointer switch.
  unsigned parity(std::size_t block) const {
    return parity_[check_block(block)];
  }

  /// The old slot's state word of block b (the architectural boundary).
  BitVector read_old(std::size_t block) const {
    return old_state(block).to_word();
  }

  /// Direct initialization of the old slot (reset / test preloading).
  void load_old(std::size_t block, const BitVector& word) {
    states_[2 * check_block(block) + parity_[block]]->load_word(word);
  }

 private:
  std::size_t check_block(std::size_t block) const {
    TMSIM_CHECK_MSG(block < num_blocks_, "block index out of range");
    return block;
  }

  std::size_t num_blocks_ = 0;
  std::size_t word_width_ = 0;
  std::size_t bank_bits_ = 0;
  std::vector<unsigned char> parity_;                // [num_blocks]
  std::vector<std::unique_ptr<BlockState>> states_;  // [2 * num_blocks]
};

}  // namespace tmsim::core
