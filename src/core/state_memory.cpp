#include "core/state_memory.h"

#include <algorithm>

namespace tmsim::core {

StateMemory::StateMemory(const std::vector<const SimBlock*>& blocks)
    : num_blocks_(blocks.size()), parity_(blocks.size(), 0) {
  TMSIM_CHECK_MSG(!blocks.empty(), "state memory needs at least one block");
  states_.reserve(2 * num_blocks_);
  for (const SimBlock* b : blocks) {
    states_.push_back(b->make_state());  // slot 0
    states_.push_back(b->make_state());  // slot 1
    word_width_ = std::max(word_width_, b->state_width());
    bank_bits_ += b->state_width();
  }
}

}  // namespace tmsim::core
