#include "core/sim_block.h"

#include "common/error.h"

namespace tmsim::core {
namespace {

const WordState& word_state(const BlockState& s) {
  return static_cast<const WordState&>(s);
}

/// Copies the port words into the adapter's input BitVectors.
void load_inputs(const WordState& s, std::span<const std::uint64_t> in) {
  for (std::size_t p = 0; p < s.in.size(); ++p) {
    s.in[p].store_words({&in[p], 1});
  }
}

void store_outputs(const WordState& s, std::span<std::uint64_t> out) {
  for (std::size_t p = 0; p < s.out.size(); ++p) {
    out[p] = s.out[p].words()[0];
  }
}

}  // namespace

WordState::WordState(const SimBlock& block)
    : word(block.reset_state()), drive_next(block.state_width()) {
  TMSIM_CHECK_MSG(word.width() == block.state_width(),
                  "reset state width mismatch");
  in.reserve(block.num_inputs());
  for (std::size_t p = 0; p < block.num_inputs(); ++p) {
    in.emplace_back(block.input_width(p));
  }
  out.reserve(block.num_outputs());
  for (std::size_t p = 0; p < block.num_outputs(); ++p) {
    out.emplace_back(block.output_width(p));
  }
}

void WordState::load_word(const BitVector& w) {
  TMSIM_CHECK_MSG(w.width() == word.width(), "state word width mismatch");
  word = w;
}

bool WordState::equals(const BlockState& other) const {
  return word == word_state(other).word;
}

std::unique_ptr<BlockState> SimBlock::make_state() const {
  return std::make_unique<WordState>(*this);
}

void SimBlock::step(const BlockState& old, std::span<const std::uint64_t> in,
                    BlockState& next, std::span<std::uint64_t> out) const {
  const WordState& o = word_state(old);
  load_inputs(o, in);
  evaluate(o.word, o.in, static_cast<WordState&>(next).word, o.out);
  if (!out.empty()) {
    store_outputs(o, out);
  }
}

void SimBlock::drive(const BlockState& old, std::span<const std::uint64_t> in,
                     std::span<std::uint64_t> out) const {
  const WordState& o = word_state(old);
  load_inputs(o, in);
  evaluate(o.word, o.in, o.drive_next, o.out);
  store_outputs(o, out);
}

}  // namespace tmsim::core
