// SimBlock: the unit the sequential simulator time-multiplexes (§4).
//
// A block is one partition of the parallel design — in the NoC case study
// one router ("we would like to partition the design at the granularity of
// routers, as this is our basic element in the NoC", §4.2). A block's
// registers are held *outside* the block in the engine's StateMemory; the
// block itself is pure combinational logic:
//
//     (old_state, inputs) → (new_state, outputs)
//
// evaluated once per delta cycle. The same block instance can be shared by
// every identical partition (the paper's F'_{i,j}(x)): evaluation carries
// no per-call state, so homogeneous systems instantiate the logic once —
// exactly what makes the FPGA approach area-efficient.
//
// Two views of the registers (DESIGN.md §7):
//  - The *state word* (a BitVector, §5.2) is the architectural format:
//    what the FPGA stores in block RAM, what Table 1 counts, and what
//    digests, checkpoints and waveforms see. evaluate() works on it.
//  - The *BlockState* is the engine's resident format: whatever native
//    representation the block keeps in StateMemory's banks. The engine
//    evaluates through step() / drive() on BlockStates and builds a word
//    only at the architectural boundary (BlockState::to_word).
// A block that overrides nothing gets WordState — the word itself — and
// step()/drive() call evaluate(), so every block runs on the engine's one
// evaluation path. A block with a native state (RouterBlock) overrides
// make_state(), step() and drive() together.
//
// Link values cross step()/drive() as one uint64_t per port, low bits
// first: SystemModel caps link widths at 64 bits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bit_vector.h"

namespace tmsim::core {

class SimBlock;

/// One block's resident register file (one bank of StateMemory). Every
/// implementation must keep to_word/load_word a bijection with the
/// block's state words, and equals() in exact agreement with equality of
/// the words — the op program's fixed-point test and the digests rely on
/// both.
class BlockState {
 public:
  virtual ~BlockState() = default;

  /// The state-memory word: the architectural view, built on demand.
  virtual BitVector to_word() const = 0;
  /// Loads a state word (reset, checkpoint restore, preloading); throws
  /// on a width mismatch.
  virtual void load_word(const BitVector& word) = 0;
  /// Register equality; agrees exactly with to_word() equality.
  virtual bool equals(const BlockState& other) const = 0;
};

/// The default BlockState: the state word itself, plus the scratch the
/// word adapter needs to call evaluate() (port BitVectors and a throwaway
/// next-state word for drive()). The scratch is per state, never shared
/// between blocks, and holds no information across calls.
class WordState final : public BlockState {
 public:
  explicit WordState(const SimBlock& block);

  BitVector to_word() const override { return word; }
  void load_word(const BitVector& w) override;
  bool equals(const BlockState& other) const override;

  BitVector word;

  // Adapter scratch (see SimBlock::step).
  mutable std::vector<BitVector> in;
  mutable std::vector<BitVector> out;
  mutable BitVector drive_next;
};

/// Pure combinational view of one design partition.
class SimBlock {
 public:
  virtual ~SimBlock() = default;

  /// Width of the block's register file (its state-memory word).
  virtual std::size_t state_width() const = 0;

  /// Number and width of input link ports.
  virtual std::size_t num_inputs() const = 0;
  virtual std::size_t input_width(std::size_t port) const = 0;

  /// Number and width of output link ports.
  virtual std::size_t num_outputs() const = 0;
  virtual std::size_t output_width(std::size_t port) const = 0;

  /// Initial (reset) contents of the state word.
  virtual BitVector reset_state() const = 0;

  /// One delta cycle on state words: evaluate F (next state) and G
  /// (outputs) together, as the FPGA does ("F(x) and G(x) of a single
  /// router will be evaluated in parallel", §4.2).
  ///
  /// Must be pure: same (old_state, inputs) → same (new_state, outputs).
  /// The dynamic scheduler relies on this to make re-evaluation safe.
  virtual void evaluate(const BitVector& old_state,
                        std::span<const BitVector> inputs,
                        BitVector& new_state,
                        std::span<BitVector> outputs) const = 0;

  /// A fresh resident state holding reset_state(). The default is a
  /// WordState; a block overriding this must override step() and
  /// drive() as well (the defaults only understand WordState).
  virtual std::unique_ptr<BlockState> make_state() const;

  /// One delta cycle on resident states — what the engine calls: next
  /// state into `next`, every output port into `out`. The default runs
  /// evaluate() through the WordState adapter.
  virtual void step(const BlockState& old, std::span<const std::uint64_t> in,
                    BlockState& next, std::span<std::uint64_t> out) const;

  /// G only: every output port for `old` and the current inputs, no next
  /// state — what the compiled program's kDrive calls. Must write the
  /// same outputs step() would. The default runs evaluate() into
  /// scratch and discards the state; a block whose outputs depend on
  /// registered state alone ignores `in`.
  virtual void drive(const BlockState& old, std::span<const std::uint64_t> in,
                     std::span<std::uint64_t> out) const;

  /// Human-readable type name for traces and error messages.
  virtual std::string type_name() const = 0;

  /// Static dependency metadata for the compiled schedule (analysis
  /// layer): does output port `out` combinationally depend on input port
  /// `in`? The default is the conservative answer (every output may
  /// depend on every input). Blocks whose outputs are functions of
  /// registered state only — the §4.2 router shape — override this to
  /// return false, which lets the static-schedule pass cut the
  /// input→output edge and break apparent combinational cycles at build
  /// time. Must be sound: returning false for a real dependency breaks
  /// bit-identity; returning true for a false one only costs schedule
  /// quality.
  virtual bool output_depends_on_input(std::size_t out, std::size_t in) const {
    (void)out;
    (void)in;
    return true;
  }
};

}  // namespace tmsim::core
