// Small synthetic SimBlocks: worked examples of the SimBlock API, used
// by the core-engine tests, the Fig. 3 / Fig. 5 schedule benches and the
// documentation.
//
// Registered-link convention: a registered link *is* the boundary
// register — the writer drives its D input (the next value), readers see
// its Q output (the value committed at the last clock edge). A block
// whose boundary registers all live in links can have zero state bits,
// which is exactly the paper's Fig. 2b where R1..R3 are memory positions.
#pragma once

#include <cstdint>

#include "core/sim_block.h"
#include "core/system_model.h"

namespace tmsim::core::examples {

/// Registered-boundary block (§4.1): drives `out := in + addend` into a
/// registered link. Stateless — the boundary register lives in the link.
class RegAdderBlock : public SimBlock {
 public:
  RegAdderBlock(std::size_t width, std::uint64_t addend)
      : width_(width), addend_(addend) {}

  std::size_t state_width() const override { return 0; }
  std::size_t num_inputs() const override { return 1; }
  std::size_t input_width(std::size_t) const override { return width_; }
  std::size_t num_outputs() const override { return 1; }
  std::size_t output_width(std::size_t) const override { return width_; }
  BitVector reset_state() const override { return BitVector(0); }

  void evaluate(const BitVector&, std::span<const BitVector> inputs,
                BitVector&, std::span<BitVector> outputs) const override {
    const std::uint64_t in = inputs[0].get_field(0, width_);
    const std::uint64_t mask =
        width_ == 64 ? ~0ull : ((1ull << width_) - 1);
    outputs[0].set_field(0, width_, (in + addend_) & mask);
  }
  std::string type_name() const override { return "reg_adder"; }

 private:
  std::size_t width_;
  std::uint64_t addend_;
};

/// Combinational-boundary block with internal state (the shape of §4.2's
/// router, Fig. 4): G(state) = state + addend on a combinational output;
/// F(state, in) = in. Output depends on registered state only, so the
/// dynamic schedule settles in at most two evaluations per block.
class PipeBlock : public SimBlock {
 public:
  PipeBlock(std::size_t width, std::uint64_t addend, std::uint64_t reset = 0)
      : width_(width), addend_(addend), reset_(reset) {}

  std::size_t state_width() const override { return width_; }
  std::size_t num_inputs() const override { return 1; }
  std::size_t input_width(std::size_t) const override { return width_; }
  std::size_t num_outputs() const override { return 1; }
  std::size_t output_width(std::size_t) const override { return width_; }
  BitVector reset_state() const override {
    BitVector v(width_);
    v.set_field(0, width_, reset_);
    return v;
  }

  void evaluate(const BitVector& old_state, std::span<const BitVector> inputs,
                BitVector& new_state,
                std::span<BitVector> outputs) const override {
    const std::uint64_t mask =
        width_ == 64 ? ~0ull : ((1ull << width_) - 1);
    const std::uint64_t s = old_state.get_field(0, width_);
    outputs[0].set_field(0, width_, (s + addend_) & mask);
    new_state.set_field(0, width_, inputs[0].get_field(0, width_));
  }
  std::string type_name() const override { return "pipe"; }

  /// G reads registered state only — the F input never feeds the output
  /// combinationally, so the static schedule may cut the in→out edge.
  bool output_depends_on_input(std::size_t, std::size_t) const override {
    return false;
  }

 private:
  std::size_t width_;
  std::uint64_t addend_;
  std::uint64_t reset_;
};

/// A PipeBlock with a combinational tap: out0 = state + addend (G of the
/// state, as PipeBlock), out1 = in (a wire straight through); F(state,
/// in) = in. Only the tap depends on the input, so in a ring the static
/// schedule drives this block early for out0 while out1 — and with it
/// the block's later kEval — still waits on the input.
class PipeTapBlock : public SimBlock {
 public:
  PipeTapBlock(std::size_t width, std::uint64_t addend)
      : width_(width), addend_(addend) {}

  std::size_t state_width() const override { return width_; }
  std::size_t num_inputs() const override { return 1; }
  std::size_t input_width(std::size_t) const override { return width_; }
  std::size_t num_outputs() const override { return 2; }
  std::size_t output_width(std::size_t) const override { return width_; }
  BitVector reset_state() const override { return BitVector(width_); }

  void evaluate(const BitVector& old_state, std::span<const BitVector> inputs,
                BitVector& new_state,
                std::span<BitVector> outputs) const override {
    const std::uint64_t mask =
        width_ == 64 ? ~0ull : ((1ull << width_) - 1);
    const std::uint64_t in = inputs[0].get_field(0, width_);
    outputs[0].set_field(0, width_,
                         (old_state.get_field(0, width_) + addend_) & mask);
    outputs[1].set_field(0, width_, in);
    new_state.set_field(0, width_, in);
  }
  std::string type_name() const override { return "pipe_tap"; }

  bool output_depends_on_input(std::size_t out, std::size_t) const override {
    return out == 1;
  }

 private:
  std::size_t width_;
  std::uint64_t addend_;
};

/// Pure combinational block: out = in + addend, no state. Chains of these
/// across blocks force the §4.2 re-evaluation machinery to propagate
/// values through multiple delta cycles; rings of them form combinational
/// loops that must be detected.
class CombAdderBlock : public SimBlock {
 public:
  CombAdderBlock(std::size_t width, std::uint64_t addend)
      : width_(width), addend_(addend) {}

  std::size_t state_width() const override { return 0; }
  std::size_t num_inputs() const override { return 1; }
  std::size_t input_width(std::size_t) const override { return width_; }
  std::size_t num_outputs() const override { return 1; }
  std::size_t output_width(std::size_t) const override { return width_; }
  BitVector reset_state() const override { return BitVector(0); }

  void evaluate(const BitVector&, std::span<const BitVector> inputs,
                BitVector&, std::span<BitVector> outputs) const override {
    const std::uint64_t mask =
        width_ == 64 ? ~0ull : ((1ull << width_) - 1);
    outputs[0].set_field(0, width_,
                         (inputs[0].get_field(0, width_) + addend_) & mask);
  }
  std::string type_name() const override { return "comb_adder"; }

 private:
  std::size_t width_;
  std::uint64_t addend_;
};

/// Two-input combinational OR, fanned out on two identical outputs
/// (combinational links take a single reader, so fan-out means duplicate
/// output ports). OR is monotone: any feedback ring of these reaches a
/// unique fixed point regardless of evaluation order, which makes it the
/// block of choice for differential tests over true combinational cycles
/// — every scheduler must converge to the same values.
class Or2Block : public SimBlock {
 public:
  explicit Or2Block(std::size_t width) : width_(width) {}

  std::size_t state_width() const override { return 0; }
  std::size_t num_inputs() const override { return 2; }
  std::size_t input_width(std::size_t) const override { return width_; }
  std::size_t num_outputs() const override { return 2; }
  std::size_t output_width(std::size_t) const override { return width_; }
  BitVector reset_state() const override { return BitVector(0); }

  void evaluate(const BitVector&, std::span<const BitVector> inputs,
                BitVector&, std::span<BitVector> outputs) const override {
    const std::uint64_t v = inputs[0].get_field(0, width_) |
                            inputs[1].get_field(0, width_);
    outputs[0].set_field(0, width_, v);
    outputs[1].set_field(0, width_, v);
  }
  std::string type_name() const override { return "or2"; }

 private:
  std::size_t width_;
};

/// Two-input XOR (plus a per-instance tweak constant), fanned out on two
/// identical outputs. XOR changes its output whenever either input
/// changes, which makes ladders of these the adversarial workload for
/// event-driven scheduling: each value change re-triggers downstream
/// evaluation, while a static schedule evaluates each block exactly once.
class Xor2Block : public SimBlock {
 public:
  Xor2Block(std::size_t width, std::uint64_t tweak)
      : width_(width), tweak_(tweak) {}

  std::size_t state_width() const override { return 0; }
  std::size_t num_inputs() const override { return 2; }
  std::size_t input_width(std::size_t) const override { return width_; }
  std::size_t num_outputs() const override { return 2; }
  std::size_t output_width(std::size_t) const override { return width_; }
  BitVector reset_state() const override { return BitVector(0); }

  void evaluate(const BitVector&, std::span<const BitVector> inputs,
                BitVector&, std::span<BitVector> outputs) const override {
    const std::uint64_t mask =
        width_ == 64 ? ~0ull : ((1ull << width_) - 1);
    const std::uint64_t v = (inputs[0].get_field(0, width_) ^
                             inputs[1].get_field(0, width_) ^ tweak_) &
                            mask;
    outputs[0].set_field(0, width_, v);
    outputs[1].set_field(0, width_, v);
  }
  std::string type_name() const override { return "xor2"; }

 private:
  std::size_t width_;
  std::uint64_t tweak_;
};

/// Combinational inverter (1 bit): a ring of two oscillates and must trip
/// the non-settling detector.
class NotBlock : public SimBlock {
 public:
  std::size_t state_width() const override { return 0; }
  std::size_t num_inputs() const override { return 1; }
  std::size_t input_width(std::size_t) const override { return 1; }
  std::size_t num_outputs() const override { return 1; }
  std::size_t output_width(std::size_t) const override { return 1; }
  BitVector reset_state() const override { return BitVector(0); }

  void evaluate(const BitVector&, std::span<const BitVector> inputs,
                BitVector&, std::span<BitVector> outputs) const override {
    outputs[0].set_field(0, 1, inputs[0].get_field(0, 1) ^ 1u);
  }
  std::string type_name() const override { return "not"; }
};

}  // namespace tmsim::core::examples
