// VCD (Value Change Dump, IEEE 1364 §18) support for the simulator —
// the waveform half of the observability layer (DESIGN.md §10).
//
// The FPGA of the paper exposes exactly two windows into a run (the
// link-probe and access-delay monitor buffers, §5.2); the host-side
// engines can do better: any link or register bank the SystemModel
// names can be dumped, bit-accurately, as a standard VCD file viewable
// in GTKWave.
//
// Conventions:
//   - one VCD time unit == one *system* cycle (timescale 1 ns is
//     nominal — simulated time has no wall-clock meaning);
//   - delta/settle activity inside a cycle does not advance VCD time;
//     instead the per-cycle `delta_cycles` bookkeeping signal (scope
//     `sim`) carries the sub-timescale view: how many block evaluations
//     that cycle took;
//   - values are sampled at the bank-swap commit point, so
//     the design signals of a dump from any engine or schedule over the
//     same model are identical — the basis of vcd_diff()-based
//     differential testing, which leaves the `sim` bookkeeping out.
//
// This header also carries the two consumers the test suite and the
// differential harness need: a syntax checker (vcd_validate) and a
// first-divergence differ (vcd_diff).
#pragma once

#include <cstdint>
#include <deque>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/bit_vector.h"

namespace tmsim::obs {

/// Low-level VCD file writer. Declare signals, write the header once,
/// then feed monotonically increasing timesteps; per-signal change
/// detection keeps the file minimal.
class VcdWriter {
 public:
  using SignalId = std::size_t;

  explicit VcdWriter(std::ostream& os);

  /// Declares a signal; only legal before write_header(). Whitespace in
  /// `name` is replaced with '_' (VCD identifiers cannot contain it).
  SignalId add_signal(const std::string& name, std::size_t width);

  std::size_t num_signals() const { return signals_.size(); }

  /// $date/$timescale/$scope/$var preamble plus a $dumpvars section
  /// initializing every signal to x.
  void write_header();

  /// Opens timestep `t` (strictly greater than the previous one).
  void begin_time(std::uint64_t t);

  /// Records a value for the current timestep; emits only on change.
  void change(SignalId s, const BitVector& v);
  void change_u64(SignalId s, std::uint64_t v);

 private:
  struct Signal {
    std::string name;
    std::size_t width;
    std::string code;      // VCD identifier code
    std::string last;      // last emitted value bits, msb first
  };

  static std::string id_code(std::size_t index);
  void emit(Signal& sig, const std::string& bits);

  std::ostream& os_;
  std::vector<Signal> signals_;
  bool header_written_ = false;
  bool have_time_ = false;
  std::uint64_t time_ = 0;
};

/// Syntax check for a VCD stream: header structure, declared-before-use
/// identifiers, strictly increasing timesteps, legal value characters,
/// vector widths no wider than declared. Returns std::nullopt when the
/// stream is valid, else a one-line diagnosis.
std::optional<std::string> vcd_validate(std::istream& is);

/// Result of diffing two VCD streams.
struct VcdDivergence {
  bool diverged = false;
  std::uint64_t time = 0;     ///< first timestep where a signal differs
  std::string signal;         ///< name of the first divergent signal
  std::string value_a;
  std::string value_b;
  /// Signals present in only one file (compared set is the
  /// intersection, minus the `sim.` bookkeeping signals; a non-empty
  /// mismatch list is reported but does not by itself count as
  /// divergence).
  std::vector<std::string> only_in_a;
  std::vector<std::string> only_in_b;

  std::string summary() const;
};

/// Replays both dumps over the union of their timesteps and names the
/// first (time, signal) where the two disagree — the differential
/// harness's "which wire broke first" mode. Signals named `sim.*` (the
/// per-cycle delta and settle-round counts) are left out: they record
/// how a scheduler reached the cycle's values, so dumps of one run under
/// two schedulers differ there by design.
VcdDivergence vcd_diff(std::istream& a, std::istream& b);

}  // namespace tmsim::obs
