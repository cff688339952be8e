// SystemModel: the netlist the sequential simulator executes.
//
// Blocks (SimBlock instances, shareable across identical partitions) are
// wired together through *links*. A link has exactly one writer port and —
// for combinational links — at most one reader port, mirroring the paper's
// link memory where each link is one memory position with one HBR bit
// (§4.2). With one reader, a link's HBR bit is clear exactly while that
// reader still has to (re-)evaluate, so the engine keeps only a per-block
// unstable bitmap. Two link kinds:
//
//  - kRegistered (§4.1): the link value is itself a register; readers see
//    the value the writer produced in the *previous* system cycle. Stored
//    double-banked like block state. Systems whose boundaries are all
//    registered can run a single-pass static schedule (Fig. 3).
//  - kCombinational (§4.2): an unbuffered wire; readers must see the value
//    the writer drives in the *current* system cycle. Stored single-banked
//    (the FPGA adds a Has-Been-Read bit); requires the dynamic schedule
//    (Fig. 5).
//
// A link without a writer is an external input (driven by the testbench /
// stimuli interface each cycle); a link without readers is an external
// output (observed by the testbench).
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/sim_block.h"

namespace tmsim::core {

using BlockId = std::size_t;
using LinkId = std::size_t;

enum class LinkKind : std::uint8_t { kRegistered = 0, kCombinational = 1 };

/// (block, port) endpoint of a link.
struct Endpoint {
  BlockId block = 0;
  std::size_t port = 0;
};

struct BlockInstance {
  std::shared_ptr<const SimBlock> logic;
  std::string name;
  // Filled by finalize(): link bound to each input/output port.
  std::vector<LinkId> input_links;
  std::vector<LinkId> output_links;
};

struct LinkInfo {
  std::string name;
  std::size_t width = 0;
  LinkKind kind = LinkKind::kCombinational;
  std::optional<Endpoint> writer;
  std::vector<Endpoint> readers;
};

/// Immutable-after-finalize netlist description.
class SystemModel {
 public:
  /// Adds a design partition. The same `logic` pointer may back many
  /// blocks (homogeneous system — one implementation, many states).
  BlockId add_block(std::shared_ptr<const SimBlock> logic, std::string name);

  /// Widest link the engine's flat link memory holds (one machine word).
  static constexpr std::size_t kMaxLinkWidth = 64;

  /// Declares a link of 1..kMaxLinkWidth bits; a wider link throws a
  /// ContextualError naming it.
  LinkId add_link(std::string name, std::size_t width, LinkKind kind);

  /// Binds block output / input ports to links. Each output port drives
  /// exactly one link; each input port reads exactly one link.
  void bind_output(BlockId block, std::size_t port, LinkId link);
  void bind_input(BlockId block, std::size_t port, LinkId link);

  /// Validates the netlist: every port bound, widths consistent,
  /// combinational links have at most one reader. Must be called before
  /// handing the model to an engine.
  void finalize();
  bool finalized() const { return finalized_; }

  std::size_t num_blocks() const { return blocks_.size(); }
  std::size_t num_links() const { return links_.size(); }
  const BlockInstance& block(BlockId b) const { return blocks_.at(b); }
  const LinkInfo& link(LinkId l) const { return links_.at(l); }

  /// True when the link has no writer (testbench-driven).
  bool is_external_input(LinkId l) const {
    return !links_.at(l).writer.has_value();
  }
  /// True when the link has no reader (testbench-observed).
  bool is_external_output(LinkId l) const {
    return links_.at(l).readers.empty();
  }
  /// True when every internal link is registered (static schedule legal).
  bool all_boundaries_registered() const;

 private:
  std::vector<BlockInstance> blocks_;
  std::vector<LinkInfo> links_;
  bool finalized_ = false;
};

}  // namespace tmsim::core
