#include "core/system_model.h"

namespace tmsim::core {

namespace {
constexpr std::size_t kUnbound = std::numeric_limits<std::size_t>::max();
}

BlockId SystemModel::add_block(std::shared_ptr<const SimBlock> logic,
                               std::string name) {
  TMSIM_CHECK_MSG(!finalized_, "model already finalized");
  TMSIM_CHECK_MSG(logic != nullptr, "null block logic");
  BlockInstance inst;
  inst.name = std::move(name);
  inst.input_links.assign(logic->num_inputs(), kUnbound);
  inst.output_links.assign(logic->num_outputs(), kUnbound);
  inst.logic = std::move(logic);
  blocks_.push_back(std::move(inst));
  return blocks_.size() - 1;
}

LinkId SystemModel::add_link(std::string name, std::size_t width,
                             LinkKind kind) {
  TMSIM_CHECK_MSG(!finalized_, "model already finalized");
  TMSIM_CHECK_MSG(width >= 1, "link width must be positive");
  if (width > kMaxLinkWidth) {
    // LinkMemory holds every link in one 64-bit word.
    throw ContextualError(
        "link '" + name + "' is " + std::to_string(width) +
            " bits wide; links are at most " + std::to_string(kMaxLinkWidth) +
            " bits",
        {{"link", name}, {"width", std::to_string(width)}});
  }
  LinkInfo info;
  info.name = std::move(name);
  info.width = width;
  info.kind = kind;
  links_.push_back(std::move(info));
  return links_.size() - 1;
}

void SystemModel::bind_output(BlockId block, std::size_t port, LinkId link) {
  TMSIM_CHECK_MSG(!finalized_, "model already finalized");
  BlockInstance& b = blocks_.at(block);
  LinkInfo& l = links_.at(link);
  TMSIM_CHECK_MSG(port < b.output_links.size(), "output port out of range");
  TMSIM_CHECK_MSG(b.output_links[port] == kUnbound,
                  "output port already bound");
  TMSIM_CHECK_MSG(!l.writer.has_value(),
                  "link '" + l.name + "' already has a writer");
  TMSIM_CHECK_MSG(b.logic->output_width(port) == l.width,
                  "output width mismatch on link '" + l.name + "'");
  b.output_links[port] = link;
  l.writer = Endpoint{block, port};
}

void SystemModel::bind_input(BlockId block, std::size_t port, LinkId link) {
  TMSIM_CHECK_MSG(!finalized_, "model already finalized");
  BlockInstance& b = blocks_.at(block);
  LinkInfo& l = links_.at(link);
  TMSIM_CHECK_MSG(port < b.input_links.size(), "input port out of range");
  TMSIM_CHECK_MSG(b.input_links[port] == kUnbound, "input port already bound");
  TMSIM_CHECK_MSG(b.logic->input_width(port) == l.width,
                  "input width mismatch on link '" + l.name + "'");
  b.input_links[port] = link;
  l.readers.push_back(Endpoint{block, port});
}

void SystemModel::finalize() {
  TMSIM_CHECK_MSG(!finalized_, "model already finalized");
  for (std::size_t bi = 0; bi < blocks_.size(); ++bi) {
    const BlockInstance& b = blocks_[bi];
    for (std::size_t p = 0; p < b.input_links.size(); ++p) {
      TMSIM_CHECK_MSG(b.input_links[p] != kUnbound,
                      "block '" + b.name + "' input port unbound");
    }
    for (std::size_t p = 0; p < b.output_links.size(); ++p) {
      TMSIM_CHECK_MSG(b.output_links[p] != kUnbound,
                      "block '" + b.name + "' output port unbound");
    }
  }
  for (const LinkInfo& l : links_) {
    if (l.kind == LinkKind::kCombinational) {
      // One HBR bit per link implies a single reader (§4.2); fan-out is
      // modeled as several links driven by duplicated output ports.
      TMSIM_CHECK_MSG(l.readers.size() <= 1,
                      "combinational link '" + l.name +
                          "' has multiple readers");
    }
  }
  finalized_ = true;
}

bool SystemModel::all_boundaries_registered() const {
  for (const LinkInfo& l : links_) {
    if (l.kind == LinkKind::kCombinational && l.writer.has_value() &&
        !l.readers.empty()) {
      return false;
    }
  }
  return true;
}

}  // namespace tmsim::core
