#include "core/link_memory.h"

#include <algorithm>

namespace tmsim::core {

LinkMemory::LinkMemory(const SystemModel& model) {
  TMSIM_CHECK_MSG(model.finalized(), "model must be finalized");
  const std::size_t n = model.num_links();
  bank_[0].assign(n, 0);
  bank_[1].assign(n, 0);
  mask_.reserve(n);
  width_.reserve(n);
  registered_.reserve(n);
  for (LinkId l = 0; l < n; ++l) {
    const LinkInfo& info = model.link(l);
    TMSIM_CHECK_MSG(info.width >= 1 && info.width <= 64,
                    "link width must be 1..64");
    mask_.push_back(info.width == 64 ? ~std::uint64_t{0}
                                     : (std::uint64_t{1} << info.width) - 1);
    width_.push_back(static_cast<std::uint8_t>(info.width));
    registered_.push_back(info.kind == LinkKind::kRegistered ? 1 : 0);
  }
}

BitVector LinkMemory::read(LinkId l) const {
  const std::uint64_t v = word(l);
  BitVector out(width_[l]);
  out.store_words({&v, 1});
  return out;
}

bool LinkMemory::write(LinkId l, const BitVector& value) {
  check(l);
  TMSIM_CHECK_MSG(value.width() == width_[l], "link width mismatch");
  return write_word(l, value.words()[0]);
}

void LinkMemory::clear() {
  std::fill(bank_[0].begin(), bank_[0].end(), 0);
  std::fill(bank_[1].begin(), bank_[1].end(), 0);
}

std::size_t LinkMemory::total_bits() const {
  std::size_t bits = 0;
  for (LinkId l = 0; l < width_.size(); ++l) {
    // Combinational: value + HBR bit; registered: two banks.
    bits += registered_[l] ? 2u * width_[l] : width_[l] + 1u;
  }
  return bits;
}

}  // namespace tmsim::core
