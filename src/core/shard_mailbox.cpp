#include "core/shard_mailbox.h"

#include <thread>

#include "common/error.h"

namespace tmsim::core {

ShardBarrier::ShardBarrier(std::size_t participants)
    : participants_(participants) {
  TMSIM_CHECK_MSG(participants >= 1, "barrier needs a participant");
}

std::uint64_t ShardBarrier::sync(std::uint64_t contribution,
                                 std::uint64_t* spins) {
  if (participants_ == 1) {
    return contribution;  // the one-shard engine: nobody to wait for
  }
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  sum_.fetch_add(contribution, std::memory_order_acq_rel);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == participants_) {
    // Last arriver: reduce, reset for the next round, release everyone.
    result_ = sum_.exchange(0, std::memory_order_acq_rel);
    arrived_.store(0, std::memory_order_relaxed);
    generation_.store(gen + 1, std::memory_order_release);
    generation_.notify_all();
    return result_;
  }
  // Short spin first: inside a system cycle the other workers are at most
  // a few block evaluations away. Fall back to the futex so a barrier
  // parked between cycles (or on an oversubscribed host) costs no CPU.
  for (int i = 0; i < 128; ++i) {
    if (generation_.load(std::memory_order_acquire) != gen) {
      if (spins) {
        *spins += static_cast<std::uint64_t>(i) + 1;
      }
      return result_;
    }
  }
  if (spins) {
    *spins += 128;
  }
  std::this_thread::yield();
  while (generation_.load(std::memory_order_acquire) == gen) {
    generation_.wait(gen, std::memory_order_acquire);
  }
  return result_;
}

ShardMailbox::ShardMailbox(const std::vector<std::size_t>& widths)
    : num_slots_(widths.size()),
      slots_(std::make_unique<Slot[]>(widths.size())) {
  for (std::size_t i = 0; i < num_slots_; ++i) {
    TMSIM_CHECK_MSG(widths[i] >= 1 && widths[i] <= 64,
                    "mailbox slot width must be 1..64");
    slots_[i].mask = widths[i] == 64 ? ~std::uint64_t{0}
                                     : (std::uint64_t{1} << widths[i]) - 1;
  }
}

void ShardMailbox::publish(std::size_t slot, std::uint64_t value) {
  TMSIM_CHECK_MSG(slot < num_slots_, "mailbox slot out of range");
  Slot& s = slots_[slot];
  TMSIM_CHECK_MSG((value & ~s.mask) == 0, "value wider than its mailbox slot");
  s.value = value;
  s.version.fetch_add(1, std::memory_order_release);
}

std::uint64_t ShardMailbox::version(std::size_t slot) const {
  TMSIM_CHECK_MSG(slot < num_slots_, "mailbox slot out of range");
  return slots_[slot].version.load(std::memory_order_acquire);
}

bool ShardMailbox::poll(std::size_t slot, std::uint64_t& last_seen,
                        std::uint64_t& out) const {
  TMSIM_CHECK_MSG(slot < num_slots_, "mailbox slot out of range");
  const Slot& s = slots_[slot];
  const std::uint64_t v = s.version.load(std::memory_order_acquire);
  if (v == last_seen) {
    return false;
  }
  last_seen = v;
  out = s.value;
  return true;
}

void ShardMailbox::clear() {
  for (std::size_t i = 0; i < num_slots_; ++i) {
    slots_[i].value = 0;
    slots_[i].version.store(0, std::memory_order_relaxed);
  }
}

}  // namespace tmsim::core
