// Synchronization primitives of the sharded bulk-synchronous engine:
//
// ShardBarrier — a reusable counting barrier whose release also reduces
// a per-round contribution from every participant (sum). The sharded
// engine uses the reduction to agree, in one synchronization, on global
// facts like "how many blocks are still unstable anywhere?" or "did any
// shard diverge?" — every participant leaves the barrier with the same
// total, so every worker takes the same control-flow decision without a
// leader. Waiters spin briefly, then block on a futex
// (std::atomic::wait), so a barrier parked between system cycles costs
// no CPU — important when the host has fewer cores than shards.
//
// ShardMailbox — the boundary-link exchange. One word slot per cut link,
// single writer (the shard that owns the link's writer block), versioned
// publishes. The engine's superstep protocol writes slots only between
// two barrier syncs and reads them only after the next sync, so the
// barrier provides the happens-before edge for the payload; the acquire/
// release version counter additionally makes every publish individually
// visible, which is what the "no lost HBR-clear" concurrency tests
// hammer on. A reader that polls with its last-seen version can never
// miss a change: versions only grow, and each publish bumps exactly one
// (clear(), the engine's power-on reset, rewinds slots and readers
// together).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace tmsim::core {

class ShardBarrier {
 public:
  explicit ShardBarrier(std::size_t participants);

  /// Blocks until all participants have called sync() for this round;
  /// returns the sum of every participant's `contribution`. All callers
  /// of one round receive the same sum. When `spins` is non-null the
  /// caller's spin-loop iteration count is added to it (barrier-wait
  /// accounting for the observability layer; 0 for the last arriver).
  std::uint64_t sync(std::uint64_t contribution,
                     std::uint64_t* spins = nullptr);

  std::size_t participants() const { return participants_; }

 private:
  const std::size_t participants_;
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::size_t> arrived_{0};
  std::atomic<std::uint64_t> generation_{0};
  // Written by the releasing (last) participant before it bumps
  // generation_, read by the others after they observe the bump — the
  // release/acquire pair on generation_ orders both accesses.
  std::uint64_t result_ = 0;
};

class ShardMailbox {
 public:
  /// One slot per boundary link; `widths[i]` (1..64) is slot i's value
  /// width. A slot holds one link word, like LinkMemory.
  explicit ShardMailbox(const std::vector<std::size_t>& widths);

  std::size_t num_slots() const { return num_slots_; }

  /// Publishes a new value (single designated producer per slot; at most
  /// one producer thread may touch a slot between two barrier rounds).
  /// Bits above the slot's width are rejected.
  void publish(std::size_t slot, std::uint64_t value);

  /// Monotonic publish count of the slot.
  std::uint64_t version(std::size_t slot) const;

  /// Consumer poll: when the slot's version is ahead of `last_seen`,
  /// copies the value into `out`, advances `last_seen` and returns true.
  /// Must only be called in a protocol phase where the producer is
  /// quiescent (after a barrier sync).
  bool poll(std::size_t slot, std::uint64_t& last_seen,
            std::uint64_t& out) const;

  /// Power-on: every value and version back to zero. Only call while no
  /// producer or consumer runs (between engine steps).
  void clear();

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> version{0};
    std::uint64_t value = 0;
    std::uint64_t mask = 0;  // low `width` bits set
  };

  std::size_t num_slots_ = 0;
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace tmsim::core
