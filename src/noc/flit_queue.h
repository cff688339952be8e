// FlitQueue: the registers of one VC input queue — its flit slots, its
// read/write pointers and its occupancy — held inline, the way the state
// memory word stores them (§5.2, Table 1).
//
// The slot array is sized for the deepest queue RouterConfig::validate
// admits; `capacity` is the synthesized depth, and the slots at or above
// it are unreachable (slot() checks). The type is a flat value: copying
// or comparing a router's registers touches no heap (DESIGN.md §7).
// Overflow of a committed queue is a hardware bug and throws.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "common/error.h"
#include "noc/config.h"
#include "noc/flit.h"

namespace tmsim::noc {

class FlitQueue {
 public:
  /// A capacity-0 placeholder: it only fills the unused entries of a
  /// router's inline queue array. push() on it throws.
  FlitQueue() = default;

  explicit FlitQueue(std::size_t capacity)
      : capacity_(static_cast<std::uint8_t>(capacity)) {
    TMSIM_CHECK_MSG(capacity >= 1 && capacity <= kMaxQueueDepth,
                    "flit queue capacity must be 1..15");
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }

  /// Appends a flit; throws on overflow.
  void push(const Flit& f) {
    TMSIM_CHECK_MSG(!full(), "flit queue overflow");
    slots_[write_] = f;
    write_ = next(write_);
    ++size_;
  }

  /// Appends like hardware: the write pointer always advances; when full,
  /// the oldest flit is overwritten (read pointer advances too). Real RTL
  /// does not trap on a FIFO write-when-full — and the sequential
  /// simulator's dynamic schedule (§4.2) can transiently evaluate a block
  /// against stale link values that would overfill a queue; the result is
  /// discarded on re-evaluation, so the model must mimic hardware rather
  /// than abort. Committed states are checked separately.
  void push_overwrite(const Flit& f) {
    slots_[write_] = f;
    write_ = next(write_);
    if (full()) {
      read_ = next(read_);
    } else {
      ++size_;
    }
  }

  /// Removes and returns the oldest flit; throws on underflow.
  Flit pop() {
    TMSIM_CHECK_MSG(!empty(), "flit queue underflow");
    const Flit f = slots_[read_];
    read_ = next(read_);
    --size_;
    return f;
  }

  /// Oldest flit without removing it.
  const Flit& front() const {
    TMSIM_CHECK_MSG(!empty(), "front() on empty flit queue");
    return slots_[read_];
  }

  /// Flit `i` positions behind the front (0 == front).
  const Flit& at(std::size_t i) const {
    TMSIM_CHECK_MSG(i < size_, "at() out of range");
    const std::size_t p = read_ + i;
    return slots_[p < capacity_ ? p : p - capacity_];
  }

  /// Raw slot by physical index, live or stale — the queue as hardware
  /// (and the state word) stores it. Throws at or above capacity().
  const Flit& slot(std::size_t physical) const {
    TMSIM_CHECK_MSG(physical < capacity_, "flit queue slot out of range");
    return slots_[physical];
  }
  Flit& slot(std::size_t physical) {
    TMSIM_CHECK_MSG(physical < capacity_, "flit queue slot out of range");
    return slots_[physical];
  }
  std::size_t read_pos() const { return read_; }
  std::size_t write_pos() const { return write_; }

  /// Restores the pointers when decoding a state memory word.
  void restore(std::size_t read_pos, std::size_t write_pos,
               std::size_t size) {
    TMSIM_CHECK_MSG(read_pos < capacity_ && write_pos < capacity_ &&
                        size <= capacity_,
                    "invalid flit queue restore state");
    // read_pos + size < 2 * capacity_ here, so one subtraction wraps it.
    std::size_t end = read_pos + size;
    if (end >= capacity_) {
      end -= capacity_;
    }
    TMSIM_CHECK_MSG(end == write_pos ||
                        (size == capacity_ && read_pos == write_pos),
                    "inconsistent flit queue pointers");
    read_ = static_cast<std::uint8_t>(read_pos);
    write_ = static_cast<std::uint8_t>(write_pos);
    size_ = static_cast<std::uint8_t>(size);
  }

  /// Same capacity, pointers, occupancy and every reachable slot, stale
  /// slots included, as the state word stores them.
  friend bool operator==(const FlitQueue& a, const FlitQueue& b) {
    return a.capacity_ == b.capacity_ && a.read_ == b.read_ &&
           a.write_ == b.write_ && a.size_ == b.size_ &&
           std::equal(a.slots_.begin(), a.slots_.begin() + a.capacity_,
                      b.slots_.begin());
  }

 private:
  std::uint8_t next(std::uint8_t i) const {
    return static_cast<std::uint8_t>(i + 1 >= capacity_ ? 0 : i + 1);
  }

  // The control bytes lead the slots: the arbiter reads them for every
  // queue, the slots only for a non-empty one.
  std::uint8_t capacity_ = 0;
  std::uint8_t read_ = 0;
  std::uint8_t write_ = 0;
  std::uint8_t size_ = 0;
  std::array<Flit, kMaxQueueDepth> slots_{};
};

}  // namespace tmsim::noc
