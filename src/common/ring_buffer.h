// Fixed-capacity ring buffer.
//
// Two distinct uses in this reproduction:
//  - the router's flit input queues (noc/), where capacity is the
//    synthesized queue depth and overflow is a hardware bug;
//  - the FPGA↔ARM cyclic buffers (fpga/cyclic_buffer.h builds on the same
//    pointer discipline but adds the paper's timestamping and the split
//    hardware/software read-write pointer pair).
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.h"

namespace tmsim {

/// Bounded FIFO with O(1) push/pop and checked overflow/underflow.
template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity)
      : slots_(capacity), capacity_(capacity) {
    TMSIM_CHECK_MSG(capacity > 0, "ring buffer capacity must be positive");
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }

  /// Appends an element; throws on overflow.
  void push(const T& value) {
    TMSIM_CHECK_MSG(!full(), "ring buffer overflow");
    slots_[write_] = value;
    write_ = next(write_);
    ++size_;
  }

  /// Appends like hardware: the write pointer always advances; when full,
  /// the oldest element is overwritten (read pointer advances too). Real
  /// RTL does not trap on a FIFO write-when-full — and the sequential
  /// simulator's dynamic schedule (§4.2) can transiently evaluate a block
  /// against stale link values that would overfill a queue; the result is
  /// discarded on re-evaluation, so the model must mimic hardware rather
  /// than abort. Committed states are checked separately.
  void push_overwrite(const T& value) {
    slots_[write_] = value;
    write_ = next(write_);
    if (full()) {
      read_ = next(read_);
    } else {
      ++size_;
    }
  }

  /// Removes and returns the oldest element; throws on underflow.
  T pop() {
    TMSIM_CHECK_MSG(!empty(), "ring buffer underflow");
    T value = slots_[read_];
    read_ = next(read_);
    --size_;
    return value;
  }

  /// Oldest element without removing it.
  const T& front() const {
    TMSIM_CHECK_MSG(!empty(), "front() on empty ring buffer");
    return slots_[read_];
  }

  /// Element `i` positions behind the front (0 == front). Used by tests and
  /// by the bit-serialization of queue contents.
  const T& at(std::size_t i) const {
    TMSIM_CHECK_MSG(i < size_, "at() out of range");
    return slots_[(read_ + i) % capacity_];
  }

  void clear() {
    read_ = write_ = 0;
    size_ = 0;
  }

  /// Raw slot access by physical index — needed when serializing queue
  /// state the way hardware stores it (all slots, plus rd/wr pointers),
  /// not just the logically live elements.
  const T& slot(std::size_t physical) const { return slots_.at(physical); }
  T& slot(std::size_t physical) { return slots_.at(physical); }
  std::size_t read_pos() const { return read_; }
  std::size_t write_pos() const { return write_; }

  /// Same capacity, pointers, occupancy and *every* physical slot — stale
  /// slots included, as hardware (and the state word) stores them.
  friend bool operator==(const RingBuffer&, const RingBuffer&) = default;

  /// Restores pointer state during deserialization from a state memory word.
  void restore(std::size_t read_pos, std::size_t write_pos,
               std::size_t size) {
    TMSIM_CHECK_MSG(read_pos < capacity_ && write_pos < capacity_ &&
                        size <= capacity_,
                    "invalid ring buffer restore state");
    // read_pos + size < 2 * capacity_ here, so one subtraction wraps it
    // (no division: the state codec restores every queue every delta
    // cycle).
    std::size_t end = read_pos + size;
    if (end >= capacity_) {
      end -= capacity_;
    }
    TMSIM_CHECK_MSG(end == write_pos ||
                        (size == capacity_ && read_pos == write_pos),
                    "inconsistent ring buffer pointers");
    read_ = read_pos;
    write_ = write_pos;
    size_ = size;
  }

 private:
  std::size_t next(std::size_t i) const { return (i + 1) % capacity_; }

  std::vector<T> slots_;
  std::size_t capacity_;
  std::size_t read_ = 0;
  std::size_t write_ = 0;
  std::size_t size_ = 0;
};

}  // namespace tmsim
