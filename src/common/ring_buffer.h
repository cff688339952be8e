// Fixed-capacity ring buffer: the storage of the FPGA↔ARM cyclic
// buffers (fpga/cyclic_buffer.h adds the paper's timestamping on top).
// The router's flit input queues are noc::FlitQueue, stored inline.
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

  void clear() {
    read_ = write_ = 0;
    size_ = 0;
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
