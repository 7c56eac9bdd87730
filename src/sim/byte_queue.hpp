#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace h2sim::sim {

/// A byte FIFO in one flat vector with a consumed-prefix offset. Readers see
/// the unconsumed bytes as one contiguous span and consume from the front in
/// O(1); the consumed prefix is reclaimed lazily on append, once it dominates
/// the storage, so the storage stays within about twice the unconsumed bytes
/// (plus 4 KiB) over a connection of any length.
///
/// A span from bytes() stays valid until the next append() or clear():
/// consume() never moves or frees storage.
class ByteQueue {
 public:
  void append(std::span<const std::uint8_t> bytes) {
    if (head_ == buf_.size()) {
      buf_.clear();
      head_ = 0;
    } else if (head_ >= 4096 && head_ >= buf_.size() - head_) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  /// The unconsumed bytes, front first.
  std::span<const std::uint8_t> bytes() const {
    return std::span(buf_).subspan(head_);
  }
  std::size_t size() const { return buf_.size() - head_; }
  bool empty() const { return head_ == buf_.size(); }

  void consume(std::size_t n) {
    assert(n <= size());
    head_ += n;
  }

  void clear() {
    buf_.clear();
    head_ = 0;
  }

  /// Bytes of storage in use, the consumed prefix included.
  std::size_t storage_bytes() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t head_ = 0;
};

}  // namespace h2sim::sim
