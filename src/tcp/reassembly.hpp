#pragma once

#include <cassert>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "tcp/tcp_types.hpp"

namespace h2sim::tcp {

/// Reassembles one direction of a TCP byte stream. Segments past a hole are
/// keyed by their offset from a base sequence number, so map order is
/// sequence order even across the 2^32 wrap. The base is re-anchored at the
/// stream head whenever nothing is buffered, which keeps that order for a
/// stream of any length while buffered data stays within 2^31 bytes of the
/// head it was buffered against.
class ReorderQueue {
 public:
  enum class Fate { kDuplicate, kBuffered, kInOrder };

  void clear() { segs_.clear(); }

  /// Takes a non-empty segment at `seq` against `head`, the next expected
  /// sequence number. An in-order segment's fresh bytes, then those of every
  /// buffered segment it makes contiguous, go to `sink` as in-order spans and
  /// advance `head`; the drain is one ordered pass that stops at the first
  /// remaining hole. A segment past a hole is buffered (the first one stored
  /// at a sequence number wins). `sink` must not touch the queue.
  template <class Sink>
  Fate accept(std::uint32_t& head, std::uint32_t seq,
              std::span<const std::uint8_t> bytes, Sink&& sink) {
    if (seq_gt(seq, head)) {
      if (segs_.empty()) base_ = head;
      segs_.try_emplace(seq - base_, bytes.begin(), bytes.end());
      return Fate::kBuffered;
    }
    if (!take(head, seq, bytes, sink)) return Fate::kDuplicate;
    for (auto it = segs_.begin();
         it != segs_.end() && seq_le(base_ + it->first, head); it = segs_.erase(it)) {
      take(head, base_ + it->first, it->second, sink);
    }
    assert(segs_.empty() || seq_gt(base_ + segs_.begin()->first, head));
    return Fate::kInOrder;
  }

 private:
  /// Feeds the bytes of a segment starting at or before `head` that lie past
  /// it; false when there are none.
  template <class Sink>
  static bool take(std::uint32_t& head, std::uint32_t seq,
                   std::span<const std::uint8_t> bytes, Sink& sink) {
    const std::uint32_t end = seq + static_cast<std::uint32_t>(bytes.size());
    if (seq_le(end, head)) return false;
    sink(bytes.subspan(head - seq));
    head = end;
    return true;
  }

  std::uint32_t base_ = 0;
  std::map<std::uint32_t, std::vector<std::uint8_t>> segs_;
};

}  // namespace h2sim::tcp
