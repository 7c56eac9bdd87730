#include "sim/event_loop.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <utility>

namespace h2sim::sim {

std::string format_time(TimePoint t) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3fms", t.to_millis());
  return buf;
}

std::string format_duration(Duration d) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3fms", d.to_millis());
  return buf;
}

namespace detail {

namespace {

inline std::uint64_t tick_of(std::int64_t at_ns) {
  return static_cast<std::uint64_t>(at_ns) >> SchedulerCore::kScaleShift;
}

/// Level of the highest 6-bit digit in which `tick` differs from the wheel
/// cursor. Events always land strictly ahead of the cursor's slot index at
/// their level, so bucket scans never wrap.
inline int level_for(std::uint64_t tick, std::uint64_t cur_tick) {
  const std::uint64_t diff = tick ^ cur_tick;
  if (diff == 0) return 0;
  const int high_bit = 63 - std::countl_zero(diff);
  return high_bit / SchedulerCore::kLevelBits;
}

}  // namespace

std::uint32_t SchedulerCore::acquire() {
  if (free_head == kNoIndex) {
    // Exhausted: add one chunk and thread its slots onto the free list so
    // indices are handed out ascending within the chunk.
    const auto base = static_cast<std::uint32_t>(chunks.size()) << kChunkShift;
    chunks.push_back(std::make_unique<Slot[]>(kChunkSize));
    ++chunk_allocs;
    for (std::uint32_t i = kChunkSize; i-- > 0;) {
      Slot& s = chunks.back()[i];
      s.next = free_head;
      free_head = base + i;
    }
  }
  const std::uint32_t index = free_head;
  Slot& s = slot(index);
  free_head = s.next;
  s.next = kNoIndex;
  s.prev = kNoIndex;
  s.cancelled = false;
  return index;
}

void SchedulerCore::release(std::uint32_t index) {
  Slot& s = slot(index);
  s.cb.reset();
  s.cancelled = false;
  s.bucket = kBucketFree;
  ++s.generation;  // invalidate every outstanding handle to this occupancy
  s.next = free_head;
  s.prev = kNoIndex;
  free_head = index;
}

void SchedulerCore::wheel_insert(std::uint32_t index) {
  Slot& s = slot(index);
  const std::uint64_t tick = tick_of(s.at_ns);
  assert(tick >= cur_tick && "wheel inserts must be at/after the cursor");
  const int level = level_for(tick, cur_tick);
  const auto slot_idx = static_cast<std::uint32_t>(
      (tick >> (level * kLevelBits)) & (kSlotsPerLevel - 1));
  const std::uint32_t bucket = static_cast<std::uint32_t>(level) * kSlotsPerLevel + slot_idx;

  s.bucket = static_cast<std::uint16_t>(bucket);
  s.next = kNoIndex;
  s.prev = tail[bucket];
  if (tail[bucket] != kNoIndex) {
    slot(tail[bucket]).next = index;
  } else {
    head[bucket] = index;
    occupied[static_cast<std::size_t>(level)] |= 1ull << slot_idx;
  }
  tail[bucket] = index;
  ++wheel_count;
}

void SchedulerCore::wheel_unlink(std::uint32_t index) {
  Slot& s = slot(index);
  if (s.bucket >= kBucketCount) return;  // near-heap or free: nothing linked
  const std::uint32_t bucket = s.bucket;
  if (s.prev != kNoIndex) {
    slot(s.prev).next = s.next;
  } else {
    head[bucket] = s.next;
  }
  if (s.next != kNoIndex) {
    slot(s.next).prev = s.prev;
  } else {
    tail[bucket] = s.prev;
  }
  if (head[bucket] == kNoIndex) {
    occupied[bucket >> kLevelBits] &=
        ~(1ull << (bucket & (kSlotsPerLevel - 1)));
  }
  s.next = kNoIndex;
  s.prev = kNoIndex;
  s.bucket = kBucketNear;  // unlinked; caller decides the next state
  --wheel_count;
}

void SchedulerCore::cancel(std::uint32_t index, std::uint32_t generation) {
  Slot& s = slot(index);
  if (s.generation != generation || s.cancelled) return;
  ++sched.cancels;
  --live;
  if (s.bucket < kBucketCount) {
    // Still in a wheel bucket: unlink and recycle the slot right away. No
    // heap entry exists anywhere, so nothing is left to tombstone.
    wheel_unlink(index);
    release(index);
    return;
  }
  // Already promoted to the near-heap: the heap entry pops later, so keep
  // the slot and mark it; the pop reaps it.
  s.cancelled = true;
  s.cb.reset();  // free captured resources now
}

}  // namespace detail

using detail::SchedulerCore;

TimerHandle EventLoop::schedule_at(TimePoint at, Callback cb) {
  if (at < now_) at = now_;
  if (cb.on_heap()) ++alloc_stats_.callback_heap;
  const std::uint64_t chunks_before = core_->chunk_allocs;
  const std::uint32_t index = core_->acquire();
  alloc_stats_.slab_chunks += core_->chunk_allocs - chunks_before;
  SchedulerCore::Slot& slot = core_->slot(index);
  slot.cb = std::move(cb);
  slot.at_ns = at.count_nanos();
  slot.seq = next_seq_++;
  ++core_->live;
  const std::uint64_t tick =
      static_cast<std::uint64_t>(slot.at_ns) >> SchedulerCore::kScaleShift;
  if (tick < core_->cur_tick) {
    // The event's granule has already been drained: it joins the near-heap
    // directly, where (at, seq) ordering against its contemporaries lives.
    slot.bucket = SchedulerCore::kBucketNear;
    near_push(at, slot.seq, index, slot.generation);
  } else {
    core_->wheel_insert(index);
  }
  return TimerHandle{core_, index, slot.generation};
}

bool EventLoop::reschedule_at(TimerHandle& h, TimePoint at) {
  if (h.core_.lock().get() != core_.get()) return false;
  SchedulerCore::Slot& slot = core_->slot(h.index_);
  if (slot.generation != h.generation_ || slot.cancelled) return false;
  if (at < now_) at = now_;
  if (slot.bucket < SchedulerCore::kBucketCount) {
    core_->wheel_unlink(h.index_);
  } else {
    // Near-heap resident: its old (at, seq) entry is still in the heap, so
    // tombstone this occupancy and move the callback to a fresh slot; the
    // stale entry reaps on pop. Same observable effect, no double fire.
    Callback cb = std::move(slot.cb);
    slot.cancelled = true;
    --core_->live;
    const std::uint32_t index = core_->acquire();
    SchedulerCore::Slot& fresh = core_->slot(index);
    fresh.cb = std::move(cb);
    fresh.at_ns = at.count_nanos();
    fresh.seq = next_seq_++;
    ++core_->live;
    const std::uint64_t tick =
        static_cast<std::uint64_t>(fresh.at_ns) >> SchedulerCore::kScaleShift;
    if (tick < core_->cur_tick) {
      fresh.bucket = SchedulerCore::kBucketNear;
      near_push(at, fresh.seq, index, fresh.generation);
    } else {
      core_->wheel_insert(index);
    }
    h = TimerHandle{core_, index, fresh.generation};
    return true;
  }
  slot.at_ns = at.count_nanos();
  slot.seq = next_seq_++;
  const std::uint64_t tick =
      static_cast<std::uint64_t>(slot.at_ns) >> SchedulerCore::kScaleShift;
  if (tick < core_->cur_tick) {
    slot.bucket = SchedulerCore::kBucketNear;
    near_push(at, slot.seq, h.index_, slot.generation);
  } else {
    core_->wheel_insert(h.index_);
  }
  return true;
}

void EventLoop::near_push(TimePoint at, std::uint64_t seq, std::uint32_t index,
                          std::uint32_t generation) {
  if (near_.size() == near_.capacity()) ++alloc_stats_.heap_growth;
  near_.push_back(NearEntry{at, seq, index, generation});
  std::push_heap(near_.begin(), near_.end(), Later{});
}

namespace {

/// Cascades every higher-level bucket sitting at the cursor's own digit
/// index down into the lower-level windows it now covers. See the call site
/// in refill_near() for when such buckets can exist.
void catch_up_own_index(SchedulerCore& core) {
  for (int level = 1; level < SchedulerCore::kLevels; ++level) {
    if (core.occupied[static_cast<std::size_t>(level)] == 0) continue;
    const auto idxk = static_cast<std::uint32_t>(
        (core.cur_tick >> (level * SchedulerCore::kLevelBits)) &
        (SchedulerCore::kSlotsPerLevel - 1));
    if ((core.occupied[static_cast<std::size_t>(level)] & (1ull << idxk)) == 0) {
      continue;
    }
    ++core.sched.slots_scanned;
    const std::uint32_t bucket =
        static_cast<std::uint32_t>(level) * SchedulerCore::kSlotsPerLevel + idxk;
    std::uint32_t index = core.head[bucket];
    core.head[bucket] = SchedulerCore::kNoIndex;
    core.tail[bucket] = SchedulerCore::kNoIndex;
    core.occupied[static_cast<std::size_t>(level)] &= ~(1ull << idxk);
    while (index != SchedulerCore::kNoIndex) {
      SchedulerCore::Slot& s = core.slot(index);
      const std::uint32_t next = s.next;
      s.next = SchedulerCore::kNoIndex;
      s.prev = SchedulerCore::kNoIndex;
      --core.wheel_count;
      core.wheel_insert(index);
      ++core.sched.cascades;
      index = next;
    }
  }
}

}  // namespace

bool EventLoop::refill_near() {
  if (core_->wheel_count == 0) return false;
  auto& core = *core_;
  for (;;) {
    // When the cursor carried across a 64^k boundary (cur_tick = tick+1 after
    // a drain), a level-k bucket at the cursor's *own* digit index covers the
    // window the cursor just entered — its events belong inside the current
    // lower-level windows, so cascade them down before trusting any scan.
    // Ascending order suffices: cascaded events land at a strictly greater
    // digit than the cursor's at their new (lower) level, never own-index.
    // Only a drain-advance carry can create own-index occupancy (inserts land
    // at a digit strictly above the cursor's, and cascade jumps only clear or
    // zero digits), so the pass is gated on carry_pending.
    if (core.carry_pending) {
      core.carry_pending = false;
      catch_up_own_index(core);
    }
    // Level 0 next: each bucket there is exactly one granule, and (with
    // own-index buckets cascaded above) every occupied higher-level bucket
    // lies beyond the current level-0 window, so the first occupied level-0
    // bucket at/after the cursor is globally earliest.
    const auto idx0 =
        static_cast<std::uint32_t>(core.cur_tick & (SchedulerCore::kSlotsPerLevel - 1));
    ++core.sched.slots_scanned;
    const std::uint64_t mask0 = core.occupied[0] & (~0ull << idx0);
    if (mask0 != 0) {
      const auto slot_idx = static_cast<std::uint32_t>(std::countr_zero(mask0));
      const std::uint64_t granule_tick =
          (core.cur_tick & ~static_cast<std::uint64_t>(SchedulerCore::kSlotsPerLevel - 1)) |
          slot_idx;
      // Drain the whole granule in one sweep: unlink the bucket list and
      // promote every event to the near-heap in insertion order.
      std::uint32_t index = core.head[slot_idx];
      std::uint64_t drained = 0;
      while (index != SchedulerCore::kNoIndex) {
        SchedulerCore::Slot& s = core.slot(index);
        const std::uint32_t next = s.next;
        s.next = SchedulerCore::kNoIndex;
        s.prev = SchedulerCore::kNoIndex;
        s.bucket = SchedulerCore::kBucketNear;
        near_push(TimePoint::from_nanos(s.at_ns), s.seq, index, s.generation);
        ++drained;
        index = next;
      }
      core.head[slot_idx] = SchedulerCore::kNoIndex;
      core.tail[slot_idx] = SchedulerCore::kNoIndex;
      core.occupied[0] &= ~(1ull << slot_idx);
      core.wheel_count -= drained;
      // Advancing past the last granule of a level-0 window carries into the
      // upper digits; the own-index catch-up must run before the next scan.
      if ((granule_tick & (SchedulerCore::kSlotsPerLevel - 1)) ==
          SchedulerCore::kSlotsPerLevel - 1) {
        core.carry_pending = true;
      }
      core.cur_tick = granule_tick + 1;
      return true;
    }
    // Level-0 window exhausted: cascade the first occupied bucket of the
    // lowest level that has one, jumping the cursor to that bucket's base
    // tick. Cascaded events land strictly below their old level.
    bool cascaded = false;
    for (int level = 1; level < SchedulerCore::kLevels; ++level) {
      const auto idxk = static_cast<std::uint32_t>(
          (core.cur_tick >> (level * SchedulerCore::kLevelBits)) &
          (SchedulerCore::kSlotsPerLevel - 1));
      ++core.sched.slots_scanned;
      const std::uint64_t mask =
          core.occupied[static_cast<std::size_t>(level)] & (~0ull << idxk);
      if (mask == 0) continue;
      const auto slot_idx = static_cast<std::uint32_t>(std::countr_zero(mask));
      const std::uint32_t bucket =
          static_cast<std::uint32_t>(level) * SchedulerCore::kSlotsPerLevel + slot_idx;
      const int span_bits = (level + 1) * SchedulerCore::kLevelBits;
      const std::uint64_t span_mask =
          span_bits >= 64 ? ~0ull : (1ull << span_bits) - 1;
      core.cur_tick = (core.cur_tick & ~span_mask) |
                      (static_cast<std::uint64_t>(slot_idx)
                       << (level * SchedulerCore::kLevelBits));
      std::uint32_t index = core.head[bucket];
      core.head[bucket] = SchedulerCore::kNoIndex;
      core.tail[bucket] = SchedulerCore::kNoIndex;
      core.occupied[static_cast<std::size_t>(level)] &= ~(1ull << slot_idx);
      while (index != SchedulerCore::kNoIndex) {
        SchedulerCore::Slot& s = core.slot(index);
        const std::uint32_t next = s.next;
        s.next = SchedulerCore::kNoIndex;
        s.prev = SchedulerCore::kNoIndex;
        --core.wheel_count;
        core.wheel_insert(index);  // re-links at a lower level
        ++core.sched.cascades;
        index = next;
      }
      cascaded = true;
      break;
    }
    if (!cascaded) {
      assert(core.wheel_count == 0 && "occupancy bitmaps out of sync");
      return false;
    }
  }
}

bool EventLoop::peek_next(TimePoint* at) {
  for (;;) {
    if (near_.empty() && !refill_near()) return false;
    const NearEntry& top = near_.front();
    SchedulerCore::Slot& s = core_->slot(top.index);
    if (s.generation == top.generation && !s.cancelled) {
      *at = top.at;
      return true;
    }
    // Tombstoned (cancelled or rescheduled while near): reap the entry.
    if (s.generation == top.generation) core_->release(top.index);
    std::pop_heap(near_.begin(), near_.end(), Later{});
    near_.pop_back();
  }
}

bool EventLoop::step() {
  TimePoint at;
  if (!peek_next(&at)) return false;
  const NearEntry top = near_.front();
  std::pop_heap(near_.begin(), near_.end(), Later{});
  near_.pop_back();
  SchedulerCore::Slot& slot = core_->slot(top.index);
  now_ = top.at;
  // Move the callback out and release the slot before invoking: a late
  // cancel() is then a no-op, and the callback may freely schedule new
  // events (possibly reusing this very slot).
  Callback cb = std::move(slot.cb);
  core_->release(top.index);
  --core_->live;
  ++executed_;
  cb();
  return true;
}

std::size_t EventLoop::run(TimePoint until) {
  stopped_ = false;
  std::size_t n = 0;
  TimePoint at;
  while (!stopped_ && peek_next(&at)) {
    if (at > until) break;
    if (step()) ++n;
  }
  if (now_ < until && until != TimePoint::max()) now_ = until;
  return n;
}

}  // namespace h2sim::sim
