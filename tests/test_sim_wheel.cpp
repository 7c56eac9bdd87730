// Timing-wheel scheduler correctness: dual-execution fuzzing against a
// plain ordered-map reference model, FIFO (at, seq) ordering over mixed
// horizons with cancellation churn, and directed regressions for the two
// subtle wheel behaviours — far-future events cascading down through the
// levels, and the own-index catch-up pass that must run when a drain
// advance carries the cursor across a 64-slot boundary.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "sim/event_loop.hpp"

namespace h2sim::sim {
namespace {

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// A fuzz horizon drawn from `hh`, across six decades: now, sub-granule,
/// granule edge, milliseconds, an RTO, an idle gap.
std::int64_t fuzz_delta(std::uint64_t hh) {
  switch (hh % 6) {
    case 0: return 0;
    case 1: return static_cast<std::int64_t>(hh % 700);
    case 2: return static_cast<std::int64_t>(hh % 3000);
    case 3: return static_cast<std::int64_t>(hh % 2000000);
    case 4: return static_cast<std::int64_t>(hh % 400000000LL);
    default: return static_cast<std::int64_t>(hh % 30000000000LL);
  }
}

// Shared callback logic for the dual-execution fuzz below: every fired event
// appends its id, then deterministically (from the salt) schedules up to
// three children across six decades of horizon, sometimes cancels an
// arbitrary earlier event, and sometimes moves one (reschedule_at, the TCP
// RTO re-arm path) to a fresh horizon, earlier or later than it was. Both
// worlds run the identical program, so any divergence in the fired-id
// sequence is a wheel ordering or loss bug.
template <class World>
void fuzz_act(World& w, int id) {
  w.order.push_back(id);
  const std::uint64_t h = mix(static_cast<std::uint64_t>(id) * 7919 + w.salt);
  const int children = static_cast<int>(h % 4);
  for (int c = 0; c < children && w.next_id <= w.budget; ++c) {
    const std::uint64_t hh = mix(h + static_cast<std::uint64_t>(c) + 1);
    const int cid = w.next_id++;
    w.schedule(cid, w.now_ns() + fuzz_delta(hh));
  }
  if ((h >> 8) % 3 == 0) {
    w.cancel_id(static_cast<int>((h >> 16) % static_cast<std::uint64_t>(w.next_id)));
  }
  if ((h >> 24) % 3 == 0) {
    const std::uint64_t hh = mix(h ^ 0x5bd1e995);
    w.reschedule_id(static_cast<int>((h >> 32) % static_cast<std::uint64_t>(w.next_id)),
                    w.now_ns() + fuzz_delta(hh));
  }
}

// The system under test: ids scheduled on the real EventLoop.
struct WheelWorld {
  EventLoop loop;
  std::map<int, TimerHandle> handles;
  std::vector<int> order;
  int next_id = 0;
  std::uint64_t salt = 0;
  int budget = 0;
  void schedule(int id, std::int64_t at) {
    handles[id] = loop.schedule_at(TimePoint::from_nanos(at),
                                   [this, id] { fuzz_act(*this, id); });
  }
  void cancel_id(int id) {
    auto it = handles.find(id);
    if (it != handles.end()) it->second.cancel();
  }
  void reschedule_id(int id, std::int64_t at) {
    auto it = handles.find(id);
    if (it != handles.end()) loop.reschedule_at(it->second, TimePoint::from_nanos(at));
  }
  std::int64_t now_ns() { return loop.now().count_nanos(); }
};

// The reference model: an ordered map keyed by (at, seq) — the scheduler's
// documented dispatch order — with no wheel, no cascades, no buckets.
struct RefWorld {
  std::map<std::pair<std::int64_t, std::uint64_t>, std::function<void()>> q;
  std::map<int, std::pair<std::int64_t, std::uint64_t>> keys;
  std::int64_t now = 0;
  std::uint64_t seq = 0;
  std::vector<int> order;
  int next_id = 0;
  std::uint64_t salt = 0;
  int budget = 0;
  void schedule(int id, std::int64_t at) {
    if (at < now) at = now;
    const auto key = std::make_pair(at, seq++);
    q.emplace(key, [this, id] { fuzz_act(*this, id); });
    keys[id] = key;
  }
  void cancel_id(int id) {
    auto it = keys.find(id);
    if (it != keys.end()) q.erase(it->second);
  }
  // A pending event is re-keyed with a fresh seq, as cancel() plus
  // schedule_at() would; a fired or cancelled one stays spent.
  void reschedule_id(int id, std::int64_t at) {
    auto it = keys.find(id);
    if (it == keys.end()) return;
    auto node = q.extract(it->second);
    if (node.empty()) return;
    node.key() = std::make_pair(std::max(at, now), seq++);
    it->second = node.key();
    q.insert(std::move(node));
  }
  std::int64_t now_ns() { return now; }
  void run(std::int64_t until) {
    while (!q.empty()) {
      auto it = q.begin();
      if (it->first.first > until) break;
      now = it->first.first;
      auto cb = std::move(it->second);
      q.erase(it);
      cb();
    }
  }
};

// Dual execution: the same self-scheduling, self-cancelling, self-moving
// program runs on the wheel and on the reference model; the fired-id
// sequences must be identical for every salt. This is the harness that originally caught the
// boundary-carry bug, kept as a standing fuzz.
TEST(SimWheel, MatchesReferenceModelAcrossSalts) {
  for (std::uint64_t salt = 0; salt < 200; ++salt) {
    const int budget = 400;
    WheelWorld w;
    w.salt = salt;
    w.budget = budget;
    RefWorld r;
    r.salt = salt;
    r.budget = budget;
    for (int i = 0; i < 20; ++i) {
      const std::uint64_t hh = mix(salt * 1315423911ULL + static_cast<std::uint64_t>(i));
      const auto at = static_cast<std::int64_t>(hh % 50000000000LL);
      const int wid = w.next_id++;
      w.schedule(wid, at);
      const int rid = r.next_id++;
      r.schedule(rid, at);
    }
    w.loop.run(TimePoint::from_nanos(120000000000LL));
    r.run(120000000000LL);
    ASSERT_EQ(w.order, r.order) << "salt " << salt;
  }
}

// Property: over a random mix of horizons (sub-granule to minutes) with a
// random quarter of the events cancelled, the surviving events fire in
// exact (at, seq) order — FIFO among same-instant events, regardless of
// which wheel level each event originally landed on.
TEST(SimWheel, RandomMixFiresInAtSeqOrder) {
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 100; ++trial) {
    EventLoop loop;
    struct Ev {
      std::int64_t at;
      std::uint64_t seq;
    };
    std::vector<Ev> expected;
    std::vector<Ev> fired;
    std::uint64_t seq = 0;
    const int n = 200;
    std::vector<TimerHandle> handles;
    for (int i = 0; i < n; ++i) {
      std::int64_t at = 0;
      switch (rng() % 5) {
        case 0: at = static_cast<std::int64_t>(rng() % 2000); break;
        case 1: at = static_cast<std::int64_t>(rng() % 100000); break;
        case 2: at = static_cast<std::int64_t>(rng() % 10000000); break;
        case 3: at = static_cast<std::int64_t>(rng() % 4000000000LL); break;
        default: at = static_cast<std::int64_t>(rng() % 120000000000LL); break;
      }
      const std::uint64_t s = seq++;
      handles.push_back(loop.schedule_at(TimePoint::from_nanos(at),
                                         [&fired, at, s] { fired.push_back({at, s}); }));
      expected.push_back({at, s});
    }
    std::vector<char> cancelled(n, 0);
    for (int i = 0; i < n / 4; ++i) {
      const auto k = static_cast<int>(rng() % n);
      if (!cancelled[static_cast<std::size_t>(k)]) {
        handles[static_cast<std::size_t>(k)].cancel();
        cancelled[static_cast<std::size_t>(k)] = 1;
      }
    }
    std::vector<Ev> live;
    for (int i = 0; i < n; ++i) {
      if (!cancelled[static_cast<std::size_t>(i)]) {
        live.push_back(expected[static_cast<std::size_t>(i)]);
      }
    }
    std::sort(live.begin(), live.end(), [](const Ev& a, const Ev& b) {
      if (a.at != b.at) return a.at < b.at;
      return a.seq < b.seq;
    });
    loop.run();
    ASSERT_EQ(fired.size(), live.size()) << "trial " << trial;
    for (std::size_t i = 0; i < live.size(); ++i) {
      ASSERT_EQ(fired[i].at, live[i].at) << "trial " << trial << " idx " << i;
      ASSERT_EQ(fired[i].seq, live[i].seq) << "trial " << trial << " idx " << i;
    }
  }
}

// A far-future event lands in a high wheel level and must cascade down
// through intermediate levels as the cursor approaches, firing at exactly
// its scheduled instant — even with nothing else on the loop to pace the
// drain.
TEST(SimWheel, FarFutureEventCascadesToExactInstant) {
  EventLoop loop;
  // Three horizons spanning three different wheel levels, plus one at the
  // 54-bit scale the 1024 ns granule can still represent comfortably.
  const std::int64_t horizons[] = {
      30'000'000'000LL,        // 30 s
      3'600'000'000'000LL,     // 1 h
      86'400'000'000'000LL,    // 24 h
  };
  std::vector<std::int64_t> fired_at;
  for (const std::int64_t at : horizons) {
    loop.schedule_at(TimePoint::from_nanos(at),
                     [&fired_at, &loop] { fired_at.push_back(loop.now().count_nanos()); });
  }
  loop.run();
  ASSERT_EQ(fired_at.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(fired_at[i], horizons[i]);
}

// Regression for the boundary-carry bug: an event scheduled from inside the
// last granule of a 64-slot level-0 window, targeting the first granule of
// the next window, lands in a level-1 bucket whose index equals the
// cursor's level-1 digit right after the drain advance carries. The
// own-index catch-up pass must cascade that bucket or the event is lost.
TEST(SimWheel, CarryAcrossLevel0BoundaryDeliversNextWindowEvent) {
  constexpr std::int64_t kGranule = 1024;  // 2^kScaleShift ns
  EventLoop loop;
  std::vector<int> fired;
  // Runs in granule 63 (the last slot of the first level-0 window) and
  // schedules a follow-up into granule 64 — reachable only via the carry
  // catch-up, because at insert time the target differs from the cursor in
  // the level-1 digit.
  loop.schedule_at(TimePoint::from_nanos(63 * kGranule + 7), [&] {
    fired.push_back(1);
    loop.schedule_at(TimePoint::from_nanos(64 * kGranule + 5),
                     [&] { fired.push_back(2); });
  });
  loop.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(loop.now().count_nanos(), 64 * kGranule + 5);
}

// Same carry shape one level up: cross the 64^2-granule boundary (the
// level-2 digit increments) while a follow-up waits in the first window of
// the new level-1 rotation. Also drives the cursor through two full
// level-1 rotations with a periodic timer to exercise level-0 slot reuse
// after wraparound.
TEST(SimWheel, WraparoundAndHigherLevelCarry) {
  constexpr std::int64_t kGranule = 1024;
  constexpr std::int64_t kL1Span = 64 * 64 * kGranule;  // one level-2 slot
  {
    EventLoop loop;
    std::vector<int> fired;
    loop.schedule_at(TimePoint::from_nanos(kL1Span - kGranule + 3), [&] {
      fired.push_back(1);
      loop.schedule_at(TimePoint::from_nanos(kL1Span + 9),
                       [&] { fired.push_back(2); });
    });
    loop.run();
    EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  }
  {
    EventLoop loop;
    int ticks = 0;
    // One tick per 16 granules across two full level-1 rotations: every
    // level-0 slot is filled, drained, and refilled after wrapping.
    constexpr int kTicks = 2 * 64 * 4;
    std::function<void()> tick = [&] {
      if (++ticks < kTicks) loop.schedule_after(Duration::nanos(16 * kGranule), tick);
    };
    loop.schedule_after(Duration::nanos(16 * kGranule), tick);
    loop.run();
    EXPECT_EQ(ticks, kTicks);
    EXPECT_EQ(loop.now().count_nanos(), static_cast<std::int64_t>(kTicks) * 16 * kGranule);
  }
}

// Cancelling the only occupant of a far-level bucket must not leave stale
// occupancy that later misroutes the cursor, and rescheduling across levels
// (near -> far -> near) must keep the handle live and fire exactly once.
TEST(SimWheel, CancelAndRescheduleAcrossLevels) {
  EventLoop loop;
  int fired = 0;
  TimerHandle far = loop.schedule_after(Duration::seconds(40), [&] { fired += 100; });
  TimerHandle moved = loop.schedule_after(Duration::micros(50), [&] { ++fired; });
  ASSERT_TRUE(loop.reschedule_after(moved, Duration::seconds(2)));
  ASSERT_TRUE(loop.reschedule_after(moved, Duration::millis(3)));
  far.cancel();
  loop.schedule_after(Duration::seconds(41), [&] { fired += 10; });
  loop.run();
  // The cancelled far timer never fires; the twice-rescheduled timer fires
  // once at its final slot; the post-cancel far timer still fires.
  EXPECT_EQ(fired, 11);
}

}  // namespace
}  // namespace h2sim::sim
