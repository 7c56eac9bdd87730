// Substrate microbenchmarks (google-benchmark): HPACK codec, Huffman coding,
// HTTP/2 frame codec, TLS record protection, and raw simulator event
// throughput. These quantify the cost of the building blocks the
// reproduction's Monte-Carlo trials lean on.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "h2/frame.hpp"
#include "hpack/decoder.hpp"
#include "hpack/encoder.hpp"
#include "hpack/huffman.hpp"
#include "net/link.hpp"
#include "net/middlebox.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/event_loop.hpp"
#include "sim/random.hpp"
#include "tls/record.hpp"
#include "tls/session.hpp"

// Process-wide heap allocation counter. The steady-state benches below use
// delta snapshots around the measured region to prove the simulator hot path
// is allocation-free once warmed; other benches ignore it.
//
// The replacement new/delete pair below is consistently malloc/free-based,
// but GCC's -Wmismatched-new-delete cannot see that when it inlines the
// delete into call sites and assumes the pointer came from the default new.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

std::atomic<std::uint64_t> g_heap_allocs{0};

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t n, std::align_val_t al) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(al),
                                   (n + static_cast<std::size_t>(al) - 1) &
                                       ~(static_cast<std::size_t>(al) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace h2sim;

hpack::HeaderList request_headers() {
  return {
      {":method", "GET"},
      {":scheme", "https"},
      {":authority", "www.isidewith.com"},
      {":path", "/img/party_3.png"},
      {"user-agent", "Mozilla/5.0 (X11; Linux x86_64; rv:74.0) Gecko Firefox/74.0"},
      {"accept", "text/html,application/xhtml+xml,*/*;q=0.8"},
      {"cookie", "sessionid=a1b2c3d4e5f6a7b8"},
  };
}

void BM_HpackEncode(benchmark::State& state) {
  hpack::Encoder enc;
  const auto headers = request_headers();
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encode(headers));
  }
}
BENCHMARK(BM_HpackEncode);

void BM_HpackRoundTrip(benchmark::State& state) {
  hpack::Encoder enc;
  hpack::Decoder dec;
  const auto headers = request_headers();
  for (auto _ : state) {
    const auto block = enc.encode(headers);
    benchmark::DoNotOptimize(dec.decode(block));
  }
}
BENCHMARK(BM_HpackRoundTrip);

void BM_HuffmanEncode(benchmark::State& state) {
  const std::string input = "www.isidewith.com/results/2020-presidential-quiz";
  for (auto _ : state) {
    std::string out;
    hpack::huffman::encode(input, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * input.size()));
}
BENCHMARK(BM_HuffmanEncode);

void BM_HuffmanDecode(benchmark::State& state) {
  const std::string input = "www.isidewith.com/results/2020-presidential-quiz";
  std::string enc;
  hpack::huffman::encode(input, enc);
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(enc.data()), enc.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(hpack::huffman::decode(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * enc.size()));
}
BENCHMARK(BM_HuffmanDecode);

void BM_FrameRoundTrip(benchmark::State& state) {
  h2::Frame f;
  f.type = h2::FrameType::kData;
  f.stream_id = 5;
  f.payload.assign(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    const auto wire = h2::serialize_frame(f);
    h2::FrameDecoder dec;
    dec.feed(wire);
    benchmark::DoNotOptimize(dec.next());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FrameRoundTrip)->Arg(1024)->Arg(16384);

void BM_RecordParse(benchmark::State& state) {
  std::vector<std::uint8_t> body(static_cast<std::size_t>(state.range(0)), 0x42);
  tls::RecordHeader h;
  h.length = static_cast<std::uint16_t>(body.size());
  const auto wire = tls::serialize_record(h, body);
  for (auto _ : state) {
    tls::RecordParser p;
    p.feed(wire);
    benchmark::DoNotOptimize(p.next());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RecordParse)->Arg(1049);

// The record-protection inner loop (keystream XOR), measured on the real
// free function both protect() and unprotect() call. The 1024-byte arg is
// the dominant record size on the wire (one h2 DATA chunk + framing); the
// 16 KiB arg shows the 4-wide unrolled middle at its best.
void BM_KeystreamApply(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> src(n, 0x42);
  std::vector<std::uint8_t> dst(n);
  std::uint64_t off = 3;  // exercise head + body + tail, not just the body
  for (auto _ : state) {
    tls::apply_keystream(0x5eed5eed5eed5eedULL, off, src.data(), dst.data(),
                         n);
    benchmark::DoNotOptimize(dst.data());
    off += n;
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(n));
}
BENCHMARK(BM_KeystreamApply)->Arg(1024)->Arg(16384);

// Reference lane for attribution: the pre-unroll single-word loop, kept
// bench-local only. Comparing its bytes/sec against BM_KeystreamApply
// isolates what the 4-wide unrolled middle buys on this hardware.
void BM_KeystreamApplySingleWord(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> src(n, 0x42);
  std::vector<std::uint8_t> dst(n);
  const std::uint64_t key = 0x5eed5eed5eed5eedULL;
  auto word = [key](std::uint64_t counter) {
    std::uint64_t x = key + 0x9e3779b97f4a7c15ULL * (counter + 1);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  };
  for (auto _ : state) {
    for (std::size_t i = 0; i + 8 <= n; i += 8) {
      std::uint64_t w;
      std::memcpy(&w, src.data() + i, 8);
      w ^= word(i / 8);
      std::memcpy(dst.data() + i, &w, 8);
    }
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(n));
}
BENCHMARK(BM_KeystreamApplySingleWord)->Arg(16384);

void BM_EventLoopThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventLoop loop;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      loop.schedule_after(sim::Duration::micros(i), [&fired] { ++fired; });
    }
    loop.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventLoopThroughput);

// Steady-state allocation proof for the event loop: after one warm-up round
// has grown the slab and the heap array, scheduling and running events must
// not touch the heap at all. Reported as the `allocs_per_event` counter —
// the acceptance bar is exactly 0.
void BM_EventLoopSteadyState(benchmark::State& state) {
  sim::EventLoop loop;
  constexpr int kEvents = 1000;
  int fired = 0;
  for (int i = 0; i < kEvents; ++i) {
    loop.schedule_after(sim::Duration::micros(i), [&fired] { ++fired; });
  }
  loop.run();

  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    for (int i = 0; i < kEvents; ++i) {
      loop.schedule_after(sim::Duration::micros(i), [&fired] { ++fired; });
    }
    loop.run();
    allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
  state.counters["allocs_per_event"] = benchmark::Counter(
      static_cast<double>(allocs) /
      static_cast<double>(state.iterations() * kEvents));
}
BENCHMARK(BM_EventLoopSteadyState);

// Timing-wheel schedule/dispatch with the horizon mix a trial produces:
// mostly sub-millisecond deliveries, a sprinkling of ~200 ms RTO-scale
// timers, and the occasional multi-second idle timeout, forcing events onto
// three different wheel levels. Steady-state must be allocation-free (the
// slab, near-heap, and buckets all warm during the first round).
void BM_WheelSchedule(benchmark::State& state) {
  sim::EventLoop loop;
  constexpr int kEvents = 1024;
  int fired = 0;
  const auto push_round = [&] {
    for (int i = 0; i < kEvents; ++i) {
      sim::Duration d = sim::Duration::micros(37 * (i % 19));
      if (i % 61 == 0) d = sim::Duration::millis(200 + i % 7);
      if (i % 257 == 0) d = sim::Duration::seconds(2);
      loop.schedule_after(d, [&fired] { ++fired; });
    }
    loop.run();
  };
  push_round();  // warm slab, buckets, and near-heap capacity

  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    push_round();
    allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
  state.counters["allocs_per_event"] = benchmark::Counter(
      static_cast<double>(allocs) /
      static_cast<double>(state.iterations() * kEvents));
}
BENCHMARK(BM_WheelSchedule);

// The RTO rearm pattern TCP drives constantly: schedule a far-out timer,
// cancel or reschedule it before it fires, repeat. Wheel-resident cancels
// unlink in O(1) and recycle the slot immediately, so the churn must not
// touch the heap at steady state and must never leave tombstones behind.
void BM_WheelCancelChurn(benchmark::State& state) {
  sim::EventLoop loop;
  constexpr int kTimers = 256;
  int fired = 0;
  std::vector<sim::TimerHandle> handles(kTimers);
  const auto churn_round = [&] {
    for (int i = 0; i < kTimers; ++i) {
      handles[static_cast<std::size_t>(i)] = loop.schedule_after(
          sim::Duration::millis(200 + i % 50), [&fired] { ++fired; });
    }
    for (int i = 0; i < kTimers; ++i) {
      if (!loop.reschedule_after(handles[static_cast<std::size_t>(i)],
                                 sim::Duration::millis(100 + i % 50))) {
        std::abort();  // wheel-resident rearm must always succeed here
      }
    }
    for (sim::TimerHandle& h : handles) h.cancel();
    // Drive one dispatch so the loop advances even though everything was
    // cancelled; schedule one live event to run to.
    loop.schedule_after(sim::Duration::micros(10), [&fired] { ++fired; });
    loop.run();
  };
  churn_round();

  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    churn_round();
    allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * kTimers);
  state.counters["allocs_per_event"] = benchmark::Counter(
      static_cast<double>(allocs) /
      static_cast<double>(state.iterations() * kTimers));
}
BENCHMARK(BM_WheelCancelChurn);

// Many events at one instant: they share a granule, so a single refill
// drains the whole bucket into the near-heap and the FIFO (at, seq)
// tie-break decides the entire dispatch order. This is the batched-delivery
// shape the link layer produces under a packet burst.
void BM_SameInstantBurst(benchmark::State& state) {
  sim::EventLoop loop;
  constexpr int kEvents = 512;
  int fired = 0;
  const auto burst_round = [&] {
    const sim::TimePoint at = loop.now() + sim::Duration::micros(50);
    for (int i = 0; i < kEvents; ++i) {
      loop.schedule_at(at, [&fired] { ++fired; });
    }
    loop.run();
  };
  burst_round();

  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    burst_round();
    allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
  state.counters["allocs_per_event"] = benchmark::Counter(
      static_cast<double>(allocs) /
      static_cast<double>(state.iterations() * kEvents));
}
BENCHMARK(BM_SameInstantBurst);

// Steady-state allocation proof for the packet path: client link -> middlebox
// -> sink, with the sink recycling payloads into the loop's pool the way
// TcpStack::deliver does. Once the pool and queues are warmed, forwarding a
// 1200-byte payload end to end must be allocation-free (`allocs_per_packet`
// == 0).
void BM_PacketForwardSteadyState(benchmark::State& state) {
  sim::EventLoop loop;
  net::Link::Config lcfg;
  lcfg.delay = sim::Duration::micros(50);
  net::Link link(loop, lcfg, "bench");
  net::Middlebox mb(loop);
  link.set_sink([&mb](net::Packet&& p) { mb.on_from_client(std::move(p)); });
  std::uint64_t arrived = 0;
  mb.attach(
      [&](net::Packet&& p) {
        ++arrived;
        loop.payload_pool().release(std::move(p.payload));
      },
      [](net::Packet&&) {});

  constexpr int kPackets = 64;
  constexpr std::size_t kPayloadBytes = 1200;
  const auto push_burst = [&] {
    for (int i = 0; i < kPackets; ++i) {
      net::Packet p;
      p.id = static_cast<std::uint64_t>(i);
      p.payload = loop.payload_pool().acquire();
      p.payload.assign(kPayloadBytes, 0xab);
      link.send(std::move(p));
    }
    loop.run();
  };
  push_burst();  // warm the pool, the ring queue, and the event slab

  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    push_burst();
    allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
    benchmark::DoNotOptimize(arrived);
  }
  state.SetItemsProcessed(state.iterations() * kPackets);
  state.counters["allocs_per_packet"] = benchmark::Counter(
      static_cast<double>(allocs) /
      static_cast<double>(state.iterations() * kPackets));
}
BENCHMARK(BM_PacketForwardSteadyState);

void BM_RngU64(benchmark::State& state) {
  sim::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
}
BENCHMARK(BM_RngU64);

// The per-packet cost of the observability layer: a registered counter
// increment is one pointer dereference, and a record call against a disabled
// tracer is a single mask test. These bound the overhead instrumentation adds
// to the simulator's hot paths when tracing is off (the default).
void BM_MetricsCounterInc(benchmark::State& state) {
  obs::Counter c = obs::MetricsRegistry::instance().counter("bench.counter");
  for (auto _ : state) {
    c.inc();
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MetricsCounterInc);

void BM_TracerDisabledInstant(benchmark::State& state) {
  auto& tr = obs::Tracer::instance();
  tr.disable_all();
  const sim::TimePoint t = sim::TimePoint::origin();
  for (auto _ : state) {
    if (tr.enabled(obs::Component::kTcp)) {
      tr.instant(obs::Component::kTcp, "never", t, 1, 1);
    }
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TracerDisabledInstant);

// A disabled profiler probe — what every per-packet ProfileScope in
// net/tcp/tls/h2 costs in production runs: one thread-local context read,
// one branch, and a null test in the destructor. Should sit in the same
// ~sub-nanosecond band as the disabled tracer record above.
void BM_ProfilerDisabledScope(benchmark::State& state) {
  obs::profiler().set_enabled(false);
  for (auto _ : state) {
    obs::ProfileScope prof(obs::Component::kTcp);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ProfilerDisabledScope);

// The enabled cost, for scale: two clock reads plus a map touch per scope.
void BM_ProfilerEnabledScope(benchmark::State& state) {
  obs::profiler().set_enabled(true);
  obs::profiler().reset();
  for (auto _ : state) {
    obs::ProfileScope prof(obs::Component::kTcp);
    benchmark::ClobberMemory();
  }
  obs::profiler().set_enabled(false);
  obs::profiler().reset();
}
BENCHMARK(BM_ProfilerEnabledScope);

}  // namespace

BENCHMARK_MAIN();
