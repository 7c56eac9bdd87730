// Substrate microbenchmarks (google-benchmark): HPACK codec, Huffman coding,
// HTTP/2 frame codec, TLS record protection, and raw simulator event
// throughput. These quantify the cost of the building blocks the
// reproduction's Monte-Carlo trials lean on.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "capture/session.hpp"
#include "h2/client.hpp"
#include "h2/frame.hpp"
#include "h2/server.hpp"
#include "h2/stream.hpp"
#include "hpack/decoder.hpp"
#include "hpack/encoder.hpp"
#include "hpack/huffman.hpp"
#include "net/link.hpp"
#include "net/middlebox.hpp"
#include "net/topology.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/event_loop.hpp"
#include "sim/random.hpp"
#include "tcp/tcp_connection.hpp"
#include "tcp/tcp_stack.hpp"
#include "tls/record.hpp"
#include "tls/session.hpp"
#include "web/website.hpp"

// Process-wide heap allocation and byte counters. The steady-state benches
// below use delta snapshots around the measured region to prove the
// simulator hot path is allocation-free once warmed, and BM_SiteBuild
// reports the bytes a site build asks for; other benches ignore them.
//
// The replacement new/delete pair below is consistently malloc/free-based,
// but GCC's -Wmismatched-new-delete cannot see that when it inlines the
// delete into call sites and assumes the pointer came from the default new.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

std::atomic<std::uint64_t> g_heap_allocs{0};
std::atomic<std::uint64_t> g_heap_bytes{0};

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t n, std::align_val_t al) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(n, std::memory_order_relaxed);
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
  const std::vector<std::uint8_t> payload(static_cast<std::size_t>(state.range(0)),
                                          0xab);
  const h2::FrameView f{h2::FrameType::kData, 0, 5, payload};
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

// Steady-state allocation proof for the H2 data path: a server streams a bulk
// response to a client over TLS, TCP and the simulated topology, each DATA
// frame a 2 KiB borrowed span from the server's body to the client's handler.
// The stream queue borrows the body, so `body` is named and outlives every
// transfer. The first 4 MiB warm every pool and scratch buffer; after that,
// each iteration queues the body again on the same stream and runs until the
// client has it. `allocs_per_frame` (heap allocations per server DATA frame,
// WINDOW_UPDATEs and ACKs included) must be exactly 0.
void BM_H2DataFrameSteadyState(benchmark::State& state) {
  sim::EventLoop loop;
  net::Topology topo(loop, net::Topology::Config{}, 1);
  tcp::TcpStack server_stack(loop, sim::Rng(11), net::Topology::kServerNode,
                             [&topo](net::Packet&& p) { topo.send_from_server(std::move(p)); });
  tcp::TcpStack client_stack(loop, sim::Rng(12), net::Topology::client_node(0),
                             [&topo](net::Packet&& p) {
                               topo.send_from_client(0, std::move(p));
                             });
  topo.set_server_sink([&](net::Packet&& p) { server_stack.deliver(std::move(p)); });
  topo.set_client_sink(0, [&](net::Packet&& p) { client_stack.deliver(std::move(p)); });

  std::unique_ptr<tls::TlsSession> server_tls;
  std::unique_ptr<h2::ServerConnection> server;
  std::uint32_t stream = 0;
  server_stack.listen(443, [&](tcp::TcpConnection& c) {
    server_tls = std::make_unique<tls::TlsSession>(c, tls::TlsSession::Role::kServer,
                                                   tls::TlsSession::Protection::kElided);
    server = std::make_unique<h2::ServerConnection>(loop, *server_tls,
                                                    h2::ConnectionConfig{}, sim::Rng(21));
    h2::ServerConnection::Handlers sh;
    sh.on_request = [&](std::uint32_t sid, const hpack::HeaderList&) {
      stream = sid;
      server->respond_headers(sid, 200);
    };
    server->set_handlers(std::move(sh));
  });
  tls::TlsSession client_tls(client_stack.connect(net::Topology::kServerNode, 443),
                             tls::TlsSession::Role::kClient,
                             tls::TlsSession::Protection::kElided);
  h2::ClientConnection client(loop, client_tls, h2::ConnectionConfig{}, sim::Rng(22));
  std::uint64_t received = 0;
  std::uint64_t target = 0;
  h2::ClientConnection::Handlers ch;
  ch.on_response_data = [&](std::uint32_t, std::span<const std::uint8_t> b, bool) {
    received += b.size();
    if (received == target) loop.stop();
  };
  client.set_handlers(std::move(ch));
  loop.run(loop.now() + sim::Duration::seconds(1));
  client.send_request({{":method", "GET"}, {":scheme", "https"},
                       {":authority", "example.com"}, {":path", "/bulk"}});
  loop.run(loop.now() + sim::Duration::seconds(1));
  if (!server || stream == 0) {
    state.SkipWithError("request never reached the server");
    return;
  }

  const std::vector<std::uint8_t> body(4 << 20, 0xab);
  const auto transfer = [&] {
    target += body.size();
    server->send_body_chunk(stream, body, false);
    loop.run();
  };
  transfer();  // warm-up: pools, scratch buffers and the event slab

  const std::string frames_sent = "h2.server.frames_sent";
  std::uint64_t allocs = 0;
  std::uint64_t frames = 0;
  for (auto _ : state) {
    const std::uint64_t frames_before = obs::metrics().counter_value(frames_sent);
    const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    transfer();
    allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
    frames += obs::metrics().counter_value(frames_sent) - frames_before;
  }
  if (received != target) state.SkipWithError("transfer stalled");
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * body.size()));
  state.counters["allocs_per_frame"] =
      benchmark::Counter(static_cast<double>(allocs) / static_cast<double>(frames));
}
BENCHMARK(BM_H2DataFrameSteadyState)->Unit(benchmark::kMillisecond);

// The paper's server queue filling against a stalled peer (Figure 3, and
// Tripathi's slow read): each iteration opens a fresh stream whose send
// window is exhausted, queues a 256 KiB response body in the server app's
// 1 KiB chunks, and empties it with the RST_STREAM flush (Figure 6). The
// queue is a window over the body, so it must not allocate however far it
// grows: `allocs_per_chunk` must be exactly 0.
void BM_H2StalledQueueSteadyState(benchmark::State& state) {
  constexpr std::size_t kChunk = 1024;
  const std::vector<std::uint8_t> body(256 * 1024, 0x5a);
  const std::span<const std::uint8_t> all(body);
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    h2::Stream s(1, /*send_window=*/0, h2::kDefaultInitialWindow);
    for (std::size_t pos = 0; pos < body.size(); pos += kChunk) {
      s.enqueue(all.subspan(pos, kChunk), pos + kChunk == body.size());
    }
    benchmark::DoNotOptimize(s.queued_bytes());
    s.flush_queue();
    allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
  }
  const auto chunks = state.iterations() * static_cast<std::int64_t>(body.size() / kChunk);
  state.SetItemsProcessed(chunks);
  state.counters["allocs_per_chunk"] =
      benchmark::Counter(static_cast<double>(allocs) / static_cast<double>(chunks));
}
BENCHMARK(BM_H2StalledQueueSteadyState);

// Steady-state allocation proof for the capture write path: packets cross
// the client access link and the middlebox, whose gateway tap frames each
// one into the pcapng writer's buffer (flushed to /dev/null, so the bench
// writes no file). The warm-up passes the first flush, which opens the file;
// after that, capturing a 1200-byte packet must be allocation-free
// (`allocs_per_packet` == 0).
void BM_CaptureRecordSteadyState(benchmark::State& state) {
  sim::EventLoop loop;
  net::Topology topo(loop, net::Topology::Config{}, 1);
  topo.set_server_sink(
      [&loop](net::Packet&& p) { loop.payload_pool().release(std::move(p.payload)); });
  capture::CaptureConfig cfg;
  cfg.path = "/dev/null";
  capture::CaptureSession cap(loop, topo, cfg);

  constexpr int kPackets = 64;
  constexpr std::size_t kPayloadBytes = 1200;
  const auto push_burst = [&] {
    for (int i = 0; i < kPackets; ++i) {
      net::Packet p;
      p.id = static_cast<std::uint64_t>(i);
      p.src = net::Topology::client_node(0);
      p.dst = net::Topology::kServerNode;
      p.tcp.flags = net::tcpflag::kAck;
      p.payload = loop.payload_pool().acquire();
      p.payload.assign(kPayloadBytes, static_cast<std::uint8_t>(i));
      topo.send_from_client(0, std::move(p));
    }
    loop.run();
  };
  // The registry outlives this run, so count from where it stands now.
  const auto counter = [](const char* name) { return obs::metrics().counter_value(name); };
  const std::uint64_t bytes_start = counter("capture.bytes_written");
  // Past the first flush: the file is open and every buffer is warm.
  while (counter("capture.bytes_written") - bytes_start < 2 * capture::PcapngWriter::kFlushBytes) {
    push_burst();
  }

  std::uint64_t allocs = 0;
  std::uint64_t packets = 0;
  for (auto _ : state) {
    const std::uint64_t packets_before = counter("capture.packets");
    const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    push_burst();
    allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
    packets += counter("capture.packets") - packets_before;
  }
  if (!cap.close()) state.SkipWithError("capture write failed");
  state.SetItemsProcessed(static_cast<std::int64_t>(packets));
  state.counters["allocs_per_packet"] =
      benchmark::Counter(static_cast<double>(allocs) / static_cast<double>(packets));
}
BENCHMARK(BM_CaptureRecordSteadyState);

// Lossless bulk transfer between two TCP endpoints over a 5 ms one-way wire,
// with the receive window (and so the flight the sender keeps) set by the
// argument. Each iteration moves 4 MiB through an already-open window. The
// `ns_per_segment` counter is wall time per segment handled by either end;
// it should not grow with the window, since acking and reassembly cost
// O(segments retired), not O(segments in flight).
void BM_TcpBulkTransfer(benchmark::State& state) {
  sim::EventLoop loop;
  tcp::TcpConfig cfg;
  cfg.recv_window = static_cast<std::size_t>(state.range(0));
  std::unique_ptr<tcp::TcpConnection> client, server;
  const auto wire = [&loop](std::unique_ptr<tcp::TcpConnection>& to) {
    return [&loop, &to](net::Packet&& p) {
      loop.schedule_after(sim::Duration::millis(5),
                          [&loop, &to, p = std::move(p)]() mutable {
                            to->handle_segment(p);
                            loop.payload_pool().release(std::move(p.payload));
                          });
    };
  };
  client = std::make_unique<tcp::TcpConnection>(loop, cfg, 1, 1000, 2, 443,
                                                wire(server), 1000);
  server = std::make_unique<tcp::TcpConnection>(loop, cfg, 2, 443, 1, 1000,
                                                wire(client), 5000);
  std::uint64_t delivered = 0;
  tcp::TcpConnection::Callbacks cbs;
  cbs.on_data = [&delivered](std::span<const std::uint8_t> b) {
    delivered += b.size();
  };
  server->set_callbacks(std::move(cbs));

  const std::vector<std::uint8_t> chunk(4 << 20, 0xab);
  const auto segments = [] {
    return obs::metrics().counter_value("tcp.segments_received");
  };
  client->connect();
  client->send(chunk);
  loop.run();  // handshake, then slow start opens the window fully

  std::uint64_t handled = 0;
  std::chrono::nanoseconds elapsed{0};
  for (auto _ : state) {
    const std::uint64_t before = segments();
    const auto t0 = std::chrono::steady_clock::now();
    client->send(chunk);
    loop.run();
    elapsed += std::chrono::steady_clock::now() - t0;
    handled += segments() - before;
  }
  benchmark::DoNotOptimize(delivered);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * chunk.size()));
  state.counters["ns_per_segment"] = benchmark::Counter(
      static_cast<double>(elapsed.count()) / static_cast<double>(handled));
}
BENCHMARK(BM_TcpBulkTransfer)
    ->Arg(64 << 10)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

void BM_RngU64(benchmark::State& state) {
  sim::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
}
BENCHMARK(BM_RngU64);

// Building the isidewith site. Every object body is a window of one pattern
// of about the largest object (258.5 KB), so a build asks the heap for far
// less than the 4.25 MB the bodies add up to. Reported as
// `heap_bytes_per_build`; CI requires it under 1 MiB.
void BM_SiteBuild(benchmark::State& state) {
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const std::uint64_t before = g_heap_bytes.load(std::memory_order_relaxed);
    const web::Website site = web::make_isidewith_site();
    bytes += g_heap_bytes.load(std::memory_order_relaxed) - before;
    benchmark::DoNotOptimize(&site);
  }
  state.counters["heap_bytes_per_build"] = benchmark::Counter(
      static_cast<double>(bytes) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_SiteBuild);

// The per-packet cost of the observability layer: a registered counter
// increment is one pointer dereference, and a record call against a disabled
// tracer is a single mask test. These bound the overhead instrumentation adds
// to the simulator's hot paths when tracing is off (the default).
void BM_MetricsCounterInc(benchmark::State& state) {
  obs::Counter c = obs::metrics().counter("bench.counter");
  for (auto _ : state) {
    c.inc();
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MetricsCounterInc);

void BM_TracerDisabledInstant(benchmark::State& state) {
  auto& tr = obs::tracer();
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
