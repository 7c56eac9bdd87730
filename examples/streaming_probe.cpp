// §VII future-work probe: "Exploring other types of web traffic, such as
// streaming traffic". A DASH-like player fetches a video segment (from an
// adaptive bitrate ladder) plus an audio segment every 2 seconds over
// HTTP/2. Video and audio segments multiplex with each other, but a passive
// observer at the gateway can still read the player's quality adaptation off
// the *combined* region sizes — and the partial-multiplexing explainer
// (analysis/partial.hpp) splits them back into ladder rungs.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "analysis/boundary.hpp"
#include "analysis/partial.hpp"
#include "attack/monitor.hpp"
#include "cli_args.hpp"
#include "h2/client.hpp"
#include "h2/server.hpp"
#include "http/message.hpp"
#include "net/topology.hpp"
#include "tcp/tcp_stack.hpp"
#include "tls/session.hpp"
#include "web/server_app.hpp"
#include "web/website.hpp"

using namespace h2sim;

namespace {

// 2-second segments at the ladder bitrate (bits/s) -> bytes.
constexpr int kLadderKbps[] = {400, 1200, 2800, 5600};
constexpr std::size_t kAudioBytes = 24000;  // 96 kbps audio

std::size_t video_bytes(int rung) {
  return static_cast<std::size_t>(kLadderKbps[rung]) * 1000 / 8 * 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed =
      h2sim::examples::CliArgs(argc, argv, "[seed]").seed(1, 7);
  const int segments = 12;

  sim::EventLoop loop;
  sim::Rng rng(seed);

  net::Topology topo(loop, net::Topology::Config{}, 1);
  tcp::TcpStack server_stack(loop, rng.split(), net::Topology::kServerNode,
                             [&](net::Packet&& p) {
                               topo.send_from_server(std::move(p));
                             });
  tcp::TcpStack client_stack(loop, rng.split(), net::Topology::client_node(0),
                             [&](net::Packet&& p) {
                               topo.send_from_client(0, std::move(p));
                             });
  topo.set_server_sink([&](net::Packet&& p) { server_stack.deliver(std::move(p)); });
  topo.set_client_sink(0, [&](net::Packet&& p) { client_stack.deliver(std::move(p)); });

  // The streaming origin: every ladder rung x segment index, plus audio.
  web::Website site;
  for (int rung = 0; rung < 4; ++rung) {
    for (int s = 0; s < segments; ++s) {
      web::WebObject o;
      o.path = "/v/" + std::to_string(kLadderKbps[rung]) + "k/seg" + std::to_string(s);
      o.content_type = "video/mp4";
      o.size = video_bytes(rung);
      o.label = "v" + std::to_string(rung);
      site.add_object(o);
    }
  }
  for (int s = 0; s < segments; ++s) {
    web::WebObject o;
    o.path = "/a/seg" + std::to_string(s);
    o.content_type = "audio/mp4";
    o.size = kAudioBytes;
    o.label = "audio";
    site.add_object(o);
  }

  attack::TrafficMonitor monitor;
  topo.middlebox().add_tap(
      [&](const net::Packet& p, net::Direction d, sim::TimePoint t) {
        monitor.observe(p, d, t);
      });

  struct Srv {
    std::unique_ptr<tls::TlsSession> tls;
    std::unique_ptr<h2::ServerConnection> conn;
    std::unique_ptr<web::ServerApp> app;
  };
  std::vector<std::unique_ptr<Srv>> srv;
  web::ServerAppConfig app_cfg;
  app_cfg.speed_factor_lo = app_cfg.speed_factor_hi = 1.0;
  server_stack.listen(443, [&](tcp::TcpConnection& c) {
    auto s = std::make_unique<Srv>();
    s->tls = std::make_unique<tls::TlsSession>(c, tls::TlsSession::Role::kServer);
    s->conn = std::make_unique<h2::ServerConnection>(loop, *s->tls,
                                                     h2::ConnectionConfig{}, rng.split());
    s->app = std::make_unique<web::ServerApp>(loop, site, *s->conn, rng.split(),
                                              defense::PaddingSpec::none(), app_cfg);
    srv.push_back(std::move(s));
  });

  tcp::TcpConnection& ct = client_stack.connect(net::Topology::kServerNode, 443);
  tls::TlsSession ctls(ct, tls::TlsSession::Role::kClient);
  h2::ClientConnection cc(loop, ctls, h2::ConnectionConfig{}, rng.split());

  // The player: random-walk quality adaptation, one video+audio pair per 2 s.
  std::vector<int> truth;
  int rung = 1;
  h2::ClientConnection::Handlers handlers;
  cc.set_handlers(std::move(handlers));
  for (int s = 0; s < segments; ++s) {
    const int delta = static_cast<int>(rng.uniform(3)) - 1;  // -1, 0, +1
    rung = std::clamp(rung + delta, 0, 3);
    truth.push_back(rung);
    loop.schedule_at(sim::TimePoint::origin() + sim::Duration::millis(500 + 2000 * s),
                     [&cc, rung, s] {
                       http::Request vreq;
                       vreq.authority = "video.example";
                       vreq.path = "/v/" + std::to_string(kLadderKbps[rung]) + "k/seg" +
                                   std::to_string(s);
                       cc.send_request(vreq.to_h2_headers());
                       http::Request areq;
                       areq.authority = "video.example";
                       areq.path = "/a/seg" + std::to_string(s);
                       cc.send_request(areq.to_h2_headers());
                     });
  }
  loop.run(sim::TimePoint::origin() + sim::Duration::seconds(40));

  // The observer: 2-second idle gaps delimit segment pairs; the region total
  // = video + audio, so subtracting the (constant, learnable) audio size
  // reveals the rung. We let the subset-sum explainer do it blind.
  analysis::SizeIdentityDb db;
  for (int r = 0; r < 4; ++r) db.add("v" + std::to_string(r), video_bytes(r));
  db.add("audio", kAudioBytes);

  analysis::BoundaryConfig bc;
  bc.idle_gap = sim::Duration::millis(700);
  const auto detections = analysis::detect_objects(monitor.trace(), bc);

  if (argc > 2) {  // -v: dump raw detections
    for (const auto& d : detections) {
      std::printf("  region [%8.1f..%8.1f] est=%zu records=%zu delim=%d\n",
                  d.start.to_millis(), d.end.to_millis(), d.size_estimate,
                  d.records, d.ended_by_delimiter ? 1 : 0);
    }
  }

  // One playback tick = one burst of regions separated by ~1.4 s of silence;
  // each burst's byte total is exactly video(rung) + audio.
  std::vector<std::size_t> bursts;
  sim::TimePoint last_end;
  for (const auto& d : detections) {
    if (!bursts.empty() && d.start - last_end < sim::Duration::seconds(1)) {
      bursts.back() += d.size_estimate;
    } else {
      bursts.push_back(d.size_estimate);
    }
    last_end = d.end;
  }

  std::vector<int> inferred;
  for (const std::size_t total : bursts) {
    if (total < kAudioBytes) continue;  // handshake-era noise
    const auto expl =
        analysis::explain_region(total, db, analysis::PartialConfig{0.02, 2});
    if (!expl) continue;
    for (const auto& l : expl->labels) {
      if (l[0] == 'v') inferred.push_back(l[1] - '0');
    }
  }

  std::printf("DASH quality-ladder inference from encrypted traffic (seed %llu)\n\n",
              static_cast<unsigned long long>(seed));
  std::printf("segment : ");
  for (int s = 0; s < segments; ++s) std::printf("%3d", s);
  std::printf("\nplayer  : ");
  for (int r : truth) std::printf("%3d", r);
  std::printf("\nobserver: ");
  std::size_t hits = 0;
  for (std::size_t s = 0; s < static_cast<std::size_t>(segments); ++s) {
    if (s < inferred.size()) {
      std::printf("%3d", inferred[s]);
      if (inferred[s] == truth[s]) ++hits;
    } else {
      std::printf("  ?");
    }
  }
  std::printf("\n\nrecovered %zu/%d quality decisions — streaming segments are\n"
              "naturally paced, so the size side-channel needs no serialization\n"
              "attack at all; this is the §VII observation that the technique\n"
              "extends to streaming traffic.\n",
              hits, segments);
  return 0;
}
