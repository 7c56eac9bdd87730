// The motivating contrast from the paper's introduction: HTTP/1.x object
// transmissions are strictly sequential, so a purely passive eavesdropper
// recovers every object size — this is the attack surface the HTTP/2
// multiplexing privacy schemes (and then this paper's adversary) respond to.
//
// Loads the isidewith object set over our HTTP/1.1 substrate and runs the
// boundary detector on the observed records.

#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/boundary.hpp"
#include "analysis/predictor.hpp"
#include "attack/monitor.hpp"
#include "experiment/table_printer.hpp"
#include "http/http1.hpp"
#include "net/topology.hpp"
#include "tcp/tcp_stack.hpp"
#include "tls/session.hpp"
#include "sweep_util.hpp"
#include "web/website.hpp"

using namespace h2sim;

int main(int argc, char** argv) {
  const int trials = bench::trials_arg(argc, argv, 20);
  const web::Website site = web::make_isidewith_site();

  int emblem_hits = 0, emblem_total = 0, order_hits = 0;
  for (int t = 0; t < trials; ++t) {
    sim::EventLoop loop;
    sim::Rng rng(5000 + static_cast<std::uint64_t>(t));

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
    topo.set_client_sink(
        0, [&](net::Packet&& p) { client_stack.deliver(std::move(p)); });

    attack::TrafficMonitor monitor;
    topo.middlebox().add_tap(
        [&](const net::Packet& p, net::Direction d, sim::TimePoint now) {
          monitor.observe(p, d, now);
        });

    std::unique_ptr<tls::TlsSession> server_tls;
    std::unique_ptr<http::Http1ServerConnection> server;
    server_stack.listen(443, [&](tcp::TcpConnection& c) {
      server_tls = std::make_unique<tls::TlsSession>(c, tls::TlsSession::Role::kServer);
      server = std::make_unique<http::Http1ServerConnection>(
          *server_tls, [&](const http::Request& req) {
            http::Response resp;
            const web::WebObject* obj = site.find(req.path);
            std::vector<std::uint8_t> body(obj ? obj->size : 0, 0x42);
            resp.status = obj ? 200 : 404;
            resp.content_type = obj ? obj->content_type : "text/plain";
            return std::make_pair(resp, std::move(body));
          });
    });

    tcp::TcpConnection& conn = client_stack.connect(net::Topology::kServerNode, 443);
    tls::TlsSession client_tls(conn, tls::TlsSession::Role::kClient);
    http::Http1ClientConnection client(client_tls);

    // The user's survey result: the image request order is the ranking.
    std::vector<int> perm = {0, 1, 2, 3, 4, 5, 6, 7};
    sim::Rng perm_rng(9000 + static_cast<std::uint64_t>(t));
    perm_rng.shuffle(perm);

    int completed = 0;
    for (const int party : perm) {
      http::Request req;
      req.authority = "www.isidewith.com";
      req.path = site.emblem_paths[static_cast<std::size_t>(party)];
      client.send_request(req, [&](const http::Response&, std::vector<std::uint8_t>) {
        ++completed;
      });
    }
    loop.run(sim::TimePoint::origin() + sim::Duration::seconds(30));
    if (completed != 8) continue;

    analysis::SizeIdentityDb db;
    for (int k = 0; k < 8; ++k) {
      db.add("party" + std::to_string(k),
             site.find(site.emblem_paths[static_cast<std::size_t>(k)])->size);
    }
    const auto detections = analysis::detect_objects(monitor.trace());
    const auto pred = analysis::predict_sequence(detections, db);

    for (int j = 0; j < 8; ++j) {
      ++emblem_total;
      const std::string want = "party" + std::to_string(perm[static_cast<std::size_t>(j)]);
      bool found = false;
      for (const auto& l : pred.ranking) {
        if (l == want) found = true;
      }
      if (found) ++emblem_hits;
      if (static_cast<std::size_t>(j) < pred.ranking.size() &&
          pred.ranking[static_cast<std::size_t>(j)] == want) {
        ++order_hits;
      }
    }
  }

  experiment::TablePrinter table({"metric", "measured"});
  table.add_row({"emblem sizes recovered",
                 experiment::TablePrinter::pct(100.0 * emblem_hits / emblem_total, 0)});
  table.add_row({"ranking positions correct",
                 experiment::TablePrinter::pct(100.0 * order_hits / emblem_total, 0)});
  table.print("HTTP/1.1 baseline: passive eavesdropper, no manipulation (" +
              std::to_string(trials) + " downloads)");
  std::printf("\npaper's premise: on HTTP/1.x the size side-channel needs no\n"
              "active adversary at all — sequential transmission exposes every\n"
              "object to the delimiter heuristic.\n");
  return 0;
}
