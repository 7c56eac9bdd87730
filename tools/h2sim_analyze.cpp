// h2sim-analyze: run the paper's offline analysis pipeline on a wire
// capture. Takes a PCAPNG file (exported by the simulator's capture
// subsystem, or any plain IPv4/TCP/TLS trace) plus a site profile, and
// emits NDJSON verdicts: observed GETs, boundary-detected objects with
// size-database matches, the predicted 8-emblem ranking, partial-inference
// results, and the obs metrics counters the live pipeline would record.
//
// Usage:
//   h2sim-analyze <capture.pcapng> [options]
//     --iface NAME        vantage interface to read (default: "gateway"
//                         when present, else the file's first interface)
//     --server-port N     TCP port identifying the server side (default 443)
//     --wire-pad SPEC     the wire-level defense::PaddingSpec the capture's
//                         server deployed (none|quantum:N|random:F|plan:FILE):
//                         size databases switch to the padded wire sizes, and
//                         each identified object gets a recovered-size line
//                         scoring the attacker's best size estimate against
//                         the site profile's original size (Morla's metric)
//     --tolerance F       size-identification relative tolerance (default .02)
//     --records           also emit one line per reconstructed TLS record
//
// Besides the per-object verdicts the tool always emits a
// size_error_summary line (recovered-size error distribution over the
// identified objects) and a defense_verdict line: whether the capture looks
// defended — size-class collisions in the adversary's own database and/or a
// conspicuous common divisor across detected object sizes.
//
// Exit status: 0 on success (whatever the verdicts), 1 on bad input.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/boundary.hpp"
#include "analysis/padding.hpp"
#include "analysis/partial.hpp"
#include "analysis/predictor.hpp"
#include "capture/reader.hpp"
#include "defense/policy.hpp"
#include "obs/context.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/parse_number.hpp"
#include "web/website.hpp"

namespace {

using namespace h2sim;
using obs::json::quoted;
using sim::parse_number;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <capture.pcapng> [--iface NAME] [--server-port N]\n"
               "          [--tolerance F] [--records]\n"
               "          [--wire-pad none|quantum:N|random:F|plan:FILE]\n",
               argv0);
  return 1;
}

struct Options {
  std::string file;
  std::string iface;
  int server_port = 443;
  defense::PaddingSpec wire_pad;
  double tolerance = 0.02;
  bool records = false;
};

std::optional<Options> parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--iface") {
      const char* v = next();
      if (!v) return std::nullopt;
      o.iface = v;
    } else if (arg == "--server-port") {
      const char* v = next();
      if (!v) return std::nullopt;
      if (!parse_number(v, &o.server_port) || o.server_port <= 0 ||
          o.server_port > 65535) {
        return std::nullopt;
      }
    } else if (arg == "--wire-pad") {
      const char* v = next();
      if (!v) return std::nullopt;
      auto spec = defense::parse_padding_spec(v);
      if (!spec) return std::nullopt;
      o.wire_pad = std::move(*spec);
    } else if (arg == "--tolerance") {
      const char* v = next();
      if (!v) return std::nullopt;
      if (!parse_number(v, &o.tolerance) || o.tolerance <= 0) {
        return std::nullopt;
      }
    } else if (arg == "--records") {
      o.records = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return std::nullopt;
    } else if (o.file.empty()) {
      o.file = arg;
    } else {
      return std::nullopt;
    }
  }
  if (o.file.empty()) return std::nullopt;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> opt = parse_args(argc, argv);
  if (!opt) return usage(argv[0]);

  capture::PcapReader reader;
  std::string error;
  if (!reader.open(opt->file, &error)) {
    std::fprintf(stderr, "h2sim-analyze: %s\n", error.c_str());
    return 1;
  }

  std::uint32_t iface = reader.default_interface();
  if (!opt->iface.empty()) {
    const auto found = reader.find_interface(opt->iface);
    if (!found) {
      std::fprintf(stderr, "h2sim-analyze: no interface named '%s' in %s\n",
                   opt->iface.c_str(), opt->file.c_str());
      return 1;
    }
    iface = *found;
  }
  if (reader.interfaces().empty()) {
    std::fprintf(stderr, "h2sim-analyze: %s has no interfaces\n",
                 opt->file.c_str());
    return 1;
  }

  std::printf("{\"type\":\"capture\",\"file\":%s,\"interfaces\":[",
              quoted(opt->file).c_str());
  for (std::size_t i = 0; i < reader.interfaces().size(); ++i) {
    std::printf("%s%s", i ? "," : "", quoted(reader.interfaces()[i].name).c_str());
  }
  std::printf("],\"iface\":%s,\"packets\":%zu,\"skipped_frames\":%llu}\n",
              quoted(reader.interfaces()[iface].name).c_str(),
              reader.packets_on(iface).size(),
              static_cast<unsigned long long>(reader.skipped_frames()));

  // Reassemble the vantage point's record stream through the live monitor
  // code path; its GET callback gives us the per-GET lines for free.
  capture::TlsRecordReassembler reassembler(
      {.server_port = static_cast<net::Port>(opt->server_port)});
  reassembler.monitor().on_get = [](int index, sim::TimePoint t) {
    std::printf("{\"type\":\"get\",\"index\":%d,\"t_ms\":%.6f}\n", index,
                t.to_millis());
  };
  reassembler.feed_all(std::span<const capture::CapturedPacket* const>(
      reader.packets_on(iface)));

  const analysis::PacketTrace& trace = reassembler.trace();
  if (opt->records) {
    for (const analysis::RecordObs& r : trace.records()) {
      std::printf(
          "{\"type\":\"record\",\"t_ms\":%.6f,\"dir\":\"%s\","
          "\"content_type\":%d,\"body_len\":%zu}\n",
          r.time.to_millis(), net::to_string(r.dir),
          static_cast<int>(r.type), r.body_len);
    }
  }

  // Site profile -> the adversary's pre-compiled size databases, exactly as
  // the live harness builds them: the attacker knows the wire scheme
  // (Kerckhoffs) and compiles one entry per wire size an object can be
  // served at.
  const analysis::SizeDatabases dbs = analysis::build_size_databases(
      web::make_isidewith_site(), opt->wire_pad, opt->tolerance);
  auto original_of = [&](const std::string& label) -> std::size_t {
    for (const auto& [l, s] : dbs.originals) {
      if (l == label) return s;
    }
    return 0;
  };

  const std::vector<analysis::DetectedObject> detections =
      analysis::detect_objects(trace);
  bool html_identified = false;
  std::vector<double> rel_errors;
  for (std::size_t i = 0; i < detections.size(); ++i) {
    const analysis::DetectedObject& d = detections[i];
    const auto emblem = dbs.emblems.identify(d.size_estimate);
    const auto html = dbs.html.identify(d.size_estimate);
    if (html) html_identified = true;
    std::printf(
        "{\"type\":\"object\",\"index\":%zu,\"size_estimate\":%zu,"
        "\"records\":%zu,\"start_ms\":%.6f,\"end_ms\":%.6f,"
        "\"ended_by_delimiter\":%s,",
        i, d.size_estimate, d.records, d.start.to_millis(), d.end.to_millis(),
        d.ended_by_delimiter ? "true" : "false");
    if (emblem) {
      std::printf("\"match\":%s,\"rel_error\":%.6f}\n",
                  quoted(emblem->label).c_str(), emblem->rel_error);
    } else if (html) {
      std::printf("\"match\":\"html\",\"rel_error\":%.6f}\n", html->rel_error);
    } else {
      std::printf("\"match\":null}\n");
    }

    // Recovered-size error (Morla's defender metric): the attacker's best
    // inversion of the wire size, scored against the profile's original.
    const std::string matched =
        emblem ? emblem->label : (html ? std::string("html") : std::string());
    if (!matched.empty()) {
      const std::size_t truth = original_of(matched);
      const std::size_t recovered = opt->wire_pad.estimate(d.size_estimate);
      const double err =
          truth == 0 ? 0.0
                     : std::abs(static_cast<double>(recovered) -
                                static_cast<double>(truth)) /
                           static_cast<double>(truth);
      rel_errors.push_back(err);
      std::printf(
          "{\"type\":\"size_error\",\"index\":%zu,\"object\":%s,"
          "\"wire_size\":%zu,\"recovered_size\":%zu,\"true_size\":%zu,"
          "\"rel_error\":%.6f}\n",
          i, quoted(matched).c_str(), d.size_estimate, recovered, truth,
          err);
    }
  }

  const analysis::SizeErrorStats err_stats =
      analysis::summarize_errors(rel_errors);
  std::printf(
      "{\"type\":\"size_error_summary\",\"wire_pad\":%s,\"count\":%zu,"
      "\"mean\":%.6f,\"p50\":%.6f,\"p90\":%.6f,\"max\":%.6f}\n",
      quoted(opt->wire_pad.name()).c_str(), err_stats.count,
      err_stats.mean, err_stats.p50, err_stats.p90, err_stats.max);

  const analysis::DefenseSuspicion suspicion =
      analysis::suspect_defense(detections, dbs.emblems);
  std::printf(
      "{\"type\":\"defense_verdict\",\"defense_suspected\":%s,"
      "\"db_collisions\":%d,\"inferred_quantum\":%zu,\"reason\":%s}\n",
      suspicion.suspected ? "true" : "false", suspicion.db_collisions,
      suspicion.inferred_quantum, quoted(suspicion.reason).c_str());

  const analysis::SequencePrediction pred =
      analysis::predict_sequence(detections, dbs.emblems);
  bool complete = pred.ranking.size() >= 8;
  std::printf("{\"type\":\"ranking\",\"positions\":[");
  for (std::size_t j = 0; j < pred.ranking.size(); ++j) {
    if (pred.ranking[j].empty()) complete = false;
    std::printf("%s%s", j ? "," : "",
                pred.ranking[j].empty() ? "null" : quoted(pred.ranking[j]).c_str());
  }
  std::printf("],\"complete\":%s,\"html_identified\":%s}\n",
              complete ? "true" : "false", html_identified ? "true" : "false");

  // Partial-multiplexing inference (§VII): explains multiplexed regions the
  // direct size match cannot.
  const analysis::PartialInference partial =
      analysis::infer_objects_partial(detections, dbs.emblems);
  std::printf(
      "{\"type\":\"partial\",\"direct_matches\":%d,\"subset_matches\":%d,"
      "\"unexplained_regions\":%d}\n",
      partial.direct_matches, partial.subset_matches,
      partial.unexplained_regions);

  // The same counters a live trial records: the monitor above ran against
  // the current obs context, so this is the genuine registry state, not a
  // re-derivation.
  const obs::MetricsSnapshot snap = obs::metrics().snapshot();
  std::printf("{\"type\":\"metrics\",\"counters\":{");
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    std::printf("%s%s:%llu", first ? "" : ",", quoted(name).c_str(),
                static_cast<unsigned long long>(value));
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
