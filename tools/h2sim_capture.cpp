// h2sim-capture: run one simulated trial with wire capture enabled and
// write the resulting PCAPNG file. This is the generator for the committed
// golden-trace corpus (tests/golden/): given the same seed, attack mode and
// vantage set it produces a byte-identical file on every machine, so CI can
// sha256-compare regenerated captures against the repository copies.
//
// Usage:
//   h2sim-capture --seed N --out FILE [--attack full|off|single:K]
//                 [--vantage gateway|client|server|all] [--sim-limit SECS]
//                 [--site default|small]
//                 [--wire-pad none|quantum:N|random:F|plan:FILE]
//
// --wire-pad installs a wire-level defense::PaddingSpec on the simulated
// server (defense/policy.hpp): padding bytes ride genuine DATA frames, so the
// written capture is the defended wire — the generator for the defended
// golden corpus.
//
// --site small shrinks the filler population (2 pre-objects, 8 fillers,
// 3 head fillers; html + the 8 emblems unchanged) so format/baseline golden
// files stay small; the attack-relevant objects are identical to default.
//
// Prints one NDJSON summary line (trial outcome + capture counters). Exits 1
// without it when the capture file could not be written.

#include <cstdio>
#include <optional>
#include <string>

#include "experiment/harness.hpp"
#include "obs/context.hpp"
#include "obs/json.hpp"
#include "sim/parse_number.hpp"

namespace {

using namespace h2sim;
using obs::json::quoted;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --seed N --out FILE [--attack full|off|single:K]\n"
               "          [--vantage gateway|client|server|all] [--sim-limit SECS]\n"
               "          [--site default|small]\n"
               "          [--wire-pad none|quantum:N|random:F|plan:FILE]\n",
               argv0);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  experiment::TrialConfig cfg;
  cfg.attack = experiment::full_attack_config();
  cfg.capture.client_vantage = false;
  cfg.capture.gateway_vantage = true;
  cfg.capture.server_vantage = false;
  std::string attack_mode = "full";
  int single_k = 0;  // K of --attack single:K, 0 otherwise

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--seed") {
      const char* v = next();
      if (!v || !sim::parse_number(v, &cfg.seed)) return usage(argv[0]);
    } else if (arg == "--out") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cfg.capture.path = v;
    } else if (arg == "--attack") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      attack_mode = v;
      single_k = 0;
      if (attack_mode == "full") {
        cfg.attack = experiment::full_attack_config();
      } else if (attack_mode == "off") {
        cfg.attack = experiment::TrialConfig::default_attack_off();
      } else if (attack_mode.rfind("single:", 0) == 0 &&
                 sim::parse_number(attack_mode.substr(7), &single_k) &&
                 single_k > 0) {
        // The upper bound depends on --site and is checked after parsing.
        cfg.attack = experiment::single_target_attack_config(single_k);
      } else {
        return usage(argv[0]);
      }
    } else if (arg == "--vantage") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      const std::string vantage = v;
      cfg.capture.client_vantage = false;
      cfg.capture.gateway_vantage = false;
      cfg.capture.server_vantage = false;
      if (vantage == "all") {
        cfg.capture.client_vantage = true;
        cfg.capture.gateway_vantage = true;
        cfg.capture.server_vantage = true;
      } else if (vantage == "gateway") {
        cfg.capture.gateway_vantage = true;
      } else if (vantage == "client") {
        cfg.capture.client_vantage = true;
      } else if (vantage == "server") {
        cfg.capture.server_vantage = true;
      } else {
        return usage(argv[0]);
      }
    } else if (arg == "--sim-limit") {
      const char* v = next();
      // At most 1e9 s, so the limit's nanosecond count fits in 64 bits.
      double secs = 0;
      if (!v || !sim::parse_number(v, &secs) || secs <= 0 || secs > 1e9) {
        return usage(argv[0]);
      }
      cfg.sim_limit = sim::Duration::seconds_f(secs);
    } else if (arg == "--wire-pad") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      auto spec = defense::parse_padding_spec(v);
      if (!spec) {
        std::fprintf(stderr, "h2sim-capture: bad --wire-pad spec '%s'\n", v);
        return usage(argv[0]);
      }
      cfg.defense.padding = std::move(*spec);
    } else if (arg == "--site") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      const std::string site = v;
      if (site == "small") {
        cfg.site.pre_objects = 2;
        cfg.site.filler_objects = 8;
        cfg.site.head_fillers = 3;
      } else if (site != "default") {
        return usage(argv[0]);
      }
    } else {
      return usage(argv[0]);
    }
  }
  if (cfg.capture.path.empty()) return usage(argv[0]);
  // single:K names the K-th GET of the page, so K cannot exceed the number
  // of objects the site serves.
  if (single_k > 0 && static_cast<std::size_t>(single_k) >
                           web::make_isidewith_site(cfg.site).objects().size()) {
    std::fprintf(stderr, "h2sim-capture: --attack %s is past the last GET\n",
                 attack_mode.c_str());
    return usage(argv[0]);
  }

  const experiment::TrialResult r = experiment::run_trial(cfg);
  if (obs::metrics().counter_value("capture.write_failures") > 0) {
    std::fprintf(stderr, "h2sim-capture: cannot write %s\n",
                 cfg.capture.path.c_str());
    return 1;
  }

  std::printf(
      "{\"type\":\"capture_run\",\"seed\":%llu,\"attack\":%s,"
      "\"wire_pad\":%s,"
      "\"out\":%s,\"page_complete\":%s,\"capture_packets\":%llu,"
      "\"capture_bytes\":%llu,\"records_observed\":%zu,\"gets_counted\":%d,"
      "\"predicted\":[",
      static_cast<unsigned long long>(cfg.seed), quoted(attack_mode).c_str(),
      quoted(cfg.defense.padding.name()).c_str(),
      quoted(cfg.capture.path).c_str(), r.page_complete ? "true" : "false",
      static_cast<unsigned long long>(r.capture_packets),
      static_cast<unsigned long long>(r.capture_bytes_written),
      r.records_observed, r.gets_counted);
  for (std::size_t j = 0; j < r.predicted.size(); ++j) {
    std::printf("%s%s", j ? "," : "", quoted(r.predicted[j]).c_str());
  }
  std::printf("],\"truth\":[");
  for (std::size_t j = 0; j < r.truth.size(); ++j) {
    std::printf("%s%d", j ? "," : "", r.truth[j]);
  }
  std::printf("]}\n");
  return 0;
}
