// h2sim-campaign: streaming Monte-Carlo campaign driver. Composes a config
// grid from attack/defense axes, runs it in waves with bounded memory,
// spills per-trial records as SHA256-manifested NDJSON shards, and keeps
// per-cell online aggregates (Welford mean/variance/min/max + 95% CI) that
// survive kill-and-resume byte-identically (see experiment/campaign.hpp).
//
// Usage:
//   h2sim-campaign --out DIR [--trials N] [--wave-seeds N] [--seed-base N]
//                  [--attack off,full] [--pad 0,256] [--dummies 0,2]
//                  [--jobs N] [--resume] [--report-interval SECS]
//                  [--ci-stop HALFWIDTH [--ci-stop-field F]
//                   [--ci-stop-min N]] [--profile] [--max-trials N]
//                  [--site default|small] [--quiet]
//
// The grid is the cross product of the comma-separated axis lists; each cell
// is labeled "attack=A,pad=P,dummies=D". Live telemetry (trials/s, ETA,
// per-cell CI width) goes to stderr; one NDJSON summary line goes to stdout.
// --resume continues from DIR/manifest.json and refuses grids that don't
// match the manifest's config digest. A numeric option or list item that is
// not a complete number prints the usage and exits with status 2.

#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "experiment/campaign.hpp"

namespace {

using namespace h2sim;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --out DIR [--trials N] [--wave-seeds N] [--seed-base N]\n"
      "          [--attack off,full] [--pad LIST] [--dummies LIST]\n"
      "          [--jobs N] [--resume] [--report-interval SECS]\n"
      "          [--ci-stop HALFWIDTH] [--ci-stop-field FIELD]\n"
      "          [--ci-stop-min N] [--profile] [--max-trials N]\n"
      "          [--site default|small] [--quiet]\n",
      argv0);
  return 1;
}

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t end = s.find(',', start);
    if (end == std::string::npos) end = s.size();
    if (end > start) out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

/// Parses `s` as a whole number or, for double, a finite real; false on
/// trailing characters, an empty string, a sign on an unsigned type, or a
/// value out of range.
template <typename T>
bool parse_number(std::string_view s, T* out) {
  T v{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size()) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return false;
  }
  *out = v;
  return true;
}

[[noreturn]] void bad_number(const char* argv0, const char* option,
                             std::string_view got) {
  std::fprintf(stderr, "%s: invalid %s value '%.*s'\n", argv0, option,
               static_cast<int>(got.size()), got.data());
  usage(argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  experiment::CampaignOptions opts;
  std::vector<std::string> attacks = {"off"};
  std::vector<std::string> pads = {"0"};
  std::vector<std::string> dummies = {"0"};
  bool small_site = false;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    // The option's value parsed as a number; usage and exit 2 if malformed.
    auto number = [&](auto* out) {
      const char* v = next();
      if (!v) std::exit(usage(argv[0]));
      if (!parse_number(v, out)) bad_number(argv[0], arg.c_str(), v);
    };
    if (arg == "--out") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.out_dir = v;
    } else if (arg == "--trials") {
      number(&opts.trials_per_cell);
    } else if (arg == "--wave-seeds") {
      number(&opts.wave_seeds);
    } else if (arg == "--seed-base") {
      number(&opts.seed_base);
    } else if (arg == "--attack") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      attacks = split_list(v);
    } else if (arg == "--pad") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      pads = split_list(v);
    } else if (arg == "--dummies") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      dummies = split_list(v);
    } else if (arg == "--jobs") {
      number(&opts.jobs);
    } else if (arg == "--resume") {
      opts.resume = true;
    } else if (arg == "--report-interval") {
      number(&opts.report_interval_seconds);
    } else if (arg == "--ci-stop") {
      number(&opts.ci_stop_halfwidth);
    } else if (arg == "--ci-stop-field") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.ci_stop_field = v;
    } else if (arg == "--ci-stop-min") {
      number(&opts.ci_stop_min_trials);
    } else if (arg == "--profile") {
      opts.profile = true;
    } else if (arg == "--max-trials") {
      number(&opts.max_trials_this_run);
    } else if (arg == "--site") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      if (std::strcmp(v, "small") == 0) {
        small_site = true;
      } else if (std::strcmp(v, "default") != 0) {
        return usage(argv[0]);
      }
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (opts.out_dir.empty()) return usage(argv[0]);

  std::vector<std::size_t> pad_values(pads.size());
  for (std::size_t k = 0; k < pads.size(); ++k) {
    if (!parse_number(pads[k], &pad_values[k])) bad_number(argv[0], "--pad", pads[k]);
  }
  std::vector<int> dummy_values(dummies.size());
  for (std::size_t k = 0; k < dummies.size(); ++k) {
    if (!parse_number(dummies[k], &dummy_values[k]) || dummy_values[k] < 0) {
      bad_number(argv[0], "--dummies", dummies[k]);
    }
  }

  // Grid: cross product of the axes, labeled deterministically. Labels feed
  // the manifest's config digest, so axis order is part of the contract.
  for (const std::string& attack : attacks) {
    for (std::size_t p = 0; p < pads.size(); ++p) {
      for (std::size_t d = 0; d < dummies.size(); ++d) {
        experiment::CampaignCell cell;
        cell.label =
            "attack=" + attack + ",pad=" + pads[p] + ",dummies=" + dummies[d];
        if (attack == "full") {
          cell.base.attack = experiment::full_attack_config();
        } else if (attack == "off") {
          cell.base.attack = experiment::TrialConfig::default_attack_off();
        } else {
          std::fprintf(stderr, "unknown attack mode: %s\n", attack.c_str());
          return usage(argv[0]);
        }
        cell.base.defense.pad_quantum = pad_values[p];
        cell.base.defense.dummy_count = dummy_values[d];
        if (small_site) {
          cell.base.site.pre_objects = 2;
          cell.base.site.filler_objects = 8;
          cell.base.site.head_fillers = 3;
        }
        opts.cells.push_back(std::move(cell));
      }
    }
  }

  if (!quiet) {
    opts.on_report = [](const experiment::CampaignReport& r) {
      std::fprintf(stderr,
                   "[wave %" PRIu64 "] %" PRIu64 "/%" PRIu64
                   " trials, %.1f trials/s, eta %.0fs",
                   r.wave, r.trials_done, r.trials_target, r.trials_per_sec,
                   r.eta_seconds);
      for (const auto& c : r.cell_status) {
        std::fprintf(stderr, " | %s: n=%" PRIu64 " ci=%.4g%s", c.label.c_str(),
                     c.trials, c.ci95, c.stopped ? " (stopped)" : "");
      }
      std::fprintf(stderr, "\n");
    };
  }

  const experiment::CampaignOutcome out = experiment::run_campaign(opts);
  if (!out.ok) {
    std::fprintf(stderr, "%s\n", out.error.c_str());
    return 1;
  }

  std::printf("{\"type\":\"campaign\",\"cells\":%zu,\"trials_total\":%" PRIu64
              ",\"trials_run\":%" PRIu64
              ",\"complete\":%s,\"aggregates\":\"%s\",\"manifest\":\"%s\","
              "\"peak_rss_kb\":%ld}\n",
              opts.cells.size(), out.trials_total, out.trials_run,
              out.complete ? "true" : "false", out.aggregates_path.c_str(),
              out.manifest_path.c_str(), out.peak_rss_kb);
  return 0;
}
