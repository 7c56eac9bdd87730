// Runs one attacked trial with full tracing enabled and exports the
// simulation timeline:
//   trial.trace.json   : Chrome trace-event JSON — open in Perfetto
//                        (https://ui.perfetto.dev) or chrome://tracing. The
//                        client/server/network/adversary tracks show the GET
//                        spacing, the drop window, the client's RST_STREAM
//                        sweep (the paper's Figure 6 flush), and the
//                        serialized re-request burst.
//   trial.metrics.json : every registry counter/gauge/histogram for the
//                        trial; the retransmit/drop/reissue counters match
//                        the printed TrialResult exactly.
//   trial.events.ndjson: the same events, one JSON object per line — the
//                        grep-able narrative of the trial.
//
// Usage: timeline_demo [seed] [prefix]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "cli_args.hpp"
#include "experiment/harness.hpp"
#include "obs/context.hpp"
#include "obs/json.hpp"

int main(int argc, char** argv) {
  using namespace h2sim;
  experiment::TrialConfig cfg;
  const examples::CliArgs args(argc, argv, "[seed] [output-prefix]");
  cfg.seed = args.seed(1, 1);
  const std::string prefix = args.str(2, "trial");
  cfg.attack = experiment::full_attack_config();

  // Record everything: every instrumented layer onto the shared timeline.
  // A standalone run_trial reports to the current context, so the tracer and
  // registry read back below hold exactly this trial.
  obs::tracer().enable_all();

  const experiment::TrialResult r = experiment::run_trial(cfg);

  const std::string trace_path = prefix + ".trace.json";
  const std::string events_path = prefix + ".events.ndjson";
  const std::string metrics_path = prefix + ".metrics.json";
  const auto& events = obs::tracer().events();
  const std::pair<const std::string&, std::string> outputs[] = {
      {trace_path, obs::chrome_trace_json(events)},
      {events_path, obs::ndjson(events)},
      {metrics_path, obs::metrics_json(obs::metrics().snapshot())},
  };
  for (const auto& [path, body] : outputs) {
    if (!obs::json::write_file(path, body)) {
      std::fprintf(stderr, "timeline_demo: cannot write %s\n", path.c_str());
      return 1;
    }
  }

  std::printf("attacked trial, seed %llu: page %s in %.2fs\n",
              static_cast<unsigned long long>(cfg.seed),
              r.page_complete ? "complete" : "INCOMPLETE", r.page_load_seconds);
  std::printf("  reset sweeps:      %d  (Fig. 6 RST_STREAM flush%s)\n",
              r.reset_sweeps, r.reset_sweeps > 0 ? " engaged" : " not seen");
  std::printf("  tcp retransmits:   %llu (fast %llu + rto %llu)\n",
              static_cast<unsigned long long>(r.tcp_retransmits),
              static_cast<unsigned long long>(r.tcp_fast_retransmits),
              static_cast<unsigned long long>(r.tcp_rto_retransmits));
  std::printf("  browser reissues:  %d\n", r.browser_reissues);
  std::printf("  adversary drops:   %llu, requests spaced: %llu\n",
              static_cast<unsigned long long>(r.adversary_drops),
              static_cast<unsigned long long>(r.requests_spaced));
  std::printf("%zu trace events -> %s (load in https://ui.perfetto.dev)\n",
              events.size(), trace_path.c_str());
  std::printf("one event per line -> %s\n", events_path.c_str());
  std::printf("metrics snapshot -> %s\n", metrics_path.c_str());
  return 0;
}
