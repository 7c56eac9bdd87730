// Load matrix: attack-stage accuracy x client count on the shared gateway.
//
// Each cell runs the paper's full staged attack against the victim while
// N-1 background client stacks (bulk / poll / slow-drip mix, see
// experiment/background.hpp) contend for the same middlebox and uplink. The
// interesting effect is adversarial, not just throughput: the gateway
// monitor counts *every* client's GETs, so background requests shift the
// trigger index and dilute the spacing/drop phases — per-stage accuracy
// degrades as the gateway gets busier, which bounds how well the paper's
// attack survives on a realistically shared middlebox.
//
// Every cell is annotated into BENCH_sweep.json with its client count and
// per-stage accuracy ("clients", "acc_html", "acc_i1".."acc_i8",
// "acc_mean"), and each cell's streamed twin records
// campaign_trials_per_sec. CI smoke-runs `bench_load_matrix 4 1,16` and
// gates the result via bench/check_regression.py --strict-new; the full
// 1/8/64/256 matrix feeds docs/PERFORMANCE.md.
//
// Usage: bench_load_matrix [trials_per_cell=16] [client_counts_csv=1,8,64,256]

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "experiment/harness.hpp"
#include "experiment/sink.hpp"
#include "experiment/table_printer.hpp"
#include "obs/aggregate.hpp"
#include "sweep_util.hpp"

namespace {

/// Comma-separated positive client counts; empty when any item is malformed
/// or non-positive.
std::vector<int> parse_counts(std::string_view csv) {
  std::vector<int> counts;
  for (;;) {
    const std::size_t comma = csv.find(',');
    int v = 0;
    if (!h2sim::sim::parse_number(csv.substr(0, comma), &v) || v < 1) return {};
    counts.push_back(v);
    if (comma == std::string_view::npos) return counts;
    csv.remove_prefix(comma + 1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace h2sim;
  using experiment::TablePrinter;
  const char* synopsis = "[trials_per_cell] [counts_csv]";
  const int trials = bench::trials_arg(argc, argv, 16, synopsis);
  const std::vector<int> counts =
      parse_counts(argc > 2 ? argv[2] : "1,8,64,256");
  if (counts.empty()) bench::usage_exit(argv, synopsis);

  bench::SweepSession sweep("bench_load_matrix");

  // One base config for the whole matrix: cells differ only in their
  // background-client count.
  experiment::TrialConfig base;
  base.attack = experiment::full_attack_config();
  // Bound the background tail: the victim's page (attacked) completes well
  // inside this, and the bulk/poll/drip flows stop consuming events when the
  // clock runs out, keeping cell cost proportional to client count.
  base.sim_limit = sim::Duration::seconds(30);

  TablePrinter table({"clients", "acc HTML", "acc I1-I8 (mean)", "acc mean",
                      "pages complete"});

  for (const int clients : counts) {
    base.load.background_clients = clients - 1;
    const std::string label = "load_c" + std::to_string(clients);

    std::vector<experiment::TrialConfig> cfgs;
    cfgs.reserve(static_cast<std::size_t>(trials));
    for (int t = 0; t < trials; ++t) {
      cfgs.push_back(base);
      cfgs.back().seed = 70000 + static_cast<std::uint64_t>(t);
    }

    // Collected pass: accuracy + the gated trials/s and alloc ratios. The
    // single-client cell also measures parallel speedup (and re-proves the
    // sequential-vs-parallel determinism contract on this workload).
    const std::vector<experiment::TrialResult> results =
        clients == 1 ? sweep.run_with_speedup(label, cfgs)
                     : sweep.run(label, cfgs);

    // Streamed twin: the bounded-memory campaign path over the same configs,
    // cross-checked byte-for-byte against the in-memory reduction.
    const std::string streamed_label = label + "_streamed";
    const auto labeler = [&label](std::size_t, const experiment::TrialConfig&) {
      return label;
    };
    const std::string streamed_ndjson =
        sweep.run_streamed(streamed_label, cfgs, labeler);
    obs::AggregateTable reference;
    for (std::size_t i = 0; i < results.size(); ++i) {
      experiment::apply_trial_record(
          reference,
          experiment::make_trial_record(i, cfgs[i], label, results[i]));
    }
    if (streamed_ndjson != reference.ndjson()) {
      std::fprintf(stderr,
                   "[sweep] %s: AGGREGATE MISMATCH — streamed sink differs "
                   "from in-memory reduction\n",
                   streamed_label.c_str());
      return 1;
    }

    // Per-stage accuracy: fraction of trials where the paper's success
    // criterion held for the HTML (stage 0) and each emblem position.
    int complete = 0;
    std::vector<int> stage_hits(9, 0);
    for (const auto& r : results) {
      if (r.page_complete) ++complete;
      for (int s = 0; s < 9; ++s) {
        if (r.success[static_cast<std::size_t>(s)]) {
          ++stage_hits[static_cast<std::size_t>(s)];
        }
      }
    }
    const auto pct = [&](int hits) {
      return results.empty() ? 0.0
                             : 100.0 * hits / static_cast<double>(results.size());
    };
    double emblem_sum = 0.0, mean_sum = 0.0;
    sweep.annotate(label, "clients", clients);
    sweep.annotate(streamed_label, "clients", clients);
    for (int s = 0; s < 9; ++s) {
      const double a = pct(stage_hits[static_cast<std::size_t>(s)]);
      mean_sum += a;
      if (s > 0) emblem_sum += a;
      sweep.annotate(label,
                     s == 0 ? "acc_html" : "acc_i" + std::to_string(s), a);
    }
    sweep.annotate(label, "acc_mean", mean_sum / 9.0);

    table.add_row({std::to_string(clients),
                   TablePrinter::pct(pct(stage_hits[0]), 0),
                   TablePrinter::pct(emblem_sum / 8.0, 0),
                   TablePrinter::pct(mean_sum / 9.0, 0),
                   std::to_string(complete) + "/" +
                       std::to_string(results.size())});
  }

  table.print("Load matrix: full-attack accuracy vs gateway client count (" +
              std::to_string(trials) + " trials/cell)");
  std::printf(
      "perf record written to BENCH_sweep.json (trials/s and campaign "
      "trials/s per cell)\n");
  return 0;
}
