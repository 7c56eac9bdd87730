// Reproduces Table II: prediction accuracy of the full staged attack
// (Section V) on the isidewith-like site. Two adversary targets:
//  - one object at a time: the trigger is placed at the target's GET, the
//    rest of the pipeline (drop -> reset -> serialize) runs as usual;
//  - all objects at once: the paper's full pipeline (trigger at the 6th GET,
//    then 80 ms spacing for the image burst).
//
// This bench doubles as the perf headline: the all-at-once sweep runs once
// single-threaded and once on all cores, and BENCH_sweep.json records the
// measured speedup (the two runs must agree bit-for-bit).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/stats.hpp"
#include "experiment/harness.hpp"
#include "experiment/sink.hpp"
#include "obs/aggregate.hpp"
#include "experiment/table_printer.hpp"
#include "sweep_util.hpp"

int main(int argc, char** argv) {
  using namespace h2sim;
  using experiment::TablePrinter;
  const int trials = bench::trials_arg(argc, argv, 100);
  bench::SweepSession sweep("bench_table2_accuracy");

  const char* names[] = {"HTML", "I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8"};
  const char* paper_all[] = {"90", "90", "85", "81", "80", "62", "64", "78", "64"};

  // --- All objects at once (the paper's headline result) ---
  // Broken connections count as failures for whatever the adversary had not
  // yet extracted: the trace up to the break is still evaluated, which is
  // precisely why the paper's accuracy declines for later images.
  experiment::TrialConfig all_proto;
  all_proto.attack = experiment::full_attack_config();
  const auto all_cfgs = bench::seed_sweep(all_proto, 90000, trials);
  const auto all_results = sweep.run_with_speedup("all-at-once", all_cfgs);

  std::vector<int> all_success(9, 0);
  int all_completed = 0, all_broken = 0;
  for (const auto& r : all_results) {
    if (r.page_complete) {
      ++all_completed;
    } else {
      ++all_broken;
    }
    for (int i = 0; i < 9; ++i) {
      if (r.success[static_cast<std::size_t>(i)]) ++all_success[static_cast<std::size_t>(i)];
    }
  }

  // --- Streamed campaign path (perf record only, no table rows) ---
  // The same all-at-once grid pushed through an AggregatingSink with
  // collect_results=false: the bounded-memory path tools/h2sim-campaign
  // uses. Recorded as campaign_trials_per_sec so check_regression.py can
  // gate the streaming overhead separately from the collected path, and
  // cross-checked here against the in-memory reduction of all_results.
  const auto campaign_labeler = [](std::size_t, const experiment::TrialConfig&) {
    return std::string("all-at-once");
  };
  const std::string streamed_ndjson =
      sweep.run_streamed("campaign-streamed", all_cfgs, campaign_labeler);
  obs::AggregateTable reference;
  for (std::size_t i = 0; i < all_results.size(); ++i) {
    experiment::apply_trial_record(
        reference, experiment::make_trial_record(i, all_cfgs[i],
                                                 "all-at-once", all_results[i]));
  }
  if (streamed_ndjson != reference.ndjson()) {
    std::fprintf(stderr,
                 "[sweep] campaign-streamed: AGGREGATE MISMATCH — streamed "
                 "sink differs from in-memory reduction\n");
    return 1;
  }

  // --- One object at a time ---
  // The paper reports 100 % per object; we trigger the disrupt phase at the
  // target's own GET. Fewer trials per object keep runtime sane. All nine
  // per-object sweeps go into one config list so the pool stays saturated.
  const int single_trials = std::max(10, trials / 4);
  std::vector<experiment::TrialConfig> single_cfgs;
  for (int obj = 0; obj < 9; ++obj) {
    for (int t = 0; t < single_trials; ++t) {
      experiment::TrialConfig cfg;
      cfg.seed = 91000 + static_cast<std::uint64_t>(obj * 1000 + t);
      const int target_get =
          obj == 0 ? experiment::html_get_index(cfg.site)
                   : experiment::emblem_get_index(cfg.site, obj - 1);
      cfg.attack = experiment::single_target_attack_config(target_get);
      single_cfgs.push_back(std::move(cfg));
    }
  }
  const auto single_results = sweep.run("one-at-a-time", single_cfgs);

  std::vector<int> single_success(9, 0), single_completed(9, 0);
  for (std::size_t i = 0; i < single_results.size(); ++i) {
    const int obj = static_cast<int>(i) / single_trials;
    const auto& r = single_results[i];
    ++single_completed[static_cast<std::size_t>(obj)];
    // Single-target success: that object serialized and identified (for
    // images: identified at the right burst position).
    if (r.success[static_cast<std::size_t>(obj)]) {
      ++single_success[static_cast<std::size_t>(obj)];
    }
  }

  TablePrinter table({"object", "one-at-a-time (paper)", "one-at-a-time (measured)",
                      "all-at-once (paper)", "all-at-once (measured)"});
  for (int i = 0; i < 9; ++i) {
    const double single_pct =
        single_completed[static_cast<std::size_t>(i)] > 0
            ? 100.0 * single_success[static_cast<std::size_t>(i)] /
                  single_completed[static_cast<std::size_t>(i)]
            : 0.0;
    const double all_pct =
        trials > 0 ? 100.0 * all_success[static_cast<std::size_t>(i)] / trials
                   : 0.0;
    table.add_row({names[i], "100%", TablePrinter::pct(single_pct, 0),
                   std::string(paper_all[i]) + "%", TablePrinter::pct(all_pct, 0)});
  }
  table.print("Table II: prediction accuracy (" + std::to_string(trials) +
              " full-attack downloads, " + std::to_string(single_trials) +
              " per single target)");
  std::printf("full attack: %d/%d downloads completed (%d broken)\n",
              all_completed, trials, all_broken);
  return 0;
}
