// Defense matrix: attack stage x defense.
//
// Each cell runs one attack stage (no attack / jitter-only / the full
// staged Section-V attack) against one defense: a wire-level padding scheme
// (none / quantum / randomized / Reed-Reiter constrained plan) or, in full
// mode, one of three non-padding defenses — 8 dummy objects of cover
// traffic, the paper's §VII client-side randomized request order, and a
// random server frame scheduler. Because padding rides genuine DATA frames
// (web::ServerApp + defense::PaddingSpec) and dummies are real responses,
// every cell measures the real trade the paper calls "unreasonable CPU and
// bandwidth overheads":
//
//   * attack accuracy  — the paper's per-stage success criterion, with the
//     adversary's size databases compiled from PaddingSpec::candidates()
//     (Kerckhoffs: the scheme is known, only the sizes are ambiguous);
//   * recovered-size error — Morla's defender metric: quantiles of the
//     attacker's best size-estimate error against the true object sizes;
//   * bandwidth overhead — observed server->client record payload vs the
//     undefended cell of the same stage (the gateway's own view);
//   * CPU overhead — wall-clock cost of the cell vs the undefended cell of
//     the same stage (padding bytes are simulated end to end, so defended
//     trials genuinely do more work).
//
// The random-scheduler row is the paper's core thesis in one number:
// shuffling how the server multiplexes changes nothing, because the attack
// removes multiplexing altogether.
//
// Every cell is annotated into BENCH_sweep.json ("acc_html", "acc_i1".."",
// "acc_mean", "acc_emblem_mean", "size_err_mean", "size_err_p50",
// "size_err_p90", "bw_overhead", "cpu_overhead") for the CI schema check
// and the perf gate. CI smoke-runs `bench_defense_matrix 4 smoke` and gates
// the result via bench/check_regression.py --strict-new; the full matrix
// feeds docs/DEFENSES.md.
//
// Usage: bench_defense_matrix [trials_per_cell=8] [full|smoke]

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/padding.hpp"
#include "defense/defenses.hpp"
#include "experiment/harness.hpp"
#include "experiment/table_printer.hpp"
#include "sweep_util.hpp"
#include "web/website.hpp"

namespace {

using namespace h2sim;

struct Stage {
  std::string name;
  attack::AttackConfig attack;
};

struct Defense {
  std::string name;
  defense::PaddingSpec spec;
  int dummies = 0;
  bool randomize_order = false;
  bool random_scheduler = false;
};

// Per-trial measurements collected by inspector closures. Each trial owns
// one slot; closures run on worker threads but never share a slot.
struct TrialProbe {
  std::vector<analysis::DetectedObject> detections;
  std::map<std::string, std::size_t> primary_wire_bytes;
  std::size_t observed_s2c_bytes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using experiment::TablePrinter;
  const char* synopsis = "[trials_per_cell] [full|smoke]";
  const int trials = bench::trials_arg(argc, argv, 8, synopsis);
  const bool smoke = argc > 2 && std::strcmp(argv[2], "smoke") == 0;
  if (argc > 2 && !smoke && std::strcmp(argv[2], "full") != 0) {
    bench::usage_exit(argv, synopsis);
  }

  // The public site: source of the attacker's ground truth and of the
  // constrained plan (compiled offline at a 10% bandwidth budget, exactly
  // what `h2sim-padplan --budget 0.10` emits).
  const web::Website site = web::make_isidewith_site();
  auto plan = std::make_shared<const defense::PadPlan>(
      defense::plan_for_site(site, 0.10));

  std::vector<Stage> stages;
  stages.push_back({"off", experiment::TrialConfig::default_attack_off()});
  if (!smoke) {
    stages.push_back(
        {"jitter", experiment::jitter_only_config(sim::Duration::millis(50))});
  }
  stages.push_back({"full", experiment::full_attack_config()});

  std::vector<Defense> defenses;
  defenses.push_back({"none", defense::PaddingSpec::none()});
  defenses.push_back({"q3000", defense::PaddingSpec::quantum_pad(3000)});
  if (!smoke) {
    defenses.push_back({"q12000", defense::PaddingSpec::quantum_pad(12000)});
    defenses.push_back({"random25", defense::PaddingSpec::random_pad(0.25)});
  }
  defenses.push_back({"plan10", defense::PaddingSpec::constrained(plan)});
  if (!smoke) {
    defenses.push_back({"dummies8", defense::PaddingSpec::none(), 8});
    defenses.push_back(
        {"order_random", defense::PaddingSpec::none(), 0, true});
    defenses.push_back(
        {"sched_random", defense::PaddingSpec::none(), 0, false, true});
  }

  // Truth originals: the 9 objects of interest (html + the 8 emblems).
  std::vector<std::pair<std::string, std::size_t>> interest;
  interest.emplace_back("html", site.find(site.html_path)->size);
  for (int k = 0; k < 8; ++k) {
    const std::string label = "party" + std::to_string(k);
    interest.emplace_back(
        label, site.find(site.emblem_paths[static_cast<std::size_t>(k)])->size);
  }

  bench::SweepSession sweep("bench_defense_matrix");
  TablePrinter table({"stage", "defense", "acc HTML", "acc I1-I8", "size err p50",
                      "size err p90", "bw ovh", "cpu ovh"});

  for (const Stage& stage : stages) {
    // The undefended cell of each stage anchors both overhead ratios.
    double baseline_bytes = 0.0;
    double baseline_wall = 0.0;

    for (const Defense& def : defenses) {
      const std::string label = "def_" + stage.name + "_" + def.name;

      experiment::TrialConfig proto;
      proto.attack = stage.attack;
      proto.defense.padding = def.spec;
      proto.defense.dummy_count = def.dummies;
      proto.browser.randomize_embedded_order = def.randomize_order;
      if (def.random_scheduler) {
        proto.server_h2.scheduler = h2::SchedulerKind::kRandom;
      }
      std::vector<experiment::TrialConfig> cfgs =
          bench::seed_sweep(proto, 50000, trials);

      // Per-trial probes: detections (the adversary's view), primary-copy
      // wire bytes per object (ground truth), and total observed
      // server->client record payload.
      std::vector<TrialProbe> probes(cfgs.size());
      for (std::size_t t = 0; t < cfgs.size(); ++t) {
        TrialProbe* probe = &probes[t];
        cfgs[t].trace_inspector = [probe](const analysis::PacketTrace& tr) {
          probe->detections = analysis::detect_objects(tr);
          for (const auto& rec : tr.records()) {
            if (rec.dir == net::Direction::kServerToClient) {
              probe->observed_s2c_bytes += rec.body_len;
            }
          }
        };
        cfgs[t].wire_log_inspector = [probe](const analysis::WireLog& log) {
          std::map<std::string, std::uint32_t> first_stream;
          for (const auto& ev : log.events()) {
            if (ev.object.empty() || !ev.is_data) continue;
            auto [it, fresh] = first_stream.try_emplace(ev.object, ev.stream_id);
            if (ev.stream_id == it->second) {
              probe->primary_wire_bytes[ev.object] += ev.data_bytes;
            }
          }
        };
      }

      const auto t0 = std::chrono::steady_clock::now();
      const std::vector<experiment::TrialResult> results =
          sweep.run(label, cfgs);
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();

      // Accuracy per stage criterion.
      std::vector<int> stage_hits(9, 0);
      for (const auto& r : results) {
        for (int s = 0; s < 9; ++s) {
          if (r.success[static_cast<std::size_t>(s)]) {
            ++stage_hits[static_cast<std::size_t>(s)];
          }
        }
      }
      const auto pct = [&](int hits) {
        return results.empty()
                   ? 0.0
                   : 100.0 * hits / static_cast<double>(results.size());
      };

      // Recovered-size error across all trials of the cell (Morla's metric).
      std::vector<double> rel_errors;
      std::size_t misses = 0;
      double cell_bytes = 0.0;
      for (const TrialProbe& probe : probes) {
        std::vector<analysis::PaddedTruth> truths;
        for (const auto& [obj_label, orig] : interest) {
          const auto it = probe.primary_wire_bytes.find(obj_label);
          if (it == probe.primary_wire_bytes.end()) continue;
          truths.push_back({obj_label, orig, it->second});
        }
        std::size_t trial_misses = 0;
        const auto samples = analysis::score_recovered_sizes(
            probe.detections, truths, def.spec, &trial_misses);
        for (const auto& s : samples) rel_errors.push_back(s.rel_error);
        misses += trial_misses;
        cell_bytes += static_cast<double>(probe.observed_s2c_bytes);
      }
      const analysis::SizeErrorStats err =
          analysis::summarize_errors(rel_errors, misses);

      if (def.name == "none") {
        baseline_bytes = cell_bytes;
        baseline_wall = wall;
      }
      const double bw_overhead =
          baseline_bytes > 0 ? cell_bytes / baseline_bytes - 1.0 : 0.0;
      const double cpu_overhead =
          baseline_wall > 0 ? wall / baseline_wall - 1.0 : 0.0;

      double emblem_sum = 0.0, mean_sum = 0.0;
      for (int s = 0; s < 9; ++s) {
        const double a = pct(stage_hits[static_cast<std::size_t>(s)]);
        mean_sum += a;
        if (s > 0) emblem_sum += a;
        sweep.annotate(label,
                       s == 0 ? "acc_html" : "acc_i" + std::to_string(s), a);
      }
      sweep.annotate(label, "acc_mean", mean_sum / 9.0);
      sweep.annotate(label, "acc_emblem_mean", emblem_sum / 8.0);
      sweep.annotate(label, "size_err_mean", err.mean);
      sweep.annotate(label, "size_err_p50", err.p50);
      sweep.annotate(label, "size_err_p90", err.p90);
      sweep.annotate(label, "size_err_misses", static_cast<double>(err.misses));
      sweep.annotate(label, "bw_overhead", bw_overhead);
      sweep.annotate(label, "cpu_overhead", cpu_overhead);

      char p50buf[32], p90buf[32], bwbuf[32], cpubuf[32];
      std::snprintf(p50buf, sizeof(p50buf), "%.3f", err.p50);
      std::snprintf(p90buf, sizeof(p90buf), "%.3f", err.p90);
      std::snprintf(bwbuf, sizeof(bwbuf), "%+.1f%%", bw_overhead * 100.0);
      std::snprintf(cpubuf, sizeof(cpubuf), "%+.1f%%", cpu_overhead * 100.0);
      table.add_row({stage.name, def.name, TablePrinter::pct(pct(stage_hits[0]), 0),
                     TablePrinter::pct(emblem_sum / 8.0, 0), p50buf, p90buf,
                     bwbuf, cpubuf});
    }
  }

  table.print("Defense matrix: attack stage x defense (" +
              std::to_string(trials) + " trials/cell)");
  std::printf(
      "plan10: %zu sizes, achieved overhead %.4f, min anonymity class %d\n",
      plan->entries.size(), plan->achieved_overhead, plan->min_class);
  std::printf(
      "perf record written to BENCH_sweep.json (accuracy, size-error "
      "quantiles, bw/cpu overhead per cell)\n");
  return 0;
}
