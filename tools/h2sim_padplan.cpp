// h2sim-padplan: compile a constrained-padding plan (Reed–Reiter style)
// for a site's object-size corpus under a bandwidth-overhead budget, and
// write it as deterministic single-line JSON. The output file is the input
// of a constrained defense::PaddingSpec (`--wire-pad plan:FILE` on
// h2sim-capture / h2sim-analyze, `plan:` cells of bench_defense_matrix):
// equal inputs produce byte-identical plan files on every machine, so plans
// can be committed and sha256-compared like the capture goldens.
//
// Usage:
//   h2sim-padplan --budget F [--site default|small] [--out FILE]
//
// With no --out the plan is printed to stdout. The summary line on stderr
// reports the achieved expected overhead and the minimum anonymity-set
// cardinality the plan guarantees.

#include <cstdio>
#include <string>

#include "defense/defenses.hpp"
#include "obs/json.hpp"
#include "sim/parse_number.hpp"
#include "web/website.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --budget F [--site default|small] [--out FILE]\n",
               argv0);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace h2sim;

  double budget = -1.0;
  std::string out_path;
  web::IsidewithConfig site_cfg;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--budget") {
      const char* v = next();
      if (!v || !sim::parse_number(v, &budget)) return usage(argv[0]);
    } else if (arg == "--out") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      out_path = v;
    } else if (arg == "--site") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      const std::string site = v;
      if (site == "small") {
        site_cfg.pre_objects = 2;
        site_cfg.filler_objects = 8;
        site_cfg.head_fillers = 3;
      } else if (site != "default") {
        return usage(argv[0]);
      }
    } else {
      return usage(argv[0]);
    }
  }
  if (budget < 0.0) return usage(argv[0]);

  const web::Website site = web::make_isidewith_site(site_cfg);
  const defense::PadPlan plan = defense::plan_for_site(site, budget);
  const std::string json = plan.serialize();

  if (out_path.empty()) {
    std::printf("%s\n", json.c_str());
  } else if (!obs::json::write_file(out_path, json + '\n')) {
    std::fprintf(stderr, "h2sim-padplan: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "h2sim-padplan: %zu size(s), budget %.4f, achieved overhead "
               "%.4f, min anonymity class %d\n",
               plan.entries.size(), plan.budget, plan.achieved_overhead,
               plan.min_class);
  return 0;
}
