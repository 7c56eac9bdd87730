#pragma once

#include <cstdint>
#include <utility>

#include "experiment/harness.hpp"

namespace h2sim::experiment {

/// A sweep's base config, copied once per seed. It shares nothing between
/// trials: run_trials shares a seed-independent site by itself.
class ScenarioTemplate {
 public:
  explicit ScenarioTemplate(TrialConfig base) : base_(std::move(base)) {}

  /// The config for one trial: the base with `seed` set.
  TrialConfig instantiate(std::uint64_t seed) const {
    TrialConfig cfg = base_;
    cfg.seed = seed;
    return cfg;
  }

 private:
  TrialConfig base_;
};

}  // namespace h2sim::experiment
