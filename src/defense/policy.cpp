#include "defense/policy.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>

#include "obs/json.hpp"
#include "sim/parse_number.hpp"

namespace h2sim::defense {

namespace {

using Kind = PaddingSpec::Kind;

/// The kind that takes effect: a spec that does not pad serves as none.
Kind effective_kind(const PaddingSpec& s) {
  return s.enabled() ? s.kind : Kind::kNone;
}

std::size_t round_up(std::size_t size, std::size_t quantum) {
  return (size + quantum - 1) / quantum * quantum;
}

/// Width of the random scheme's padding range for an object of `size`.
std::size_t random_span(double fraction, std::size_t size) {
  return static_cast<std::size_t>(fraction * static_cast<double>(size));
}

}  // namespace

PaddingSpec PaddingSpec::quantum_pad(std::size_t quantum) {
  PaddingSpec s;
  s.kind = Kind::kQuantum;
  s.quantum = quantum;
  return s;
}

PaddingSpec PaddingSpec::random_pad(double max_fraction) {
  PaddingSpec s;
  s.kind = Kind::kRandom;
  s.random_fraction = max_fraction;
  return s;
}

PaddingSpec PaddingSpec::constrained(std::shared_ptr<const PadPlan> plan) {
  PaddingSpec s;
  s.kind = Kind::kConstrained;
  s.plan = std::move(plan);
  return s;
}

bool PaddingSpec::enabled() const {
  switch (kind) {
    case Kind::kNone: return false;
    case Kind::kQuantum: return quantum > 1;
    case Kind::kRandom: return random_fraction > 0.0;
    case Kind::kConstrained: return plan != nullptr;
  }
  return false;
}

std::string PaddingSpec::name() const {
  switch (effective_kind(*this)) {
    case Kind::kNone: return "none";
    case Kind::kQuantum: return "quantum" + std::to_string(quantum);
    case Kind::kRandom: {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "random%.0f", random_fraction * 100.0);
      return buf;
    }
    case Kind::kConstrained: return "constrained";
  }
  return "none";
}

std::size_t PaddingSpec::padded_size(std::size_t size, sim::Rng& rng) const {
  switch (effective_kind(*this)) {
    case Kind::kNone: return size;
    case Kind::kQuantum: return round_up(size, quantum);
    case Kind::kRandom:
      if (size == 0) return size;
      return size + rng.uniform(random_span(random_fraction, size) + 1);
    case Kind::kConstrained: {
      const PadPlanEntry* e = plan->find(size);
      if (!e) return plan->fallback_target(size);
      if (e->targets.size() == 1) return e->targets[0].to;
      double roll = rng.uniform_real(0.0, 1.0);
      for (const PadTarget& t : e->targets) {
        roll -= t.p;
        if (roll <= 0.0) return t.to;
      }
      return e->targets.back().to;
    }
  }
  return size;
}

bool PaddingSpec::deterministic() const {
  switch (effective_kind(*this)) {
    case Kind::kNone:
    case Kind::kQuantum: return true;
    case Kind::kRandom: return false;
    case Kind::kConstrained:
      // Degenerate distributions (one target per entry) need no RNG.
      return std::none_of(
          plan->entries.begin(), plan->entries.end(),
          [](const PadPlanEntry& e) { return e.targets.size() > 1; });
  }
  return true;
}

std::vector<std::size_t> PaddingSpec::candidates(std::size_t size) const {
  switch (effective_kind(*this)) {
    case Kind::kNone: return {size};
    case Kind::kQuantum: return {round_up(size, quantum)};
    case Kind::kRandom:
      // Continuum support: the attacker's best single guess is the mean
      // wire size, size * (1 + f/2).
      return {size + random_span(random_fraction, size) / 2};
    case Kind::kConstrained: {
      const PadPlanEntry* e = plan->find(size);
      if (!e) return {plan->fallback_target(size)};
      std::vector<std::size_t> out;
      out.reserve(e->targets.size());
      for (const PadTarget& t : e->targets) out.push_back(t.to);
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
      return out;
    }
  }
  return {size};
}

std::size_t PaddingSpec::estimate(std::size_t observed) const {
  switch (effective_kind(*this)) {
    case Kind::kNone: return observed;
    case Kind::kQuantum: {
      if (observed == 0) return observed;
      // The original lies in (observed - q, observed]; midpoint guess.
      const std::size_t low = observed > quantum ? observed - quantum + 1 : 1;
      return (low + observed) / 2;
    }
    case Kind::kRandom:
      return static_cast<std::size_t>(std::llround(
          static_cast<double>(observed) / (1.0 + random_fraction / 2.0)));
    case Kind::kConstrained: {
      // Posterior mean over plan entries that could emit a wire size near
      // the observation (uniform prior over entries; each entry's
      // contribution weighted by its probability of hitting the target).
      double weight_sum = 0.0, size_sum = 0.0;
      for (const PadPlanEntry& e : plan->entries) {
        for (const PadTarget& t : e.targets) {
          const double rel =
              std::abs(static_cast<double>(t.to) -
                       static_cast<double>(observed)) /
              std::max<double>(1.0, static_cast<double>(observed));
          if (rel <= 0.02) {
            weight_sum += t.p;
            size_sum += t.p * static_cast<double>(e.size);
          }
        }
      }
      if (weight_sum <= 0.0) return observed;
      return static_cast<std::size_t>(std::llround(size_sum / weight_sum));
    }
  }
  return observed;
}

std::optional<PaddingSpec> parse_padding_spec(const std::string& text) {
  const std::string_view v(text);
  if (v == "none") return PaddingSpec::none();
  if (v.starts_with("quantum:")) {
    std::size_t q = 0;
    if (!sim::parse_number(v.substr(8), &q) || q <= 1 || q > kMaxQuantum) {
      return std::nullopt;
    }
    return PaddingSpec::quantum_pad(q);
  }
  if (v.starts_with("random:")) {
    double f = 0.0;
    if (!sim::parse_number(v.substr(7), &f) || f <= 0.0 || f > 4.0) {
      return std::nullopt;
    }
    return PaddingSpec::random_pad(f);
  }
  if (v.starts_with("plan:")) {
    std::string body;
    if (!obs::json::read_file(text.substr(5), body)) return std::nullopt;
    auto plan = PadPlan::parse(body);
    if (!plan) return std::nullopt;
    return PaddingSpec::constrained(
        std::make_shared<const PadPlan>(std::move(*plan)));
  }
  return std::nullopt;
}

}  // namespace h2sim::defense
