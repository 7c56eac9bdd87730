#include "defense/policy.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

#include "sim/parse_number.hpp"

namespace h2sim::defense {

std::string RandomPolicy::name() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "random%.0f", max_fraction_ * 100.0);
  return buf;
}

std::size_t RandomPolicy::padded_size(std::size_t size, sim::Rng& rng) const {
  if (max_fraction_ <= 0.0 || size == 0) return size;
  const std::size_t span =
      static_cast<std::size_t>(max_fraction_ * static_cast<double>(size));
  return size + rng.uniform(span + 1);
}

std::vector<std::size_t> RandomPolicy::candidates(std::size_t size) const {
  // Continuum support: the attacker's best single guess is the mean wire
  // size, size * (1 + f/2).
  const std::size_t span =
      static_cast<std::size_t>(max_fraction_ * static_cast<double>(size));
  return {size + span / 2};
}

ConstrainedPolicy::ConstrainedPolicy(std::shared_ptr<const PadPlan> plan)
    : plan_(std::move(plan)) {
  for (const PadPlanEntry& e : plan_->entries) {
    if (e.targets.size() > 1) {
      deterministic_ = false;
      break;
    }
  }
}

std::size_t ConstrainedPolicy::padded_size(std::size_t size,
                                           sim::Rng& rng) const {
  const PadPlanEntry* e = plan_->find(size);
  if (!e) return plan_->fallback_target(size);
  if (e->targets.size() == 1) return e->targets[0].to;
  double roll = rng.uniform_real(0.0, 1.0);
  for (const PadTarget& t : e->targets) {
    roll -= t.p;
    if (roll <= 0.0) return t.to;
  }
  return e->targets.back().to;
}

std::vector<std::size_t> ConstrainedPolicy::candidates(
    std::size_t size) const {
  const PadPlanEntry* e = plan_->find(size);
  if (!e) return {plan_->fallback_target(size)};
  std::vector<std::size_t> out;
  out.reserve(e->targets.size());
  for (const PadTarget& t : e->targets) out.push_back(t.to);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

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

std::unique_ptr<const PaddingPolicy> make_policy(const PaddingSpec& spec) {
  switch (spec.kind) {
    case PaddingSpec::Kind::kNone:
      return nullptr;
    case PaddingSpec::Kind::kQuantum:
      if (spec.quantum <= 1) return nullptr;
      return std::make_unique<QuantumPolicy>(spec.quantum);
    case PaddingSpec::Kind::kRandom:
      if (spec.random_fraction <= 0.0) return nullptr;
      return std::make_unique<RandomPolicy>(spec.random_fraction);
    case PaddingSpec::Kind::kConstrained:
      if (!spec.plan) return nullptr;
      return std::make_unique<ConstrainedPolicy>(spec.plan);
  }
  return nullptr;
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
    std::ifstream in(text.substr(5));
    if (!in) return std::nullopt;
    std::ostringstream body;
    body << in.rdbuf();
    auto plan = PadPlan::parse(body.str());
    if (!plan) return std::nullopt;
    return PaddingSpec::constrained(
        std::make_shared<const PadPlan>(std::move(*plan)));
  }
  return std::nullopt;
}

std::string spec_name(const PaddingSpec& spec) {
  const auto policy = make_policy(spec);
  return policy ? policy->name() : "none";
}

}  // namespace h2sim::defense
