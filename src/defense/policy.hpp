#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "defense/padplan.hpp"
#include "sim/random.hpp"

namespace h2sim::defense {

/// Wire-level padding policy: decides, per response, how many body bytes the
/// server emits for an object. The padding bytes are produced by the server
/// application (web::ServerApp) and ride genuine DATA frames through the
/// h2/tls/tcp/net stack, so every observer — the gateway TrafficMonitor,
/// pcapng captures, the goldens — sees the defended wire, not a post-hoc
/// mutation of the site description.
///
/// The interface is deliberately header-only (pure virtuals, no out-of-line
/// members): web::ServerApp consumes it through a `const PaddingPolicy*`
/// without linking the defense library, which keeps the layering acyclic
/// (defense depends on web for dummy injection and site plans, not the
/// reverse).
class PaddingPolicy {
 public:
  virtual ~PaddingPolicy() = default;

  virtual std::string name() const = 0;

  /// Wire size (>= size) for one response serving an object of `size`
  /// plaintext bytes. `rng` is only drawn from when deterministic() is
  /// false, so deterministic policies never perturb the server's RNG
  /// stream relative to an undefended trial.
  virtual std::size_t padded_size(std::size_t size, sim::Rng& rng) const = 0;

  /// True when padded_size is a pure function of `size`. Deterministic
  /// policies need no per-response randomness and admit exact attacker
  /// size databases.
  virtual bool deterministic() const = 0;

  /// The attacker's knowledge of the scheme: the wire sizes an object of
  /// `size` bytes may be served at (the support of padded_size). For
  /// policies whose support is a continuum, returns the attacker's best
  /// single point estimate (the expected wire size).
  virtual std::vector<std::size_t> candidates(std::size_t size) const = 0;
};

/// Identity policy: wire size == plaintext size. Behaviourally identical to
/// serving with no policy installed; exists so sweeps can label the control
/// cell explicitly.
class NonePolicy final : public PaddingPolicy {
 public:
  std::string name() const override { return "none"; }
  std::size_t padded_size(std::size_t size, sim::Rng&) const override {
    return size;
  }
  bool deterministic() const override { return true; }
  std::vector<std::size_t> candidates(std::size_t size) const override {
    return {size};
  }
};

/// Largest padding quantum the parsers accept (16 MiB, far above any object
/// the simulated sites serve). Bounding it keeps QuantumPolicy::rounded free
/// of overflow for every realistic object size.
inline constexpr std::size_t kMaxQuantum = std::size_t{1} << 24;

/// Pads every response up to the next multiple of `quantum` — the classic
/// size-class defense.
class QuantumPolicy final : public PaddingPolicy {
 public:
  explicit QuantumPolicy(std::size_t quantum) : quantum_(quantum) {}

  std::string name() const override {
    return "quantum" + std::to_string(quantum_);
  }
  std::size_t padded_size(std::size_t size, sim::Rng&) const override {
    return rounded(size, quantum_);
  }
  bool deterministic() const override { return true; }
  std::vector<std::size_t> candidates(std::size_t size) const override {
    return {rounded(size, quantum_)};
  }
  std::size_t quantum() const { return quantum_; }

  static std::size_t rounded(std::size_t size, std::size_t quantum) {
    if (quantum <= 1) return size;
    return (size + quantum - 1) / quantum * quantum;
  }

 private:
  std::size_t quantum_;
};

/// Per-response uniform random padding: wire size is drawn uniformly from
/// [size, size * (1 + max_fraction)] on every response, so even two copies
/// of the same object differ on the wire. The attacker's best point
/// estimate is the distribution mean.
class RandomPolicy final : public PaddingPolicy {
 public:
  explicit RandomPolicy(double max_fraction) : max_fraction_(max_fraction) {}

  std::string name() const override;
  std::size_t padded_size(std::size_t size, sim::Rng& rng) const override;
  bool deterministic() const override { return false; }
  std::vector<std::size_t> candidates(std::size_t size) const override;
  double max_fraction() const { return max_fraction_; }

 private:
  double max_fraction_;
};

/// Reed–Reiter constrained padding: wire sizes drawn from a precomputed
/// PadPlan (see defense/padplan.hpp). Sizes the plan has never seen use its
/// deterministic fallback rule, so dummy objects cannot leak fresh sizes.
class ConstrainedPolicy final : public PaddingPolicy {
 public:
  explicit ConstrainedPolicy(std::shared_ptr<const PadPlan> plan);

  std::string name() const override { return "constrained"; }
  std::size_t padded_size(std::size_t size, sim::Rng& rng) const override;
  bool deterministic() const override { return deterministic_; }
  std::vector<std::size_t> candidates(std::size_t size) const override;
  const PadPlan& plan() const { return *plan_; }

 private:
  std::shared_ptr<const PadPlan> plan_;
  bool deterministic_ = true;  // degenerate distributions need no RNG
};

/// Declarative policy description, carried on TrialConfig (value semantics,
/// comparable, cheap to copy) and resolved to a live policy by
/// make_policy(). kNone resolves to nullptr so an undefended trial takes
/// exactly the historical code path.
struct PaddingSpec {
  enum class Kind { kNone, kQuantum, kRandom, kConstrained };
  Kind kind = Kind::kNone;
  std::size_t quantum = 0;        // kQuantum
  double random_fraction = 0.25;  // kRandom
  std::shared_ptr<const PadPlan> plan;  // kConstrained

  bool enabled() const { return kind != Kind::kNone; }

  static PaddingSpec none() { return {}; }
  static PaddingSpec quantum_pad(std::size_t quantum);
  static PaddingSpec random_pad(double max_fraction);
  static PaddingSpec constrained(std::shared_ptr<const PadPlan> plan);
};

/// Resolves a spec to a policy instance; nullptr for kNone (and for
/// kConstrained with no plan attached, which is a configuration error the
/// caller should have prevented — treated as undefended rather than UB).
std::unique_ptr<const PaddingPolicy> make_policy(const PaddingSpec& spec);

/// Parses the CLI syntax shared by the tools and benches:
///   "none" | "quantum:N" | "random:F" | "plan:FILE"
/// N is plain decimal digits (no sign or whitespace) in [2, kMaxQuantum]; F
/// is a finite fraction in (0, 4]. plan:FILE loads and parses the serialized
/// PadPlan at FILE. Returns nullopt on malformed or out-of-range text,
/// unreadable file, or invalid plan.
std::optional<PaddingSpec> parse_padding_spec(const std::string& text);

/// Human-readable tag for a spec ("none", "quantum3000", "random25",
/// "constrained") — stable across runs, used in NDJSON and bench labels.
std::string spec_name(const PaddingSpec& spec);

}  // namespace h2sim::defense
