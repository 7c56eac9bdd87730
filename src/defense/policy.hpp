#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "defense/padplan.hpp"
#include "sim/random.hpp"

namespace h2sim::defense {

/// Largest padding quantum the parsers accept (16 MiB, far above any object
/// the simulated sites serve). Bounding it keeps the quantum rounding free
/// of overflow for every realistic object size.
inline constexpr std::size_t kMaxQuantum = std::size_t{1} << 24;

/// Wire-level padding scheme: decides, per response, how many body bytes the
/// server emits for an object, and how the attacker inverts that. The
/// padding bytes are produced by the server application (web::ServerApp)
/// and ride genuine DATA frames through the h2/tls/tcp/net stack, so every
/// observer — the gateway TrafficMonitor, pcapng captures, the goldens —
/// sees the defended wire, not a post-hoc mutation of the site description.
///
/// A value type, cheap to copy, carried on TrialConfig::defense and handed
/// to each web::ServerApp.
/// The kinds:
///   * none        -> wire size == plaintext size
///   * quantum q   -> pad up to the next multiple of q (the classic
///                    size-class defense)
///   * random f    -> wire size drawn uniformly from [size, size * (1 + f)]
///                    on every response, so two copies of one object differ
///   * constrained -> Reed–Reiter constrained padding: wire sizes drawn from
///                    a precomputed PadPlan; sizes the plan has never seen
///                    use its deterministic fallback rule, so dummy objects
///                    cannot leak fresh sizes
/// A degenerate spec (quantum <= 1, random <= 0, constrained with no plan)
/// is undefended in every respect: enabled() is false and every method
/// behaves exactly as for none.
struct PaddingSpec {
  enum class Kind { kNone, kQuantum, kRandom, kConstrained };
  Kind kind = Kind::kNone;
  std::size_t quantum = 0;        // kQuantum
  double random_fraction = 0.25;  // kRandom
  std::shared_ptr<const PadPlan> plan;  // kConstrained

  static PaddingSpec none() { return {}; }
  static PaddingSpec quantum_pad(std::size_t quantum);
  static PaddingSpec random_pad(double max_fraction);
  static PaddingSpec constrained(std::shared_ptr<const PadPlan> plan);

  /// Whether the spec pads at all; false for none and every degenerate spec.
  bool enabled() const;

  /// Stable tag ("none", "quantum3000", "random25", "constrained") used in
  /// NDJSON and bench labels; "none" for every degenerate spec.
  std::string name() const;

  /// Wire size (>= size) for one response serving an object of `size`
  /// plaintext bytes. `rng` is only drawn from when deterministic() is
  /// false, so deterministic schemes never perturb the server's RNG stream
  /// relative to an undefended trial.
  std::size_t padded_size(std::size_t size, sim::Rng& rng) const;

  /// True when padded_size is a pure function of `size` (always for a spec
  /// that is not enabled()). Deterministic schemes need no per-response
  /// randomness and admit exact attacker size databases.
  bool deterministic() const;

  /// The attacker's knowledge of the scheme (Kerckhoffs): the wire sizes an
  /// object of `size` bytes may be served at (the support of padded_size),
  /// ascending and unique. For random, whose support is a continuum, the
  /// attacker's best single point estimate: the mean wire size.
  std::vector<std::size_t> candidates(std::size_t size) const;

  /// The attacker's inverse, after Morla ("Effect of Pipelining and
  /// Multiplexing in Estimating HTTP/2.0 Web Object Sizes"): the best
  /// recoverable plaintext size for one observed wire size.
  ///   * none        -> observed
  ///   * quantum q   -> the original lies in (observed-q, observed]; the
  ///                    interval midpoint
  ///   * random f    -> observed / (1 + f/2) (the mean inverse)
  ///   * constrained -> the posterior mean of the original sizes over the
  ///                    plan's entries whose targets lie near the
  ///                    observation (uniform prior over entries)
  std::size_t estimate(std::size_t observed) const;
};

/// Parses the CLI syntax shared by the tools and benches:
///   "none" | "quantum:N" | "random:F" | "plan:FILE"
/// N is plain decimal digits (no sign or whitespace) in [2, kMaxQuantum]; F
/// is a finite fraction in (0, 4]. plan:FILE loads and parses the serialized
/// PadPlan at FILE. Returns nullopt on malformed or out-of-range text,
/// unreadable file, or invalid plan.
std::optional<PaddingSpec> parse_padding_spec(const std::string& text);

}  // namespace h2sim::defense
