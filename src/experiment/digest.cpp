#include "experiment/digest.hpp"

#include <cstdio>
#include <cstring>
#include <memory>

#include "defense/defenses.hpp"

namespace h2sim::experiment {

namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;

  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void i64(std::int64_t v) { bytes(&v, sizeof(v)); }
  void b(bool v) { u64(v ? 1 : 0); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

}  // namespace

std::uint64_t result_digest(const TrialResult& r) {
  Fnv f;
  f.b(r.page_complete);
  f.b(r.connection_broken);
  f.str(r.failure_reason);
  for (int t : r.truth) f.i64(t);
  f.u64(r.predicted.size());
  for (const auto& p : r.predicted) f.str(p);
  for (bool s : r.success) f.b(s);
  f.u64(r.interest.size());
  for (const auto& o : r.interest) {
    f.str(o.label);
    f.f64(o.primary_dom);
    f.f64(o.min_dom);
    f.b(o.primary_serialized);
    f.b(o.any_copy_serialized);
    f.i64(o.copies);
    f.b(o.size_identified);
    f.b(o.delivered);
  }
  f.u64(r.tcp_retransmits);
  f.u64(r.tcp_fast_retransmits);
  f.u64(r.tcp_rto_retransmits);
  f.i64(r.browser_reissues);
  f.i64(r.reset_sweeps);
  f.u64(r.adversary_drops);
  f.u64(r.requests_spaced);
  f.u64(r.link_drops);
  f.u64(r.records_observed);
  f.i64(r.gets_counted);
  f.f64(r.page_load_seconds);
  f.u64(r.capture_packets);
  f.u64(r.capture_bytes_written);
  // packets_forwarded counts packets the gateway actually forwarded -- a wire
  // fact, unlike the sim_* scheduling internals, so it participates.
  f.u64(r.packets_forwarded);
  // Contention fields join the digest only when background clients exist:
  // single-client digests stay bit-identical to the pre-contention goldens.
  if (r.background_clients > 0) {
    f.i64(r.background_clients);
    f.u64(r.bg_connections);
    f.u64(r.bg_requests_sent);
    f.u64(r.bg_streams_completed);
    f.u64(r.bg_bytes_received);
  }
  return f.h;
}

std::string digest_line(const std::string& label, std::uint64_t seed,
                        const TrialResult& r) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s %llu %016llx", label.c_str(),
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(result_digest(r)));
  return buf;
}

std::vector<DigestScenario> behavior_digest_matrix() {
  std::vector<DigestScenario> m;

  std::vector<std::uint64_t> seeds32;
  for (std::uint64_t s = 1; s <= 32; ++s) seeds32.push_back(s);
  const std::vector<std::uint64_t> seeds8 = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<std::uint64_t> seeds4 = {1, 2, 3, 4};

  {
    DigestScenario s;
    s.label = "baseline";
    m.push_back(std::move(s));
    m.back().seeds = std::move(seeds32);
  }
  {
    DigestScenario s;
    s.label = "full_attack";
    s.config.attack = full_attack_config();
    s.seeds = seeds8;
    m.push_back(std::move(s));
  }
  {
    DigestScenario s;
    s.label = "single_target";
    s.config.attack =
        single_target_attack_config(emblem_get_index(s.config.site, 3));
    s.seeds = seeds4;
    m.push_back(std::move(s));
  }
  {
    DigestScenario s;
    s.label = "defended";
    s.config.attack = full_attack_config();
    s.config.defense.padding = defense::PaddingSpec::quantum_pad(128);
    s.config.defense.dummy_count = 2;
    s.seeds = seeds4;
    m.push_back(std::move(s));
  }
  return m;
}

std::vector<DigestScenario> defended_digest_matrix() {
  // Wire-level policies under the full staged attack. Quantum 3000 is the
  // canonical defended cell (also the defended golden capture's policy):
  // coarse enough to merge emblem size classes, and never a multiple of the
  // 1024-byte chunk size, so object transmissions keep their tail-record
  // delimiters and the boundary detector stays honest.
  std::vector<DigestScenario> m;
  std::vector<std::uint64_t> seeds32;
  for (std::uint64_t s = 1; s <= 32; ++s) seeds32.push_back(s);
  const std::vector<std::uint64_t> seeds4 = {1, 2, 3, 4};
  {
    DigestScenario s;
    s.label = "wirepad_q3000";
    s.config.attack = full_attack_config();
    s.config.defense.padding = defense::PaddingSpec::quantum_pad(3000);
    s.seeds = seeds32;
    m.push_back(std::move(s));
  }
  {
    DigestScenario s;
    s.label = "wirepad_random25";
    s.config.attack = full_attack_config();
    s.config.defense.padding = defense::PaddingSpec::random_pad(0.25);
    s.seeds = seeds4;
    m.push_back(std::move(s));
  }
  {
    DigestScenario s;
    s.label = "wirepad_plan10";
    s.config.attack = full_attack_config();
    // Plan compiled offline from the public site at a 10% bandwidth budget —
    // the same artifact h2sim-padplan emits.
    const web::Website public_site = web::make_isidewith_site(s.config.site);
    s.config.defense.padding = defense::PaddingSpec::constrained(
        std::make_shared<const defense::PadPlan>(
            defense::plan_for_site(public_site, 0.10)));
    s.seeds = seeds4;
    m.push_back(std::move(s));
  }
  return m;
}

std::vector<DigestScenario> contention_digest_matrix() {
  // Pinned separately from behavior_digest_matrix() so the historical golden
  // file never changes: multi-client digests live in their own golden
  // (tests/golden/trial_digests_contention.txt).
  std::vector<DigestScenario> m;
  const std::vector<std::uint64_t> seeds4 = {1, 2, 3, 4};
  {
    DigestScenario s;
    s.label = "contended8";
    s.config.load.background_clients = 8;
    s.seeds = seeds4;
    m.push_back(std::move(s));
  }
  {
    DigestScenario s;
    s.label = "contended8_attack";
    s.config.attack = full_attack_config();
    s.config.load.background_clients = 8;
    s.seeds = seeds4;
    m.push_back(std::move(s));
  }
  return m;
}

}  // namespace h2sim::experiment
