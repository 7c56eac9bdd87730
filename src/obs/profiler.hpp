#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace h2sim::obs {

/// Wall-clock component profiler. Answers "where does real time go inside a
/// trial" — tcp segmentation vs tls record protection vs h2 framing vs the
/// attack pipeline — which the simulated-time tracer cannot, because the
/// tracer's timestamps are *simulated* nanoseconds.
///
/// Off by default, and engineered to the same hot-path discipline as the
/// tracer: a disabled probe is one thread-local pointer read plus one branch
/// (see ProfileScope), so per-packet probes in net/tcp stay free in
/// production runs. The microbench BM_ProfilerDisabledScope pins this.
///
/// Enabled, each ProfileScope pushes a frame; on pop the frame's *self* time
/// (total minus time spent in nested scopes) is attributed to the current
/// component stack. collapsed() exports it as folded-stack text
/// ("net;tcp;tls 12345") directly consumable by flamegraph.pl / speedscope /
/// inferno.
///
/// Profiler output is wall time and therefore nondeterministic; it never
/// feeds TrialResult, metrics, or digests — behavior goldens are unaffected
/// by enabling it.
///
/// Like the registry and tracer, a Profiler is single-threaded state owned by
/// one trial's Context; reach it through obs::profiler().
class Profiler {
 public:
  static constexpr std::size_t kComponentCount =
      static_cast<std::size_t>(Component::kCount);

  struct PathStat {
    std::uint64_t self_ns = 0;
    std::uint64_t calls = 0;
  };

  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Drops all accumulated samples and any live frames. Keeps the enabled
  /// flag: the harness resets per trial without re-arming.
  void reset();

  /// Manual span control; prefer ProfileScope. enter/exit must nest.
  void enter(Component c);
  void exit();

  /// Total self-nanoseconds attributed to `c` across all stacks.
  std::uint64_t component_self_ns(Component c) const {
    return component_self_ns_[static_cast<std::size_t>(c)];
  }
  /// Folded stacks keyed by "comp;comp;..." path.
  const std::map<std::string, PathStat>& paths() const { return paths_; }

  /// Folded-stack ("collapsed") text: one "path self_ns" line per stack,
  /// sorted by path. The unit is nanoseconds; flamegraph tooling treats the
  /// count as opaque samples.
  std::string collapsed() const;

 private:
  struct Frame {
    Component comp;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    std::size_t parent_path_len;
  };

  static std::uint64_t now_ns();

  bool enabled_ = false;
  std::vector<Frame> frames_;
  std::string path_;  // incremental "a;b;c" of the live stack
  std::array<std::uint64_t, kComponentCount> component_self_ns_{};
  std::map<std::string, PathStat> paths_;
};

/// The current context's profiler (one thread-local read).
Profiler& profiler();

/// RAII component probe. The constructor reads the current profiler once and
/// keeps a pointer only when profiling is enabled, so a disabled scope costs
/// the pointer read, one branch, and nothing in the destructor but a
/// null test.
class ProfileScope {
 public:
  explicit ProfileScope(Component c) {
    Profiler& p = profiler();
    if (p.enabled()) {
      p_ = &p;
      p.enter(c);
    }
  }
  ~ProfileScope() {
    if (p_) p_->exit();
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  Profiler* p_ = nullptr;
};

}  // namespace h2sim::obs
