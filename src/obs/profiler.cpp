#include "obs/profiler.hpp"

#include <chrono>

#include "obs/context.hpp"

namespace h2sim::obs {

std::uint64_t Profiler::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Profiler::reset() {
  frames_.clear();
  path_.clear();
  component_self_ns_.fill(0);
  paths_.clear();
}

void Profiler::enter(Component c) {
  const std::size_t parent_len = path_.size();
  if (!path_.empty()) path_ += ';';
  path_ += to_string(c);
  frames_.push_back(Frame{c, now_ns(), 0, parent_len});
}

void Profiler::exit() {
  if (frames_.empty()) return;  // unbalanced exit; tolerate rather than crash
  const Frame f = frames_.back();
  frames_.pop_back();
  const std::uint64_t end = now_ns();
  const std::uint64_t total = end > f.start_ns ? end - f.start_ns : 0;
  const std::uint64_t self = total > f.child_ns ? total - f.child_ns : 0;

  PathStat& stat = paths_[path_];
  stat.self_ns += self;
  ++stat.calls;
  component_self_ns_[static_cast<std::size_t>(f.comp)] += self;

  if (!frames_.empty()) frames_.back().child_ns += total;
  path_.resize(f.parent_path_len);
}

std::string Profiler::collapsed() const {
  std::string out;
  for (const auto& [path, stat] : paths_) {
    out += path;
    out += ' ';
    out += std::to_string(stat.self_ns);
    out += '\n';
  }
  return out;
}

Profiler& profiler() { return current().profiler; }

}  // namespace h2sim::obs
