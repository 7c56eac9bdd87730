#pragma once

// Shared argv handling for the examples: strict positional parsing with
// range validation and a uniform usage message. Every example used to do
// `argc > 1 ? std::atoi(argv[1]) : def`, which silently turned
// `./quickstart garbage` into seed 0; now malformed or out-of-range
// arguments print the example's usage line and exit with status 2, and
// `--help`/`-h` prints it and exits 0.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>

#include "sim/parse_number.hpp"

namespace h2sim::examples {

class CliArgs {
 public:
  /// `synopsis` is the part after the program name, e.g. "[trials]" or
  /// "[seed] [output-prefix]".
  CliArgs(int argc, char** argv, std::string synopsis)
      : argc_(argc), argv_(argv), synopsis_(std::move(synopsis)) {
    for (int i = 1; i < argc_; ++i) {
      if (!std::strcmp(argv_[i], "--help") || !std::strcmp(argv_[i], "-h")) {
        std::printf("usage: %s %s\n", argv_[0], synopsis_.c_str());
        std::exit(0);
      }
    }
    if (argc_ > max_positional(synopsis_) + 1) {
      fail("argument", argv_[max_positional(synopsis_) + 1]);
    }
  }

  /// Positional `pos` as an integer in [min, max]; `def` when absent.
  long long int_arg(int pos, long long def, long long min, long long max,
                    const char* name) const {
    if (pos >= argc_) return def;
    long long v = 0;
    if (!sim::parse_number(argv_[pos], &v) || v < min || v > max) {
      fail(name, argv_[pos]);
    }
    return v;
  }

  /// Trial counts: positive, with a sanity ceiling.
  int trials(int pos, int def) const {
    return static_cast<int>(int_arg(pos, def, 1, 1'000'000, "trial count"));
  }

  /// RNG seeds: any non-negative 64-bit value.
  std::uint64_t seed(int pos, std::uint64_t def) const {
    if (pos >= argc_) return def;
    std::uint64_t v = 0;
    if (!sim::parse_number(argv_[pos], &v)) fail("seed", argv_[pos]);
    return v;
  }

  std::string str(int pos, const std::string& def) const {
    return pos < argc_ ? argv_[pos] : def;
  }

  /// Positional `pos` restricted to an enumerated set of words.
  std::string choice(int pos, const std::string& def, const char* name,
                     std::initializer_list<const char*> options) const {
    if (pos >= argc_) return def;
    for (const char* opt : options) {
      if (!std::strcmp(argv_[pos], opt)) return opt;
    }
    fail(name, argv_[pos]);
  }

 private:
  /// Count of "[...]" groups in the synopsis = how many positionals exist.
  static int max_positional(const std::string& synopsis) {
    int n = 0;
    for (char c : synopsis) n += c == '[';
    return n;
  }

  [[noreturn]] void fail(const char* name, const char* got) const {
    std::fprintf(stderr, "%s: invalid %s '%s'\nusage: %s %s\n", argv_[0], name,
                 got, argv_[0], synopsis_.c_str());
    std::exit(2);
  }

  int argc_;
  char** argv_;
  std::string synopsis_;
};

}  // namespace h2sim::examples
