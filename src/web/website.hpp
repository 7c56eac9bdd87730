#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace h2sim::web {

/// One retrievable object. `dynamic` objects (the survey-result HTML) are
/// generated in slow template flushes by the server app; static objects
/// stream at disk speed.
struct WebObject {
  std::string path;
  std::string content_type = "application/octet-stream";
  std::size_t size = 0;
  bool dynamic = false;
  /// Multiplier on the server's per-chunk production interval for this
  /// object (image decode/IO paths are slower than cached JS, for example).
  double pace_factor = 1.0;
  std::string label;  // "html", "I1".."I8" (party emblems), "pre3", "filler7"
};

/// When a request step may be issued relative to page-load progress.
enum class Gate {
  kNone,            // pure schedule from navigation start
  kHtmlFirstByte,   // discovered while parsing the streaming HTML
  kHtmlComplete,    // triggered by script execution after the HTML finishes
};

/// One entry in the page-load request sequence. `path` may be the
/// placeholder "EMBLEM_k": the browser substitutes the party image chosen by
/// the user's survey result (ground-truth permutation).
struct RequestStep {
  std::string path;
  sim::Duration gap_from_prev = sim::Duration::zero();
  Gate gate = Gate::kNone;
  /// Per-step multiplicative noise range on the gap. Mechanical gaps (parser
  /// discovery, script execution) vary a little; human think-time gaps vary
  /// a lot.
  double noise_lo = 0.85;
  double noise_hi = 1.15;
};

/// A website: object store plus the canonical page-load request schedule.
class Website {
 public:
  /// Stores the object and grows the body pattern to cover it.
  void add_object(WebObject obj);
  const WebObject* find(std::string_view path) const;
  const WebObject* find_by_label(std::string_view label) const;

  /// The body of an object of this site: byte j is (j*131 + obj.size)
  /// mod 256. Valid until the next add_object.
  std::span<const std::uint8_t> body(const WebObject& obj) const;
  /// Up to `n` bytes whose byte j is (j*131 + key) mod 256: fewer when the
  /// pattern ends first, but at least one for n > 0 once the site has an
  /// object. Valid until the next add_object.
  std::span<const std::uint8_t> filler(std::size_t key, std::size_t n) const;

  std::vector<RequestStep> schedule;
  std::string html_path;
  /// Party emblem paths indexed by party id 0..7 (fixed size per party).
  std::vector<std::string> emblem_paths;

  const std::map<std::string, WebObject, std::less<>>& objects() const {
    return objects_;
  }

 private:
  std::map<std::string, WebObject, std::less<>> objects_;
  /// pattern_[i] = 131*i mod 256. Since 131 is odd, every filler run is
  /// the window starting at 43*key mod 256 (43 = 131^-1 mod 256), so one
  /// buffer of the largest object + 256 bytes holds every body.
  std::vector<std::uint8_t> pattern_;
};

/// Parameters of the isidewith.com-like survey site of Section V.
struct IsidewithConfig {
  std::size_t html_size = 9500;  // the paper's object of interest (6th GET)
  /// Eight party emblems, 5 KB..16 KB, pairwise separated well beyond the
  /// predictor tolerance.
  std::array<std::size_t, 8> emblem_sizes = {5200,  6700,  8600,  9900,
                                             11400, 12800, 14300, 15800};
  int pre_objects = 5;     // requests before the result HTML (it is the 6th)
  int filler_objects = 39; // embedded page assets besides the 8 emblems
  /// Fillers requested between the HTML and the emblem burst.
  int head_fillers = 12;

  /// Equal configs build byte-identical sites (experiment::run_trials
  /// builds one site per distinct config of a sweep), so every field takes
  /// part.
  bool operator==(const IsidewithConfig&) const = default;
};

/// Builds the target website: 5 pre-objects, the dynamic result HTML, 47
/// embedded objects (39 fillers + 8 emblems) with the request inter-arrival
/// gaps of Table II.
Website make_isidewith_site(const IsidewithConfig& cfg = {});

/// A tiny two-object site used by the mechanics benches (Figures 1-4).
Website make_two_object_site(std::size_t size1, std::size_t size2);

}  // namespace h2sim::web
