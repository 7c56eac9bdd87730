#include "web/website.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace h2sim::web {

using sim::Duration;

void Website::add_object(WebObject obj) {
  assert(!obj.path.empty());
  const std::size_t want = obj.size + 256;
  if (pattern_.size() < want) {
    // Power-of-two capacity: a site whose objects arrive in growing sizes
    // reallocates a few times, not once per new largest object.
    pattern_.reserve(std::bit_ceil(want));
    std::size_t i = pattern_.size();
    pattern_.resize(want);
    for (std::uint8_t* out = pattern_.data(); i < want; ++i) {
      out[i] = static_cast<std::uint8_t>(i * 131);
    }
  }
  objects_[obj.path] = std::move(obj);
}

std::span<const std::uint8_t> Website::body(const WebObject& obj) const {
  const auto b = filler(obj.size, obj.size);
  assert(b.size() == obj.size);
  return b;
}

std::span<const std::uint8_t> Website::filler(std::size_t key,
                                              std::size_t n) const {
  const std::size_t phase = (key * 43) % 256;
  assert(pattern_.size() > phase);
  return std::span<const std::uint8_t>(pattern_).subspan(
      phase, std::min(n, pattern_.size() - phase));
}

const WebObject* Website::find(std::string_view path) const {
  auto it = objects_.find(path);
  return it == objects_.end() ? nullptr : &it->second;
}

const WebObject* Website::find_by_label(std::string_view label) const {
  for (const auto& [path, obj] : objects_) {
    if (obj.label == label) return &obj;
  }
  return nullptr;
}

Website make_isidewith_site(const IsidewithConfig& cfg) {
  Website site;

  // --- Pre-objects: survey-page assets and API calls preceding the result
  // HTML, which makes the HTML the 6th GET (Section IV). Requested in a
  // browser burst (millisecond gaps); their transmissions are the traffic
  // the result HTML multiplexes with by default.
  const std::size_t pre_sizes[] = {28000, 64000, 45000, 91000, 90000};
  const double pre_gaps_ms[] = {0, 2, 1, 5, 3};
  for (int i = 0; i < cfg.pre_objects; ++i) {
    WebObject o;
    o.path = "/assets/pre" + std::to_string(i + 1) + ".js";
    o.content_type = "application/javascript";
    o.size = pre_sizes[i % 5];
    o.label = "pre" + std::to_string(i + 1);
    site.add_object(o);
    site.schedule.push_back({o.path, Duration::millis_f(pre_gaps_ms[i % 5]),
                             Gate::kNone});
  }

  // --- The dynamic result HTML: the paper's primary object of interest.
  {
    WebObject o;
    o.path = "/results/2020-presidential-quiz";
    o.content_type = "text/html";
    o.size = cfg.html_size;
    o.dynamic = true;
    o.label = "html";
    site.add_object(o);
    site.html_path = o.path;
    // The redirect/render delay between the survey submission burst and the
    // result-page request varies widely; whether the pre-object transfers
    // are still streaming when the HTML goes out decides if the HTML
    // multiplexes (the paper's 32 % / ~98 % baseline split).
    site.schedule.push_back({o.path, Duration::millis(15), Gate::kNone, 0.1, 2.2});
  }

  // --- Party emblems (fixed size per party, unique within tolerance).
  for (int k = 0; k < 8; ++k) {
    WebObject o;
    o.path = "/img/party_" + std::to_string(k) + ".png";
    o.content_type = "image/png";
    o.size = cfg.emblem_sizes[static_cast<std::size_t>(k)];
    o.pace_factor = 2.0;  // image pipeline is slower than cached JS/CSS
    o.label = "party" + std::to_string(k);
    site.add_object(o);
    site.emblem_paths.push_back(o.path);
  }

  // --- Embedded fillers. Sizes avoid the emblem sizes (and the HTML size)
  // by a wide margin so the predictor's size database stays unambiguous,
  // matching the paper's premise that the objects of interest have unique
  // sizes within the site.
  // First 12 entries are the head fillers (requested while the HTML
  // streams): sizable assets so their transmissions overlap the HTML's tail.
  const std::size_t filler_sizes[] = {
      37600, 56200, 80200, 46300, 67500, 30800, 93800, 41800, 61800, 34100,
      73800, 50900, 1800,  2600,  3400,  4200,  17500, 19400, 21800, 24500,
      27200, 86900, 101000, 108500, 116400, 124600, 133100, 141900, 151000,
      160400, 170100, 180100, 190400, 201000, 211900, 223100, 234600, 246400,
      258500};
  std::vector<std::string> filler_paths;
  for (int i = 0; i < cfg.filler_objects; ++i) {
    WebObject o;
    const bool is_img = i % 3 == 0;
    o.path = std::string(is_img ? "/img/asset" : "/assets/mod") +
             std::to_string(i + 1) + (is_img ? ".png" : ".js");
    o.content_type = is_img ? "image/png" : "application/javascript";
    o.size = filler_sizes[static_cast<std::size_t>(i) % 39];
    o.label = "filler" + std::to_string(i + 1);
    site.add_object(o);
    filler_paths.push_back(o.path);
  }

  // --- Post-HTML schedule. The first embedded asset follows the HTML
  // request by 160 ms (Table II row 2, column HTML) — after the HTML's short
  // transmission window; the rest are parser-discovery bursts. The emblem
  // burst fires after script execution with the sub-millisecond gaps of
  // Table II; one trailing asset 26 ms after I8; the remaining fillers close
  // out the load.
  const double head_gaps_ms[] = {160, 3, 8, 2, 12, 4, 6, 2, 9, 3, 7, 5};
  int used = 0;
  for (; used < cfg.head_fillers && used < cfg.filler_objects; ++used) {
    site.schedule.push_back({filler_paths[static_cast<std::size_t>(used)],
                             Duration::millis_f(head_gaps_ms[used % 12]),
                             Gate::kHtmlFirstByte});
  }

  const double emblem_gaps_ms[] = {30, 0.4, 2, 0.3, 0.1, 0.3, 2, 0.5};
  for (int k = 0; k < 8; ++k) {
    site.schedule.push_back({"EMBLEM_" + std::to_string(k),
                             Duration::millis_f(emblem_gaps_ms[k]),
                             Gate::kHtmlComplete});
  }

  // Trailing assets: first one 26 ms after I8 (Table II row 2, column I8).
  double trail_gap = 26;
  for (; used < cfg.filler_objects; ++used) {
    site.schedule.push_back({filler_paths[static_cast<std::size_t>(used)],
                             Duration::millis_f(trail_gap),
                             Gate::kHtmlComplete});
    trail_gap = 8;  // steady trickle for the remaining assets
  }

  return site;
}

Website make_two_object_site(std::size_t size1, std::size_t size2) {
  Website site;
  WebObject o1;
  o1.path = "/o1";
  o1.size = size1;
  o1.label = "O1";
  site.add_object(o1);
  WebObject o2;
  o2.path = "/o2";
  o2.size = size2;
  o2.label = "O2";
  site.add_object(o2);
  site.schedule.push_back({"/o1", sim::Duration::zero(), Gate::kNone});
  site.schedule.push_back({"/o2", sim::Duration::millis_f(0.5), Gate::kNone});
  return site;
}

}  // namespace h2sim::web
