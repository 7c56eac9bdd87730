#pragma once

#include <cstdint>
#include <vector>

#include "analysis/trace.hpp"

namespace h2sim::analysis {

/// The attacker's object-size estimator (Figure 1 generalized from packets
/// to TLS records): within the server->client application-data record
/// stream, body records share a "full" size (one scheduler quantum per
/// record); a record smaller than full delimits the end of an object's
/// serialized transmission. Time gaps longer than `idle_gap` also delimit.
struct BoundaryConfig {
  /// A silence longer than this ends the current object segment.
  sim::Duration idle_gap = sim::Duration::millis(120);
};

struct DetectedObject {
  std::size_t size_estimate = 0;  // plaintext byte estimate
  std::size_t records = 0;
  sim::TimePoint start;
  sim::TimePoint end;
  bool ended_by_delimiter = false;  // vs idle gap / end of trace
};

/// Splits the server->client record stream into object transmissions.
/// Only meaningful where transmissions are serialized — on multiplexed
/// segments it produces garbage sizes, which is precisely the paper's
/// premise (Case 2 of Figure 1).
std::vector<DetectedObject> detect_objects(const PacketTrace& trace,
                                           const BoundaryConfig& cfg = {});

}  // namespace h2sim::analysis
