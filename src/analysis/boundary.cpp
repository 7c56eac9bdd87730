#include "analysis/boundary.hpp"

#include <algorithm>
#include <map>

namespace h2sim::analysis {

namespace {

/// Records with body below this are control chatter (WINDOW_UPDATE,
/// SETTINGS acks, ~29-35 bytes) or response HEADERS (~28-60 bytes), not
/// body bytes. Object tail records are larger than this for any realistic
/// chunking.
constexpr std::size_t kMinBodyRecord = 64;
/// Per-record protocol overhead subtracted from each record when summing
/// object bytes: 9 (frame header) + 16 (AEAD tag).
constexpr std::size_t kPerRecordOverhead = 25;
/// Tolerance when deciding a record is "smaller than full".
constexpr std::size_t kFullSizeSlack = 32;

}  // namespace

std::vector<DetectedObject> detect_objects(const PacketTrace& trace,
                                           const BoundaryConfig& cfg) {
  // Collect candidate body records.
  std::vector<RecordObs> body;
  for (const auto& r : trace.records()) {
    if (r.dir != net::Direction::kServerToClient) continue;
    if (r.type != tls::ContentType::kApplicationData) continue;
    if (r.body_len < kMinBodyRecord) continue;
    body.push_back(r);
  }
  std::vector<DetectedObject> out;
  if (body.empty()) return out;

  // "Full" record size = the modal large record size (the scheduler writes
  // fixed-size quanta, like MTU-sized packets in the paper's Figure 1).
  std::map<std::size_t, std::size_t> histogram;
  for (const auto& r : body) ++histogram[r.body_len];
  std::size_t full = 0, best_count = 0;
  for (const auto& [size, count] : histogram) {
    if (count > best_count || (count == best_count && size > full)) {
      best_count = count;
      full = size;
    }
  }

  DetectedObject cur;
  bool open = false;
  auto flush = [&](bool delimiter) {
    if (!open) return;
    cur.ended_by_delimiter = delimiter;
    out.push_back(cur);
    cur = DetectedObject{};
    open = false;
  };

  for (const auto& r : body) {
    if (open && r.time - cur.end > cfg.idle_gap) flush(false);
    if (!open) {
      open = true;
      cur.start = r.time;
    }
    cur.end = r.time;
    ++cur.records;
    cur.size_estimate +=
        r.body_len > kPerRecordOverhead ? r.body_len - kPerRecordOverhead : 0;
    if (r.body_len + kFullSizeSlack < full) {
      // Sub-full record: delimits the object (Figure 1, Case 1).
      flush(true);
    }
  }
  flush(false);
  return out;
}

}  // namespace h2sim::analysis
