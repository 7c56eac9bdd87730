#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "h2/client.hpp"
#include "obs/metrics.hpp"
#include "sim/random.hpp"
#include "web/website.hpp"

namespace h2sim::web {

/// The settable client-side page-load behaviour; the stall, reset and
/// deadline timings are constants in browser.cpp.
struct BrowserConfig {
  /// §VII defense: randomize the order of gated embedded requests.
  bool randomize_embedded_order = false;
};

/// The browser model: issues the page-load request sequence (with the
/// paper's inter-arrival gaps), tracks responses, reissues stalled requests
/// and resets streams under persistent loss — the client half of the attack
/// surface.
class Browser {
 public:
  struct ObjectState {
    std::string path;
    std::string label;
    std::size_t expected = 0;        // from content-length
    bool issued = false;
    bool first_byte = false;
    bool complete = false;
    int reissues = 0;
    sim::TimePoint first_request_time;
    sim::TimePoint complete_time;
    std::vector<std::uint32_t> streams;          // original + reissue copies
    std::map<std::uint32_t, std::size_t> stream_bytes;
    sim::TimerHandle stall_timer;
    sim::TimerHandle reset_timer;
    bool rerequested = false;  // re-issued after a reset sweep
    /// Noise-applied request gap, drawn once per step (cached so repeated
    /// dispatch passes do not re-roll it).
    std::optional<sim::Duration> drawn_gap;
  };

  Browser(sim::EventLoop& loop, h2::ClientConnection& conn, const Website& site,
          std::array<int, 8> permutation, sim::Rng rng, BrowserConfig cfg = {});

  /// Begins the page load (waits for the connection to become ready).
  void start();

  bool page_complete() const;
  bool failed() const { return failed_; }
  const std::string& failure_reason() const { return failure_reason_; }

  const std::vector<ObjectState>& objects() const { return objects_; }
  const std::array<int, 8>& permutation() const { return permutation_; }

  /// Ground truth: object index served by each stream id.
  const std::map<std::uint32_t, std::size_t>& stream_to_object() const {
    return stream_to_object_;
  }

  int reset_sweeps() const { return reset_sweeps_; }

 private:
  void dispatch();
  void issue(std::size_t index, bool is_rerequest);
  void on_response_headers(std::uint32_t sid, const hpack::HeaderList& headers);
  void on_response_data(std::uint32_t sid, std::span<const std::uint8_t> bytes,
                        bool end_stream);
  void on_stream_reset(std::uint32_t sid, h2::ErrorCode code);
  void note_progress(std::size_t index);
  void object_completed(std::size_t index, std::uint32_t winning_sid);
  void stall_fired(std::size_t index);
  void reset_fired(std::size_t index);
  void perform_reset_sweep();
  void fail(std::string reason);
  sim::Duration noisy(sim::Duration gap, double lo, double hi);

  sim::EventLoop& loop_;
  h2::ClientConnection& conn_;
  const Website& site_;
  std::array<int, 8> permutation_;
  sim::Rng rng_;
  BrowserConfig cfg_;

  // Resolved schedule: one object per step, placeholders substituted.
  std::vector<RequestStep> steps_;
  std::vector<ObjectState> objects_;  // parallel to steps_
  std::map<std::uint32_t, std::size_t> stream_to_object_;

  bool started_ = false;
  bool failed_ = false;
  std::string failure_reason_;
  bool html_first_byte_ = false;
  bool html_complete_ = false;
  std::size_t html_index_ = 0;

  sim::TimePoint last_issue_time_;
  sim::TimePoint last_any_progress_;
  bool dispatch_pending_ = false;
  sim::TimerHandle dispatch_timer_;
  sim::TimerHandle deadline_timer_;
  int reset_sweeps_ = 0;

  struct Metrics {
    obs::Counter requests_sent;
    obs::Counter reissues;
    obs::Counter rerequests;
    obs::Counter reset_sweeps;
    obs::Counter objects_completed;
    obs::Counter page_failures;
  };
  Metrics metrics_;
};

}  // namespace h2sim::web
