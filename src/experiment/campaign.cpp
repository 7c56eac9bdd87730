#include "experiment/campaign.hpp"

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <utility>

#include "experiment/runner.hpp"
#include "obs/json.hpp"
#include "obs/profiler.hpp"
#include "obs/sha256.hpp"

namespace h2sim::experiment {

namespace {

constexpr std::uint64_t kSeedCellStride = 1'000'003;

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

bool read_file(const std::string& path, std::string& out) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return false;
  char buf[1 << 16];
  std::size_t n;
  out.clear();
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

/// Durability discipline for everything the manifest references: write the
/// full content to a sibling .tmp and rename over the target, so a SIGKILL
/// at any instant leaves either the previous file or the new one.
bool write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return false;
  const bool wrote =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  if (std::fclose(f) != 0 || !wrote) return false;
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

bool mkdir_p(const std::string& dir) {
  if (dir.empty()) return false;
  std::string partial;
  for (std::size_t i = 0; i <= dir.size(); ++i) {
    if (i < dir.size() && dir[i] != '/') continue;
    partial = dir.substr(0, i == dir.size() ? i : i + 1);
    if (partial.empty() || partial == "/") continue;
    if (::mkdir(partial.c_str(), 0777) != 0 && errno != EEXIST) return false;
  }
  return true;
}

std::string shard_name(std::uint64_t wave) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%05llu.ndjson",
                static_cast<unsigned long long>(wave));
  return buf;
}

/// Everything a resume must agree on to replay the interrupted run's
/// decisions: the grid shape, seed layout, and the early-stop policy (stop
/// decisions depend on it). Cell labels stand in for the full TrialConfig —
/// the driver derives configs from labels, so identical labels with
/// different configs is a caller bug the digest cannot catch.
std::string config_digest(const CampaignOptions& o) {
  std::string s = "campaign-v1|";
  s += std::to_string(o.seed_base) + "|";
  s += std::to_string(o.trials_per_cell) + "|";
  s += std::to_string(o.wave_seeds) + "|";
  obs::append_exact_double(s, o.ci_stop_halfwidth);
  s += "|" + o.ci_stop_field + "|" + std::to_string(o.ci_stop_min_trials);
  for (const CampaignCell& c : o.cells) s += "|" + c.label;
  return obs::sha256_hex(s);
}

/// Per-wave streaming sink: one preallocated slot per config position (the
/// runner invokes consume() concurrently but never twice for one index), so
/// no lock is needed for the records. The profiler merge and mid-wave
/// reports share one mutex; reports are rate-limited by an atomic timestamp
/// checked *before* the mutex, so a fine report interval does not serialize
/// the workers.
class WaveSink : public ResultSink {
 public:
  /// `report(done, rate)` delivers a mid-wave report given the trials
  /// finished this wave and their rate; null disables mid-wave reports.
  using Report = std::function<void(std::uint64_t done, double rate)>;

  WaveSink(std::vector<TrialRecord>& slots,
           const std::vector<std::uint64_t>& global_index,
           const std::vector<const std::string*>& labels,
           std::map<std::string, std::uint64_t>* folded,
           double report_interval_seconds, Report report)
      : slots_(slots),
        global_index_(global_index),
        labels_(labels),
        folded_(folded),
        // Capped at ~31 years so the conversion cannot overflow.
        interval_ns_(static_cast<std::int64_t>(
            std::min(report_interval_seconds, 1e9) * 1e9)),
        report_(std::move(report)) {}

  void consume(std::size_t index, const TrialConfig& cfg,
               const TrialResult& result, const obs::Context& ctx) override {
    slots_[index] =
        make_trial_record(global_index_[index], cfg, *labels_[index], result);
    if (folded_) {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [path, stat] : ctx.profiler.paths()) {
        (*folded_)[path] += stat.self_ns;
      }
    }
    if (!report_) return;
    const std::uint64_t done = done_.fetch_add(1, std::memory_order_relaxed) + 1;
    const std::int64_t now_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count();
    // Claim the report slot by advancing the timestamp; losers and
    // too-soon reports skip without touching the mutex.
    std::int64_t last = last_report_ns_.load(std::memory_order_relaxed);
    if (last >= 0 && now_ns - last < interval_ns_) return;
    if (!last_report_ns_.compare_exchange_strong(last, now_ns,
                                                 std::memory_order_relaxed)) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    report_(done, now_ns > 0 ? static_cast<double>(done) * 1e9 /
                                   static_cast<double>(now_ns)
                             : 0.0);
  }

 private:
  std::vector<TrialRecord>& slots_;
  const std::vector<std::uint64_t>& global_index_;
  const std::vector<const std::string*>& labels_;
  std::map<std::string, std::uint64_t>* folded_;
  const std::int64_t interval_ns_;
  const Report report_;
  const std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  std::atomic<std::uint64_t> done_{0};
  std::atomic<std::int64_t> last_report_ns_{-1};
  std::mutex mu_;
};

}  // namespace

long peak_rss_kb() {
  std::string status;
  if (!read_file("/proc/self/status", status)) return 0;
  const std::size_t pos = status.find("VmHWM:");
  if (pos == std::string::npos) return 0;
  return std::atol(status.c_str() + pos + 6);
}

std::string CampaignManifest::json() const {
  std::string s = "{\n";
  s += "  \"config_digest\": " + quoted(config_digest) + ",\n";
  s += "  \"seed_base\": " + std::to_string(seed_base) + ",\n";
  s += "  \"trials_per_cell\": " + std::to_string(trials_per_cell) + ",\n";
  s += "  \"wave_seeds\": " + std::to_string(wave_seeds) + ",\n";
  s += "  \"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) s += ", ";
    s += quoted(cells[i]);
  }
  s += "],\n  \"shards\": [";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    s += i ? ",\n    " : "\n    ";
    s += "{\"file\": " + quoted(shards[i].file);
    s += ", \"rows\": " + std::to_string(shards[i].rows);
    s += ", \"sha256\": " + quoted(shards[i].sha256) + "}";
  }
  s += shards.empty() ? "],\n" : "\n  ],\n";
  s += "  \"stopped_cells\": [";
  for (std::size_t i = 0; i < stopped_cells.size(); ++i) {
    if (i) s += ", ";
    s += quoted(stopped_cells[i]);
  }
  s += "],\n";
  s += std::string("  \"complete\": ") + (complete ? "true" : "false") + "\n}\n";
  return s;
}

std::optional<CampaignManifest> CampaignManifest::parse(const std::string& text) {
  const auto doc = obs::json::parse(text);
  if (!doc || !doc->is_object()) return std::nullopt;
  const auto* digest = doc->find("config_digest");
  const auto* seed_base = doc->find("seed_base");
  const auto* tpc = doc->find("trials_per_cell");
  const auto* wave_seeds = doc->find("wave_seeds");
  const auto* cells = doc->find("cells");
  const auto* shards = doc->find("shards");
  const auto* complete = doc->find("complete");
  if (!digest || !digest->is_string() || !seed_base || !tpc || !wave_seeds ||
      !cells || !cells->is_array() || !shards || !shards->is_array() ||
      !complete || complete->kind != obs::json::Value::Kind::kBool) {
    return std::nullopt;
  }
  const auto seed_base_n = seed_base->as_uint();
  const auto tpc_n = tpc->as_uint();
  const auto wave_seeds_n = wave_seeds->as_uint();
  if (!seed_base_n || !tpc_n || !wave_seeds_n) return std::nullopt;
  CampaignManifest m;
  m.config_digest = digest->string;
  m.seed_base = *seed_base_n;
  m.trials_per_cell = *tpc_n;
  m.wave_seeds = *wave_seeds_n;
  for (const auto& c : cells->array) {
    if (!c.is_string()) return std::nullopt;
    m.cells.push_back(c.string);
  }
  for (const auto& sh : shards->array) {
    const auto* file = sh.find("file");
    const auto* rows = sh.find("rows");
    const auto* sha = sh.find("sha256");
    const auto rows_n = rows ? rows->as_uint() : std::nullopt;
    // Shard i is always shard_name(i): resume joins the name to out_dir, so
    // anything else ("../../etc/hostname") is refused here.
    if (!file || !file->is_string() ||
        file->string != shard_name(m.shards.size()) || !rows_n || !sha ||
        !sha->is_string()) {
      return std::nullopt;
    }
    m.shards.push_back(Shard{file->string, *rows_n, sha->string});
  }
  if (const auto* stopped = doc->find("stopped_cells");
      stopped && stopped->is_array()) {
    for (const auto& c : stopped->array) {
      if (c.is_string()) m.stopped_cells.push_back(c.string);
    }
  }
  m.complete = complete->boolean;
  return m;
}

CampaignOutcome run_campaign(const CampaignOptions& opts) {
  CampaignOutcome out;
  const std::size_t num_cells = opts.cells.size();
  if (num_cells == 0 || opts.out_dir.empty() || opts.wave_seeds == 0 ||
      opts.trials_per_cell == 0) {
    out.error = "campaign: need cells, out_dir, wave_seeds > 0, trials > 0";
    return out;
  }
  if (!mkdir_p(opts.out_dir)) {
    out.error = "campaign: cannot create out_dir " + opts.out_dir;
    return out;
  }
  out.manifest_path = opts.out_dir + "/manifest.json";
  out.aggregates_path = opts.out_dir + "/aggregates.ndjson";

  const std::string digest = config_digest(opts);
  CampaignManifest manifest;
  manifest.config_digest = digest;
  manifest.seed_base = opts.seed_base;
  manifest.trials_per_cell = opts.trials_per_cell;
  manifest.wave_seeds = opts.wave_seeds;
  for (const CampaignCell& c : opts.cells) manifest.cells.push_back(c.label);

  obs::AggregateTable table;
  std::vector<bool> stopped(num_cells, false);

  // Stop policy, shared by replay and fresh waves so both derive identical
  // decisions from identical tables.
  auto evaluate_stops = [&] {
    if (opts.ci_stop_halfwidth <= 0) return;
    for (std::size_t c = 0; c < num_cells; ++c) {
      if (stopped[c]) continue;
      const obs::CellAggregate* cell = table.find(opts.cells[c].label);
      if (!cell || cell->trials < opts.ci_stop_min_trials) continue;
      const auto it = cell->stats.find(opts.ci_stop_field);
      if (it == cell->stats.end()) continue;
      if (it->second.ci95_halfwidth() <= opts.ci_stop_halfwidth) {
        stopped[c] = true;
      }
    }
  };

  // ---- Resume: replay the manifest's shards wave by wave. ----
  std::uint64_t wave = 0;
  if (opts.resume) {
    std::string text;
    if (!read_file(out.manifest_path, text)) {
      out.error = "campaign: --resume but no readable " + out.manifest_path;
      return out;
    }
    const auto loaded = CampaignManifest::parse(text);
    if (!loaded) {
      out.error = "campaign: malformed manifest " + out.manifest_path;
      return out;
    }
    if (loaded->config_digest != digest) {
      out.error =
          "campaign: manifest config digest mismatch (different grid/seed/"
          "stop options); refusing to mix runs";
      return out;
    }
    manifest.shards = loaded->shards;
    for (const CampaignManifest::Shard& shard : manifest.shards) {
      std::string content;
      const std::string path = opts.out_dir + "/" + shard.file;
      if (!read_file(path, content)) {
        out.error = "campaign: missing shard " + path;
        return out;
      }
      if (obs::sha256_hex(content) != shard.sha256) {
        out.error = "campaign: shard checksum mismatch: " + path;
        return out;
      }
      // Apply rows in file order — the writer spilled them in canonical
      // ascending-index order, so replay reduction == original reduction.
      std::uint64_t rows = 0;
      std::size_t start = 0;
      while (start < content.size()) {
        std::size_t end = content.find('\n', start);
        if (end == std::string::npos) end = content.size();
        if (end > start) {
          const auto rec = parse_trial_record(content.substr(start, end - start));
          if (!rec) {
            out.error = "campaign: malformed record in " + path;
            return out;
          }
          apply_trial_record(table, *rec);
          ++rows;
        }
        start = end + 1;
      }
      if (rows != shard.rows) {
        out.error = "campaign: shard row count mismatch: " + path;
        return out;
      }
      evaluate_stops();  // wave boundary, same as the original run
      ++wave;
    }
  }

  const auto wall_start = std::chrono::steady_clock::now();
  auto elapsed = [&wall_start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         wall_start)
        .count();
  };

  auto remaining_target = [&] {
    std::uint64_t target = table.total_trials();
    const std::uint64_t first = wave * opts.wave_seeds;
    for (std::size_t c = 0; c < num_cells; ++c) {
      if (stopped[c]) continue;
      if (first < opts.trials_per_cell) target += opts.trials_per_cell - first;
    }
    return target;
  };

  auto cell_status = [&] {
    std::vector<CampaignReport::CellStatus> status;
    status.reserve(num_cells);
    for (std::size_t c = 0; c < num_cells; ++c) {
      CampaignReport::CellStatus s;
      s.label = opts.cells[c].label;
      s.stopped = stopped[c];
      if (const obs::CellAggregate* cell = table.find(s.label)) {
        s.trials = cell->trials;
        const auto it = cell->stats.find(opts.ci_stop_field);
        if (it != cell->stats.end()) s.ci95 = it->second.ci95_halfwidth();
      }
      status.push_back(std::move(s));
    }
    return status;
  };

  auto make_report = [&](std::uint64_t extra_done, double rate) {
    CampaignReport r;
    r.trials_done = table.total_trials() + extra_done;
    r.trials_target = remaining_target();
    r.elapsed_seconds = elapsed();
    r.trials_per_sec = rate;
    r.eta_seconds =
        rate > 0 && r.trials_target > r.trials_done
            ? static_cast<double>(r.trials_target - r.trials_done) / rate
            : 0.0;
    r.wave = wave;
    r.cell_status = cell_status();
    return r;
  };

  std::map<std::string, std::uint64_t> folded;  // merged collapsed stacks

  // ---- Wave loop. ----
  bool session_truncated = false;
  for (;;) {
    const std::uint64_t t_first = wave * opts.wave_seeds;
    const std::uint64_t t_last =
        std::min(opts.trials_per_cell, t_first + opts.wave_seeds);
    std::vector<std::size_t> active;
    if (t_first < opts.trials_per_cell) {
      for (std::size_t c = 0; c < num_cells; ++c) {
        if (!stopped[c]) active.push_back(c);
      }
    }
    if (active.empty()) break;  // complete

    const std::size_t wave_trials = active.size() * (t_last - t_first);
    if (opts.max_trials_this_run > 0 &&
        out.trials_run + wave_trials > opts.max_trials_this_run) {
      session_truncated = true;
      break;
    }

    // Build the wave grid in ascending global-index order (t-major, then
    // cell), which is also the order records are reduced and spilled in.
    std::vector<TrialConfig> cfgs;
    std::vector<std::uint64_t> global_index;
    std::vector<const std::string*> labels;
    cfgs.reserve(wave_trials);
    global_index.reserve(wave_trials);
    labels.reserve(wave_trials);
    for (std::uint64_t t = t_first; t < t_last; ++t) {
      for (const std::size_t c : active) {
        TrialConfig cfg = opts.cells[c].base;
        cfg.seed = opts.seed_base + c * kSeedCellStride + t;
        cfgs.push_back(std::move(cfg));
        global_index.push_back(t * num_cells + c);
        labels.push_back(&opts.cells[c].label);
      }
    }

    std::vector<TrialRecord> records(cfgs.size());
    WaveSink::Report report;
    if (opts.on_report && opts.report_interval_seconds > 0) {
      report = [&](std::uint64_t done, double rate) {
        opts.on_report(make_report(done, rate));
      };
    }
    WaveSink sink(records, global_index, labels,
                  opts.profile ? &folded : nullptr,
                  opts.report_interval_seconds, std::move(report));
    RunOptions ropts;
    ropts.jobs = opts.jobs;
    ropts.collect_results = false;
    ropts.sink = &sink;
    ropts.profile = opts.profile;
    run_trials(cfgs, ropts);
    out.trials_run += records.size();

    // Canonical reduction + spill: ascending global index. The grid was
    // built in that order already; sorting makes the invariant explicit and
    // cheap (records are ~sorted).
    std::sort(records.begin(), records.end(),
              [](const TrialRecord& a, const TrialRecord& b) {
                return a.index < b.index;
              });
    std::string shard;
    for (const TrialRecord& rec : records) {
      apply_trial_record(table, rec);
      shard += trial_record_ndjson(rec);
      shard += '\n';
    }
    const std::string file = shard_name(wave);
    if (!write_file_atomic(opts.out_dir + "/" + file, shard)) {
      out.error = "campaign: cannot write shard " + file;
      return out;
    }
    manifest.shards.push_back(
        CampaignManifest::Shard{file, records.size(), obs::sha256_hex(shard)});
    ++wave;
    evaluate_stops();
    manifest.stopped_cells.clear();
    for (std::size_t c = 0; c < num_cells; ++c) {
      if (stopped[c]) manifest.stopped_cells.push_back(opts.cells[c].label);
    }
    // Manifest after shard: a kill between the two leaves an unlisted shard
    // file, which a resume simply overwrites by rerunning the wave.
    if (!write_file_atomic(out.manifest_path, manifest.json()) ||
        !write_file_atomic(out.aggregates_path, table.ndjson())) {
      out.error = "campaign: cannot write manifest/aggregates";
      return out;
    }
    if (opts.on_report) {
      const double t = elapsed();
      opts.on_report(make_report(
          0, t > 0 ? static_cast<double>(out.trials_run) / t : 0.0));
    }
  }

  out.complete = !session_truncated;
  manifest.complete = out.complete;
  if (!write_file_atomic(out.manifest_path, manifest.json()) ||
      !write_file_atomic(out.aggregates_path, table.ndjson())) {
    out.error = "campaign: cannot write manifest/aggregates";
    return out;
  }
  if (opts.profile && !folded.empty()) {
    std::string text;
    for (const auto& [path, ns] : folded) {
      text += path + " " + std::to_string(ns) + "\n";
    }
    write_file_atomic(opts.out_dir + "/profile.folded", text);
  }
  out.trials_total = table.total_trials();
  out.aggregates = std::move(table);
  out.peak_rss_kb = peak_rss_kb();
  out.ok = true;
  return out;
}

}  // namespace h2sim::experiment
