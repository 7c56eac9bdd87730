#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "defense/defenses.hpp"
#include "defense/policy.hpp"
#include "experiment/harness.hpp"
#include "h2_fixture.hpp"
#include "http/message.hpp"
#include "web/server_app.hpp"
#include "web/website.hpp"

namespace h2sim::web {
namespace {

TEST(Website, IsidewithInventory) {
  const Website site = make_isidewith_site();
  // 5 pre + 1 html + 39 fillers + 8 emblems = 53 objects.
  EXPECT_EQ(site.objects().size(), 53u);
  EXPECT_EQ(site.schedule.size(), 53u);
  ASSERT_EQ(site.emblem_paths.size(), 8u);
  ASSERT_FALSE(site.html_path.empty());
  const WebObject* html = site.find(site.html_path);
  ASSERT_NE(html, nullptr);
  EXPECT_EQ(html->size, 9500u);
  EXPECT_TRUE(html->dynamic);
  EXPECT_EQ(html->label, "html");
}

TEST(Website, HtmlIsSixthRequest) {
  const Website site = make_isidewith_site();
  EXPECT_EQ(site.schedule[5].path, site.html_path);
  IsidewithConfig cfg;
  EXPECT_EQ(experiment::html_get_index(cfg), 6);
}

TEST(Website, EmblemSizesUniqueAndInPaperRange) {
  const IsidewithConfig cfg;
  std::set<std::size_t> sizes(cfg.emblem_sizes.begin(), cfg.emblem_sizes.end());
  EXPECT_EQ(sizes.size(), 8u);
  for (const std::size_t s : cfg.emblem_sizes) {
    EXPECT_GE(s, 5000u);   // "between 5KB to 16KB"
    EXPECT_LE(s, 16384u);
  }
}

TEST(Website, SizesSeparatedBeyondPredictorTolerance) {
  const Website site = make_isidewith_site();
  const IsidewithConfig cfg;
  // No filler or html size within 2% of any emblem size: the attacker's
  // size database must be unambiguous (the paper's premise).
  for (const auto& [path, obj] : site.objects()) {
    if (obj.label.rfind("party", 0) == 0) continue;
    for (const std::size_t e : cfg.emblem_sizes) {
      const double rel = std::abs(static_cast<double>(obj.size) -
                                  static_cast<double>(e)) /
                         static_cast<double>(e);
      EXPECT_GT(rel, 0.02) << obj.path << " collides with emblem size " << e;
    }
  }
}

TEST(Website, TailRecordsSurviveBoundaryFilter) {
  // Every object's final 1024-byte-chunked record must stay above the
  // boundary detector's control-record threshold (body = tail + 25 >= 64),
  // i.e. tail >= 39 bytes, or the delimiter would vanish.
  const Website site = make_isidewith_site();
  for (const auto& [path, obj] : site.objects()) {
    const std::size_t tail = obj.size % 1024;
    if (tail != 0) {
      EXPECT_GE(tail + 25, 64u) << path << " size " << obj.size;
    }
  }
}

TEST(Website, EmblemBurstUsesTableIIGaps) {
  const Website site = make_isidewith_site();
  std::vector<double> gaps;
  for (const auto& step : site.schedule) {
    if (step.path.rfind("EMBLEM_", 0) == 0) {
      gaps.push_back(step.gap_from_prev.to_millis());
    }
  }
  ASSERT_EQ(gaps.size(), 8u);
  // Sub-millisecond gaps of Table II for I2..I8.
  EXPECT_NEAR(gaps[1], 0.4, 1e-9);
  EXPECT_NEAR(gaps[4], 0.1, 1e-9);
  EXPECT_NEAR(gaps[7], 0.5, 1e-9);
}

TEST(Website, GatesOrdered) {
  const Website site = make_isidewith_site();
  // Pre-objects and html: no gate; head fillers gate on first byte; emblems
  // and trailing fillers on completion.
  for (int i = 0; i < 6; ++i) EXPECT_EQ(site.schedule[static_cast<std::size_t>(i)].gate, Gate::kNone);
  bool saw_first_byte_gate = false, saw_complete_gate = false;
  for (const auto& s : site.schedule) {
    if (s.gate == Gate::kHtmlFirstByte) saw_first_byte_gate = true;
    if (s.gate == Gate::kHtmlComplete) saw_complete_gate = true;
  }
  EXPECT_TRUE(saw_first_byte_gate);
  EXPECT_TRUE(saw_complete_gate);
}

TEST(Website, TwoObjectSite) {
  const Website site = make_two_object_site(1000, 2000);
  EXPECT_EQ(site.objects().size(), 2u);
  EXPECT_EQ(site.find("/o1")->size, 1000u);
  EXPECT_EQ(site.find_by_label("O2")->size, 2000u);
}

TEST(Website, EmblemGetIndices) {
  IsidewithConfig cfg;
  // GETs: 5 pre, html (6), 12 head fillers (7..18), emblems (19..26).
  EXPECT_EQ(experiment::emblem_get_index(cfg, 0), 19);
  EXPECT_EQ(experiment::emblem_get_index(cfg, 7), 26);
}

// A ServerApp serving `site` to an H2 client that records every response
// body byte by stream. The client's small stream window keeps response bytes
// queued in the server's streams long after the app has produced them, so a
// served body that dies before its stream has sent it shows.
class ServedBytes {
 public:
  struct Response {
    std::size_t content_length = 0;
    std::vector<std::uint8_t> body;
    bool ended = false;
    std::optional<h2::ErrorCode> reset;
  };

  ServedBytes(const Website& site, defense::PaddingSpec padding,
              bool serial_workers = false)
      : pair_(h2::ConnectionConfig{}, small_window()) {
    pair_.run(1);
    ServerAppConfig cfg;
    cfg.serial_workers = serial_workers;
    app_ = std::make_unique<ServerApp>(pair_.loop, site, *pair_.server, sim::Rng(5),
                                       std::move(padding), cfg);
    h2::ClientConnection::Handlers ch;
    ch.on_response_headers = [this](std::uint32_t sid, const hpack::HeaderList& h) {
      for (const auto& f : h) {
        if (f.name == "content-length") responses[sid].content_length = std::stoul(f.value);
      }
    };
    ch.on_response_data = [this](std::uint32_t sid, std::span<const std::uint8_t> b,
                                 bool end) {
      Response& r = responses[sid];
      r.body.insert(r.body.end(), b.begin(), b.end());
      r.ended |= end;
    };
    ch.on_reset = [this](std::uint32_t sid, h2::ErrorCode code) {
      responses[sid].reset = code;
    };
    pair_.client->set_handlers(std::move(ch));
  }

  std::uint32_t get(const std::string& path) {
    http::Request r;
    r.authority = "example.com";
    r.path = path;
    return pair_.client->send_request(r.to_h2_headers());
  }
  void cancel(std::uint32_t sid) { pair_.client->cancel(sid); }
  /// Sends a raw WINDOW_UPDATE, bypassing the client's own accounting.
  void window_update(std::uint32_t sid, std::uint32_t increment) {
    pair_.client_tls->write(h2::serialize_frame(
        {h2::FrameType::kWindowUpdate, 0, sid, h2::encode_window_update(increment)}));
  }
  const ServerApp& app() const { return *app_; }
  void run(double seconds) { pair_.run(seconds); }

  std::map<std::uint32_t, Response> responses;

 private:
  static h2::ConnectionConfig small_window() {
    h2::ConnectionConfig c;
    c.initial_window_size = 4096;
    return c;
  }

  testing::H2Pair pair_;
  std::unique_ptr<ServerApp> app_;
};

// The byte at offset j of an object of size s is (j*131 + s) mod 256
// (Website::body); a padding byte at offset j of a w-byte serving is
// (j*131 + w) mod 256.
std::uint8_t filler(std::size_t pos, std::size_t size) {
  return static_cast<std::uint8_t>(pos * 131 + size);
}

// Checks `r` against an object of `size` bytes that was served with
// `r.content_length` bytes; returns the number of bytes checked.
std::size_t expect_served(const ServedBytes::Response& r, std::size_t size) {
  for (std::size_t j = 0; j < r.body.size(); ++j) {
    const std::uint8_t want =
        j < size ? filler(j, size) : filler(j, r.content_length);
    if (r.body[j] != want) {
      ADD_FAILURE() << "byte " << j << " of " << r.content_length << ": got "
                    << int{r.body[j]} << ", want " << int{want};
      return j;
    }
  }
  return r.body.size();
}

// Every object body is a window of the site's one pattern, at the phase its
// size picks. Sizes 0..600 cover all 256 phases; the isidewith site with
// dummies covers every size a trial serves. The pattern itself stays the
// size of the largest object, not of the sum of all bodies.
TEST(Website, BodyIsTheFillerFormulaAtEveryPhase) {
  const auto check = [](const Website& site) {
    std::size_t largest = 0;
    for (const auto& [path, obj] : site.objects()) {
      const auto body = site.body(obj);
      ASSERT_EQ(body.size(), obj.size) << path;
      for (std::size_t j = 0; j < body.size(); ++j) {
        ASSERT_EQ(body[j], (j * 131 + obj.size) & 0xff)
            << path << " byte " << j << " of " << obj.size;
      }
      largest = std::max(largest, obj.size);
    }
    // filler(0, ...) starts at phase 0, so it spans the whole pattern.
    EXPECT_LE(site.filler(0, SIZE_MAX).size(), largest + 512);
  };

  Website phases;
  for (std::size_t n = 0; n <= 600; ++n) {
    WebObject o;
    o.path = "/o" + std::to_string(n);
    o.size = n;
    phases.add_object(o);
  }
  check(phases);

  Website site = make_isidewith_site();
  sim::Rng rng(3);
  defense::inject_dummies(site, rng, 8);
  check(site);
}

TEST(ServerApp, ServedBytesMatchContentAndPaddingOnEveryBodyPath) {
  constexpr std::size_t kSize = 20000;
  Website site;
  WebObject obj;
  obj.path = "/obj";
  obj.size = kSize;
  site.add_object(obj);

  {  // Unpadded: consecutive windows of the site's pattern.
    ServedBytes s(site, defense::PaddingSpec::none());
    const std::uint32_t sid = s.get("/obj");
    s.run(10);
    const auto& r = s.responses[sid];
    EXPECT_TRUE(r.ended);
    EXPECT_EQ(r.content_length, kSize);
    EXPECT_EQ(r.body.size(), kSize);
    EXPECT_EQ(expect_served(r, kSize), kSize);
  }
  {  // Randomized padding: each serving's body, padded tail included, is
     // built once. Requests are staggered so a serving starts while earlier
     // ones still have bytes queued.
    ServedBytes s(site, defense::PaddingSpec::random_pad(0.5));
    std::vector<std::uint32_t> sids;
    for (int i = 0; i < 3; ++i) {
      sids.push_back(s.get("/obj"));
      s.run(0.03);
    }
    s.run(10);
    for (const std::uint32_t sid : sids) {
      const auto& r = s.responses[sid];
      EXPECT_TRUE(r.ended);
      EXPECT_GT(r.content_length, kSize) << "this seed pads every serving";
      EXPECT_EQ(r.body.size(), r.content_length);
      EXPECT_EQ(expect_served(r, kSize), r.content_length);
    }
  }
  {  // Padding several times longer than the site's pattern: the tail wraps
     // on the pattern's 256-byte period.
    ServedBytes s(site, defense::PaddingSpec::quantum_pad(100'003));
    const std::uint32_t sid = s.get("/obj");
    s.run(10);
    const auto& r = s.responses[sid];
    EXPECT_TRUE(r.ended);
    EXPECT_EQ(r.content_length, 100'003u);
    EXPECT_GT(r.content_length - kSize, 3 * site.filler(0, SIZE_MAX).size());
    EXPECT_EQ(r.body.size(), r.content_length);
    EXPECT_EQ(expect_served(r, kSize), r.content_length);
  }
  {  // A reset mid-body, then a fresh request for the same object.
    for (const defense::PaddingSpec& padding :
         {defense::PaddingSpec::none(), defense::PaddingSpec::random_pad(0.5)}) {
      ServedBytes s(site, padding);
      const std::uint32_t reset = s.get("/obj");
      for (int i = 0; i < 1000 && s.responses[reset].body.empty(); ++i) s.run(0.001);
      s.cancel(reset);
      const std::uint32_t fresh = s.get("/obj");
      s.run(10);
      const auto& cut = s.responses[reset];
      EXPECT_FALSE(cut.ended);
      EXPECT_GT(cut.body.size(), 0u);
      EXPECT_LT(cut.body.size(), cut.content_length);
      EXPECT_EQ(expect_served(cut, kSize), cut.body.size());
      const auto& r = s.responses[fresh];
      EXPECT_TRUE(r.ended);
      EXPECT_EQ(r.body.size(), r.content_length);
      EXPECT_EQ(expect_served(r, kSize), r.content_length);
    }
  }
}

// A reset the server's connection sends itself, here for a WINDOW_UPDATE
// that overflows a stream's send window past 2^31-1 mid-body (RFC 7540
// §6.9.1), reaches the app exactly like a peer RST: the worker stops and, in
// serial mode, the queued request starts at once.
TEST(ServerApp, ConnectionResetOfAStreamCancelsItsWorker) {
  Website site;
  WebObject obj;
  obj.path = "/big";
  obj.size = 2'000'000;
  site.add_object(obj);
  obj.path = "/next";
  obj.size = 20000;
  site.add_object(obj);

  ServedBytes s(site, defense::PaddingSpec::none(), /*serial_workers=*/true);
  const std::uint32_t big = s.get("/big");
  const std::uint32_t next = s.get("/next");
  for (int i = 0; i < 1000 && s.responses[big].body.empty(); ++i) s.run(0.001);
  ASSERT_FALSE(s.responses[big].body.empty());
  ASSERT_TRUE(s.app().producing(big));
  ASSERT_FALSE(s.app().producing(next));

  // Two increments of 2^31-1: whatever the window is, the second overflows.
  s.window_update(big, 0x7FFFFFFF);
  s.window_update(big, 0x7FFFFFFF);
  // The big body takes 0.8 s to produce; the reset must stop it well before.
  for (int i = 0; i < 200 && s.app().producing(big); ++i) s.run(0.001);
  EXPECT_FALSE(s.app().producing(big));
  EXPECT_TRUE(s.app().producing(next));

  s.run(10);
  const auto& cut = s.responses[big];
  EXPECT_EQ(cut.reset, h2::ErrorCode::kFlowControlError);
  EXPECT_FALSE(cut.ended);
  EXPECT_LT(cut.body.size(), cut.content_length);
  EXPECT_EQ(expect_served(cut, 2'000'000), cut.body.size());
  const auto& r = s.responses[next];
  EXPECT_TRUE(r.ended);
  EXPECT_EQ(r.body.size(), 20000u);
  EXPECT_EQ(expect_served(r, 20000), r.content_length);
}

}  // namespace
}  // namespace h2sim::web
