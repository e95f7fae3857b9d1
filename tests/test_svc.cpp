// Robustness and behavior tests for the resident pass-prediction
// service (src/svc): wire-protocol parsing, PassService query handling
// on a warm rolling horizon, and the TCP server's framing, admission
// control and graceful drain. The protocol contract under test: every
// malformed, hostile or oversized input produces a TYPED error response
// — never a crash, never a hang, never a silently dropped request on a
// live connection. This suite runs under the same sanitizer config as
// the rest of tier-1, so the concurrency paths are exercised checked.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.h"
#include "obs/metrics.h"
#include "orbit/constellation.h"
#include "orbit/ephemeris.h"
#include "orbit/time.h"
#include "svc/loadgen.h"
#include "svc/protocol.h"
#include "svc/server.h"
#include "svc/service.h"

namespace sinet {
namespace {

using svc::ErrorCode;
using svc::PassService;
using svc::ProtocolError;
using svc::Request;
using svc::RequestType;
using svc::ServerOptions;
using svc::ServiceOptions;

double test_epoch_unix_s() {
  return orbit::julian_to_unix(core::campaign_epoch_jd());
}

/// Small deterministic service: 3 FOSSA satellites, fixed virtual epoch.
ServiceOptions small_service_options() {
  ServiceOptions o;
  o.constellation = "FOSSA";
  o.horizon_hours = 6.0;
  o.retention_hours = 0.1;
  o.chunk_samples = 256;
  o.epoch_unix_s = test_epoch_unix_s();
  return o;
}

void expect_error(const std::string& response, const char* code,
                  const std::string& label) {
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << label;
  EXPECT_NE(response.find(std::string("\"error\":\"") + code + "\""),
            std::string::npos)
      << label << ": " << response;
}

// ---- raw-socket helpers (deliberately independent of svc/loadgen) ----

int connect_to_port(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  timeval tv{};
  tv.tv_sec = 30;  // a hang is a bug; fail the recv instead
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Read one newline-terminated line; empty string on timeout / EOF.
std::string recv_line(int fd, std::string& buffer) {
  for (;;) {
    const std::size_t nl = buffer.find('\n');
    if (nl != std::string::npos) {
      const std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return std::string();
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

// ------------------------- protocol parsing --------------------------

TEST(SvcProtocol, ParsesFullRequestAndSkipsUnknownKeys) {
  const Request r = svc::parse_request(
      "{\"type\":\"next_pass\",\"id\":7,\"lat_deg\":22.3,"
      "\"lon_deg\":114.2,\"alt_km\":0.05,\"min_elevation_deg\":15,"
      "\"after_unix_s\":123.5,"
      "\"future_key\":{\"nested\":[1,\"two\",{\"deep\":true}]}}");
  EXPECT_EQ(r.type, RequestType::kNextPass);
  ASSERT_TRUE(r.has_id);
  EXPECT_EQ(r.id, 7u);
  EXPECT_DOUBLE_EQ(r.observer.latitude_deg, 22.3);
  EXPECT_DOUBLE_EQ(r.observer.longitude_deg, 114.2);
  EXPECT_DOUBLE_EQ(r.observer.altitude_km, 0.05);
  EXPECT_DOUBLE_EQ(r.min_elevation_deg, 15.0);
  EXPECT_DOUBLE_EQ(r.after_unix_s, 123.5);

  // Optional fields parse to NaN = "use the server default".
  const Request d = svc::parse_request(
      "{\"type\":\"visibility_now\",\"lat_deg\":0,\"lon_deg\":0}");
  EXPECT_TRUE(std::isnan(d.min_elevation_deg));
  EXPECT_FALSE(d.has_id);

  const Request s = svc::parse_request("{\"type\":\"stats\"}");
  EXPECT_EQ(s.type, RequestType::kStats);
}

void expect_protocol_error(const std::string& line, ErrorCode code,
                           const std::string& label) {
  try {
    (void)svc::parse_request(line);
    FAIL() << label << ": no exception";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), code) << label << ": " << e.what();
  }
}

TEST(SvcProtocol, EveryFailureIsTyped) {
  using EC = ErrorCode;
  expect_protocol_error("not json at all", EC::kParse, "garbage");
  expect_protocol_error("", EC::kParse, "empty");
  expect_protocol_error("{\"type\":\"next_pass\",\"lat_deg\":\"north\","
                        "\"lon_deg\":0}",
                        EC::kParse, "wrong value type");
  expect_protocol_error("{\"type\":\"next_pass\",\"lat_deg\":1",
                        EC::kParse, "truncated object");
  expect_protocol_error("{\"type\":\"hyperdrive\"}", EC::kUnknownType,
                        "unknown type");
  expect_protocol_error("{\"lat_deg\":1,\"lon_deg\":2}", EC::kBadRequest,
                        "missing type");
  expect_protocol_error("{\"type\":\"next_pass\",\"lon_deg\":2}",
                        EC::kBadRequest, "missing lat");
  expect_protocol_error(
      "{\"type\":\"next_pass\",\"lat_deg\":91,\"lon_deg\":0}",
      EC::kBadRequest, "lat out of range");
  expect_protocol_error(
      "{\"type\":\"next_pass\",\"lat_deg\":0,\"lon_deg\":0,"
      "\"min_elevation_deg\":120}",
      EC::kBadRequest, "mask out of range");
  expect_protocol_error(
      "{\"type\":\"passes_in_range\",\"lat_deg\":0,\"lon_deg\":0}",
      EC::kBadRequest, "missing range");
  expect_protocol_error(
      "{\"type\":\"passes_in_range\",\"lat_deg\":0,\"lon_deg\":0,"
      "\"start_unix_s\":100,\"end_unix_s\":50}",
      EC::kBadRequest, "inverted range");
}

TEST(SvcProtocol, ErrorResponsesCarryCodeRetryAndId) {
  Request req;
  req.has_id = true;
  req.id = 42;
  const std::string shed = svc::error_response(
      ErrorCode::kOverloaded, "queue full", &req, /*retry_after_ms=*/75);
  expect_error(shed, "overloaded", "shed");
  EXPECT_NE(shed.find("\"retry_after_ms\":75"), std::string::npos);
  EXPECT_NE(shed.find("\"id\":42"), std::string::npos);

  // retry_after_ms is overload-specific; other codes never carry it.
  const std::string parse =
      svc::error_response(ErrorCode::kParse, "bad", nullptr, 75);
  expect_error(parse, "parse", "parse");
  EXPECT_EQ(parse.find("retry_after_ms"), std::string::npos);
}

// ------------------------ PassService queries ------------------------

TEST(SvcService, AnswersQueriesOnWarmHorizonAndEchoesIds) {
  obs::MetricsRegistry metrics;
  PassService service(small_service_options(), &metrics);
  EXPECT_EQ(service.satellite_count(), 3u);

  // FOSSA flies polar sun-synchronous orbits: a high-latitude site is
  // guaranteed several passes inside a 6 h horizon.
  const std::string next = service.handle_line(
      "{\"type\":\"next_pass\",\"id\":9,\"lat_deg\":60.17,"
      "\"lon_deg\":24.94}");
  EXPECT_NE(next.find("\"ok\":true"), std::string::npos) << next;
  EXPECT_NE(next.find("\"found\":true"), std::string::npos) << next;
  EXPECT_NE(next.find("\"id\":9"), std::string::npos) << next;
  EXPECT_NE(next.find("\"horizon_end_unix_s\""), std::string::npos);

  // The whole-horizon range query sees at least that same pass, sorted.
  const std::string range = service.handle_line(
      "{\"type\":\"passes_in_range\",\"lat_deg\":60.17,\"lon_deg\":24.94,"
      "\"start_unix_s\":0,\"end_unix_s\":253402300800}");
  EXPECT_NE(range.find("\"ok\":true"), std::string::npos) << range;
  EXPECT_EQ(range.find("\"count\":0,"), std::string::npos) << range;

  const std::string vis = service.handle_line(
      "{\"type\":\"visibility_now\",\"lat_deg\":60.17,\"lon_deg\":24.94,"
      "\"min_elevation_deg\":-90}");
  EXPECT_NE(vis.find("\"ok\":true"), std::string::npos) << vis;
  EXPECT_NE(vis.find("\"visible\":["), std::string::npos) << vis;

  const std::string stats = service.handle_line("{\"type\":\"stats\"}");
  EXPECT_NE(stats.find("\"ok\":true"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"satellites\":3"), std::string::npos) << stats;

  // A repeated query must be served from the ContactWindowCache.
  (void)service.handle_line(
      "{\"type\":\"next_pass\",\"lat_deg\":60.17,\"lon_deg\":24.94}");
  const auto payload = service.stats_payload();
  EXPECT_GT(payload.cache_hits, 0u);
  EXPECT_GT(payload.cache_misses, 0u);
  EXPECT_GT(payload.cache_bytes, 0u);
  EXPECT_EQ(payload.requests, 5u);

  // svc.* metrics recorded per request, with a usable latency histogram.
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("svc.requests"), 5u);
  EXPECT_EQ(snap.counters.at("svc.requests.next_pass"), 2u);
  const auto& hist = snap.histograms.at("svc.request_latency_ms");
  EXPECT_EQ(hist.total, 5u);
  EXPECT_FALSE(std::isnan(obs::snapshot_quantile(hist, 0.99)));
}

TEST(SvcService, HandleLineNeverThrowsAndCountsErrors) {
  obs::MetricsRegistry metrics;
  PassService service(small_service_options(), &metrics);
  expect_error(service.handle_line("][;'#"), "parse", "garbage");
  expect_error(service.handle_line("{\"type\":\"warp\"}"), "unknown_type",
               "unknown");
  expect_error(service.handle_line("{\"type\":\"next_pass\"}"),
               "bad_request", "missing observer");
  // Errors echo the id too, when it parsed before the failure.
  const std::string bad = service.handle_line(
      "{\"id\":3,\"type\":\"next_pass\",\"lat_deg\":99,\"lon_deg\":0}");
  expect_error(bad, "bad_request", "bad lat");
  EXPECT_NE(bad.find("\"id\":3"), std::string::npos) << bad;

  EXPECT_EQ(service.stats_payload().errors, 4u);
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("svc.errors.parse"), 1u);
  EXPECT_EQ(snap.counters.at("svc.errors.unknown_type"), 1u);
  EXPECT_EQ(snap.counters.at("svc.errors.bad_request"), 2u);
}

TEST(SvcService, VirtualClockAdvancesAndRetiresHorizon) {
  ServiceOptions opts = small_service_options();
  opts.horizon_hours = 2.0;
  opts.retention_hours = 0.25;
  opts.time_scale = 1e5;  // 1 real second = ~28 virtual hours
  PassService service(opts);

  const auto before = service.stats_payload();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  (void)service.advance_horizon();
  const auto after = service.stats_payload();
  EXPECT_GT(after.now_unix_s, before.now_unix_s + 1000.0);
  EXPECT_GT(after.horizon_advances, before.horizon_advances);
  // The leading edge extended and the trailing edge retired.
  EXPECT_GT(after.horizon_end_unix_s, before.horizon_end_unix_s);
  EXPECT_GT(after.horizon_start_unix_s, before.horizon_start_unix_s);
  // Queries still answer on the advanced horizon.
  EXPECT_NE(service
                .handle_line("{\"type\":\"next_pass\",\"lat_deg\":60.17,"
                             "\"lon_deg\":24.94}")
                .find("\"ok\":true"),
            std::string::npos);
}

// --------------- next_pass against a whole-horizon oracle ---------------

/// next_pass as the whole-horizon definition states it: every satellite's
/// complete scan_satellite window list over a horizon built exactly like
/// the service's, the first window of each whose LOS is after `after`,
/// and the earliest AOS under a strict `<` (so the lowest satellite index
/// wins a tie). The service must answer byte for byte the same.
class NextPassOracle {
 public:
  explicit NextPassOracle(const ServiceOptions& o) : opts_(o) {
    const orbit::JulianDate epoch = orbit::unix_to_julian(o.epoch_unix_s);
    std::vector<orbit::ConstellationSpec> specs;
    if (o.constellation == "all")
      specs = orbit::paper_constellations();
    else
      specs.push_back(orbit::paper_constellation(o.constellation));
    int catalog = 51000;
    for (const orbit::ConstellationSpec& spec : specs) {
      std::vector<orbit::Tle> tles = orbit::generate_tles(spec, epoch, catalog);
      catalog += static_cast<int>(tles.size());
      for (orbit::Tle& tle : tles) tles_.push_back(std::move(tle));
    }
    for (const orbit::Tle& tle : tles_)
      propagators_.push_back(std::make_unique<orbit::Sgp4>(tle));
    std::vector<const orbit::Sgp4*> sats;
    for (const auto& p : propagators_) sats.push_back(p.get());
    orbit::RollingEphemeris::Options ropts;
    ropts.coarse_step_s = o.step_s;
    ropts.chunk_samples = o.chunk_samples;
    ropts.mode = o.mode;
    rolling_ = std::make_unique<orbit::RollingEphemeris>(std::move(sats),
                                                         epoch, ropts);
    (void)rolling_->advance(epoch - o.retention_hours / 24.0,
                            epoch + o.horizon_hours / 24.0);
  }

  [[nodiscard]] double start_unix_s() const {
    return orbit::julian_to_unix(rolling_->start_time());
  }
  [[nodiscard]] double end_unix_s() const {
    return orbit::julian_to_unix(rolling_->end_time());
  }

  /// Every satellite's windows over the whole horizon.
  [[nodiscard]] std::vector<std::vector<orbit::ContactWindow>> windows(
      const orbit::Geodetic& observer, double mask_deg) const {
    orbit::PassPredictionOptions popts;
    popts.min_elevation_deg = mask_deg;
    popts.coarse_step_s = opts_.step_s;
    orbit::GridObserver grid_observer;
    grid_observer.location = observer;
    return rolling_->scan_observer(grid_observer, popts);
  }

  [[nodiscard]] std::string answer(
      const Request& req,
      const std::vector<std::vector<orbit::ContactWindow>>& windows) const {
    const orbit::JulianDate after =
        std::clamp(orbit::unix_to_julian(req.after_unix_s),
                   rolling_->start_time(), rolling_->end_time());
    const orbit::ContactWindow* best = nullptr;
    std::size_t best_sat = 0;
    for (std::size_t s = 0; s < windows.size(); ++s) {
      for (const orbit::ContactWindow& w : windows[s]) {
        if (w.los_jd <= after) continue;
        if (best == nullptr || w.aos_jd < best->aos_jd) {
          best = &w;
          best_sat = s;
        }
        break;
      }
    }
    if (best == nullptr)
      return svc::next_pass_response(req, nullptr, end_unix_s());
    svc::PassEntry entry;
    entry.satellite = tles_[best_sat].name;
    entry.catalog_number = tles_[best_sat].catalog_number;
    entry.aos_unix_s = orbit::julian_to_unix(best->aos_jd);
    entry.los_unix_s = orbit::julian_to_unix(best->los_jd);
    entry.tca_unix_s = orbit::julian_to_unix(best->tca_jd);
    entry.max_elevation_deg = best->max_elevation_deg;
    return svc::next_pass_response(req, &entry, end_unix_s());
  }

 private:
  ServiceOptions opts_;
  std::vector<orbit::Tle> tles_;
  std::vector<std::unique_ptr<orbit::Sgp4>> propagators_;
  std::unique_ptr<orbit::RollingEphemeris> rolling_;
};

/// The whole paper fleet over a 6 h horizon, with a pass cache far
/// smaller than the fleet: a passes_in_range fill keeps only its last
/// satellites, so one next_pass sees cached and walked satellites mixed.
ServiceOptions oracle_service_options(orbit::PropagationMode mode) {
  ServiceOptions o = small_service_options();
  o.constellation = "all";
  o.cache_entries = 16;
  o.mode = mode;
  return o;
}

std::string observer_json(double lat, double lon, double mask) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"lat_deg\":%.17g,\"lon_deg\":%.17g,"
                "\"min_elevation_deg\":%.17g",
                lat, lon, mask);
  return buf;
}

std::string next_pass_line(std::uint64_t id, const std::string& observer,
                           double after_unix_s) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"after_unix_s\":%.17g}", after_unix_s);
  return "{\"type\":\"next_pass\",\"id\":" + std::to_string(id) + "," +
         observer + buf;
}

std::string passes_in_range_line(const std::string& observer) {
  return "{\"type\":\"passes_in_range\"," + observer +
         ",\"start_unix_s\":0,\"end_unix_s\":253402300800}";
}

/// 2,000 (observer, mask, after) cases per propagation mode. `after`
/// falls before the horizon, at its start, inside open windows, just
/// before and after a LOS (where the coarse LOS bracket straddles it),
/// anywhere, and at or past the horizon end (found:false).
void expect_next_pass_matches_oracle(orbit::PropagationMode mode) {
  const ServiceOptions opts = oracle_service_options(mode);
  obs::MetricsRegistry metrics;
  PassService service(opts, &metrics);
  const NextPassOracle oracle(opts);
  const auto horizon = service.stats_payload();
  ASSERT_EQ(horizon.horizon_start_unix_s, oracle.start_unix_s());
  ASSERT_EQ(horizon.horizon_end_unix_s, oracle.end_unix_s());
  const double h_start = oracle.start_unix_s();
  const double h_end = oracle.end_unix_s();

  std::mt19937_64 rng(20250301);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  constexpr int kObservers = 250;
  constexpr int kAftersPerObserver = 8;
  std::uint64_t id = 0;
  int found = 0;
  for (int o = 0; o < kObservers; ++o) {
    const double lat = -85.0 + 170.0 * unit(rng);
    const double lon = -180.0 + 360.0 * unit(rng);
    const double mask = 40.0 * unit(rng);
    const std::string observer = observer_json(lat, lon, mask);
    if (o % 2 == 0) (void)service.handle_line(passes_in_range_line(observer));

    const Request parsed = svc::parse_request(passes_in_range_line(observer));
    const auto windows =
        oracle.windows(parsed.observer, parsed.min_elevation_deg);
    std::vector<orbit::ContactWindow> all;
    for (const auto& w : windows) all.insert(all.end(), w.begin(), w.end());
    const auto any_window = [&]() -> const orbit::ContactWindow* {
      if (all.empty()) return nullptr;
      return &all[static_cast<std::size_t>(unit(rng) * all.size()) %
                  all.size()];
    };
    for (int a = 0; a < kAftersPerObserver; ++a) {
      double after = h_start + unit(rng) * (h_end - h_start);
      const orbit::ContactWindow* w = any_window();
      const double aos = w ? orbit::julian_to_unix(w->aos_jd) : after;
      const double los = w ? orbit::julian_to_unix(w->los_jd) : after;
      switch (a) {
        case 0: after = h_start - 3600.0 * unit(rng); break;
        case 1: after = h_start; break;
        case 2: after = aos + unit(rng) * (los - aos); break;
        case 3: after = los - opts.step_s * unit(rng); break;
        case 4: after = los + opts.step_s * unit(rng); break;
        case 5: after = h_end; break;
        case 6: after = h_end + 3600.0 * unit(rng); break;
        default: break;
      }
      const std::string line = next_pass_line(++id, observer, after);
      const std::string got = service.handle_line(line);
      const std::string want = oracle.answer(svc::parse_request(line), windows);
      ASSERT_EQ(got, want) << line;
      if (got.find("\"found\":true") != std::string::npos) ++found;
    }
  }
  // The cases must exercise both answers and both kinds of satellite.
  EXPECT_GT(found, kObservers);
  EXPECT_LT(found, kObservers * kAftersPerObserver);
  const auto snap = metrics.snapshot();
  EXPECT_GT(snap.counters.at("svc.next_pass.cached_sats"), 0u);
  EXPECT_GT(snap.counters.at("svc.next_pass.scanned_sats"), 0u);
  EXPECT_GT(snap.counters.at("svc.next_pass.refinements"), 0u);
}

TEST(SvcService, NextPassMatchesWholeHorizonOracleReference) {
  expect_next_pass_matches_oracle(orbit::PropagationMode::kReference);
}

TEST(SvcService, NextPassMatchesWholeHorizonOracleFast) {
  expect_next_pass_matches_oracle(orbit::PropagationMode::kFast);
}

TEST(SvcService, NextPassLeavesCacheAsItWasAndRangeFillsIt) {
  PassService service(small_service_options());
  const std::string observer = observer_json(60.17, 24.94, 10.0);
  const double after = service.stats_payload().horizon_start_unix_s;
  (void)service.handle_line(next_pass_line(1, observer, after));
  (void)service.handle_line(next_pass_line(2, observer, after + 7200.0));
  auto cs = service.stats_payload();
  EXPECT_EQ(cs.cache_entries, 0u);
  EXPECT_EQ(cs.cache_hits, 0u);
  EXPECT_EQ(cs.cache_misses, 6u);  // every probe is a miss

  (void)service.handle_line(passes_in_range_line(observer));
  cs = service.stats_payload();
  EXPECT_EQ(cs.cache_entries, service.satellite_count());

  // Now every probe hits, and the answer still leaves the cache alone.
  (void)service.handle_line(next_pass_line(3, observer, after));
  const auto hot = service.stats_payload();
  EXPECT_EQ(hot.cache_entries, cs.cache_entries);
  EXPECT_EQ(hot.cache_hits, cs.cache_hits + service.satellite_count());
  EXPECT_EQ(hot.cache_misses, cs.cache_misses);
}

TEST(SvcService, ResponsesAreIdenticalWithAndWithoutRegistry) {
  obs::MetricsRegistry metrics;
  PassService instrumented(oracle_service_options(orbit::propagation_mode()),
                           &metrics);
  PassService bare(oracle_service_options(orbit::propagation_mode()));
  const double h_start = bare.stats_payload().horizon_start_unix_s;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uint64_t id = 0;
  for (int i = 0; i < 60; ++i) {
    const double lat = -60.0 + 120.0 * unit(rng);
    const double lon = -180.0 + 360.0 * unit(rng);
    const std::string observer = observer_json(lat, lon, 30.0 * unit(rng));
    std::vector<std::string> lines = {
        next_pass_line(++id, observer, h_start + 21600.0 * unit(rng)),
        passes_in_range_line(observer),
        next_pass_line(++id, observer, h_start + 21600.0 * unit(rng)),
        "{\"type\":\"next_pass\",\"lat_deg\":99,\"lon_deg\":0}"};
    for (const std::string& line : lines)
      ASSERT_EQ(instrumented.handle_line(line), bare.handle_line(line)) << line;
  }
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("svc.next_pass.cached_sats") +
                snap.counters.at("svc.next_pass.scanned_sats"),
            120u * instrumented.satellite_count());
  // Per-type latency histograms next to the total; a request that never
  // parsed to a type is only in the total.
  EXPECT_EQ(snap.histograms.at("svc.request_latency_ms.next_pass").total,
            120u);
  EXPECT_EQ(snap.histograms.at("svc.request_latency_ms.passes_in_range").total,
            60u);
  EXPECT_EQ(snap.histograms.at("svc.request_latency_ms").total, 240u);
}

TEST(SvcService, ConcurrentProbesAndFillsAgreeWithSerialAnswers) {
  // Four threads race next_pass probes against passes_in_range fills
  // (and LRU evictions, the cache holding 16 of 39 satellites) on the
  // same observers; every next_pass answer must equal the one a fresh
  // service gives serially.
  const ServiceOptions opts = oracle_service_options(orbit::propagation_mode());
  PassService shared(opts);
  PassService serial(opts);
  const double h_start = serial.stats_payload().horizon_start_unix_s;
  std::vector<std::string> observers;
  for (int i = 0; i < 6; ++i)
    observers.push_back(observer_json(-50.0 + 20.0 * i, 30.0 * i, 5.0 * i));
  std::vector<std::string> queries;
  std::vector<std::string> expected;
  for (int i = 0; i < 48; ++i) {
    queries.push_back(next_pass_line(static_cast<std::uint64_t>(i),
                                     observers[i % observers.size()],
                                     h_start + 450.0 * i));
    expected.push_back(serial.handle_line(queries.back()));
  }
  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round)
        for (std::size_t i = 0; i < queries.size(); ++i) {
          const std::size_t q = (i + 12 * static_cast<std::size_t>(t)) %
                                queries.size();
          if (q % 3 == 0)
            (void)shared.handle_line(
                passes_in_range_line(observers[q % observers.size()]));
          if (shared.handle_line(queries[q]) != expected[q]) ++mismatches[t];
        }
    });
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

// --------------------------- TCP server ------------------------------

TEST(SvcServer, HostileFramesGetTypedErrorsOnALiveConnection) {
  PassService service(small_service_options());
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.max_request_bytes = 256;
  svc::Server server(service, sopts);

  const int fd = connect_to_port(server.port());
  ASSERT_GE(fd, 0);
  std::string buffer;

  ASSERT_TRUE(send_all(fd, "this is not json\n"));
  expect_error(recv_line(fd, buffer), "parse", "garbage line");

  ASSERT_TRUE(send_all(fd, "{\"type\":\"hyperdrive\"}\n"));
  expect_error(recv_line(fd, buffer), "unknown_type", "unknown type");

  // A terminated oversized frame is answered and the connection lives.
  const std::string big(300, 'x');
  ASSERT_TRUE(send_all(fd, big + "\n"));
  expect_error(recv_line(fd, buffer), "oversized", "oversized frame");

  // Blank lines are keepalive no-ops; the real request still answers.
  ASSERT_TRUE(send_all(fd, "\r\n\n{\"type\":\"stats\"}\n"));
  const std::string stats = recv_line(fd, buffer);
  EXPECT_NE(stats.find("\"ok\":true"), std::string::npos) << stats;
  ::close(fd);

  // An UNTERMINATED flood past the frame limit is answered once and the
  // connection is closed (the peer is not speaking the protocol).
  const int flood = connect_to_port(server.port());
  ASSERT_GE(flood, 0);
  std::string flood_buffer;
  ASSERT_TRUE(send_all(flood, std::string(1000, 'y')));
  expect_error(recv_line(flood, flood_buffer), "oversized", "flood");
  EXPECT_EQ(recv_line(flood, flood_buffer), "");  // EOF follows
  ::close(flood);

  // A truncated frame abandoned by a dying client must not wedge the
  // server: the next connection is served normally.
  const int dead = connect_to_port(server.port());
  ASSERT_GE(dead, 0);
  ASSERT_TRUE(send_all(dead, "{\"type\":\"sta"));  // no newline, then gone
  ::close(dead);
  const int alive = connect_to_port(server.port());
  ASSERT_GE(alive, 0);
  std::string alive_buffer;
  ASSERT_TRUE(send_all(alive, "{\"type\":\"stats\"}\n"));
  EXPECT_NE(recv_line(alive, alive_buffer).find("\"ok\":true"),
            std::string::npos);
  ::close(alive);
}

TEST(SvcServer, ConcurrentClientsAllGetAnswers) {
  obs::MetricsRegistry metrics;
  PassService service(small_service_options(), &metrics);
  ServerOptions sopts;
  sopts.workers = 2;
  svc::Server server(service, sopts, &metrics);

  svc::LoadgenOptions lopts;
  lopts.port = server.port();
  lopts.connections = 4;
  lopts.requests = 200;
  lopts.observers = 100;
  const svc::LoadgenResult res = svc::run_loadgen(lopts, &metrics);
  EXPECT_EQ(res.sent, 200u);
  EXPECT_EQ(res.ok + res.shed, res.sent);
  EXPECT_EQ(res.errors, 0u);
  EXPECT_GT(res.p99_ms, 0.0);
  EXPECT_GE(res.p99_ms, res.p50_ms);

  const auto snap = metrics.snapshot();
  EXPECT_GE(snap.counters.at("svc.requests"), res.ok);
  EXPECT_GE(snap.counters.at("svc.connections_accepted"), 4u);
}

TEST(SvcServer, AdmissionControlShedsWithRetryHint) {
  obs::MetricsRegistry metrics;
  PassService service(small_service_options(), &metrics);
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.queue_capacity = 2;
  sopts.retry_after_ms = 75;
  sopts.debug_handler_delay_ms = 50;  // hold the worker so the queue fills
  svc::Server server(service, sopts, &metrics);

  const int fd = connect_to_port(server.port());
  ASSERT_GE(fd, 0);
  constexpr int kBurst = 20;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) burst += "{\"type\":\"stats\"}\n";
  ASSERT_TRUE(send_all(fd, burst));  // pipelined: no reads in between

  std::string buffer;
  int ok = 0, shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    const std::string line = recv_line(fd, buffer);
    ASSERT_FALSE(line.empty()) << "response " << i << " missing";
    if (line.find("\"ok\":true") != std::string::npos) {
      ++ok;
    } else {
      expect_error(line, "overloaded", "burst");
      EXPECT_NE(line.find("\"retry_after_ms\":75"), std::string::npos);
      ++shed;
    }
  }
  ::close(fd);
  EXPECT_EQ(ok + shed, kBurst);  // every request answered, none dropped
  EXPECT_GT(ok, 0);
  EXPECT_GT(shed, 0);  // capacity 2 + slow worker cannot absorb 20
  EXPECT_EQ(service.stats_payload().shed, static_cast<std::uint64_t>(shed));
  EXPECT_EQ(metrics.snapshot().counters.at("svc.shed"),
            static_cast<std::uint64_t>(shed));
}

TEST(SvcServer, GracefulDrainAnswersInFlightThenExits) {
  PassService service(small_service_options());
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.debug_handler_delay_ms = 100;
  svc::Server server(service, sopts);

  const int fd = connect_to_port(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, "{\"type\":\"stats\",\"id\":1}\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  server.request_stop();  // drain begins while the request is in flight
  std::string buffer;
  const std::string line = recv_line(fd, buffer);
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  EXPECT_NE(line.find("\"id\":1"), std::string::npos) << line;
  EXPECT_EQ(recv_line(fd, buffer), "");  // then the server closes
  ::close(fd);
  server.wait();  // joins without hanging — the test's real assertion
}

}  // namespace
}  // namespace sinet
