#include "svc/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "obs/metrics.h"
#include "orbit/constellation.h"
#include "orbit/look_angles.h"
#include "orbit/frames.h"
#include "orbit/time.h"

namespace sinet::svc {

namespace {

const char* request_type_name(RequestType type) noexcept {
  switch (type) {
    case RequestType::kNextPass: return "next_pass";
    case RequestType::kPassesInRange: return "passes_in_range";
    case RequestType::kVisibilityNow: return "visibility_now";
    case RequestType::kStats: return "stats";
  }
  return "stats";
}

double wall_clock_unix_s() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

PassService::PassService(const ServiceOptions& opts,
                         obs::MetricsRegistry* metrics)
    : opts_(opts), metrics_(metrics),
      cache_(opts.cache_entries, opts.cache_bytes),
      t0_(std::chrono::steady_clock::now()) {
  if (!(opts_.horizon_hours > 0.0))
    throw std::invalid_argument("PassService: nonpositive horizon_hours");
  if (!(opts_.retention_hours >= 0.0))
    throw std::invalid_argument("PassService: negative retention_hours");
  if (!(opts_.step_s > 0.0))
    throw std::invalid_argument("PassService: nonpositive step_s");
  if (!(opts_.time_scale > 0.0))
    throw std::invalid_argument("PassService: nonpositive time_scale");
  epoch_unix_s_ = std::isnan(opts_.epoch_unix_s) ? wall_clock_unix_s()
                                                 : opts_.epoch_unix_s;

  // The paper's Table 3 fleets, TLEs generated at the service epoch so
  // the horizon is busy from the first query.
  const orbit::JulianDate epoch_jd = orbit::unix_to_julian(epoch_unix_s_);
  std::vector<orbit::ConstellationSpec> specs;
  if (opts_.constellation == "all") {
    specs = orbit::paper_constellations();
  } else {
    specs.push_back(orbit::paper_constellation(opts_.constellation));
  }
  int catalog = 51000;
  for (const orbit::ConstellationSpec& spec : specs) {
    std::vector<orbit::Tle> tles =
        orbit::generate_tles(spec, epoch_jd, catalog);
    catalog += static_cast<int>(tles.size());
    for (orbit::Tle& tle : tles) tles_.push_back(std::move(tle));
  }
  propagators_.reserve(tles_.size());
  for (const orbit::Tle& tle : tles_) propagators_.emplace_back(tle);

  std::vector<const orbit::Sgp4*> sats;
  sats.reserve(propagators_.size());
  for (const orbit::Sgp4& p : propagators_) sats.push_back(&p);
  orbit::RollingEphemeris::Options ropts;
  ropts.coarse_step_s = opts_.step_s;
  ropts.chunk_samples = opts_.chunk_samples;
  ropts.cull = true;
  ropts.mode = opts_.mode;
  rolling_ = std::make_unique<orbit::RollingEphemeris>(std::move(sats),
                                                       epoch_jd, ropts);
  advance_horizon();
}

orbit::JulianDate PassService::now_jd() const {
  return orbit::unix_to_julian(now_unix_s());
}

double PassService::now_unix_s() const {
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
          .count();
  return epoch_unix_s_ + elapsed * opts_.time_scale;
}

orbit::RollingEphemeris::AdvanceStats PassService::advance_horizon() {
  std::unique_lock<std::shared_mutex> lock(horizon_mutex_);
  const orbit::JulianDate now = now_jd();
  const orbit::JulianDate cover = now + opts_.horizon_hours / 24.0;
  const orbit::JulianDate retire = now - opts_.retention_hours / 24.0;
  const auto stats = rolling_->advance(retire, cover, nullptr);
  advances_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_ != nullptr) {
    metrics_->counter("svc.horizon.advances").add(1);
    metrics_->counter("svc.horizon.chunks_appended").add(stats.chunks_appended);
    metrics_->counter("svc.horizon.chunks_retired").add(stats.chunks_retired);
    metrics_->counter("svc.horizon.propagations").add(stats.propagations);
    metrics_->gauge("svc.horizon.resident_bytes")
        .set(static_cast<double>(rolling_->resident_bytes()));
    metrics_->gauge("svc.horizon.samples")
        .set(static_cast<double>(rolling_->sample_count()));
  }
  refresh_gauges();
  return stats;
}

void PassService::refresh_gauges() {
  if (metrics_ == nullptr) return;
  const auto cs = cache_.stats();
  metrics_->gauge("orbit.pass_cache.entries")
      .set(static_cast<double>(cs.entries));
  metrics_->gauge("orbit.pass_cache.bytes").set(static_cast<double>(cs.bytes));
  metrics_->gauge("svc.cache.hit_rate")
      .set(cs.hits + cs.misses == 0
               ? 0.0
               : static_cast<double>(cs.hits) /
                     static_cast<double>(cs.hits + cs.misses));
}

std::string PassService::handle_line(const std::string& line) {
  const auto t0 = std::chrono::steady_clock::now();
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_ != nullptr) metrics_->counter("svc.requests").add(1);

  std::string response;
  const char* type = nullptr;  // set once the line parses
  try {
    const Request req = parse_request(line);
    type = request_type_name(req.type);
    if (metrics_ != nullptr)
      metrics_->counter(std::string("svc.requests.") + type).add(1);
    response = handle(req);
  } catch (const ProtocolError& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_ != nullptr) {
      metrics_->counter("svc.errors").add(1);
      metrics_
          ->counter(std::string("svc.errors.") + error_code_name(e.code()))
          .add(1);
    }
    Request echo;  // carry the parsed id (if any) into the error
    echo.has_id = e.has_id();
    echo.id = e.id();
    response = error_response(e.code(), e.what(), &echo);
  } catch (const std::exception& e) {
    // Bug shield: a handler exception is still a typed response, never a
    // dropped connection or a crash.
    errors_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_ != nullptr) {
      metrics_->counter("svc.errors").add(1);
      metrics_->counter("svc.errors.internal").add(1);
    }
    response = error_response(ErrorCode::kInternal, e.what());
  }

  if (metrics_ != nullptr) {
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    // hi = 250 ms keeps every sane SLO threshold below the overflow
    // bucket (see obs::snapshot_quantile's gate contract).
    metrics_->histogram("svc.request_latency_ms", 0.0, 250.0, 500).record(ms);
    if (type != nullptr)
      metrics_
          ->histogram(std::string("svc.request_latency_ms.") + type, 0.0,
                      250.0, 500)
          .record(ms);
  }
  return response;
}

std::string PassService::handle(const Request& req) {
  switch (req.type) {
    case RequestType::kNextPass: return handle_next_pass(req);
    case RequestType::kPassesInRange: return handle_passes_in_range(req);
    case RequestType::kVisibilityNow: return handle_visibility_now(req);
    case RequestType::kStats: return stats_response(req, stats_payload());
  }
  throw ProtocolError(ErrorCode::kInternal, "unhandled request type");
}

std::vector<orbit::ContactWindow> PassService::windows_for(
    std::size_t sat, const orbit::Geodetic& observer, double mask_deg,
    orbit::JulianDate h_start, orbit::JulianDate h_end) {
  orbit::PassPredictionOptions popts;
  popts.min_elevation_deg = mask_deg;
  popts.coarse_step_s = opts_.step_s;
  return cache_.get_or_compute(
      tles_[sat], observer, h_start, h_end, popts, opts_.mode, [&] {
        orbit::GridObserver grid_observer;
        grid_observer.location = observer;
        return rolling_->scan_satellite(sat, grid_observer, popts);
      });
}

std::string PassService::handle_next_pass(const Request& req) {
  const double mask = std::isnan(req.min_elevation_deg)
                          ? opts_.min_elevation_deg
                          : req.min_elevation_deg;
  std::shared_lock<std::shared_mutex> lock(horizon_mutex_);
  const orbit::JulianDate h_start = rolling_->start_time();
  const orbit::JulianDate h_end = rolling_->end_time();
  const orbit::JulianDate after_jd = std::clamp(
      std::isnan(req.after_unix_s) ? now_jd()
                                   : orbit::unix_to_julian(req.after_unix_s),
      h_start, h_end);
  orbit::PassPredictionOptions popts;
  popts.min_elevation_deg = mask;
  popts.coarse_step_s = opts_.step_s;
  orbit::GridObserver grid_observer;
  grid_observer.location = req.observer;

  // Each satellite's first window with LOS after `after`: whole from the
  // cache when that satellite's windows are there, otherwise from a grid
  // walk that stops at that window and leaves its transitions unrefined.
  // Nothing is inserted: filling the cache would cost the whole-horizon
  // refinement this answer does not need (passes_in_range fills it).
  struct Candidate {
    std::size_t sat = 0;
    orbit::WindowBrackets brackets;
    std::optional<orbit::ContactWindow> cached;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(propagators_.size());
  std::uint64_t cached_sats = 0;
  std::uint64_t refinements = 0;
  for (std::size_t s = 0; s < propagators_.size(); ++s) {
    Candidate c;
    c.sat = s;
    if (const auto windows = cache_.find(tles_[s], req.observer, h_start,
                                         h_end, popts, opts_.mode)) {
      ++cached_sats;
      const auto it = std::find_if(
          windows->begin(), windows->end(),
          [&](const orbit::ContactWindow& w) { return w.los_jd > after_jd; });
      if (it == windows->end()) continue;
      c.cached = *it;
      c.brackets.aos_lo = c.brackets.aos_hi = it->aos_jd;
      candidates.push_back(c);
      continue;
    }
    const bool found = rolling_->first_window_after(s, grid_observer, popts,
                                                    after_jd, c.brackets);
    refinements += c.brackets.refinements;
    if (found) candidates.push_back(c);
  }

  // The earliest AOS wins, the lowest satellite index on a tie. A
  // refined AOS never precedes its bracket, so refining in order of the
  // lower bounds can stop at the first bound past the best AOS so far.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.brackets.aos_lo != b.brackets.aos_lo
                         ? a.brackets.aos_lo < b.brackets.aos_lo
                         : a.sat < b.sat;
            });
  const orbit::TopocentricFrame frame(req.observer);
  const Candidate* best = nullptr;
  orbit::JulianDate best_aos = 0.0;
  for (const Candidate& c : candidates) {
    if (best != nullptr && c.brackets.aos_lo > best_aos) break;
    orbit::JulianDate aos = c.brackets.aos_lo;
    if (!c.brackets.aos_exact()) {
      ++refinements;
      aos = orbit::refine_mask_crossing(
          orbit::ElevationSampler(propagators_[c.sat], frame),
          c.brackets.aos_lo, c.brackets.aos_hi, mask,
          popts.refine_tolerance_s);
    }
    if (best == nullptr || aos < best_aos ||
        (aos == best_aos && c.sat < best->sat)) {
      best = &c;
      best_aos = aos;
    }
  }

  orbit::ContactWindow w;
  if (best != nullptr && best->cached) {
    w = *best->cached;
  } else if (best != nullptr) {
    const orbit::ElevationSampler sampler(propagators_[best->sat], frame);
    w.aos_jd = best_aos;
    w.los_jd = best->brackets.los_lo;
    if (!best->brackets.los_exact()) {
      ++refinements;
      w.los_jd = orbit::refine_mask_crossing(
          sampler, best->brackets.los_lo, best->brackets.los_hi, mask,
          popts.refine_tolerance_s);
    }
    ++refinements;
    const auto [tca, elev] =
        orbit::refine_max_elevation(sampler, w.aos_jd, w.los_jd);
    w.tca_jd = tca;
    w.max_elevation_deg = elev;
  }
  if (metrics_ != nullptr) {
    metrics_->counter("svc.next_pass.cached_sats").add(cached_sats);
    metrics_->counter("svc.next_pass.scanned_sats")
        .add(propagators_.size() - cached_sats);
    metrics_->counter("svc.next_pass.refinements").add(refinements);
  }

  if (best == nullptr)
    return next_pass_response(req, nullptr, orbit::julian_to_unix(h_end));
  PassEntry entry;
  entry.satellite = tles_[best->sat].name;
  entry.catalog_number = tles_[best->sat].catalog_number;
  entry.aos_unix_s = orbit::julian_to_unix(w.aos_jd);
  entry.los_unix_s = orbit::julian_to_unix(w.los_jd);
  entry.tca_unix_s = orbit::julian_to_unix(w.tca_jd);
  entry.max_elevation_deg = w.max_elevation_deg;
  return next_pass_response(req, &entry, orbit::julian_to_unix(h_end));
}

std::string PassService::handle_passes_in_range(const Request& req) {
  const double mask = std::isnan(req.min_elevation_deg)
                          ? opts_.min_elevation_deg
                          : req.min_elevation_deg;
  std::shared_lock<std::shared_mutex> lock(horizon_mutex_);
  const orbit::JulianDate h_start = rolling_->start_time();
  const orbit::JulianDate h_end = rolling_->end_time();
  const orbit::JulianDate q_start =
      std::clamp(orbit::unix_to_julian(req.start_unix_s), h_start, h_end);
  const orbit::JulianDate q_end =
      std::clamp(orbit::unix_to_julian(req.end_unix_s), h_start, h_end);

  std::vector<PassEntry> entries;
  for (std::size_t s = 0; s < propagators_.size(); ++s) {
    const std::vector<orbit::ContactWindow> windows =
        windows_for(s, req.observer, mask, h_start, h_end);
    for (const orbit::ContactWindow& w : windows) {
      if (w.los_jd < q_start || w.aos_jd > q_end) continue;
      PassEntry entry;
      entry.satellite = tles_[s].name;
      entry.catalog_number = tles_[s].catalog_number;
      entry.aos_unix_s = orbit::julian_to_unix(w.aos_jd);
      entry.los_unix_s = orbit::julian_to_unix(w.los_jd);
      entry.tca_unix_s = orbit::julian_to_unix(w.tca_jd);
      entry.max_elevation_deg = w.max_elevation_deg;
      entries.push_back(std::move(entry));
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const PassEntry& a, const PassEntry& b) {
              return a.aos_unix_s != b.aos_unix_s
                         ? a.aos_unix_s < b.aos_unix_s
                         : a.catalog_number < b.catalog_number;
            });
  return passes_in_range_response(req, entries);
}

std::string PassService::handle_visibility_now(const Request& req) {
  const double mask = std::isnan(req.min_elevation_deg)
                          ? opts_.min_elevation_deg
                          : req.min_elevation_deg;
  std::shared_lock<std::shared_mutex> lock(horizon_mutex_);
  const std::size_t k = rolling_->nearest_index(now_jd());
  const orbit::TopocentricFrame frame(req.observer);
  std::vector<VisibleEntry> visible;
  for (std::size_t s = 0; s < propagators_.size(); ++s) {
    const double elevation = orbit::elevation_from_ecef(
        frame, rolling_->sample_position_ecef_km(s, k));
    if (elevation < mask) continue;
    VisibleEntry entry;
    entry.satellite = tles_[s].name;
    entry.catalog_number = tles_[s].catalog_number;
    entry.elevation_deg = elevation;
    visible.push_back(std::move(entry));
  }
  return visibility_now_response(
      req, orbit::julian_to_unix(rolling_->sample_time(k)), visible);
}

StatsPayload PassService::stats_payload() {
  StatsPayload payload;
  {
    std::shared_lock<std::shared_mutex> lock(horizon_mutex_);
    payload.horizon_start_unix_s =
        orbit::julian_to_unix(rolling_->start_time());
    payload.horizon_end_unix_s = orbit::julian_to_unix(rolling_->end_time());
    payload.horizon_resident_bytes = rolling_->resident_bytes();
  }
  payload.now_unix_s = now_unix_s();
  payload.satellites = propagators_.size();
  payload.requests = requests_.load(std::memory_order_relaxed);
  payload.errors = errors_.load(std::memory_order_relaxed);
  payload.shed = shed_.load(std::memory_order_relaxed);
  payload.horizon_advances = advances_.load(std::memory_order_relaxed);
  const auto cs = cache_.stats();
  payload.cache_hits = cs.hits;
  payload.cache_misses = cs.misses;
  payload.cache_entries = cs.entries;
  payload.cache_bytes = cs.bytes;
  refresh_gauges();
  return payload;
}

}  // namespace sinet::svc
