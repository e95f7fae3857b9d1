#include "core/passive_campaign.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "channel/weather.h"
#include "core/scheduler.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "orbit/geodetic.h"
#include "orbit/look_angles.h"
#include "orbit/sun.h"
#include "phy/lora.h"
#include "sim/rng.h"
#include "sim/thread_pool.h"

namespace sinet::core {

PassiveCampaignConfig default_campaign(double duration_days) {
  PassiveCampaignConfig cfg;
  cfg.start_jd = campaign_epoch_jd();
  cfg.duration_days = duration_days;
  cfg.sites = paper_measurement_sites();
  cfg.constellations = orbit::paper_constellations();
  cfg.beacon.period_s = 10.0;
  cfg.beacon.payload_bytes = 24;
  // Calibrated to the paper's observed regime (tools/calibrate_channel):
  // nanosat UHF beacons run ~70 mW EIRP after tumbling/pointing losses,
  // and the TinyGS stations sit in cities where man-made UHF noise adds
  // ~8 dB over thermal. This lands contact-window shrink at 71-85%
  // (paper: 73.7-89.2%) with receptions clustered mid-window (Fig 9).
  cfg.beacon_link.tx_power_dbm = 18.5;
  cfg.beacon_link.external_noise_db = 8.0;
  cfg.beacon_link.implementation_loss_db = 2.0;
  cfg.beacon_link.fading.shadowing_sigma_db = 3.0;
  cfg.beacon_link.tx_antenna = channel::AntennaType::kDipole;
  cfg.beacon_link.rx_antenna = channel::AntennaType::kQuarterWaveMonopole;
  cfg.beacon_link.lora = phy::default_dts_params();
  return cfg;
}

std::vector<orbit::ContactWindow> PassiveCampaignResult::cell_windows(
    const CellKey& key) const {
  std::vector<orbit::ContactWindow> out;
  const auto it = theoretical.find(key);
  if (it == theoretical.end()) return out;
  for (const SatelliteWindows& sw : it->second)
    out.insert(out.end(), sw.windows.begin(), sw.windows.end());
  return out;
}

namespace {

/// Everything needed to observe one satellite from one site.
struct SatelliteAsset {
  orbit::Sgp4 propagator;
  phy::LinkConfig link;
};

// The observe stage walks every scheduled window's beacon grid in two
// stages. The geometry stage (eclipse gate, look angles at t and t + 1 s,
// Doppler rate, weather, prepared link budget and demodulator) draws no
// random numbers, so any thread may run it. The draw stage runs on the
// calling thread in grid order, drawing from the site's stream exactly as
// a serial walk would, so every record is unchanged whatever the thread
// count.
//
// The two stages meet in a ring of chunks of consecutive beacon
// instants. Every thread, the calling one included, claims the next
// chunk of the grid and runs its geometry; the calling thread also draws
// each chunk, in grid order, once its geometry is done. A thread only
// waits when the ring is full, or (the calling thread) when the chunk
// due next is still in another thread's hands and nothing is left to
// claim, so a descheduled worker holds back one chunk while the others
// fill the ring, rather than stalling everyone at a barrier.

/// Beacon instants per chunk, and chunks in the ring. The ring is
/// allocated once by the calling thread, so workers never allocate.
constexpr std::size_t kChunkSlots = 64;
constexpr std::size_t kRingChunks = 64;

/// One beacon instant of a scheduled window. The claiming thread sets
/// `jd` and `window`; the geometry stage fills in the rest.
struct BeaconSlot {
  enum class State : std::uint8_t { kMuted, kBelowHorizon, kVisible };

  orbit::JulianDate jd = 0.0;
  std::uint32_t window = 0;  ///< index into the site's observations
  State state = State::kMuted;
  channel::Weather weather = channel::Weather::kSunny;
  orbit::LookAngles look;
  orbit::Vec3 ecef_km;  ///< sub-satellite altitude of received beacons
  phy::PreparedLink link;
  phy::PreparedReception rx;
};

/// A run of consecutive beacon instants on the grid.
struct BeaconChunk {
  std::array<BeaconSlot, kChunkSlots> slots;
  std::size_t size = 0;
  std::uint64_t seq = 0;  ///< position of the chunk on the site's grid
  bool ready = false;     ///< geometry done (guarded by the ring's mutex)
};

/// Read-only inputs of one site's observe stage.
struct SiteContext {
  const PassiveCampaignConfig& cfg;
  const MeasurementSite& site;
  orbit::TopocentricFrame frame;
  const std::vector<ScheduledObservation>& observations;
  std::vector<const SatelliteAsset*> assets;  ///< per observation
  const std::vector<channel::Weather>& weather;
  const phy::ErrorModel& error_model;
};

/// The chunks between the geometry and draw stages. Grid chunk k lives
/// in chunks[k % kRingChunks] from its claim until it has been drawn.
/// Every member but `chunks`' slot contents is guarded by `m`.
struct BeaconRing {
  std::vector<BeaconChunk> chunks = std::vector<BeaconChunk>(kRingChunks);
  std::mutex m;
  std::condition_variable due_ready;    ///< the due chunk was published
  std::condition_variable space_freed;  ///< a chunk was drawn, or closed
  // Grid cursor: the window and the offset of its next beacon.
  std::size_t window = 0;
  double t = 0.0;
  std::uint64_t claimed = 0;  ///< chunks claimed on this site's grid
  std::uint64_t drawn = 0;    ///< chunks drawn; chunk `drawn` is due
  bool closed = false;        ///< no chunk will be claimed any more
  bool drawer_waiting = false;
  std::size_t helpers_waiting = 0;
  std::exception_ptr error;  ///< of the lowest failed chunk
  std::uint64_t error_seq = 0;

  /// Start on a new site's grid. No other thread may be using the ring.
  void reset() {
    window = 0;
    t = 0.0;
    claimed = drawn = 0;
    closed = false;
    error = nullptr;
  }

  /// Stop all claiming and wake every waiting thread.
  void close() {
    closed = true;
    space_freed.notify_all();
    due_ready.notify_all();
  }
};

/// Claim the next chunk of the grid and stage its instants; with `m`
/// held. Null when the ring is closed or full, and closes it when the
/// grid has no instant left.
BeaconChunk* claim_chunk(const SiteContext& ctx, BeaconRing& ring) {
  if (ring.closed || ring.claimed - ring.drawn == kRingChunks) return nullptr;
  BeaconChunk& chunk = ring.chunks[ring.claimed % kRingChunks];
  chunk.size = 0;
  while (ring.window < ctx.observations.size() && chunk.size < kChunkSlots) {
    const orbit::ContactWindow& w =
        ctx.observations[ring.window].request.window;
    const orbit::JulianDate jd = w.aos_jd + ring.t / orbit::kSecondsPerDay;
    if (jd > w.los_jd) {
      ++ring.window;
      ring.t = 0.0;
      continue;
    }
    BeaconSlot& slot = chunk.slots[chunk.size++];
    slot.jd = jd;
    slot.window = static_cast<std::uint32_t>(ring.window);
    ring.t += ctx.cfg.beacon.period_s;
  }
  if (chunk.size == 0) {
    ring.close();
    return nullptr;
  }
  chunk.seq = ring.claimed++;
  chunk.ready = false;
  return &chunk;
}

/// Geometry stage of one beacon instant: no random draws.
void prepare_beacon(const SiteContext& ctx, BeaconSlot& slot) {
  const SatelliteAsset& asset = *ctx.assets[slot.window];
  const orbit::JulianDate jd = slot.jd;
  if (ctx.cfg.eclipse_gates_beacons &&
      orbit::in_earth_shadow(asset.propagator.at_jd(jd).position_km, jd)) {
    slot.state = BeaconSlot::State::kMuted;  // nothing transmitted
    return;
  }
  const orbit::ElevationSampler sampler(asset.propagator, ctx.frame);
  slot.look = sampler.look(jd, &slot.ecef_km);
  if (slot.look.elevation_deg < 0.0) {
    slot.state = BeaconSlot::State::kBelowHorizon;
    return;
  }
  slot.state = BeaconSlot::State::kVisible;

  const auto day = static_cast<std::size_t>(jd - ctx.cfg.start_jd);
  slot.weather =
      ctx.weather[std::min<std::size_t>(day, ctx.weather.size() - 1)];

  // Doppler rate by 1-s finite difference.
  const orbit::LookAngles look1 =
      sampler.look(jd + 1.0 / orbit::kSecondsPerDay);
  const double rate =
      orbit::doppler_shift_hz(look1.range_rate_km_s, asset.link.carrier_hz) -
      orbit::doppler_shift_hz(slot.look.range_rate_km_s,
                              asset.link.carrier_hz);

  slot.link = phy::PreparedLink(asset.link, slot.look, slot.weather, rate);
  slot.rx = ctx.error_model.prepare(slot.link.mean().doppler,
                                    asset.link.lora,
                                    ctx.cfg.beacon.payload_bytes);
}

/// Run the geometry stage of a claimed chunk with `lock` released, then
/// publish it. A failure closes the ring; the lowest failed chunk's
/// exception is the one a serial walk would have thrown first.
void prepare_chunk(const SiteContext& ctx, BeaconRing& ring,
                   BeaconChunk& chunk, std::unique_lock<std::mutex>& lock) {
  lock.unlock();
  std::exception_ptr error;
  try {
    for (std::size_t i = 0; i < chunk.size; ++i)
      prepare_beacon(ctx, chunk.slots[i]);
  } catch (...) {
    error = std::current_exception();
  }
  lock.lock();
  if (error) {
    if (!ring.error || chunk.seq < ring.error_seq) {
      ring.error = error;
      ring.error_seq = chunk.seq;
    }
    ring.close();
    return;
  }
  chunk.ready = true;
  if (ring.drawer_waiting && chunk.seq == ring.drawn)
    ring.due_ready.notify_one();
}

/// A pool helper: claim and prepare chunks until the ring closes.
void run_helper(const SiteContext& ctx, BeaconRing& ring) {
  std::unique_lock<std::mutex> lock(ring.m);
  while (!ring.closed) {
    if (BeaconChunk* chunk = claim_chunk(ctx, ring)) {
      prepare_chunk(ctx, ring, *chunk, lock);
      continue;
    }
    if (ring.closed) break;
    ++ring.helpers_waiting;  // the ring is full
    ring.space_freed.wait(lock);
    --ring.helpers_waiting;
  }
}

/// Draw stage of one chunk: the channel and demodulator draws in grid
/// order, logging received beacons.
void draw_beacons(const SiteContext& ctx, const BeaconChunk& chunk,
                  sim::Rng& rng, PassiveCampaignResult& result) {
  for (std::size_t i = 0; i < chunk.size; ++i) {
    const BeaconSlot& slot = chunk.slots[i];
    if (slot.state == BeaconSlot::State::kMuted) continue;
    ++result.beacons_transmitted;
    if (slot.state == BeaconSlot::State::kBelowHorizon) continue;

    const phy::LinkState st = slot.link.draw(rng);
    if (!slot.rx.receive(st.snr_db, rng)) continue;

    ++result.beacons_received;
    const ScheduledObservation& obs = ctx.observations[slot.window];
    trace::BeaconRecord rec;
    rec.time_unix_s = orbit::julian_to_unix(slot.jd);
    rec.station = ctx.site.code + "-" + std::to_string(obs.station_index + 1);
    rec.constellation = obs.request.constellation;
    rec.satellite = obs.request.satellite;
    rec.rssi_dbm = st.rssi_dbm;
    rec.snr_db = st.snr_db;
    rec.elevation_deg = slot.look.elevation_deg;
    rec.azimuth_deg = slot.look.azimuth_deg;
    rec.range_km = slot.look.range_km;
    rec.doppler_hz = st.doppler.shift_hz;
    rec.sat_altitude_km = orbit::ecef_to_geodetic(slot.ecef_km).altitude_km;
    rec.weather = channel::to_string(slot.weather);
    result.traces.add(std::move(rec));
  }
}

/// Draw loop of the calling thread: draw the due chunk when it is ready,
/// otherwise claim and prepare one, otherwise wait for the due chunk.
/// Returns once every chunk of the grid is drawn or a chunk has failed.
void draw_site(const SiteContext& ctx, BeaconRing& ring, sim::Rng& rng,
               PassiveCampaignResult& result) {
  std::unique_lock<std::mutex> lock(ring.m);
  while (!ring.error) {
    BeaconChunk& due = ring.chunks[ring.drawn % kRingChunks];
    if (ring.drawn < ring.claimed && due.ready) {
      lock.unlock();
      draw_beacons(ctx, due, rng, result);
      lock.lock();
      ++ring.drawn;
      if (ring.helpers_waiting > 0) ring.space_freed.notify_one();
      continue;
    }
    if (BeaconChunk* chunk = claim_chunk(ctx, ring)) {
      prepare_chunk(ctx, ring, *chunk, lock);
      continue;
    }
    // Nothing to claim: the ring is full, or closed. Closed with every
    // claimed chunk drawn, the grid is done.
    if (ring.drawn == ring.claimed) return;
    ring.drawer_waiting = true;
    ring.due_ready.wait(lock);
    ring.drawer_waiting = false;
  }
}

/// Observe every scheduled window of one site on this thread plus
/// `helpers` pool tasks (none: every chunk is prepared inline).
void observe_site(const SiteContext& ctx, sim::ThreadPool* pool,
                  std::size_t helpers, BeaconRing& ring, sim::Rng& rng,
                  PassiveCampaignResult& result) {
  ring.reset();
  std::optional<sim::ThreadPool::Fanout> workers;
  if (helpers > 0)
    workers.emplace(pool->parallel_for_async(
        helpers, [&ctx, &ring](std::size_t) { run_helper(ctx, ring); }));
  // However the draw loop ends, release the helpers before joining them.
  struct CloseOnExit {
    BeaconRing& ring;
    ~CloseOnExit() {
      const std::lock_guard<std::mutex> lock(ring.m);
      ring.close();
    }
  };
  {
    const CloseOnExit closer{ring};
    draw_site(ctx, ring, rng, result);
  }
  if (workers) workers->wait();
  if (ring.error) std::rethrow_exception(ring.error);
}

}  // namespace

PassiveCampaignResult run_passive_campaign(const PassiveCampaignConfig& cfg) {
  if (cfg.sites.empty())
    throw std::invalid_argument("passive campaign: no sites");
  if (cfg.constellations.empty())
    throw std::invalid_argument("passive campaign: no constellations");
  if (cfg.duration_days <= 0.0)
    throw std::invalid_argument("passive campaign: nonpositive duration");

  PassiveCampaignResult result;
  sim::RngFactory rngs(cfg.seed);
  const phy::ErrorModel error_model(cfg.error_model);
  const orbit::JulianDate end_jd = cfg.start_jd + cfg.duration_days;

  orbit::PassPredictionOptions pass_opts;
  pass_opts.min_elevation_deg = 0.0;
  pass_opts.coarse_step_s = cfg.pass_scan_step_s;

  // Route the shared pool's task counters into this run's registry for
  // the duration of the campaign (no-op when cfg.metrics is null).
  sim::ThreadPool::MetricsScope pool_scope(sim::ThreadPool::shared(),
                                           cfg.metrics);
  obs::PhaseProfiler phases(cfg.metrics, "core.passive");

  // Predict every (constellation, satellite, site) window up front — one
  // shared-ephemeris grid call per constellation covering ALL sites, so
  // each satellite propagates once per coarse step for the whole
  // campaign instead of once per site. Prediction is deterministic and
  // rng-free, so hoisting it out of the per-site loop cannot change any
  // downstream draw; per-pair windows are bit-identical to the
  // per-site batches this replaces.
  phases.phase("predict");
  struct PredictedConstellation {
    std::vector<orbit::Tle> tles;
    // [satellite][site] contact windows.
    std::vector<std::vector<std::vector<orbit::ContactWindow>>> windows;
  };
  std::vector<orbit::GridObserver> site_observers;
  site_observers.reserve(cfg.sites.size());
  for (const MeasurementSite& site : cfg.sites)
    site_observers.push_back(orbit::GridObserver{site.location});
  std::vector<PredictedConstellation> predicted;
  predicted.reserve(cfg.constellations.size());
  for (const orbit::ConstellationSpec& constellation : cfg.constellations) {
    PredictedConstellation pc;
    pc.tles = orbit::generate_tles(constellation, cfg.start_jd);
    pc.windows = orbit::predict_passes_grid_cached(
        pc.tles, site_observers, cfg.start_jd, end_jd, pass_opts,
        cfg.threads,
        cfg.use_window_cache ? &orbit::ContactWindowCache::global()
                             : nullptr,
        cfg.metrics);
    predicted.push_back(std::move(pc));
  }

  // Observe-stage threads: this one plus `helpers` pool tasks, so N
  // threads in all (none helping for threads == 1).
  sim::ThreadPool* pool = nullptr;
  std::optional<sim::ThreadPool> local_pool;
  if (cfg.threads != 1) {
    sim::ThreadPool& shared = sim::ThreadPool::shared();
    if (cfg.threads == 0 || cfg.threads == shared.size()) {
      pool = &shared;
    } else {
      local_pool.emplace(cfg.threads);
      pool = &*local_pool;
    }
  }
  const std::size_t helpers =
      pool == nullptr ? 0 : std::max<std::size_t>(1, pool->size() - 1);
  BeaconRing ring;

  for (std::size_t site_index = 0; site_index < cfg.sites.size();
       ++site_index) {
    const MeasurementSite& site = cfg.sites[site_index];
    sim::Rng rng = rngs.make("passive-" + site.code);

    // Daily weather draw for the whole site.
    std::vector<channel::Weather> weather;
    const int days = static_cast<int>(std::ceil(cfg.duration_days));
    weather.reserve(days);
    for (int d = 0; d < days; ++d)
      weather.push_back(rng.chance(site.rainy_fraction)
                            ? channel::Weather::kRainy
                            : channel::Weather::kSunny);

    // Pass 1: pick up this site's slice of the up-front prediction,
    // build per-satellite assets and the full observation request list
    // for the scheduler. Results are in TLE order, so requests/assets/
    // cells are built exactly as the per-site serial loop did.
    std::map<std::string, SatelliteAsset> assets;
    std::vector<ObservationRequest> requests;
    for (std::size_t c = 0; c < cfg.constellations.size(); ++c) {
      const orbit::ConstellationSpec& constellation = cfg.constellations[c];
      phy::LinkConfig link = cfg.beacon_link;
      link.carrier_hz = constellation.dts_frequency_hz;
      link.tx_power_dbm = constellation.beacon_eirp_dbm;
      link.external_noise_db = site.external_noise_db;
      link.lora.sf = static_cast<phy::SpreadingFactor>(
          std::clamp(constellation.beacon_sf, 7, 12));

      const std::vector<orbit::Tle>& tles = predicted[c].tles;
      std::vector<SatelliteWindows> cell;
      for (std::size_t i = 0; i < tles.size(); ++i) {
        const orbit::Tle& tle = tles[i];
        SatelliteWindows sw;
        sw.satellite = tle.name;
        sw.windows = std::move(predicted[c].windows[i][site_index]);
        for (const orbit::ContactWindow& w : sw.windows)
          requests.push_back(
              ObservationRequest{tle.name, constellation.name, w});
        assets.emplace(tle.name, SatelliteAsset{orbit::Sgp4(tle), link});
        cell.push_back(std::move(sw));
      }
      result.theoretical.emplace(CellKey{site.code, constellation.name},
                                 std::move(cell));
    }

    // Pass 2: assign windows to the site's stations — the customized
    // scheduler (paper Sec 2.2). Without it, an idealized site observes
    // every window on a round-robin station.
    phases.phase("schedule");
    std::vector<ScheduledObservation> observations;
    if (cfg.use_scheduler) {
      observations = schedule_observations(requests, site.station_count,
                                           cfg.station_retune_gap_s);
    } else {
      observations.reserve(requests.size());
      int rr = 0;
      for (const ObservationRequest& r : requests)
        observations.push_back(
            ScheduledObservation{r, rr++ % site.station_count});
    }
    result.windows_requested_observed[site.code] = {requests.size(),
                                                    observations.size()};

    // Pass 3: observe the scheduled windows.
    phases.phase("observe");
    SiteContext ctx{cfg, site, orbit::TopocentricFrame(site.location),
                    observations, {}, weather, error_model};
    ctx.assets.reserve(observations.size());
    for (const ScheduledObservation& obs : observations)
      ctx.assets.push_back(&assets.at(obs.request.satellite));
    observe_site(ctx, pool, helpers, ring, rng, result);
  }
  phases.stop();

  if (cfg.metrics != nullptr) {
    obs::MetricsRegistry& m = *cfg.metrics;
    m.counter("core.passive.beacons_transmitted")
        .add(result.beacons_transmitted);
    m.counter("core.passive.beacons_received").add(result.beacons_received);
    m.counter("core.passive.sites").add(cfg.sites.size());
    std::uint64_t requested = 0;
    std::uint64_t observed = 0;
    for (const auto& [code, ro] : result.windows_requested_observed) {
      requested += ro.first;
      observed += ro.second;
    }
    m.counter("core.passive.windows_requested").add(requested);
    m.counter("core.passive.windows_observed").add(observed);
  }
  return result;
}

}  // namespace sinet::core
