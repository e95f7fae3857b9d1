#include "net/dts_batch.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "orbit/frames.h"
#include "sim/rng.h"
#include "sim/event_graph.h"
#include "sim/simulation.h"
#include "sim/thread_pool.h"

namespace sinet::net {

using orbit::ContactWindow;
using orbit::JulianDate;

namespace detail {

std::size_t dts_node_count(const DtsNetworkConfig& cfg) {
  return cfg.fleet.count > 0 ? cfg.fleet.count : cfg.nodes.size();
}

IotNodeConfig dts_node_config(const DtsNetworkConfig& cfg, std::size_t i) {
  if (cfg.fleet.count == 0) return cfg.nodes.at(i);
  IotNodeConfig nc = cfg.fleet.prototype;
  nc.name = cfg.fleet.prototype.name + "-" + std::to_string(i);
  nc.location = cfg.fleet.sites[i % cfg.fleet.sites.size()];
  return nc;
}

double effective_tail_exclusion_s(const DtsNetworkConfig& cfg) {
  // A probe run shorter than twice the configured exclusion would
  // otherwise classify every report as ineligible (eligible_generated
  // stuck at 0 — the scale_ablation 100k bug): cap the exclusion at half
  // the run so short runs keep a nonzero eligible population. Both
  // engines apply this same helper.
  return std::min(cfg.aggregate_tail_exclusion_s,
                  0.5 * cfg.duration_days * 86400.0);
}

namespace {

/// Key for grouping nodes that share a deployment location.
struct LocationKey {
  double lat, lon, alt;
  bool operator<(const LocationKey& o) const {
    return std::tie(lat, lon, alt) < std::tie(o.lat, o.lon, o.alt);
  }
};

LocationKey key_of(const orbit::Geodetic& g) {
  return {g.latitude_deg, g.longitude_deg, g.altitude_km};
}

void validate_dts_config(const DtsNetworkConfig& cfg) {
  // A `x <= lo` rejection would let NaN and +inf through.
  const auto finite_above = [](double x, double lo) {
    return std::isfinite(x) && x > lo;
  };
  const bool fleet = cfg.fleet.count > 0;
  if (fleet && !cfg.nodes.empty())
    throw std::invalid_argument(
        "DtsNetwork: both nodes and fleet configured; pick one");
  if (fleet && cfg.fleet.sites.empty())
    throw std::invalid_argument("DtsNetwork: fleet without sites");
  if (!fleet && cfg.nodes.empty())
    throw std::invalid_argument("DtsNetwork: no IoT nodes configured");
  if (!finite_above(cfg.duration_days, 0.0))
    throw std::invalid_argument(
        "DtsNetwork: duration must be finite and positive");
  if (!finite_above(cfg.beacon.period_s, 0.5))
    throw std::invalid_argument(
        "DtsNetwork: beacon period must be finite and above 0.5 s");
  if (!finite_above(cfg.pass_scan_step_s, 0.0))
    throw std::invalid_argument(
        "DtsNetwork: pass scan step must be finite and positive");
  // The congestion block index is t / block_duration_s cast to an
  // integer, which is undefined for an infinite or NaN quotient.
  if (cfg.congestion.enabled &&
      !finite_above(cfg.congestion.block_duration_s, 0.0))
    throw std::invalid_argument(
        "DtsNetwork: congestion block must be finite and positive");
  if (cfg.constellation.total_satellites() <= 0)
    throw std::invalid_argument("DtsNetwork: empty constellation");
  if (cfg.ground_stations.empty())
    throw std::invalid_argument("DtsNetwork: no ground stations");
  const auto check_interval = [&](const IotNodeConfig& nc) {
    if (!finite_above(nc.report_interval_s, 0.0))
      throw std::invalid_argument("DtsNetwork: bad report interval");
  };
  if (fleet) {
    check_interval(cfg.fleet.prototype);
  } else {
    for (const IotNodeConfig& nc : cfg.nodes) check_interval(nc);
  }
}

}  // namespace

DtsSetup::DtsSetup(const DtsNetworkConfig& cfg) {
  validate_dts_config(cfg);

  tles = orbit::generate_tles(cfg.constellation, cfg.start_jd);
  satellites.reserve(tles.size());
  for (const orbit::Tle& tle : tles) {
    satellites.emplace_back(tle.name, cfg.constellation.name, tle,
                            cfg.satellite_buffer_capacity);
    satellites.back().buffer = StoreAndForwardBuffer(
        cfg.satellite_buffer_capacity, cfg.satellite_drop_policy);
  }

  // Unique node locations, in first-appearance order.
  const std::size_t count = dts_node_count(cfg);
  const auto site_of = [&](std::size_t n) -> const orbit::Geodetic& {
    return cfg.fleet.count > 0
               ? cfg.fleet.sites[n % cfg.fleet.sites.size()]
               : cfg.nodes[n].location;
  };
  std::map<LocationKey, std::size_t> loc_index;
  const auto add_location = [&](const orbit::Geodetic& g) {
    if (loc_index.emplace(key_of(g), locations.size()).second)
      locations.push_back(g);
  };
  if (cfg.fleet.count > 0) {
    for (const orbit::Geodetic& site : cfg.fleet.sites) add_location(site);
  } else {
    for (const IotNodeConfig& nc : cfg.nodes) add_location(nc.location);
  }
  node_loc.reserve(count);
  for (std::size_t n = 0; n < count; ++n)
    node_loc.push_back(
        static_cast<std::uint32_t>(loc_index.at(key_of(site_of(n)))));

  // ONE cached grid call covering every node location (at the visibility
  // mask) and every ground station (at its own elevation mask): the
  // shared-ephemeris engine propagates each satellite once per coarse
  // step for all observers.
  orbit::PassPredictionOptions opts;
  opts.min_elevation_deg = cfg.visibility_mask_deg;
  opts.coarse_step_s = cfg.pass_scan_step_s;
  std::vector<orbit::GridObserver> observers;
  observers.reserve(locations.size() + cfg.ground_stations.size());
  frames.reserve(locations.size());
  for (const orbit::Geodetic& loc : locations) {
    observers.push_back(orbit::GridObserver{loc});
    frames.emplace_back(loc);
  }
  for (const GroundStationSite& gs : cfg.ground_stations)
    observers.push_back(
        orbit::GridObserver{gs.location, gs.min_elevation_deg});

  auto windows = orbit::predict_passes_grid_cached(
      tles, observers, cfg.start_jd, cfg.start_jd + cfg.duration_days, opts,
      cfg.pass_threads, &orbit::ContactWindowCache::global(), cfg.metrics);
  node_windows.assign(
      satellites.size(),
      std::vector<std::vector<ContactWindow>>(locations.size()));
  gs_windows.assign(
      satellites.size(),
      std::vector<std::vector<ContactWindow>>(cfg.ground_stations.size()));
  for (std::size_t s = 0; s < satellites.size(); ++s) {
    for (std::size_t l = 0; l < locations.size(); ++l)
      node_windows[s][l] = std::move(windows[s][l]);
    for (std::size_t g = 0; g < cfg.ground_stations.size(); ++g)
      gs_windows[s][g] = std::move(windows[s][locations.size() + g]);
  }
}

void DtsSetup::append_timeline(const DtsNetworkConfig& cfg, std::size_t s,
                               std::vector<double>& times,
                               std::vector<std::uint8_t>& is_flush) const {
  const double duration_s = cfg.duration_days * 86400.0;
  const double period = cfg.beacon.period_s;
  // Per-satellite beacon phase, so satellites are not beacon-synchronized.
  const double phase = period * static_cast<double>(s * 29 % 97) / 97.0;
  std::vector<double> ticks;
  for (const auto& windows : node_windows[s]) {
    for (const ContactWindow& w : windows) {
      const double a = (w.aos_jd - cfg.start_jd) * orbit::kSecondsPerDay;
      const double b = (w.los_jd - cfg.start_jd) * orbit::kSecondsPerDay;
      const double first = phase + std::ceil((a - phase) / period) * period;
      for (double t = first; t <= b; t += period)
        if (t >= 0.0 && t < duration_s) ticks.push_back(t);
    }
  }
  std::sort(ticks.begin(), ticks.end());
  ticks.erase(std::unique(ticks.begin(), ticks.end()), ticks.end());

  std::vector<double> flushes;
  for (const auto& windows : gs_windows[s]) {
    for (const ContactWindow& w : windows) {
      const double aos = (w.aos_jd - cfg.start_jd) * orbit::kSecondsPerDay;
      const double los = (w.los_jd - cfg.start_jd) * orbit::kSecondsPerDay;
      for (const double t : gs_flush_times(aos, los))
        if (t >= 0.0 && t < duration_s) flushes.push_back(t);
    }
  }
  std::sort(flushes.begin(), flushes.end());

  // Both lists are sorted; the merge takes the tick at equal times.
  std::size_t i = 0, j = 0;
  while (i < ticks.size() || j < flushes.size()) {
    const bool tick =
        j == flushes.size() || (i < ticks.size() && ticks[i] <= flushes[j]);
    times.push_back(tick ? ticks[i++] : flushes[j++]);
    is_flush.push_back(tick ? 0 : 1);
  }
}

double DtsSetup::location_rx_seconds(const DtsNetworkConfig& cfg,
                                     std::size_t loc) const {
  std::vector<ContactWindow> all;
  for (const auto& by_loc : node_windows)
    all.insert(all.end(), by_loc[loc].begin(), by_loc[loc].end());
  return orbit::daily_visible_seconds(all, cfg.start_jd,
                                      cfg.start_jd + cfg.duration_days) *
         cfg.duration_days;
}

void publish_dts_metrics(const DtsNetworkConfig& cfg, const DtsSetup& setup,
                         const DtsNetworkResult& result) {
  if (cfg.metrics == nullptr) return;
  obs::MetricsRegistry& m = *cfg.metrics;
  const DtsCounters& c = result.counters;
  m.counter("net.dts.beacons_sent").add(c.beacons_sent);
  m.counter("net.dts.beacons_heard").add(c.beacons_heard);
  m.counter("net.dts.uplink_attempts").add(c.uplink_attempts);
  m.counter("net.dts.uplinks_received").add(c.uplinks_received);
  m.counter("net.dts.uplinks_collided").add(c.uplinks_collided);
  m.counter("net.dts.acks_sent").add(c.acks_sent);
  m.counter("net.dts.acks_received").add(c.acks_received);
  m.counter("net.dts.duplicate_uplinks").add(c.duplicate_uplinks);
  m.counter("net.dts.satellite_buffer_drops").add(c.satellite_buffer_drops);
  m.counter("net.dts.background_losses").add(c.background_losses);
  m.counter("net.dts.reports_generated").add(result.agg.reports_generated);
  m.gauge("net.dts.delivered_fraction").set(result.delivered_fraction());
  m.gauge("net.dts.mean_end_to_end_s").set(result.mean_end_to_end_s());

  // Population-scale gauges: the evidence that a run stays bounded (CI's
  // scale-smoke job asserts on them).
  m.gauge("net.dts.scale.nodes")
      .set(static_cast<double>(setup.node_loc.size()));
  std::size_t peak = 0;
  for (const Satellite& sat : setup.satellites)
    peak = std::max(peak, sat.buffer.peak_occupancy());
  m.gauge("net.dts.scale.sat_buffer_peak_packets")
      .set(static_cast<double>(peak));
  m.gauge("net.dts.scale.peak_rss_bytes")
      .set(static_cast<double>(obs::process_peak_rss_bytes()));
}

}  // namespace detail

namespace {

constexpr std::uint32_t kNoActive = std::numeric_limits<std::uint32_t>::max();

/// Compact per-node report buffer. Sequences are admitted in strictly
/// increasing order and drained FIFO, so occupancy is almost always one
/// contiguous run [b0, e0); local drops open gaps, for which a second
/// inline run and a rare per-node overflow list (in NodeStore) cover the
/// general case. 32 bytes per node instead of a std::deque<AppPacket>.
struct BufferRuns {
  std::uint64_t b0 = 0, e0 = 0;  ///< oldest run, [b0, e0)
  std::uint64_t b1 = 0, e1 = 0;  ///< next run, valid when e1 > b1
};

/// Struct-of-arrays node state: parallel plain vectors indexed by node.
/// No per-node strings, deques or trackers — the only per-node heap
/// allocation at scale is the shared vectors themselves.
struct NodeStore {
  std::size_t count = 0;

  /// Static report/radio configuration shared by a group of nodes.
  struct Profile {
    double interval_s;
    int payload_bytes;
    int max_retx;
    std::uint32_t capacity;
    channel::AntennaType antenna;
  };

  // Static per-node configuration. A fleet shares one profile (no
  // per-node copy); an explicit node list has one profile per node.
  std::vector<double> phase_s;
  std::vector<Profile> profiles;

  // Dynamic state.
  /// Accumulated by repeated addition, like the exact engine's report
  /// loop.
  std::vector<double> next_report_s;
  std::vector<std::uint64_t> next_seq;
  std::vector<std::uint32_t> buf_size;
  std::vector<BufferRuns> runs;
  /// Extra (newer) runs for the rare node holding >2 disjoint runs.
  /// Shared across nodes, so it is guarded by overflow_mutex (see
  /// push_seq).
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      overflow;
  std::mutex overflow_mutex;
  std::vector<int> head_attempts;
  std::vector<std::uint8_t> head_stored;
  std::vector<double> head_first_tx_s;  ///< sim time; < 0 before any attempt
  std::vector<double> busy_until;
  std::vector<double> tx_seconds;

  void init(const DtsNetworkConfig& cfg) {
    count = detail::dts_node_count(cfg);
    phase_s.resize(count);
    const auto profile_of_config = [](const IotNodeConfig& nc) {
      return Profile{nc.report_interval_s, nc.report_payload_bytes,
                     nc.max_retransmissions,
                     static_cast<std::uint32_t>(std::min<std::size_t>(
                         nc.buffer_capacity,
                         std::numeric_limits<std::uint32_t>::max())),
                     nc.antenna};
    };
    if (cfg.fleet.count > 0) {
      profiles.assign(1, profile_of_config(cfg.fleet.prototype));
    } else {
      profiles.reserve(count);
      for (const IotNodeConfig& nc : cfg.nodes)
        profiles.push_back(profile_of_config(nc));
    }
    for (std::size_t n = 0; n < count; ++n) {
      // Same de-synchronization phase as the exact engine's reports.
      phase_s[n] =
          std::fmod(60.0 * static_cast<double>(n), interval_s(n));
    }
    next_report_s = phase_s;
    next_seq.assign(count, 0);
    buf_size.assign(count, 0);
    runs.assign(count, BufferRuns{});
    head_attempts.assign(count, 0);
    head_stored.assign(count, 0);
    head_first_tx_s.assign(count, -1.0);
    busy_until.assign(count, 0.0);
    tx_seconds.assign(count, 0.0);
  }

  [[nodiscard]] const Profile& profile(std::size_t n) const {
    return profiles[profiles.size() == 1 ? 0 : n];
  }
  [[nodiscard]] double interval_s(std::size_t n) const {
    return profile(n).interval_s;
  }
  [[nodiscard]] int payload_bytes(std::size_t n) const {
    return profile(n).payload_bytes;
  }
  [[nodiscard]] int max_retx(std::size_t n) const {
    return profile(n).max_retx;
  }
  [[nodiscard]] channel::AntennaType antenna(std::size_t n) const {
    return profile(n).antenna;
  }

  [[nodiscard]] bool empty(std::size_t n) const { return buf_size[n] == 0; }
  [[nodiscard]] std::uint64_t front(std::size_t n) const {
    return runs[n].b0;
  }

  /// Admit `seq` (== next_seq[n] - 1) at the newest end. Returns false —
  /// a local drop — when the buffer is full.
  ///
  /// Concurrency: pool workers call this for DISJOINT node sets, so
  /// every per-node vector write is race-free.
  /// The one shared structure is the overflow map; by the run-ordering
  /// invariant (overflow[n] nonempty implies run1 is valid) it is only
  /// ever reachable behind the `r.e1 > r.b1` branch, so the map mutex is
  /// taken only on the rare >2-disjoint-runs path, never per push.
  bool push_seq(std::size_t n, std::uint64_t seq) {
    if (buf_size[n] >= profile(n).capacity) return false;
    BufferRuns& r = runs[n];
    if (r.e1 > r.b1) {
      std::lock_guard<std::mutex> lock(overflow_mutex);
      auto it = overflow.find(n);
      if (it != overflow.end() && !it->second.empty()) {
        auto& last = it->second.back();
        if (seq == last.second)
          ++last.second;
        else
          it->second.emplace_back(seq, seq + 1);
      } else if (seq == r.e1) {
        ++r.e1;
      } else {
        overflow[n].emplace_back(seq, seq + 1);
      }
    } else if (r.e0 > r.b0) {
      if (seq == r.e0) {
        ++r.e0;
      } else {
        r.b1 = seq;
        r.e1 = seq + 1;
      }
    } else {
      r.b0 = seq;
      r.e0 = seq + 1;
    }
    ++buf_size[n];
    return true;
  }

  void pop_front(std::size_t n) {
    BufferRuns& r = runs[n];
    ++r.b0;
    --buf_size[n];
    if (r.b0 < r.e0) return;
    // Oldest run drained: shift run1 down, pull from overflow if present.
    r.b0 = r.b1;
    r.e0 = r.e1;
    r.b1 = r.e1 = 0;
    if (r.e0 == r.b0) return;  // no run1 existed -> overflow empty
    std::lock_guard<std::mutex> lock(overflow_mutex);
    auto it = overflow.find(n);
    if (it != overflow.end() && !it->second.empty()) {
      r.b1 = it->second.front().first;
      r.e1 = it->second.front().second;
      it->second.erase(it->second.begin());
      if (it->second.empty()) overflow.erase(it);
    }
  }

  [[nodiscard]] std::size_t approx_bytes() const {
    std::size_t b = 0;
    b += phase_s.capacity() * sizeof(double);
    b += profiles.capacity() * sizeof(Profile);
    b += next_report_s.capacity() * sizeof(double);
    b += next_seq.capacity() * sizeof(std::uint64_t);
    b += buf_size.capacity() * sizeof(std::uint32_t);
    b += runs.capacity() * sizeof(BufferRuns);
    b += head_attempts.capacity() * sizeof(int);
    b += head_stored.capacity() * sizeof(std::uint8_t);
    b += head_first_tx_s.capacity() * sizeof(double);
    b += busy_until.capacity() * sizeof(double);
    b += tx_seconds.capacity() * sizeof(double);
    return b;
  }
};

// =====================================================================
// Parallel population-scale engine.
// =====================================================================
//
// Above cfg.trace_node_threshold nodes the run is executed as a
// per-event dependency graph (sim::EventGraph) instead of a serial event
// loop:
//
//   * every timeline entry (beacon slot or ground-station flush) is one
//     event, ordered globally by (time, satellite, timeline index) — the
//     order a serial elaboration would use;
//   * an event's resources are what it mutates: its satellite (buffer,
//     counters, congestion cache) and, for a beacon slot, exactly the
//     locations whose contact window with that satellite contains the
//     slot time (node SoA rows, active lists, report heaps). A slot
//     materializes and considers only those locations;
//   * an event runs on sim::ThreadPool once the previous event on each of
//     its resources has finished, so every resource sees its events in
//     the serial order. Events are fed to the executor in graphs of at
//     most kChunkEvents, run one after another;
//   * every random draw comes from a counter-based stream keyed by the
//     globally unique timeline-entry id: a beacon slot seeds one Rng
//     from derive_stream(slot_root, entry_id) shared by every draw the
//     slot makes (in location-then-active-list order), and a flush entry
//     seeds from derive_stream(flush_root, entry_id). Draw values
//     therefore never depend on which thread ran what when;
//   * results accumulate into per-satellite DtsCounters/DtsAggregates
//     partials merged in satellite-index order after the run, and
//     end-of-run per-node accounting (remaining report generation,
//     attempt-histogram closeout, fleet energy residency) runs over
//     fixed-size node blocks merged in block order.
//
// Consequence: DtsAggregates is bit-identical for every sim_threads
// value (tests/test_dts_parallel.cpp asserts every histogram bin,
// counter and residency mode for threads in {1, 2, 4, hw}, and pins the
// output against a recorded golden file).
class AggregateSimulator {
 public:
  explicit AggregateSimulator(const DtsNetworkConfig& cfg)
      : cfg_(cfg),
        setup_(cfg),
        error_model_(cfg.error_model),
        backhaul_(cfg.delivery_backhaul),
        duration_s_(cfg.duration_days * 86400.0),
        eligible_before_(duration_s_ -
                         detail::effective_tail_exclusion_s(cfg)),
        slot_root_(sim::derive_seed(cfg.seed, "dts-slot")),
        flush_root_(sim::derive_seed(cfg.seed, "dts-flush")) {
    build_nodes();
    background_cache_.assign(
        setup_.satellites.size(),
        {std::numeric_limits<std::uint64_t>::max(), 0.0});
  }

  DtsNetworkResult run() {
    resolve_pool();
    build_timelines();
    sat_counters_.assign(setup_.satellites.size(), DtsCounters{});
    sat_agg_.assign(setup_.satellites.size(), DtsAggregates{});
    simulate();
    return assemble_result();
  }

 private:
  /// End-of-run reductions run over fixed node blocks (never
  /// thread-count-derived ranges) so double sums merge identically for
  /// any worker count.
  static constexpr std::size_t kNodeBlock = 8192;
  /// Events per dependency graph. Graphs run one after another, which
  /// keeps graph memory bounded on day-long million-node runs; a
  /// boundary only costs the drain of the last chains before it.
  static constexpr std::size_t kChunkEvents = std::size_t{1} << 16;

  [[nodiscard]] JulianDate jd_at(double t) const {
    return cfg_.start_jd + t / orbit::kSecondsPerDay;
  }
  [[nodiscard]] channel::Weather weather_at(double t) const {
    if (cfg_.daily_weather.empty()) return channel::Weather::kSunny;
    const auto day = static_cast<std::size_t>(t / 86400.0);
    return cfg_.daily_weather[day % cfg_.daily_weather.size()];
  }
  [[nodiscard]] double gen_time_s(std::size_t n, std::uint64_t seq) const {
    return nodes_.phase_s[n] +
           static_cast<double>(seq) * nodes_.interval_s(n);
  }

  void resolve_pool() {
    threads_ = cfg_.sim_threads == 0 ? sim::ThreadPool::hardware_threads()
                                     : cfg_.sim_threads;
    if (threads_ <= 1) return;  // inline execution, no pool
    if (cfg_.sim_threads == 0) {
      pool_ = &sim::ThreadPool::shared();
    } else {
      owned_pool_ = std::make_unique<sim::ThreadPool>(threads_);
      pool_ = owned_pool_.get();
    }
  }

  void build_nodes() {
    nodes_.init(cfg_);
    active_.resize(setup_.locations.size());
    active_pos_.assign(nodes_.count, kNoActive);

    // Per-location report heaps: a location is a graph resource, so its
    // heap is only ever touched by one event at a time and needs no lock.
    loc_heap_.resize(setup_.locations.size());
    for (std::size_t n = 0; n < nodes_.count; ++n)
      if (nodes_.next_report_s[n] < duration_s_)
        loc_heap_[setup_.node_loc[n]].emplace(nodes_.next_report_s[n], n);
  }

  /// The shared per-satellite timelines, flattened into arrays indexed
  /// by global entry id.
  void build_timelines() {
    entry_base_.assign(setup_.satellites.size() + 1, 0);
    for (std::size_t s = 0; s < setup_.satellites.size(); ++s) {
      setup_.append_timeline(cfg_, s, entry_time_, entry_is_flush_);
      entry_base_[s + 1] = entry_time_.size();
    }
    entry_time_.shrink_to_fit();
    entry_is_flush_.shrink_to_fit();
  }

  struct WindowRef {
    std::uint32_t loc;
    std::uint32_t index;  ///< into setup_.node_windows[s][loc]
  };

  /// Per satellite, its (location, window index) pairs in AOS order, for
  /// the sweep that finds the locations in view at each beacon slot.
  void index_windows() {
    by_aos_.assign(setup_.satellites.size(), {});
    for (std::size_t s = 0; s < setup_.satellites.size(); ++s) {
      std::vector<WindowRef>& refs = by_aos_[s];
      for (std::size_t l = 0; l < setup_.locations.size(); ++l)
        for (std::size_t w = 0; w < setup_.node_windows[s][l].size(); ++w)
          refs.push_back({static_cast<std::uint32_t>(l),
                          static_cast<std::uint32_t>(w)});
      std::sort(refs.begin(), refs.end(),
                [&](const WindowRef& x, const WindowRef& y) {
                  const JulianDate ax = window(s, x).aos_jd;
                  const JulianDate ay = window(s, y).aos_jd;
                  return ax != ay ? ax < ay : x.loc < y.loc;
                });
    }
  }

  [[nodiscard]] const ContactWindow& window(std::size_t s,
                                            const WindowRef& r) const {
    return setup_.node_windows[s][r.loc][r.index];
  }

  /// Append the resource ids (sats + l) of every location whose contact
  /// window with satellite `s` contains `jd`, ascending. Calls for one
  /// satellite must come in nondecreasing `jd`: windows open as `jd`
  /// passes their AOS and close once it passes their LOS.
  void append_in_view(std::uint32_t s, JulianDate jd,
                      std::vector<std::uint32_t>& res) {
    const std::vector<WindowRef>& refs = by_aos_[s];
    std::vector<WindowRef>& open = open_[s];
    std::size_t& next = next_open_[s];
    while (next < refs.size() && window(s, refs[next]).aos_jd <= jd)
      open.push_back(refs[next++]);
    std::erase_if(open, [&](const WindowRef& r) {
      return window(s, r).los_jd < jd;
    });
    const std::size_t first = res.size();
    const std::size_t sats = setup_.satellites.size();
    for (const WindowRef& r : open)
      res.push_back(static_cast<std::uint32_t>(sats + r.loc));
    std::sort(res.begin() + static_cast<std::ptrdiff_t>(first), res.end());
    res.erase(std::unique(res.begin() + static_cast<std::ptrdiff_t>(first),
                          res.end()),
              res.end());
  }

  /// Run every timeline entry as one graph event, in global (time,
  /// satellite, index) order: a k-way merge of the satellite timelines
  /// feeds graphs of at most kChunkEvents events. An event's resources
  /// are its satellite (id s) and, for a beacon slot, each location l
  /// (id sats + l) in view at the slot, ascending — the order the slot
  /// visits them.
  void simulate() {
    const auto sats = static_cast<std::uint32_t>(setup_.satellites.size());
    index_windows();
    open_.assign(sats, {});
    next_open_.assign(sats, 0);

    using Head = std::pair<double, std::uint32_t>;  // (time, satellite)
    std::priority_queue<Head, std::vector<Head>, std::greater<>> heads;
    std::vector<std::uint64_t> next(entry_base_.begin(),
                                    entry_base_.end() - 1);
    for (std::uint32_t s = 0; s < sats; ++s)
      if (next[s] < entry_base_[s + 1]) heads.emplace(entry_time_[next[s]], s);

    std::vector<std::uint64_t> gids;
    std::vector<std::uint32_t> res;
    while (!heads.empty()) {
      sim::EventGraph graph(
          static_cast<std::uint32_t>(sats + setup_.locations.size()));
      gids.clear();
      while (!heads.empty() && gids.size() < kChunkEvents) {
        const std::uint32_t s = heads.top().second;
        heads.pop();
        const std::uint64_t gid = next[s]++;
        if (next[s] < entry_base_[s + 1])
          heads.emplace(entry_time_[next[s]], s);
        res.assign(1, s);
        if (!entry_is_flush_[gid])
          append_in_view(s, jd_at(entry_time_[gid]), res);
        graph.add_event(res);
        gids.push_back(gid);
      }
      graph.run(pool_, [&](std::size_t e) {
        const std::uint64_t gid = gids[e];
        const std::span<const std::uint32_t> r = graph.resources(e);
        if (entry_is_flush_[gid])
          flush_satellite(r.front(), gid, entry_time_[gid]);
        else
          beacon_slot(r.front(), gid, entry_time_[gid], r.subspan(1));
      });
      events_ += graph.size();
      chained_events_ += graph.critical_path();
    }
  }

  // --- report materialization (per location, lazily at its slots) -----

  void activate(std::size_t n) {
    std::vector<std::uint32_t>& list = active_[setup_.node_loc[n]];
    active_pos_[n] = static_cast<std::uint32_t>(list.size());
    list.push_back(static_cast<std::uint32_t>(n));
  }

  void deactivate(std::size_t n) {
    std::vector<std::uint32_t>& list = active_[setup_.node_loc[n]];
    const std::uint32_t pos = active_pos_[n];
    const std::uint32_t last = list.back();
    list[pos] = last;
    active_pos_[last] = pos;
    list.pop_back();
    active_pos_[n] = kNoActive;
  }

  void generate_report(std::size_t n, DtsAggregates& agg) {
    const std::uint64_t seq = nodes_.next_seq[n]++;
    ++agg.reports_generated;
    if (gen_time_s(n, seq) <= eligible_before_) ++agg.eligible_generated;
    if (!nodes_.push_seq(n, seq)) {
      ++agg.local_buffer_drops;
      return;
    }
    if (nodes_.buf_size[n] == 1) activate(n);
  }

  void materialize_loc(std::size_t loc, double t, DtsAggregates& agg) {
    LocHeap& heap = loc_heap_[loc];
    while (!heap.empty() && heap.top().first <= t) {
      const std::uint64_t n = heap.top().second;
      heap.pop();
      generate_report(static_cast<std::size_t>(n), agg);
      nodes_.next_report_s[n] += nodes_.interval_s(n);
      if (nodes_.next_report_s[n] < duration_s_)
        heap.emplace(nodes_.next_report_s[n], n);
    }
  }

  // --- beacon slot ----------------------------------------------------

  /// Footprint geometry of one (slot, location): one SGP4 propagation
  /// shared by every node there, plus a second one a second later for the
  /// Doppler rate when the satellite clears the visibility mask.
  struct SlotGeo {
    bool masked = false;
    orbit::LookAngles look;
    double doppler_rate = 0.0;
  };

  [[nodiscard]] SlotGeo slot_geometry(std::size_t s, std::size_t loc,
                                      JulianDate jd) const {
    SlotGeo g;
    const orbit::ElevationSampler sampler(setup_.satellites[s].propagator,
                                          setup_.frames[loc]);
    g.look = sampler.look(jd);
    g.masked = g.look.elevation_deg < cfg_.visibility_mask_deg;
    if (g.masked) return g;
    const orbit::LookAngles look1 =
        sampler.look(jd + 1.0 / orbit::kSecondsPerDay);
    const double f0 = orbit::doppler_shift_hz(g.look.range_rate_km_s,
                                              cfg_.downlink.carrier_hz);
    const double f1 = orbit::doppler_shift_hz(look1.range_rate_km_s,
                                              cfg_.downlink.carrier_hz);
    g.doppler_rate = f1 - f0;
    return g;
  }

  /// The beacon decode of one (slot, location, antenna type) with its
  /// deterministic part evaluated once: per node only the fading draw,
  /// the PER and the Bernoulli draw remain (bit-identical to
  /// draw_link_state + ErrorModel::receive).
  struct BeaconPrep {
    channel::AntennaType antenna;
    phy::PreparedLink link;
    phy::PreparedReception rx;
  };

  const BeaconPrep& beacon_prep(channel::AntennaType antenna,
                                const SlotGeo& g, channel::Weather wx,
                                std::vector<BeaconPrep>& preps) const {
    for (const BeaconPrep& p : preps)
      if (p.antenna == antenna) return p;
    phy::LinkConfig beacon_cfg = cfg_.downlink;
    beacon_cfg.rx_antenna = antenna;
    const phy::PreparedLink link(beacon_cfg, g.look, wx, g.doppler_rate);
    preps.push_back(BeaconPrep{
        antenna, link,
        error_model_.prepare(link.mean().doppler, beacon_cfg.lora,
                             cfg_.beacon.payload_bytes)});
    return preps.back();
  }

  struct SlotResponder {
    std::size_t node;
    Transmission tx;
    phy::LoraParams uplink_params;
    phy::LinkState uplink_state;
    orbit::LookAngles look;
    double doppler_rate;
  };

  void consider_node(std::size_t n, double now, channel::Weather wx,
                     const SlotGeo& g, const BeaconPrep& beacon,
                     sim::Rng& rng, DtsCounters& ctr,
                     std::vector<SlotResponder>& responders) {
    const phy::LinkState beacon_state = beacon.link.draw(rng);
    if (!beacon.rx.receive(beacon_state.snr_db, rng)) return;
    ++ctr.beacons_heard;
    if (nodes_.empty(n)) return;
    if (now < nodes_.busy_until[n]) return;  // half-duplex: radio busy

    phy::LinkConfig up_cfg = cfg_.uplink;
    up_cfg.tx_antenna = nodes_.antenna(n);
    if (cfg_.adaptive_sf) {
      up_cfg.lora.sf = phy::choose_spreading_factor(
          beacon_state.snr_db + cfg_.adr_uplink_advantage_db, 6.0);
    }
    phy::LinkState up_state =
        phy::draw_link_state(up_cfg, g.look, wx, g.doppler_rate, rng);
    if (cfg_.doppler_precompensation) {
      up_state.doppler.shift_hz *= cfg_.precompensation_residual;
      up_state.doppler.rate_hz_per_s *= cfg_.precompensation_residual;
    }
    responders.push_back(SlotResponder{n, Transmission{}, up_cfg.lora,
                                       up_state, g.look, g.doppler_rate});
  }

  void beacon_slot(std::uint32_t s, std::uint64_t gid, double t,
                   std::span<const std::uint32_t> loc_resources) {
    DtsCounters& ctr = sat_counters_[s];
    DtsAggregates& agg = sat_agg_[s];
    ++ctr.beacons_sent;
    const JulianDate jd = jd_at(t);
    const channel::Weather wx = weather_at(t);

    // One counter-based stream per slot entry, shared by every draw the
    // slot makes (beacon decodes, offsets, uplink resolution). The slot
    // owns its satellite and locations while it runs and iterates
    // locations and active lists in a config-fixed order, so the draw
    // sequence is a pure function of the config — and the mt19937_64
    // init cost is amortized over the whole footprint instead of paid
    // per node.
    sim::Rng rng(sim::derive_stream(slot_root_, gid));

    std::vector<SlotResponder> responders;
    std::vector<BeaconPrep> preps;
    for (const std::uint32_t r : loc_resources) {
      const std::size_t loc = r - setup_.satellites.size();
      materialize_loc(loc, t, agg);
      if (active_[loc].empty()) continue;
      const SlotGeo g = slot_geometry(s, loc, jd);
      if (g.masked) continue;
      preps.clear();
      // Snapshot: consider_node never mutates active lists.
      for (const std::uint32_t n : active_[loc])
        consider_node(n, t, wx, g,
                      beacon_prep(nodes_.antenna(n), g, wx, preps), rng, ctr,
                      responders);
    }
    if (responders.empty()) return;

    double max_toa = 0.0;
    for (const SlotResponder& r : responders) {
      const double toa = phy::time_on_air_s(r.uplink_params,
                                            nodes_.payload_bytes(r.node));
      max_toa = std::max(max_toa, toa);
    }
    std::vector<double> offsets;
    if (cfg_.uplink_access == UplinkAccess::kScheduled) {
      offsets = assign_subslots(responders.size(), max_toa,
                                cfg_.beacon.period_s);
    } else {
      offsets.reserve(responders.size());
      for (std::size_t i = 0; i < responders.size(); ++i)
        offsets.push_back(
            rng.uniform(0.3, std::max(0.4, cfg_.beacon.period_s * 0.6)));
    }
    for (std::size_t i = 0; i < responders.size(); ++i) {
      SlotResponder& r = responders[i];
      const double toa = phy::time_on_air_s(r.uplink_params,
                                            nodes_.payload_bytes(r.node));
      r.tx = Transmission{static_cast<std::uint64_t>(r.node),
                          t + offsets[i], t + offsets[i] + toa,
                          r.uplink_state.rssi_dbm};
      nodes_.busy_until[r.node] = r.tx.end;
    }

    std::vector<Transmission> txs;
    txs.reserve(responders.size());
    for (const SlotResponder& r : responders) txs.push_back(r.tx);

    for (SlotResponder& r : responders)
      process_uplink(s, r, txs, wx, rng, ctr, agg);
  }

  void process_uplink(std::uint32_t s, SlotResponder& r,
                      const std::vector<Transmission>& all_txs,
                      channel::Weather wx, sim::Rng& rng, DtsCounters& ctr,
                      DtsAggregates& agg) {
    const std::size_t n = r.node;
    if (nodes_.empty(n)) return;  // popped by an earlier event
    const std::uint64_t seq = nodes_.front(n);

    ++ctr.uplink_attempts;
    nodes_.tx_seconds[n] += r.tx.end - r.tx.start;
    ++nodes_.head_attempts[n];
    if (nodes_.head_first_tx_s[n] < 0.0) {
      nodes_.head_first_tx_s[n] = r.tx.start;
      const double w = r.tx.start - gen_time_s(n, seq);
      agg.sum_wait_s += w;
      ++agg.wait_samples;
      agg.wait_s.add(w);
    }

    bool survived = survives_collisions(r.tx, all_txs, cfg_.mac);
    if (!survived) ++ctr.uplinks_collided;

    if (survived && cfg_.congestion.enabled) {
      double loss = background_loss_probability(s, r.tx.start);
      if (cfg_.uplink_access == UplinkAccess::kScheduled)
        loss *= cfg_.scheduled_background_factor;
      if (rng.chance(loss)) {
        survived = false;
        ++ctr.background_losses;
        ++ctr.uplinks_collided;
      }
    }

    const bool decoded =
        survived && error_model_.receive(r.uplink_state, r.uplink_params,
                                         nodes_.payload_bytes(n), rng);

    bool acked = false;
    if (decoded) {
      ++ctr.uplinks_received;
      const bool already_stored = nodes_.head_stored[n] != 0;
      bool stored = already_stored;
      if (!already_stored) {
        StoredPacket sp;
        sp.packet.sequence = seq;
        sp.packet.node_index = static_cast<std::int64_t>(n);
        sp.packet.payload_bytes = nodes_.payload_bytes(n);
        sp.packet.generated_at = gen_time_s(n, seq);
        sp.satellite_rx_at = r.tx.end;
        sp.satellite_index = static_cast<std::int64_t>(s);
        sp.first_tx_at = nodes_.head_first_tx_s[n];
        stored = setup_.satellites[s].buffer.store(sp);
        if (stored)
          nodes_.head_stored[n] = 1;
        else
          ++ctr.satellite_buffer_drops;
      } else {
        ++ctr.duplicate_uplinks;
      }
      if (stored) {
        ++ctr.acks_sent;
        phy::LinkConfig ack_cfg = cfg_.downlink;
        ack_cfg.tx_power_dbm += cfg_.ack_power_boost_db;
        ack_cfg.rx_antenna = nodes_.antenna(n);
        const phy::LinkState ack_state = phy::draw_link_state(
            ack_cfg, r.look, wx, r.doppler_rate, rng);
        acked = error_model_.receive(ack_state, ack_cfg.lora,
                                     cfg_.ack_payload_bytes, rng);
      }
    }

    if (acked) {
      ++ctr.acks_received;
      pop_head(n, agg);
      return;
    }
    if (nodes_.head_attempts[n] > nodes_.max_retx(n)) {
      ++agg.packets_abandoned;
      pop_head(n, agg);
    }
  }

  void pop_head(std::size_t n, DtsAggregates& agg) {
    agg.attempts.add(nodes_.head_attempts[n]);
    nodes_.pop_front(n);
    nodes_.head_attempts[n] = 0;
    nodes_.head_stored[n] = 0;
    nodes_.head_first_tx_s[n] = -1.0;
    if (nodes_.empty(n)) deactivate(n);
  }

  [[nodiscard]] double background_loss_probability(std::size_t sat,
                                                   double t) {
    const auto& cg = cfg_.congestion;
    const auto block = static_cast<std::uint64_t>(t / cg.block_duration_s);
    auto& [cached_block, cached_loss] = background_cache_[sat];
    if (cached_block == block) return cached_loss;
    sim::Rng field(sim::derive_seed(
        cfg_.seed, "congestion-" + std::to_string(sat) + "-" +
                       std::to_string(block)));
    cached_block = block;
    if (field.chance(cg.congested_probability))
      cached_loss = cg.congested_loss;
    else
      cached_loss = std::min(field.exponential(cg.nominal_load_mean), 1.0);
    return cached_loss;
  }

  // --- ground-station flush -------------------------------------------

  void flush_satellite(std::uint32_t s, std::uint64_t gid, double t) {
    if (setup_.satellites[s].buffer.size() == 0) return;
    DtsAggregates& agg = sat_agg_[s];
    // One deterministic stream per flush entry: the global entry id is
    // unique across satellites, so draw values are independent of event
    // scheduling and of every other satellite's flush activity.
    sim::Rng rng(sim::derive_stream(flush_root_, gid));
    const std::vector<StoredPacket> drained =
        cfg_.downlink_packets_per_contact == 0
            ? setup_.satellites[s].buffer.flush()
            : setup_.satellites[s].buffer.flush_up_to(
                  cfg_.downlink_packets_per_contact);
    for (const StoredPacket& sp : drained) {
      if (rng.chance(cfg_.delivery_loss_probability)) continue;
      const double arrival = t + backhaul_.draw_delay_s(rng);
      // Every stored packet is drained exactly once (head_stored
      // guarantees a single store per packet), so this is its one
      // delivery opportunity — stream it straight into the aggregates.
      ++agg.reports_delivered;
      if (sp.packet.generated_at <= eligible_before_)
        ++agg.eligible_delivered;
      const double e2e = arrival - sp.packet.generated_at;
      agg.sum_end_to_end_s += e2e;
      agg.latency_s.add(e2e);
      if (sp.first_tx_at >= 0.0) {
        agg.sum_dts_transfer_s += sp.satellite_rx_at - sp.first_tx_at;
        agg.sum_delivery_s += arrival - sp.satellite_rx_at;
        ++agg.breakdown_samples;
      }
    }
  }

  // --- assembly -------------------------------------------------------

  DtsNetworkResult assemble_result() {
    DtsNetworkResult result;
    // Satellite partials, merged in satellite-index order — the fixed
    // merge order that keeps double sums identical for any thread count.
    for (std::size_t s = 0; s < setup_.satellites.size(); ++s) {
      merge_counters(result.counters, sat_counters_[s]);
      result.agg.merge_from(sat_agg_[s]);
    }

    // End-of-run node accounting over fixed-size blocks: reports still
    // due before the run end (never observed by any slot), the attempt
    // histogram closeout for pending heads, and fleet energy residency.
    std::vector<double> rx_by_loc(setup_.locations.size());
    for (std::size_t l = 0; l < setup_.locations.size(); ++l)
      rx_by_loc[l] = setup_.location_rx_seconds(cfg_, l);

    struct BlockAccum {
      std::uint64_t generated = 0, eligible = 0, drops = 0;
      stats::Histogram attempts{0.5, 32.5, 32};
      double tx = 0.0, rx = 0.0, sleep = 0.0;
    };
    const std::size_t blocks =
        (nodes_.count + kNodeBlock - 1) / kNodeBlock;
    std::vector<BlockAccum> partials(blocks);
    const auto run_block = [&](std::size_t b) {
      BlockAccum& acc = partials[b];
      const std::size_t lo = b * kNodeBlock;
      const std::size_t hi = std::min(lo + kNodeBlock, nodes_.count);
      for (std::size_t n = lo; n < hi; ++n) {
        for (double t = nodes_.next_report_s[n]; t < duration_s_;
             t += nodes_.interval_s(n)) {
          const std::uint64_t seq = nodes_.next_seq[n]++;
          ++acc.generated;
          if (gen_time_s(n, seq) <= eligible_before_) ++acc.eligible;
          if (!nodes_.push_seq(n, seq)) ++acc.drops;
        }
        if (nodes_.head_attempts[n] > 0)
          acc.attempts.add(nodes_.head_attempts[n]);
        const double tx_s = nodes_.tx_seconds[n];
        const double rx_s = rx_by_loc[setup_.node_loc[n]];
        acc.tx += tx_s;
        acc.rx += std::max(rx_s - tx_s, 0.0);
        acc.sleep += std::max(duration_s_ - std::max(rx_s, tx_s), 0.0);
      }
    };
    if (pool_ != nullptr && blocks > 1)
      pool_->parallel_for(blocks, run_block);
    else
      for (std::size_t b = 0; b < blocks; ++b) run_block(b);
    for (const BlockAccum& acc : partials) {
      result.agg.reports_generated += acc.generated;
      result.agg.eligible_generated += acc.eligible;
      result.agg.local_buffer_drops += acc.drops;
      result.agg.attempts.merge(acc.attempts);
      result.agg.fleet_residency.record(energy::Mode::kTx, acc.tx);
      result.agg.fleet_residency.record(energy::Mode::kRx, acc.rx);
      result.agg.fleet_residency.record(energy::Mode::kSleep, acc.sleep);
    }
    publish_metrics(result);
    return result;
  }

  static void merge_counters(DtsCounters& into, const DtsCounters& from) {
    into.beacons_sent += from.beacons_sent;
    into.beacons_heard += from.beacons_heard;
    into.uplink_attempts += from.uplink_attempts;
    into.uplinks_received += from.uplinks_received;
    into.uplinks_collided += from.uplinks_collided;
    into.acks_sent += from.acks_sent;
    into.acks_received += from.acks_received;
    into.duplicate_uplinks += from.duplicate_uplinks;
    into.satellite_buffer_drops += from.satellite_buffer_drops;
    into.background_losses += from.background_losses;
  }

  void publish_metrics(const DtsNetworkResult& result) {
    detail::publish_dts_metrics(cfg_, setup_, result);
    if (cfg_.metrics == nullptr) return;
    obs::MetricsRegistry& m = *cfg_.metrics;
    m.gauge("net.dts.scale.node_store_bytes")
        .set(static_cast<double>(nodes_.approx_bytes()));
    m.gauge("net.dts.scale.timeline_bytes")
        .set(static_cast<double>(entry_time_.size() * sizeof(double) +
                                 entry_is_flush_.size()));
    m.gauge("net.dts.scale.records_bytes").set(0.0);

    // Event-graph shape: how much concurrency this config exposes. The
    // speedup over one thread is at most 1 / critical_path_share.
    m.gauge("net.dts.parallel.threads").set(static_cast<double>(threads_));
    m.gauge("net.dts.parallel.events").set(static_cast<double>(events_));
    m.gauge("net.dts.parallel.critical_path_share")
        .set(events_ == 0 ? 0.0
                          : static_cast<double>(chained_events_) /
                                static_cast<double>(events_));
  }

  DtsNetworkConfig cfg_;
  detail::DtsSetup setup_;
  phy::ErrorModel error_model_;
  BackhaulModel backhaul_;
  double duration_s_;
  double eligible_before_;
  std::uint64_t slot_root_;
  std::uint64_t flush_root_;

  unsigned threads_ = 1;
  sim::ThreadPool* pool_ = nullptr;
  std::unique_ptr<sim::ThreadPool> owned_pool_;

  NodeStore nodes_;
  std::vector<std::pair<std::uint64_t, double>> background_cache_;

  // Timelines flattened by global entry id: entry_base_[s] + i is the id
  // of entry i of satellite s.
  std::vector<double> entry_time_;
  std::vector<std::uint8_t> entry_is_flush_;
  std::vector<std::uint64_t> entry_base_;

  // In-view sweep state: per satellite, its windows in AOS order, the
  // next one to open and the ones open at the last beacon slot.
  std::vector<std::vector<WindowRef>> by_aos_;
  std::vector<std::size_t> next_open_;
  std::vector<std::vector<WindowRef>> open_;

  /// Events run, and the sum over graphs of their longest dependency
  /// chains: graphs run one after another, so their chains add up.
  std::size_t events_ = 0;
  std::size_t chained_events_ = 0;

  // Per-location state (a graph resource: one event at a time).
  std::vector<std::vector<std::uint32_t>> active_;
  std::vector<std::uint32_t> active_pos_;
  using LocHeap =
      std::priority_queue<std::pair<double, std::uint64_t>,
                          std::vector<std::pair<double, std::uint64_t>>,
                          std::greater<>>;
  std::vector<LocHeap> loc_heap_;

  // Per-satellite accumulators, merged in satellite order after the run.
  std::vector<DtsCounters> sat_counters_;
  std::vector<DtsAggregates> sat_agg_;
};

}  // namespace

DtsNetworkResult run_dts_network_aggregate(const DtsNetworkConfig& cfg) {
  return detail::run_phased<AggregateSimulator>(cfg);
}

}  // namespace sinet::net
