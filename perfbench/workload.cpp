// Benchmark workload process: runs one workload through the program's public entry
// points in this process and prints one JSON object describing the run.
//
//   perfbench_workload setup <workload> --seed N
//       build the workload's inputs and exit (timed by the caller)
//   perfbench_workload run <campaign|active|dts_scale> --seed N
//                    [--threads T] [--trace out.json]
//       one batch run: wall time, output digest and checks
//   perfbench_workload run serve_zipf --seed N --seconds S [--trace out.json]
//       set-up, cache warm-up, open-loop and closed-loop request phases
//
// With --trace the run attaches an obs::MetricsRegistry to the program,
// records spans around each call, replays the per-layer calls listed in
// perfbench/README.md, writes the spans as Chrome trace-event JSON and
// adds a "layers" object of per-layer numbers to its output. perfbench/run.py spawns one
// fresh process per run, so process-wide state (the pass cache, the
// shared thread pool, the peak-RSS high-water mark) never carries over.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/active_experiment.h"
#include "core/passive_campaign.h"
#include "core/scenario.h"
#include "net/dts_network.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "openloop.h"
#include "orbit/constellation.h"
#include "orbit/ephemeris.h"
#include "orbit/look_angles.h"
#include "orbit/passes.h"
#include "phy/error_model.h"
#include "phy/link_budget.h"
#include "sha256.h"
#include "sim/rng.h"
#include "sim/thread_pool.h"
#include "span.h"
#include "svc/server.h"
#include "svc/service.h"
#include "trace/csv.h"

namespace {

using namespace sinet;
using perfbench::Clock;
using perfbench::ScopedSpan;
using perfbench::Tracer;

// Output checks at each program's default seed (campaign seed 1, active
// seed 42). At any other seed the runs are checked for internal
// consistency instead.
constexpr std::uint64_t kCampaignDefaultSeed = 1;
constexpr std::size_t kCampaignTraces = 53917;
constexpr const char* kCampaignCsvSha256 =
    "db84704e5cc6b24afa3140f3013e0f4cef4654ea9615e53e883e7325aa395e9d";
constexpr std::uint64_t kActiveDefaultSeed = 42;
constexpr const char* kActiveSummarySha256 =
    "fff06117ad972499d744453488af1be778cccf28fb19979347326f8a2e317ba1";

// Fixed workload sizes.
constexpr double kCampaignDays = 30.0;
constexpr double kActiveDays = 30.0;
constexpr std::size_t kDtsNodes = 100000;
constexpr std::size_t kDtsSats = 100;
constexpr std::size_t kDtsSites = 64;
constexpr double kDtsDays = 0.05;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU seconds of this process (all threads).
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double gauge(const obs::Snapshot& s, const std::string& name) {
  const auto it = s.gauges.find(name);
  return it == s.gauges.end() ? 0.0 : it->second.value;
}
double counter(const obs::Snapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
}
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// What one run reports back to run.py.
struct RunOutput {
  double wall_s = 0.0;
  std::uint64_t attempted = 1;  ///< operations (batch: the run itself)
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< failed output checks
  std::string digest;
  std::string aggregate;  ///< dts_scale: exact aggregate lines
  std::map<std::string, double> values;  ///< workload-specific results
  std::map<std::string, double> layers;  ///< per-layer numbers (traced)

  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
};

std::string to_json(const RunOutput& out) {
  using obs::json_double;
  using obs::json_escape;
  std::ostringstream os;
  const auto number_map = [&](const std::map<std::string, double>& m) {
    os << '{';
    bool first = true;
    for (const auto& [k, v] : m) {
      os << (first ? "" : ",") << '"' << json_escape(k)
         << "\":" << json_double(std::isfinite(v) ? v : 0.0);
      first = false;
    }
    os << '}';
  };
  os << "{\"wall_s\":" << json_double(out.wall_s)
     << ",\"attempted\":" << out.attempted << ",\"failed\":"
     << (out.failed + (out.problems.empty() ? 0 : 1)) << ",\"problems\":[";
  for (std::size_t i = 0; i < out.problems.size(); ++i)
    os << (i ? "," : "") << '"' << json_escape(out.problems[i]) << '"';
  os << "],\"digest\":\"" << out.digest << "\",\"aggregate\":\""
     << json_escape(out.aggregate) << "\",\"values\":";
  number_map(out.values);
  os << ",\"layers\":";
  number_map(out.layers);
  os << '}';
  return os.str();
}

/// Attribution of a traced batch run: `attributed` is the sum of the
/// named layer times inside the top-level span.
void attribute(RunOutput& out, const Tracer& tr, std::uint64_t top,
               double attributed) {
  double top_s = 0.0;
  for (const perfbench::Span& s : tr.spans())
    if (s.id == top) top_s = s.seconds();
  out.layers["bench.unattributed_s"] = top_s - attributed;
  out.layers["bench.coverage"] = ratio(attributed, top_s);
}

/// Per-call self time of the first span named `name`.
double self_s(const Tracer& tr, const std::string& name) {
  for (const perfbench::Span& s : tr.spans())
    if (s.name == name) return perfbench::self_time_s(tr.spans(), s.id);
  return 0.0;
}

/// Process and orbit-layer numbers every batch workload reports.
void common_layers(const obs::Snapshot& snap, double cpu_s, double wall_s,
                   std::map<std::string, double>& L) {
  L["proc.cpu_s"] = cpu_s;
  L["proc.parallelism"] = ratio(cpu_s, wall_s);
  L["orbit.propagations"] = counter(snap, "orbit.ephemeris.propagations");
  const double culled = counter(snap, "orbit.ephemeris.samples_culled");
  L["orbit.cull_ratio"] =
      ratio(culled, culled + counter(snap, "orbit.ephemeris.samples_visited"));
  L["sim.pool_busy_s"] = gauge(snap, "sim.thread_pool.busy_s");
}

/// Phase and link numbers of a run_dts_network call (active, dts_scale).
void dts_layers(const obs::Snapshot& snap, std::map<std::string, double>& L) {
  L["orbit.predict_s"] = gauge(snap, "net.dts.phase.setup_s");
  L["net.simulate_s"] = gauge(snap, "net.dts.phase.simulate_s");
  const double attempts = counter(snap, "net.dts.uplink_attempts");
  L["net.uplink_attempts"] = attempts;
  L["net.beacons_heard"] = counter(snap, "net.dts.beacons_heard");
  L["net.collision_ratio"] =
      ratio(counter(snap, "net.dts.uplinks_collided"), attempts);
  L["net.uplink_success_ratio"] =
      ratio(counter(snap, "net.dts.uplinks_received"), attempts);
  L["sim.events_executed"] = counter(snap, "sim.event_queue.events_executed");
}

// ---------------------------------------------------------------- campaign

core::PassiveCampaignConfig campaign_config(std::uint64_t seed) {
  core::PassiveCampaignConfig cfg = core::default_campaign(kCampaignDays);
  cfg.seed = seed;
  return cfg;
}

/// The campaign's per-(site, constellation) beacon link, as the campaign
/// builds it.
phy::LinkConfig campaign_link(const core::PassiveCampaignConfig& cfg,
                              const core::MeasurementSite& site,
                              const orbit::ConstellationSpec& c) {
  phy::LinkConfig link = cfg.beacon_link;
  link.carrier_hz = c.dts_frequency_hz;
  link.tx_power_dbm = c.beacon_eirp_dbm;
  link.external_noise_db = site.external_noise_db;
  link.lora.sf = static_cast<phy::SpreadingFactor>(std::clamp(c.beacon_sf, 7, 12));
  return link;
}

/// Replay orbit::sample_geometry, phy::draw_link_state and
/// phy::ErrorModel::receive at every beacon instant of the campaign's
/// theoretical windows, timing each layer's calls as one block per window.
void replay_campaign_layers(const core::PassiveCampaignConfig& cfg,
                            const core::PassiveCampaignResult& res,
                            std::uint64_t seed, RunOutput& out) {
  std::map<std::string, orbit::Sgp4> props;
  for (const orbit::ConstellationSpec& c : cfg.constellations)
    for (const orbit::Tle& tle : orbit::generate_tles(c, cfg.start_jd))
      props.emplace(tle.name, orbit::Sgp4(tle));
  const phy::ErrorModel error_model(cfg.error_model);
  sim::Rng rng(sim::derive_seed(seed, "perfbench.replay"));

  double geometry_s = 0.0, draw_s = 0.0, decode_s = 0.0;
  std::uint64_t geometry_calls = 0, draws = 0, decoded = 0;
  std::vector<orbit::LookAngles> looks;
  std::vector<double> rates;
  std::vector<phy::LinkState> states;
  const double step_jd = cfg.beacon.period_s / orbit::kSecondsPerDay;
  for (const core::MeasurementSite& site : cfg.sites) {
    for (const orbit::ConstellationSpec& c : cfg.constellations) {
      const phy::LinkConfig link = campaign_link(cfg, site, c);
      for (const core::SatelliteWindows& sw :
           res.theoretical.at({site.code, c.name})) {
        const orbit::Sgp4& prop = props.at(sw.satellite);
        for (const orbit::ContactWindow& w : sw.windows) {
          looks.clear();
          rates.clear();
          states.clear();
          const auto t0 = Clock::now();
          for (int k = 0;; ++k) {
            const orbit::JulianDate jd = w.aos_jd + k * step_jd;
            if (jd > w.los_jd) break;
            const orbit::PassSample geo =
                orbit::sample_geometry(prop, site.location, jd);
            ++geometry_calls;
            if (geo.look.elevation_deg < 0.0) continue;
            const orbit::PassSample geo1 = orbit::sample_geometry(
                prop, site.location, jd + 1.0 / orbit::kSecondsPerDay);
            ++geometry_calls;
            looks.push_back(geo.look);
            rates.push_back(
                orbit::doppler_shift_hz(geo1.look.range_rate_km_s,
                                        link.carrier_hz) -
                orbit::doppler_shift_hz(geo.look.range_rate_km_s,
                                        link.carrier_hz));
          }
          const auto t1 = Clock::now();
          for (std::size_t i = 0; i < looks.size(); ++i)
            states.push_back(phy::draw_link_state(
                link, looks[i], channel::Weather::kSunny, rates[i], rng));
          const auto t2 = Clock::now();
          for (const phy::LinkState& st : states)
            decoded += error_model.receive(st, link.lora,
                                           cfg.beacon.payload_bytes, rng)
                           ? 1
                           : 0;
          const auto t3 = Clock::now();
          draws += states.size();
          geometry_s += std::chrono::duration<double>(t1 - t0).count();
          draw_s += std::chrono::duration<double>(t2 - t1).count();
          decode_s += std::chrono::duration<double>(t3 - t2).count();
        }
      }
    }
  }
  out.layers["orbit.geometry_s"] = geometry_s;
  out.layers["orbit.geometry_calls"] = static_cast<double>(geometry_calls);
  out.layers["orbit.geometry_ns"] =
      1e9 * ratio(geometry_s, static_cast<double>(geometry_calls));
  out.layers["phy.link_draw_s"] = draw_s;
  out.layers["phy.link_draws"] = static_cast<double>(draws);
  out.layers["phy.link_draw_ns"] =
      1e9 * ratio(draw_s, static_cast<double>(draws));
  out.layers["phy.decode_s"] = decode_s;
  out.values["replay_decoded"] = static_cast<double>(decoded);
}

RunOutput run_campaign(std::uint64_t seed, Tracer* tr) {
  RunOutput out;
  obs::MetricsRegistry reg;
  const auto t0 = Clock::now();
  const double cpu0 = cpu_seconds();
  const std::uint64_t top = tr != nullptr ? tr->begin("campaign") : 0;
  core::PassiveCampaignConfig cfg = campaign_config(seed);
  if (tr != nullptr) cfg.metrics = &reg;
  std::optional<core::PassiveCampaignResult> res;
  std::uint64_t call_id = 0;
  {
    ScopedSpan call(tr, "core.run_passive_campaign");
    call_id = call.id();
    res.emplace(core::run_passive_campaign(cfg));
  }
  perfbench::HashingBuf sink;
  {
    ScopedSpan call(tr, "trace.write_beacon_csv");
    std::ostream os(&sink);
    trace::write_beacon_csv(os, res->traces.records());
    os.flush();
    out.digest = sink.hex();
  }
  if (tr != nullptr) tr->end();
  out.wall_s = seconds_since(t0);
  const double cpu_s = cpu_seconds() - cpu0;

  const std::size_t traces = res->traces.size();
  out.values["traces"] = static_cast<double>(traces);
  out.values["beacons_transmitted"] =
      static_cast<double>(res->beacons_transmitted);
  out.values["beacons_received"] = static_cast<double>(res->beacons_received);
  out.check(traces == res->beacons_received,
            "trace count differs from beacons_received");
  out.check(sink.lines() == traces + 1, "CSV rows differ from trace count");
  out.check(res->beacons_received > 0 &&
                res->beacons_received <= res->beacons_transmitted,
            "received beacons outside (0, transmitted]");
  out.check(res->windows_requested_observed.size() == cfg.sites.size(),
            "not every site reported its windows");
  for (const auto& [site, ro] : res->windows_requested_observed)
    out.check(ro.second > 0 && ro.second <= ro.first,
              "site " + site + " observed windows outside (0, requested]");
  std::size_t bad_records = 0;
  for (const trace::BeaconRecord& r : res->traces.records())
    bad_records += (r.elevation_deg >= 0.0 && r.range_km > 0.0 &&
                    std::isfinite(r.snr_db) && std::isfinite(r.rssi_dbm))
                       ? 0
                       : 1;
  out.check(bad_records == 0, "trace records with impossible geometry");
  out.check(std::fabs(static_cast<double>(traces) / kCampaignTraces - 1.0) <
                0.10,
            "trace count more than 10% from the default-seed count");
  if (seed == kCampaignDefaultSeed) {
    out.check(traces == kCampaignTraces, "default-seed trace count changed");
    out.check(out.digest == kCampaignCsvSha256, "default-seed CSV digest changed");
  }

  if (tr != nullptr) {
    const obs::Snapshot snap = reg.snapshot();
    std::map<std::string, double>& L = out.layers;
    common_layers(snap, cpu_s, out.wall_s, L);
    L["orbit.predict_s"] = gauge(snap, "core.passive.phase.predict_s");
    L["core.schedule_s"] = gauge(snap, "core.passive.phase.schedule_s");
    L["core.observe_s"] = gauge(snap, "core.passive.phase.observe_s");
    L["phy.decode_ratio"] =
        ratio(counter(snap, "core.passive.beacons_received"),
              counter(snap, "core.passive.beacons_transmitted"));
    L["core.window_observe_ratio"] =
        ratio(counter(snap, "core.passive.windows_observed"),
              counter(snap, "core.passive.windows_requested"));
    L["trace.export_s"] = self_s(*tr, "trace.write_beacon_csv");
    L["trace.export_mb"] = static_cast<double>(sink.bytes()) / 1e6;
    L["sim.pool_utilization"] =
        ratio(L["sim.pool_busy_s"],
              gauge(snap, "sim.thread_pool.workers") * L["orbit.predict_s"]);
    attribute(out, *tr, top,
              L["orbit.predict_s"] + L["core.schedule_s"] +
                  L["core.observe_s"] + L["trace.export_s"]);
    tr->span(call_id).args = {{"predict_s", L["orbit.predict_s"]},
                              {"schedule_s", L["core.schedule_s"]},
                              {"observe_s", L["core.observe_s"]}};
    ScopedSpan replay(tr, "replay.campaign_layers");
    replay_campaign_layers(cfg, *res, seed, out);
  }
  return out;
}

// ------------------------------------------------------------------ active

core::ActiveExperimentKnobs active_knobs(std::uint64_t seed) {
  core::ActiveExperimentKnobs knobs;
  knobs.duration_days = kActiveDays;
  knobs.seed = seed;
  return knobs;
}

RunOutput run_active(std::uint64_t seed, Tracer* tr) {
  RunOutput out;
  obs::MetricsRegistry reg;
  const auto t0 = Clock::now();
  const double cpu0 = cpu_seconds();
  const std::uint64_t top = tr != nullptr ? tr->begin("active") : 0;
  core::ActiveExperimentKnobs knobs = active_knobs(seed);
  if (tr != nullptr) knobs.metrics = &reg;
  std::optional<core::ActiveComparison> cmp;
  {
    ScopedSpan call(tr, "core.run_active_comparison");
    cmp.emplace(core::run_active_comparison(knobs));
  }
  const core::ReliabilitySummary rel =
      core::summarize_reliability(cmp->satellite.uplinks, cmp->run_end_unix_s);
  const core::LatencySummary lat = core::summarize_latency(cmp->satellite);
  if (tr != nullptr) tr->end();
  out.wall_s = seconds_since(t0);
  const double cpu_s = cpu_seconds() - cpu0;

  const net::DtsCounters& c = cmp->satellite.counters;
  std::ostringstream summary;
  summary << "generated " << rel.generated << " eligible " << rel.eligible
          << " delivered " << rel.delivered << " reliability "
          << obs::json_double(rel.reliability) << "\nlatency_min mean "
          << obs::json_double(lat.mean_min) << " median "
          << obs::json_double(lat.median_min) << " p90 "
          << obs::json_double(lat.p90_min) << "\nbeacons " << c.beacons_sent
          << '/' << c.beacons_heard << " uplinks " << c.uplink_attempts << '/'
          << c.uplinks_received << '/' << c.uplinks_collided << " acks "
          << c.acks_sent << '/' << c.acks_received << "\nterrestrial "
          << obs::json_double(cmp->terrestrial.delivered_fraction()) << ' '
          << obs::json_double(cmp->terrestrial.mean_latency_s()) << '\n';
  perfbench::Sha256 sha;
  const std::string text = summary.str();
  sha.update(text.data(), text.size());
  out.digest = sha.hex();

  out.values["reliability"] = rel.reliability;
  out.values["mean_latency_min"] = lat.mean_min;
  out.values["terrestrial_delivered"] = cmp->terrestrial.delivered_fraction();
  out.check(rel.generated == cmp->satellite.uplinks.size() &&
                rel.generated > 0,
            "reliability summary does not cover every report");
  out.check(rel.delivered <= rel.eligible && rel.eligible <= rel.generated,
            "delivered > eligible or eligible > generated");
  out.check(rel.reliability > 0.85 && rel.reliability <= 1.0,
            "satellite reliability outside (0.85, 1]");
  out.check(c.uplinks_received <= c.uplink_attempts &&
                c.acks_received <= c.acks_sent &&
                c.beacons_heard <= c.beacons_sent,
            "link counters: successes exceed attempts");
  out.check(lat.mean_min > 0.0 && lat.median_min <= lat.p90_min,
            "latency summary out of order");
  out.check(cmp->terrestrial.delivered_fraction() > 0.9,
            "terrestrial baseline delivered <= 90%");
  if (seed == kActiveDefaultSeed)
    out.check(out.digest == kActiveSummarySha256,
              "default-seed summary digest changed");

  if (tr != nullptr) {
    const obs::Snapshot snap = reg.snapshot();
    std::map<std::string, double>& L = out.layers;
    common_layers(snap, cpu_s, out.wall_s, L);
    dts_layers(snap, L);
    // The terrestrial baseline and the summaries stay unattributed.
    attribute(out, *tr, top, L["orbit.predict_s"] + L["net.simulate_s"]);
  }
  return out;
}

// --------------------------------------------------------------- dts_scale

net::DtsNetworkConfig dts_config(std::uint64_t seed, unsigned threads) {
  net::DtsNetworkConfig cfg = net::scale_fleet_config(
      kDtsNodes, kDtsSats, kDtsSites, core::campaign_epoch_jd(), kDtsDays);
  cfg.seed = seed;
  cfg.sim_threads = threads;
  return cfg;
}

/// Every aggregate the shard engine merges, printed exactly, so runs at
/// different thread counts can be compared byte for byte.
std::string aggregate_lines(const net::DtsNetworkResult& res) {
  const net::DtsAggregates& a = res.agg;
  const net::DtsCounters& c = res.counters;
  std::ostringstream os;
  const auto u = [&](const char* k, std::uint64_t v) {
    os << k << '=' << v << '\n';
  };
  const auto d = [&](const char* k, double v) {
    os << k << '=' << obs::json_double(v) << '\n';
  };
  u("reports_generated", a.reports_generated);
  u("reports_delivered", a.reports_delivered);
  u("eligible_generated", a.eligible_generated);
  u("eligible_delivered", a.eligible_delivered);
  u("local_buffer_drops", a.local_buffer_drops);
  u("packets_abandoned", a.packets_abandoned);
  d("sum_end_to_end_s", a.sum_end_to_end_s);
  d("sum_wait_s", a.sum_wait_s);
  u("wait_samples", a.wait_samples);
  d("sum_dts_transfer_s", a.sum_dts_transfer_s);
  d("sum_delivery_s", a.sum_delivery_s);
  u("breakdown_samples", a.breakdown_samples);
  u("beacons_sent", c.beacons_sent);
  u("beacons_heard", c.beacons_heard);
  u("uplink_attempts", c.uplink_attempts);
  u("uplinks_received", c.uplinks_received);
  u("uplinks_collided", c.uplinks_collided);
  u("acks_sent", c.acks_sent);
  u("acks_received", c.acks_received);
  u("satellite_buffer_drops", c.satellite_buffer_drops);
  u("background_losses", c.background_losses);
  const auto hist = [&](const char* k, const stats::Histogram& h) {
    os << k << '=';
    for (std::size_t i = 0; i < h.bin_count(); ++i)
      os << (i ? "," : "") << h.count(i);
    os << '\n';
  };
  hist("latency_bins", a.latency_s);
  hist("wait_bins", a.wait_s);
  hist("attempt_bins", a.attempts);
  return os.str();
}

RunOutput run_dts(std::uint64_t seed, unsigned threads, Tracer* tr) {
  RunOutput out;
  obs::MetricsRegistry reg;
  const auto t0 = Clock::now();
  const double cpu0 = cpu_seconds();
  const std::uint64_t top = tr != nullptr ? tr->begin("dts_scale") : 0;
  net::DtsNetworkConfig cfg = dts_config(seed, threads);
  if (tr != nullptr) cfg.metrics = &reg;
  std::optional<net::DtsNetworkResult> res;
  {
    ScopedSpan call(tr, "net.run_dts_network");
    res.emplace(net::run_dts_network(cfg));
  }
  if (tr != nullptr) tr->end();
  out.wall_s = seconds_since(t0);
  const double cpu_s = cpu_seconds() - cpu0;

  const net::DtsAggregates& a = res->agg;
  out.aggregate = aggregate_lines(*res);
  out.values["delivered_fraction"] = a.delivered_fraction();
  out.values["eligible_pdr"] = a.eligible_delivered_fraction();
  out.values["mean_latency_s"] = a.mean_end_to_end_s();
  // Bands, not digests: the aggregate engine's random streams may change
  // while its statistics must not.
  out.check(a.delivered_fraction() > 0.20 && a.delivered_fraction() < 0.36,
            "delivered_fraction outside (0.20, 0.36)");
  out.check(a.eligible_delivered_fraction() > 0.30 &&
                a.eligible_delivered_fraction() < 0.47,
            "eligible_pdr outside (0.30, 0.47)");
  out.check(a.mean_end_to_end_s() > 3000.0 && a.mean_end_to_end_s() < 5500.0,
            "mean_latency_s outside (3000, 5500)");
  out.check(a.reports_delivered <= a.reports_generated &&
                a.eligible_delivered <= a.eligible_generated &&
                a.eligible_generated <= a.reports_generated &&
                a.eligible_delivered <= a.reports_delivered,
            "aggregate counts out of order");
  out.check(res->uplinks.empty(), "aggregate mode kept per-packet records");

  if (tr != nullptr) {
    const obs::Snapshot snap = reg.snapshot();
    std::map<std::string, double>& L = out.layers;
    common_layers(snap, cpu_s, out.wall_s, L);
    dts_layers(snap, L);
    const double slices = gauge(snap, "net.dts.parallel.slices");
    L["sim.shards_per_slice"] =
        ratio(gauge(snap, "net.dts.parallel.shards"), slices);
    L["sim.max_shard_share"] =
        ratio(gauge(snap, "net.dts.parallel.max_shard_members"),
              static_cast<double>(kDtsSats));
    L["sim.pool_utilization"] =
        ratio(L["sim.pool_busy_s"],
              gauge(snap, "net.dts.parallel.threads") * L["net.simulate_s"]);
    attribute(out, *tr, top, L["orbit.predict_s"] + L["net.simulate_s"]);
  }
  return out;
}

// -------------------------------------------------------------- serve_zipf

// Request mix, observer pool and Zipf exponent of `sinet loadgen`.
constexpr std::size_t kObservers = 10000;
constexpr double kZipfS = 1.1;
constexpr std::size_t kWarmRequests = 12000;
// Low enough that the open loop's p99 sits in the cache-miss service
// time, not on the edge of the queueing tail (at 300/s it flipped
// between the two from run to run).
constexpr double kOpenRateRps = 150.0;
// Requests in flight per connection in the closed-loop phases: enough to
// keep both server workers busy across the I/O thread's hand-offs.
constexpr std::size_t kPipelineDepth = 8;
constexpr int kSetupRepeats = 5;
constexpr std::size_t kSegments = 3;

enum class ReqType { kNextPass = 0, kPassesInRange = 1, kVisibilityNow = 2 };
constexpr const char* kTypeNames[] = {"next_pass", "passes_in_range",
                                      "visibility_now"};

struct RequestSet {
  std::vector<std::string> lines;
  std::vector<ReqType> types;
};

/// Zipf(s) observer popularity over a fixed pool of ground sites in the
/// paper's deployment band, and the 80/10/10 next_pass / passes_in_range
/// / visibility_now mix. Ids run from first_id. The pool is the same for
/// every seed, as the campaign's sites are; the seed draws the request
/// stream. (With seeded sites, which latitudes the few hottest observers
/// land on moves the cache-miss cost between seeds by more than the
/// benchmark's bounds.)
class RequestMaker {
 public:
  explicit RequestMaker(std::uint64_t seed)
      : rng_(sim::derive_seed(seed, "perfbench.requests")) {
    sim::Rng pool(sim::derive_seed(0, "perfbench.observers"));
    for (std::size_t i = 0; i < kObservers; ++i) {
      lat_.push_back(pool.uniform(-55.0, 65.0));
      lon_.push_back(pool.uniform(-180.0, 180.0));
    }
    double total = 0.0;
    for (std::size_t r = 0; r < kObservers; ++r) {
      total += std::pow(static_cast<double>(r + 1), -kZipfS);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  RequestSet make(std::size_t count, std::uint64_t first_id) {
    RequestSet set;
    for (std::size_t i = 0; i < count; ++i) {
      const double u = rng_.uniform();
      const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
      const std::size_t rank =
          it == cdf_.end() ? kObservers - 1
                           : static_cast<std::size_t>(it - cdf_.begin());
      const double pick = rng_.uniform();
      const ReqType type = pick < 0.8   ? ReqType::kNextPass
                           : pick < 0.9 ? ReqType::kPassesInRange
                                        : ReqType::kVisibilityNow;
      std::string line = "{\"id\":" + std::to_string(first_id + i) +
                         ",\"type\":\"" +
                         kTypeNames[static_cast<int>(type)] +
                         "\",\"lat_deg\":" + obs::json_double(lat_[rank]) +
                         ",\"lon_deg\":" + obs::json_double(lon_[rank]);
      if (type == ReqType::kPassesInRange)
        line += ",\"start_unix_s\":0,\"end_unix_s\":253402300800";
      line += "}\n";
      set.lines.push_back(std::move(line));
      set.types.push_back(type);
    }
    return set;
  }

 private:
  sim::Rng rng_;
  std::vector<double> lat_, lon_, cdf_;
};

svc::ServiceOptions service_options() {
  svc::ServiceOptions so;  // `sinet serve` defaults
  so.epoch_unix_s = orbit::julian_to_unix(core::campaign_epoch_jd());
  so.time_scale = 1.0;
  so.mode = orbit::PropagationMode::kReference;
  return so;
}

void add_phase(RunOutput& out, const perfbench::PhaseStats& st) {
  out.attempted += st.sent;
  out.failed += st.failed + st.shed;
  out.values["shed"] += static_cast<double>(st.shed);
}

/// The CPUs this process may run on, split into the last one (for the
/// request generator) and the rest (for the server's threads, which
/// inherit the mask of the thread that creates them). With one CPU both
/// masks are that CPU.
struct CpuSplit {
  cpu_set_t server;
  cpu_set_t generator;
};

CpuSplit split_cpus() {
  CpuSplit split{};
  sched_getaffinity(0, sizeof(cpu_set_t), &split.server);
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &split.server)) last = c;
  CPU_ZERO(&split.generator);
  CPU_SET(last, &split.generator);
  if (CPU_COUNT(&split.server) > 1) CPU_CLR(last, &split.server);
  return split;
}

void pin_this_thread(const cpu_set_t& cpus) {
  pthread_setaffinity_np(pthread_self(), sizeof(cpu_set_t), &cpus);
}

RunOutput run_serve(std::uint64_t seed, double seconds, Tracer* tr) {
  RunOutput out;
  out.attempted = 0;
  obs::MetricsRegistry reg;
  obs::MetricsRegistry* metrics = tr != nullptr ? &reg : nullptr;
  const std::size_t conns = std::min<std::size_t>(
      4, std::max(1u, sim::ThreadPool::hardware_threads()));
  const double segment_s = 0.5 * seconds;
  const double closed_s = 0.3 * seconds;

  RequestMaker maker(seed);
  const RequestSet warm = maker.make(kWarmRequests, 1);
  const auto segment_n = static_cast<std::size_t>(kOpenRateRps * segment_s);
  const std::uint64_t open_id = 1 + kWarmRequests;
  const RequestSet open = maker.make(kSegments * segment_n, open_id);
  const std::uint64_t closed_id = open_id + kSegments * segment_n;
  const RequestSet closed =
      maker.make(static_cast<std::size_t>(20000.0 * closed_s), closed_id);

  // The generator spins in the open loop; on a CPU of its own it never
  // delays a server thread.
  const CpuSplit cpus = split_cpus();
  pin_this_thread(cpus.server);
  const std::uint64_t top = tr != nullptr ? tr->begin("serve_zipf") : 0;
  const svc::ServiceOptions so = service_options();
  std::unique_ptr<svc::PassService> service;
  std::unique_ptr<svc::Server> server;
  std::vector<double> setup_s, construct_s;
  {
    ScopedSpan span(tr, "svc.setup");
    for (int k = 0; k < kSetupRepeats; ++k) {
      server.reset();
      service.reset();
      const auto t0 = Clock::now();
      // Only the instance that serves the run reports into the registry.
      service = std::make_unique<svc::PassService>(
          so, k + 1 == kSetupRepeats ? metrics : nullptr);
      construct_s.push_back(seconds_since(t0));
      server = std::make_unique<svc::Server>(*service, svc::ServerOptions{},
                                             k + 1 == kSetupRepeats ? metrics
                                                                    : nullptr);
      perfbench::Generator probe(server->port(), 1, 10.0);
      const std::string stats_line = "{\"id\":1,\"type\":\"stats\"}\n";
      const auto st = probe.closed_loop({&stats_line, 1}, 1, 10.0);
      setup_s.push_back(seconds_since(t0));
      add_phase(out, st);
    }
  }
  out.values["setup_s"] = quantile(setup_s, 0.5);

  pin_this_thread(cpus.generator);
  perfbench::Generator gen(server->port(), conns, 10.0);
  const double cpu0 = cpu_seconds();
  const auto t_measured = Clock::now();
  perfbench::PhaseStats warm_st;
  {
    ScopedSpan span(tr, "svc.warm_up");
    warm_st = gen.closed_loop(warm.lines, 1, 1e9, kPipelineDepth);
  }
  add_phase(out, warm_st);
  out.wall_s = warm_st.elapsed_s;

  // kSegments rounds of (open-loop segment, closed-loop segment); each
  // figure is the median segment's, and interleaving spreads the samples
  // of both over the whole run, so one slow stretch of the host does not
  // set either.
  const svc::StatsPayload before = service->stats_payload();
  std::vector<double> p50, p99, late, rps;
  std::size_t open_ok = 0;
  std::size_t closed_used = 0;
  obs::HistogramSnapshot server_ms;  // handler latency, open loop only
  for (std::size_t k = 0; k < kSegments; ++k) {
    const obs::Snapshot snap0 = reg.snapshot();
    {
      ScopedSpan span(tr, "svc.open_loop");
      const perfbench::PhaseStats st = gen.open_loop(
          std::span(open.lines).subspan(k * segment_n, segment_n),
          open_id + k * segment_n, kOpenRateRps);
      add_phase(out, st);
      open_ok += st.ok;
      p50.push_back(quantile(st.latency_ms, 0.50));
      p99.push_back(quantile(st.latency_ms, 0.99));
      late.insert(late.end(), st.late_ms.begin(), st.late_ms.end());
    }
    if (tr != nullptr) {
      const obs::Snapshot snap1 = reg.snapshot();
      const obs::HistogramSnapshot& h1 =
          snap1.histograms.at("svc.request_latency_ms");
      const obs::HistogramSnapshot& h0 =
          snap0.histograms.at("svc.request_latency_ms");
      if (server_ms.bins.empty()) {
        server_ms = h1;
        server_ms.bins.assign(h1.bins.size(), 0);
        server_ms.underflow = server_ms.overflow = server_ms.nan_count =
            server_ms.total = 0;
      }
      for (std::size_t i = 0; i < h1.bins.size(); ++i)
        server_ms.bins[i] += h1.bins[i] - h0.bins[i];
      server_ms.underflow += h1.underflow - h0.underflow;
      server_ms.overflow += h1.overflow - h0.overflow;
      server_ms.nan_count += h1.nan_count - h0.nan_count;
      server_ms.total += h1.total - h0.total;
    }
    {
      ScopedSpan span(tr, "svc.closed_loop");
      const perfbench::PhaseStats st = gen.closed_loop(
          std::span(closed.lines).subspan(closed_used),
          closed_id + closed_used, closed_s / kSegments, kPipelineDepth);
      add_phase(out, st);
      closed_used += st.sent;
      rps.push_back(ratio(static_cast<double>(st.ok), st.elapsed_s));
    }
  }
  const svc::StatsPayload after = service->stats_payload();
  const obs::Snapshot snap = reg.snapshot();
  const double measured_s = seconds_since(t_measured);
  const double cpu_s = cpu_seconds() - cpu0;
  if (tr != nullptr) tr->end();

  out.values["p50_ms"] = quantile(p50, 0.5);
  out.values["p99_ms"] = quantile(p99, 0.5);
  out.values["open_loop_samples"] = static_cast<double>(open_ok);
  out.values["capacity_rps"] = quantile(rps, 0.5);
  out.values["closed_loop_samples"] = static_cast<double>(closed_used);
  out.check(closed_used < closed.lines.size(),
            "closed loop ran out of prepared requests");
  out.check(open_ok == open.lines.size(),
            "open-loop requests not all answered ok");

  if (tr != nullptr) {
    std::map<std::string, double>& L = out.layers;
    L["proc.cpu_s"] = cpu_s;
    L["proc.parallelism"] = ratio(cpu_s, measured_s);
    L["orbit.predict_s"] = quantile(construct_s, 0.5);
    L["orbit.propagations"] = counter(snap, "svc.horizon.propagations");
    const double lookups = static_cast<double>(
        (after.cache_hits - before.cache_hits) +
        (after.cache_misses - before.cache_misses));
    L["svc.cache_hit_ratio"] =
        ratio(static_cast<double>(after.cache_hits - before.cache_hits),
              lookups);
    L["svc.cache_lookups_per_req"] =
        ratio(lookups, static_cast<double>(after.requests - before.requests));
    L["svc.open_loop_p99_ms"] = out.values["p99_ms"];
    L["svc.server_p99_ms"] = obs::snapshot_quantile(server_ms, 0.99);
    L["svc.transport_queue_ms"] =
        out.values["p50_ms"] - obs::snapshot_quantile(server_ms, 0.50);
    L["svc.shed"] = out.values["shed"];
    L["gen.late_ms_p99"] = quantile(late, 0.99);
    L["gen.open_loop_samples"] = out.values["open_loop_samples"];
    L["gen.offered_rps"] = kOpenRateRps;
    // Every phase is a child span of the run; what they leave uncovered is
    // the unattributed time.
    const perfbench::Span& run = tr->span(top);
    attribute(out, *tr, top,
              run.seconds() - perfbench::self_time_s(tr->spans(), top));

    // Replay the same sequence through PassService::handle_line on a
    // fresh service: the warm-up untimed, then each open-loop request
    // timed on its own.
    server.reset();
    service.reset();
    ScopedSpan span(tr, "replay.svc_handle_line");
    svc::PassService replay(so);
    for (const std::string& line : warm.lines) (void)replay.handle_line(line);
    std::vector<double> us[3];
    for (std::size_t i = 0; i < open.lines.size(); ++i) {
      const auto t0 = Clock::now();
      const std::string resp = replay.handle_line(open.lines[i]);
      us[static_cast<int>(open.types[i])].push_back(1e6 * seconds_since(t0));
      std::uint64_t id = 0;
      if (perfbench::classify_reply(resp, id) != perfbench::Reply::kOk)
        out.check(false, "replayed request failed");
    }
    for (int t = 0; t < 3; ++t) {
      L[std::string("svc.handle_us_p50.") + kTypeNames[t]] = quantile(us[t], 0.5);
      L[std::string("svc.handle_us_p99.") + kTypeNames[t]] =
          quantile(us[t], 0.99);
    }
  }
  return out;
}

// -------------------------------------------------------------------- main

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_workload setup|run <workload> --seed N "
               "[--threads T] [--seconds S] [--trace out.json]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) usage();
  const std::string mode = argv[1];
  const std::string workload = argv[2];
  std::uint64_t seed = 1;
  unsigned threads = 0;
  double seconds = 10.0;
  std::string trace_path;
  for (int i = 3; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--seed") seed = std::strtoull(value, nullptr, 10);
    else if (key == "--threads") threads = static_cast<unsigned>(std::atoi(value));
    else if (key == "--seconds") seconds = std::atof(value);
    else if (key == "--trace") trace_path = value;
    else usage();
  }
  orbit::set_propagation_mode(orbit::PropagationMode::kReference);

  try {
    if (mode == "setup") {
      // Inputs only: what a batch run builds before its first call.
      if (workload == "campaign") (void)campaign_config(seed);
      else if (workload == "active") (void)core::make_active_config(active_knobs(seed));
      else if (workload == "dts_scale") (void)dts_config(seed, threads);
      else usage();
      std::printf("{}\n");
      return 0;
    }
    if (mode != "run") usage();
    Tracer tracer;
    Tracer* tr = trace_path.empty() ? nullptr : &tracer;
    RunOutput out;
    if (workload == "campaign") out = run_campaign(seed, tr);
    else if (workload == "active") out = run_active(seed, tr);
    else if (workload == "dts_scale") out = run_dts(seed, threads, tr);
    else if (workload == "serve_zipf") out = run_serve(seed, seconds, tr);
    else usage();
    if (tr != nullptr) {
      for (const auto& [name, v] : out.layers)
        if (!perfbench::valid_metric_name(name))
          out.check(false, "invalid metric name " + name);
      perfbench::write_chrome_trace(trace_path, tracer.spans());
    }
    std::printf("%s\n", to_json(out).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workload: %s\n", e.what());
    return 1;
  }
  return 0;
}
