#include "net/dts_network.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "net/dts_batch.h"
#include "obs/metrics.h"
#include "orbit/frames.h"
#include "sim/simulation.h"
#include "sim/thread_pool.h"

namespace sinet::net {

namespace {

using orbit::ContactWindow;
using orbit::JulianDate;

/// Derive the streaming aggregates from a full per-packet trace, so
/// trace-mode results expose the same DtsAggregates surface as
/// aggregate-mode runs. Does not touch fleet_residency.
void aggregate_from_uplinks(const std::vector<trace::UplinkRecord>& uplinks,
                            double run_end_unix_s, double tail_exclusion_s,
                            DtsAggregates& agg) {
  const double eligible_before = run_end_unix_s - tail_exclusion_s;
  for (const trace::UplinkRecord& u : uplinks) {
    ++agg.reports_generated;
    const bool eligible = u.generated_unix_s <= eligible_before;
    if (eligible) ++agg.eligible_generated;
    if (u.first_tx_unix_s >= 0.0) {
      const double w = u.first_tx_unix_s - u.generated_unix_s;
      agg.sum_wait_s += w;
      ++agg.wait_samples;
      agg.wait_s.add(w);
    }
    if (u.dts_attempts > 0)
      agg.attempts.add(static_cast<double>(u.dts_attempts));
    if (!u.delivered) continue;
    ++agg.reports_delivered;
    if (eligible) ++agg.eligible_delivered;
    const double e2e = u.end_to_end_s();
    agg.sum_end_to_end_s += e2e;
    agg.latency_s.add(e2e);
    if (u.first_tx_unix_s >= 0.0 && u.satellite_rx_unix_s >= 0.0) {
      agg.sum_dts_transfer_s += u.dts_transfer_s();
      agg.sum_delivery_s += u.delivery_s();
      ++agg.breakdown_samples;
    }
  }
}

/// The exact (trace) engine: one chained DES event per satellite timeline,
/// every node considered at every beacon slot in index order, full
/// per-packet UplinkRecords and per-node residency. Runs at or below
/// cfg.trace_node_threshold nodes.
class Simulator {
 public:
  explicit Simulator(const DtsNetworkConfig& cfg)
      : cfg_(cfg),
        setup_(cfg),
        sim_(cfg.seed, orbit::julian_to_unix(cfg.start_jd)),
        error_model_(cfg.error_model),
        backhaul_(cfg.delivery_backhaul) {
    sim_.attach_metrics(cfg_.metrics);
    build_nodes();
    window_cursor_.assign(
        setup_.satellites.size(),
        std::vector<std::uint32_t>(setup_.locations.size(), 0));
    loc_geo_.resize(setup_.locations.size());
    background_cache_.assign(
        setup_.satellites.size(),
        {std::numeric_limits<std::uint64_t>::max(), 0.0});
  }

  DtsNetworkResult run() {
    schedule_timelines();
    sim_.run_until(duration_s());
    for (std::size_t n = 0; n < nodes_.size(); ++n)
      generate_reports(n, duration_s(), /*inclusive=*/false);
    return assemble_result();
  }

 private:
  [[nodiscard]] double duration_s() const {
    return cfg_.duration_days * 86400.0;
  }
  [[nodiscard]] JulianDate jd_at(sim::SimTime t) const {
    return cfg_.start_jd + t / orbit::kSecondsPerDay;
  }
  [[nodiscard]] channel::Weather weather_at(sim::SimTime t) const {
    if (cfg_.daily_weather.empty()) return channel::Weather::kSunny;
    const auto day = static_cast<std::size_t>(t / 86400.0);
    return cfg_.daily_weather[day % cfg_.daily_weather.size()];
  }

  void build_nodes() {
    const std::size_t count = detail::dts_node_count(cfg_);
    nodes_.reserve(count);
    records_.resize(count);
    next_report_s_.reserve(count);
    // Fleet configs materialize one IotNodeConfig per node here — fine
    // for the small populations this engine is meant for; the aggregate
    // engine reads the prototype straight into its SoA store instead.
    for (std::size_t n = 0; n < count; ++n) {
      nodes_.emplace_back(detail::dts_node_config(cfg_, n));
      // Small per-node phase so reports are not artificially
      // synchronized. Wrapped modulo the interval so a large node index
      // never pushes the first report late enough to lose a whole report
      // relative to the other nodes (every node gets the same count).
      next_report_s_.push_back(std::fmod(60.0 * static_cast<double>(n),
                                         nodes_[n].config.report_interval_s));
    }
  }

  /// One chained queue event per satellite walks its merged beacon/flush
  /// timeline, so the queue holds one event per satellite instead of
  /// every tick up front.
  void schedule_timelines() {
    timeline_is_flush_.resize(setup_.satellites.size());
    for (std::size_t s = 0; s < setup_.satellites.size(); ++s) {
      std::vector<double> times;
      setup_.append_timeline(cfg_, s, times, timeline_is_flush_[s]);
      if (times.empty()) continue;
      sim_.events().schedule_chain(std::move(times), [this, s](std::size_t i) {
        if (timeline_is_flush_[s][i])
          flush_satellite(s);
        else
          beacon_slot(s);
      });
    }
  }

  /// Generate node `n`'s reports due before `t` (or at `t` when
  /// `inclusive`), one per interval from its phase. A report touches only
  /// its node's buffer and records, and only a beacon slot reads them, so
  /// a slot generating the node's due reports before it considers the
  /// node is the same as one event per report fired first at equal times.
  void generate_reports(std::size_t n, double t, bool inclusive) {
    double& next = next_report_s_[n];
    while (next < duration_s() && (inclusive ? next <= t : next < t)) {
      generate_report(n, next);
      next += nodes_[n].config.report_interval_s;
    }
  }

  void generate_report(std::size_t n, double t) {
    IotNodeState& node = nodes_[n];
    AppPacket pkt;
    pkt.sequence = node.next_sequence++;
    pkt.node_index = static_cast<std::int64_t>(n);
    pkt.payload_bytes = node.config.report_payload_bytes;
    pkt.generated_at = t;

    trace::UplinkRecord rec;
    rec.sequence = pkt.sequence;
    rec.node = node.config.name;
    rec.payload_bytes = pkt.payload_bytes;
    rec.generated_unix_s = sim_.epoch_unix_s() + t;
    records_[n].push_back(std::move(rec));

    if (node.buffer.size() >= node.config.buffer_capacity) {
      ++node.local_drops;
      return;  // record stays undelivered
    }
    node.buffer.push_back(pkt);
  }

  /// The beacon link of one (slot, location, antenna type) with its
  /// deterministic part evaluated once: per node only the fading draw,
  /// the PER and the Bernoulli draw remain (bit-identical to
  /// draw_link_state + ErrorModel::receive).
  struct BeaconPrep {
    channel::AntennaType antenna;
    phy::PreparedLink link;
    phy::PreparedReception rx;
  };

  /// Geometry of one location at the current beacon slot, shared by every
  /// node there: visibility, look angles, Doppler rate and beacon links.
  struct LocGeo {
    std::uint64_t stamp = 0;  ///< slot this entry was computed for
    bool visible = false;     ///< in a contact window and above the mask
    orbit::LookAngles look;
    double doppler_rate = 0.0;
    std::vector<BeaconPrep> beacons;  ///< one per antenna type seen
  };

  /// Geometry of `loc` from satellite `s` at the current slot, computed
  /// once per slot. The per-(satellite, location) cursor replaces a scan
  /// over every window: a satellite's slots come in time order and its
  /// windows over a location are chronological and disjoint.
  LocGeo& loc_geometry(std::size_t s, std::size_t loc, JulianDate jd) {
    LocGeo& g = loc_geo_[loc];
    if (g.stamp == slot_stamp_) return g;
    g.stamp = slot_stamp_;
    g.visible = false;
    g.beacons.clear();
    const std::vector<ContactWindow>& ws = setup_.node_windows[s][loc];
    std::uint32_t& cur = window_cursor_[s][loc];
    while (cur < ws.size() && jd > ws[cur].los_jd) ++cur;
    if (cur == ws.size() || jd < ws[cur].aos_jd || jd > ws[cur].los_jd)
      return g;

    const orbit::ElevationSampler sampler(setup_.satellites[s].propagator,
                                          setup_.frames[loc]);
    g.look = sampler.look(jd);
    if (g.look.elevation_deg < cfg_.visibility_mask_deg) return g;
    g.visible = true;
    // Doppler rate via one-second finite difference.
    const orbit::LookAngles look1 =
        sampler.look(jd + 1.0 / orbit::kSecondsPerDay);
    const double f0 = orbit::doppler_shift_hz(g.look.range_rate_km_s,
                                              cfg_.downlink.carrier_hz);
    const double f1 = orbit::doppler_shift_hz(look1.range_rate_km_s,
                                              cfg_.downlink.carrier_hz);
    g.doppler_rate = f1 - f0;
    return g;
  }

  const BeaconPrep& beacon_prep(LocGeo& g, channel::AntennaType antenna,
                                channel::Weather wx) const {
    for (const BeaconPrep& p : g.beacons)
      if (p.antenna == antenna) return p;
    phy::LinkConfig beacon_cfg = cfg_.downlink;
    beacon_cfg.rx_antenna = antenna;
    const phy::PreparedLink link(beacon_cfg, g.look, wx, g.doppler_rate);
    g.beacons.push_back(BeaconPrep{
        antenna, link,
        error_model_.prepare(link.mean().doppler, beacon_cfg.lora,
                             cfg_.beacon.payload_bytes)});
    return g.beacons.back();
  }

  struct SlotResponder {
    std::size_t node;
    Transmission tx;
    phy::LoraParams uplink_params;
    phy::LinkState uplink_state;
    orbit::LookAngles look;
    double doppler_rate;
  };

  void beacon_slot(std::size_t s) {
    ++counters_.beacons_sent;
    ++slot_stamp_;
    const sim::SimTime now = sim_.now();
    const JulianDate jd = jd_at(now);
    const channel::Weather wx = weather_at(now);
    sim::Rng& rng = sim_.rng("dts-channel");

    std::vector<SlotResponder> responders;
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      generate_reports(n, now, /*inclusive=*/true);
      IotNodeState& node = nodes_[n];
      LocGeo& g = loc_geometry(s, setup_.node_loc[n], jd);
      if (!g.visible) continue;

      // Beacon reception at the node (satellite -> node link).
      const BeaconPrep& beacon = beacon_prep(g, node.config.antenna, wx);
      const phy::LinkState beacon_state = beacon.link.draw(rng);
      if (!beacon.rx.receive(beacon_state.snr_db, rng)) continue;
      ++counters_.beacons_heard;
      if (node.buffer.empty()) continue;
      if (now < node.busy_until) continue;  // half-duplex: radio busy

      phy::LinkConfig up_cfg = cfg_.uplink;
      up_cfg.tx_antenna = node.config.antenna;
      if (cfg_.adaptive_sf) {
        // ADR: estimate the uplink SNR from the decoded beacon and pick
        // the fastest safe spreading factor. The beacon SNR includes the
        // fade that let it through, so a generous 6 dB safety margin
        // keeps the estimator honest about fading variance.
        up_cfg.lora.sf = phy::choose_spreading_factor(
            beacon_state.snr_db + cfg_.adr_uplink_advantage_db, 6.0);
      }
      phy::LinkState up_state =
          phy::draw_link_state(up_cfg, g.look, wx, g.doppler_rate, rng);
      if (cfg_.doppler_precompensation) {
        up_state.doppler.shift_hz *= cfg_.precompensation_residual;
        up_state.doppler.rate_hz_per_s *= cfg_.precompensation_residual;
      }

      SlotResponder r;
      r.node = n;
      r.uplink_params = up_cfg.lora;
      r.uplink_state = up_state;
      r.look = g.look;
      r.doppler_rate = g.doppler_rate;
      responders.push_back(r);
    }
    if (responders.empty()) return;

    // Medium access: place each responder's transmission in the period.
    double max_toa = 0.0;
    for (const SlotResponder& r : responders) {
      const double toa = phy::time_on_air_s(
          r.uplink_params, nodes_[r.node].buffer.front().payload_bytes);
      max_toa = std::max(max_toa, toa);
    }
    std::vector<double> offsets;
    if (cfg_.uplink_access == UplinkAccess::kScheduled) {
      offsets = assign_subslots(responders.size(), max_toa,
                                cfg_.beacon.period_s);
    } else {
      for (std::size_t i = 0; i < responders.size(); ++i)
        offsets.push_back(
            rng.uniform(0.3, std::max(0.4, cfg_.beacon.period_s * 0.6)));
    }
    for (std::size_t i = 0; i < responders.size(); ++i) {
      SlotResponder& r = responders[i];
      const double toa = phy::time_on_air_s(
          r.uplink_params, nodes_[r.node].buffer.front().payload_bytes);
      r.tx = Transmission{static_cast<std::uint64_t>(r.node),
                          now + offsets[i], now + offsets[i] + toa,
                          r.uplink_state.rssi_dbm};
      nodes_[r.node].busy_until = r.tx.end;
    }

    std::vector<Transmission> txs;
    txs.reserve(responders.size());
    for (const SlotResponder& r : responders) txs.push_back(r.tx);

    // Clamped cast: a mega-footprint's responder count must not wrap a
    // narrow int into a negative concurrency.
    const int concurrency = static_cast<int>(std::min<std::size_t>(
        responders.size(),
        static_cast<std::size_t>(std::numeric_limits<int>::max())));
    for (const SlotResponder& r : responders)
      process_uplink(s, r, txs, concurrency, wx, rng);
  }

  void process_uplink(std::size_t s, const SlotResponder& r,
                      const std::vector<Transmission>& all_txs,
                      int concurrency, channel::Weather wx, sim::Rng& rng) {
    IotNodeState& node = nodes_[r.node];
    if (node.buffer.empty()) return;  // popped by an earlier event
    AppPacket& pkt = node.buffer.front();
    trace::UplinkRecord& rec = record_at(r.node, pkt.sequence);

    ++counters_.uplink_attempts;
    node.tx_seconds += r.tx.end - r.tx.start;
    ++node.head_attempts;
    ++rec.dts_attempts;
    rec.max_concurrent_tx =
        std::max(rec.max_concurrent_tx, concurrency);
    const double tx_start_unix = sim_.epoch_unix_s() + r.tx.start;
    if (rec.first_tx_unix_s < 0.0 || tx_start_unix < rec.first_tx_unix_s)
      rec.first_tx_unix_s = tx_start_unix;

    bool survived = survives_collisions(r.tx, all_txs, cfg_.mac);
    if (!survived) ++counters_.uplinks_collided;

    // Background load of the satellite's footprint during this block.
    if (survived && cfg_.congestion.enabled) {
      double loss = background_loss_probability(s, r.tx.start);
      if (cfg_.uplink_access == UplinkAccess::kScheduled)
        loss *= cfg_.scheduled_background_factor;
      if (rng.chance(loss)) {
        survived = false;
        ++counters_.background_losses;
        ++counters_.uplinks_collided;
      }
    }

    const bool decoded =
        survived && error_model_.receive(r.uplink_state, r.uplink_params,
                                         pkt.payload_bytes, rng);

    bool acked = false;
    if (decoded) {
      ++counters_.uplinks_received;
      const bool already_stored = rec.satellite_rx_unix_s >= 0.0;
      bool stored = already_stored;
      if (!already_stored) {
        StoredPacket sp;
        sp.packet = pkt;
        sp.satellite_rx_at = r.tx.end;
        sp.satellite_index = static_cast<std::int64_t>(s);
        sp.first_tx_at =
            rec.first_tx_unix_s < 0.0
                ? -1.0
                : rec.first_tx_unix_s - sim_.epoch_unix_s();
        stored = setup_.satellites[s].buffer.store(sp);
        if (stored) {
          rec.satellite_rx_unix_s = sim_.epoch_unix_s() + r.tx.end;
          rec.via_satellite = setup_.satellites[s].name;
        } else {
          ++counters_.satellite_buffer_drops;
        }
      } else {
        ++counters_.duplicate_uplinks;
      }
      if (stored) {
        // ACK on the downlink, subject to the same channel.
        ++counters_.acks_sent;
        phy::LinkConfig ack_cfg = cfg_.downlink;
        ack_cfg.tx_power_dbm += cfg_.ack_power_boost_db;
        ack_cfg.rx_antenna = node.config.antenna;
        const phy::LinkState ack_state = phy::draw_link_state(
            ack_cfg, r.look, wx, r.doppler_rate, rng);
        acked = error_model_.receive(ack_state, ack_cfg.lora,
                                     cfg_.ack_payload_bytes, rng);
      }
    }

    if (acked) {
      ++counters_.acks_received;
      pop_head(node);
      return;
    }
    // No ACK: retransmit on a future beacon unless the budget is spent.
    if (node.head_attempts > node.config.max_retransmissions) {
      ++node.packets_abandoned;
      pop_head(node);
    }
  }

  /// Deterministic per-(satellite, time-block) background loss field:
  /// the same block always evaluates to the same load for a given seed,
  /// giving congested passes their temporal coherence. One (block, loss)
  /// entry per satellite serves a whole block's queries.
  [[nodiscard]] double background_loss_probability(std::size_t sat,
                                                   sim::SimTime t) {
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

  static void pop_head(IotNodeState& node) {
    node.buffer.pop_front();
    node.head_attempts = 0;
  }

  /// Record for (node, seq). Sequence numbering guarantees index == seq
  /// today (generate_report appends a record before the drop check); if
  /// a future change breaks that invariant, grow with placeholder
  /// records instead of indexing out of bounds.
  trace::UplinkRecord& record_at(std::size_t n, std::uint64_t seq) {
    std::vector<trace::UplinkRecord>& recs = records_[n];
    if (seq >= recs.size()) {
      trace::UplinkRecord filler;
      filler.node = nodes_[n].config.name;
      while (recs.size() <= seq) {
        filler.sequence = recs.size();
        recs.push_back(filler);
      }
    }
    return recs[seq];
  }

  void flush_satellite(std::size_t s) {
    StoreAndForwardBuffer& buffer = setup_.satellites[s].buffer;
    // The empty-buffer early-out comes before the backhaul stream is
    // touched.
    if (buffer.size() == 0) return;
    sim::Rng& rng = sim_.rng("dts-backhaul");
    const std::vector<StoredPacket> drained =
        cfg_.downlink_packets_per_contact == 0
            ? buffer.flush()
            : buffer.flush_up_to(cfg_.downlink_packets_per_contact);
    for (const StoredPacket& sp : drained) {
      if (rng.chance(cfg_.delivery_loss_probability)) continue;
      const double arrival = sim_.now() + backhaul_.draw_delay_s(rng);
      trace::UplinkRecord& rec = record_at(
          static_cast<std::size_t>(sp.packet.node_index),
          sp.packet.sequence);
      const double arrival_unix = sim_.epoch_unix_s() + arrival;
      if (!rec.delivered || arrival_unix < rec.server_rx_unix_s) {
        rec.server_rx_unix_s = arrival_unix;
        rec.delivered = true;
      }
    }
  }

  DtsNetworkResult assemble_result() {
    DtsNetworkResult result;
    result.counters = counters_;
    std::size_t reports = 0;
    for (const auto& recs : records_) reports += recs.size();
    result.uplinks.reserve(reports);
    for (auto& recs : records_)
      for (trace::UplinkRecord& rec : recs)
        result.uplinks.push_back(std::move(rec));
    records_.clear();

    // Energy accounting: the node holds MCU+Rx through the *theoretical*
    // visibility of the constellation (it tracks TLEs but cannot know the
    // effective windows in advance — the very effect the paper blames for
    // the battery gap), transmits for its accumulated airtime, and sleeps
    // the rest.
    std::vector<double> rx_by_loc(setup_.locations.size());
    for (std::size_t l = 0; l < rx_by_loc.size(); ++l)
      rx_by_loc[l] = setup_.location_rx_seconds(cfg_, l);
    result.node_residency.reserve(nodes_.size());
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      const double rx_s = rx_by_loc[setup_.node_loc[n]];
      const double tx_s = nodes_[n].tx_seconds;
      energy::ResidencyTracker& t = result.node_residency.emplace_back();
      t.record(energy::Mode::kTx, tx_s);
      t.record(energy::Mode::kRx, std::max(rx_s - tx_s, 0.0));
      t.record(energy::Mode::kSleep,
               std::max(duration_s() - std::max(rx_s, tx_s), 0.0));
    }

    aggregate_from_uplinks(
        result.uplinks, sim_.epoch_unix_s() + duration_s(),
        detail::effective_tail_exclusion_s(cfg_), result.agg);
    for (const IotNodeState& node : nodes_) {
      result.agg.local_buffer_drops += node.local_drops;
      result.agg.packets_abandoned += node.packets_abandoned;
    }
    for (const energy::ResidencyTracker& t : result.node_residency)
      for (int m = 0; m < energy::kModeCount; ++m)
        result.agg.fleet_residency.record(
            static_cast<energy::Mode>(m),
            t.seconds_in(static_cast<energy::Mode>(m)));

    detail::publish_dts_metrics(cfg_, setup_, result);
    if (cfg_.metrics != nullptr) {
      cfg_.metrics->gauge("net.dts.scale.records_bytes")
          .set(static_cast<double>(result.uplinks.capacity() *
                                   sizeof(trace::UplinkRecord)));
      sim_.publish_metrics();
    }
    return result;
  }

  DtsNetworkConfig cfg_;
  detail::DtsSetup setup_;
  sim::Simulation sim_;
  phy::ErrorModel error_model_;
  BackhaulModel backhaul_;

  std::vector<IotNodeState> nodes_;
  std::vector<double> next_report_s_;  ///< per node, by repeated addition
  std::vector<std::vector<trace::UplinkRecord>> records_;  // per node, by seq
  /// Per satellite, whether each timeline entry is a flush (else a beacon).
  std::vector<std::vector<std::uint8_t>> timeline_is_flush_;

  // Per-slot location geometry, keyed by a stamp bumped each beacon slot,
  // and each (satellite, location)'s first window not yet over.
  std::uint64_t slot_stamp_ = 0;
  std::vector<LocGeo> loc_geo_;
  std::vector<std::vector<std::uint32_t>> window_cursor_;
  /// Per-satellite (block, loss) cache of the congestion field.
  std::vector<std::pair<std::uint64_t, double>> background_cache_;

  DtsCounters counters_;
};

}  // namespace

double DtsAggregates::delivered_fraction() const {
  if (reports_generated == 0) return 0.0;
  return static_cast<double>(reports_delivered) /
         static_cast<double>(reports_generated);
}

double DtsAggregates::eligible_delivered_fraction() const {
  if (eligible_generated == 0) return 0.0;
  return static_cast<double>(eligible_delivered) /
         static_cast<double>(eligible_generated);
}

double DtsAggregates::mean_end_to_end_s() const {
  if (reports_delivered == 0) return 0.0;
  return sum_end_to_end_s / static_cast<double>(reports_delivered);
}

double DtsAggregates::mean_wait_s() const {
  if (wait_samples == 0) return 0.0;
  return sum_wait_s / static_cast<double>(wait_samples);
}

void DtsAggregates::merge_from(const DtsAggregates& other) {
  reports_generated += other.reports_generated;
  reports_delivered += other.reports_delivered;
  eligible_generated += other.eligible_generated;
  eligible_delivered += other.eligible_delivered;
  local_buffer_drops += other.local_buffer_drops;
  packets_abandoned += other.packets_abandoned;
  sum_end_to_end_s += other.sum_end_to_end_s;
  sum_wait_s += other.sum_wait_s;
  wait_samples += other.wait_samples;
  sum_dts_transfer_s += other.sum_dts_transfer_s;
  sum_delivery_s += other.sum_delivery_s;
  breakdown_samples += other.breakdown_samples;
  latency_s.merge(other.latency_s);
  wait_s.merge(other.wait_s);
  attempts.merge(other.attempts);
  for (int m = 0; m < energy::kModeCount; ++m)
    fleet_residency.record(
        static_cast<energy::Mode>(m),
        other.fleet_residency.seconds_in(static_cast<energy::Mode>(m)));
}

double DtsNetworkResult::delivered_fraction() const {
  // Aggregate-mode runs carry no per-packet trace; fall back to the
  // streamed totals (identical by construction when both exist).
  if (uplinks.empty()) return agg.delivered_fraction();
  std::size_t ok = 0;
  for (const auto& u : uplinks) ok += u.delivered ? 1 : 0;
  return static_cast<double>(ok) / static_cast<double>(uplinks.size());
}

double DtsNetworkResult::mean_end_to_end_s() const {
  if (uplinks.empty()) return agg.mean_end_to_end_s();
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& u : uplinks) {
    if (!u.delivered) continue;
    sum += u.end_to_end_s();
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

DtsNetworkResult::LatencyBreakdown DtsNetworkResult::mean_latency_breakdown()
    const {
  LatencyBreakdown b;
  if (uplinks.empty()) {
    if (agg.breakdown_samples > 0) {
      const double k = static_cast<double>(agg.breakdown_samples);
      b.dts_transfer_s = agg.sum_dts_transfer_s / k;
      b.delivery_s = agg.sum_delivery_s / k;
    }
    if (agg.wait_samples > 0) b.wait_for_pass_s = agg.mean_wait_s();
    return b;
  }
  std::size_t n = 0;
  for (const auto& u : uplinks) {
    if (!u.delivered || u.first_tx_unix_s < 0.0 ||
        u.satellite_rx_unix_s < 0.0)
      continue;
    b.wait_for_pass_s += u.wait_for_pass_s();
    b.dts_transfer_s += u.dts_transfer_s();
    b.delivery_s += u.delivery_s();
    ++n;
  }
  if (n > 0) {
    b.wait_for_pass_s /= static_cast<double>(n);
    b.dts_transfer_s /= static_cast<double>(n);
    b.delivery_s /= static_cast<double>(n);
  }
  return b;
}

DtsNetworkConfig tianqi_agriculture_config(orbit::JulianDate start_jd,
                                           double duration_days) {
  DtsNetworkConfig cfg;
  cfg.start_jd = start_jd;
  cfg.duration_days = duration_days;
  cfg.constellation = orbit::paper_constellation("Tianqi");

  // Tianqi's operational beacon cadence is slower than the TinyGS-visible
  // 10 s telemetry beacons; nodes get a transmit opportunity roughly
  // twice a minute.
  cfg.beacon.period_s = 30.0;
  cfg.beacon.payload_bytes = 24;

  // Satellite -> ground (beacons, ACKs). Same calibrated budget as the
  // passive campaign (see core/passive_campaign.cpp); the farm site is
  // rural, so man-made noise is a little lower than the city stations.
  cfg.downlink.tx_power_dbm = 18.5;
  cfg.downlink.external_noise_db = 4.0;  // rural farm: quieter than cities
  // 2 dB hardware loss + 2 dB coffee-canopy obstruction at the node.
  cfg.downlink.implementation_loss_db = 4.0;
  cfg.downlink.fading.shadowing_sigma_db = 3.0;
  cfg.downlink.tx_antenna = channel::AntennaType::kDipole;
  cfg.downlink.rx_antenna = channel::AntennaType::kQuarterWaveMonopole;
  cfg.downlink.carrier_hz = cfg.constellation.dts_frequency_hz;
  cfg.downlink.lora = phy::default_dts_params();

  // Node -> satellite (data uplink): the Tianqi node transmits at full
  // LoRa power and the space-facing satellite receiver sees little
  // man-made noise, so the uplink is stronger than the beacon downlink —
  // which is why data delivery succeeds once a beacon decodes (paper
  // Appendix F).
  cfg.uplink.tx_power_dbm = 22.0;
  cfg.uplink.external_noise_db = 2.0;   // space-facing receiver
  cfg.uplink.rx_noise_figure_db = 2.0;  // gateway LNA
  // Node antennas are mounted above the coffee shrubs: less obstruction
  // on the uplink than on the node's own reception.
  cfg.uplink.implementation_loss_db = 3.0;
  cfg.uplink.fading.shadowing_sigma_db = 3.0;
  cfg.uplink.tx_antenna = channel::AntennaType::kQuarterWaveMonopole;
  cfg.uplink.rx_antenna = channel::AntennaType::kSatelliteTurnstile;
  cfg.uplink.carrier_hz = cfg.constellation.dts_frequency_hz;
  cfg.uplink.lora = phy::default_dts_params();

  // Three nodes at a coffee plantation in Yunnan (paper Appendix B).
  const orbit::Geodetic farm{22.78, 100.98, 1.3};
  for (int i = 0; i < 3; ++i) {
    IotNodeConfig nc;
    nc.name = "TQ-node-" + std::to_string(i + 1);
    nc.location = farm;
    nc.report_payload_bytes = 20;
    nc.report_interval_s = 1800.0;
    nc.max_retransmissions = 5;
    cfg.nodes.push_back(nc);
  }

  cfg.ground_stations = tianqi_ground_stations();
  cfg.delivery_backhaul = tianqi_delivery_backhaul();
  return cfg;
}

std::vector<double> gs_flush_times(double aos_s, double los_s) {
  if (los_s < aos_s) return {};
  const double duration = los_s - aos_s;
  // A nominal contact drains twice: 20 s after rise (link acquisition
  // time) and 5 s before set. A window too short for both gets a single
  // midpoint flush; either way every flush lands inside [aos, los].
  if (duration < 25.0) return {aos_s + 0.5 * duration};
  return {aos_s + 20.0, los_s - 5.0};
}

DtsNetworkConfig scale_fleet_config(std::size_t node_count,
                                    std::size_t satellite_count,
                                    std::size_t site_count,
                                    orbit::JulianDate start_jd,
                                    double duration_days) {
  if (node_count == 0 || satellite_count == 0 || site_count == 0)
    throw std::invalid_argument(
        "scale_fleet_config: zero nodes/satellites/sites");
  // Start from the paper-calibrated link budgets and ground segment.
  DtsNetworkConfig cfg = tianqi_agriculture_config(start_jd, duration_days);
  cfg.nodes.clear();

  // Synthetic Tianqi-like shell scaled to the requested count.
  orbit::ConstellationSpec spec;
  spec.name = "Mega" + std::to_string(satellite_count);
  spec.region = "Global";
  spec.dts_frequency_hz = cfg.constellation.dts_frequency_hz;
  spec.beacon_sf = cfg.constellation.beacon_sf;
  spec.beacon_eirp_dbm = cfg.constellation.beacon_eirp_dbm;
  spec.groups = {{static_cast<int>(satellite_count), 540.0, 560.0, 53.0}};
  cfg.constellation = spec;
  cfg.downlink.carrier_hz = spec.dts_frequency_hz;
  cfg.uplink.carrier_hz = spec.dts_frequency_hz;

  // Equal-area spiral of sites between +-55 deg latitude (inside the
  // 53 deg shell's coverage), golden-angle longitudes so sites do not
  // cluster along a meridian.
  cfg.fleet.count = node_count;
  cfg.fleet.sites.reserve(site_count);
  constexpr double kGoldenAngleDeg = 137.50776405003785;
  constexpr double kPi = 3.14159265358979323846;
  const double sin_band = std::sin(55.0 * kPi / 180.0);
  for (std::size_t i = 0; i < site_count; ++i) {
    const double u =
        2.0 * (static_cast<double>(i) + 0.5) / static_cast<double>(site_count) -
        1.0;
    const double lat = std::asin(u * sin_band) * 180.0 / kPi;
    const double lon =
        std::fmod(static_cast<double>(i) * kGoldenAngleDeg, 360.0) - 180.0;
    cfg.fleet.sites.push_back(orbit::Geodetic{lat, lon, 0.3});
  }
  cfg.fleet.prototype.name = "scale";
  cfg.fleet.prototype.report_payload_bytes = 20;
  cfg.fleet.prototype.report_interval_s = 1800.0;
  cfg.fleet.prototype.max_retransmissions = 5;
  cfg.fleet.prototype.buffer_capacity = 512;

  // Footprint-wide coordination: mega-fleet ALOHA would collapse the MAC
  // (the very failure mode the paper's Sec 3.1 warns about), so the
  // scale scenario flies the CosMAC-style scheduled uplink.
  cfg.uplink_access = UplinkAccess::kScheduled;
  cfg.satellite_buffer_capacity = 65536;
  return cfg;
}

DtsNetworkResult run_dts_network(const DtsNetworkConfig& cfg) {
  // Wrap the shared pool so its task counters land in this run's
  // registry (the scope detaches on exit: the pool outlives cfg.metrics).
  sim::ThreadPool::MetricsScope pool_scope(sim::ThreadPool::shared(),
                                           cfg.metrics);
  if (detail::dts_node_count(cfg) > cfg.trace_node_threshold)
    return run_dts_network_aggregate(cfg);
  return detail::run_phased<Simulator>(cfg);
}

}  // namespace sinet::net
