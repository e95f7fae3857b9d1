// What the two DtS engines share (internal to src/net).
//
// run_dts_network() picks one of two engines by node count:
//
//   * at or below cfg.trace_node_threshold, the exact engine
//     (net/dts_network.cpp): one chained DES event per satellite
//     timeline, every node considered at every beacon slot, full
//     per-packet UplinkRecords and per-node residency;
//   * above it, the aggregate engine (net/dts_batch.cpp): struct-of-arrays
//     node state, reports materialized lazily per location, every
//     timeline entry one event of a dependency graph run on all cores,
//     per-packet output folded into DtsAggregates.
//
// Both engines build the same DtsSetup (satellites, deduplicated node
// locations, contact windows), walk the same per-satellite timeline,
// count receiver-on time with the same per-location model and publish
// the same net.dts.* counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/dts_network.h"
#include "obs/scoped_timer.h"
#include "orbit/frames.h"

namespace sinet::net {

/// Aggregate-engine entry point; same contract as run_dts_network().
[[nodiscard]] DtsNetworkResult run_dts_network_aggregate(
    const DtsNetworkConfig& cfg);

namespace detail {

/// Node population size across both config styles (nodes / fleet).
[[nodiscard]] std::size_t dts_node_count(const DtsNetworkConfig& cfg);

/// Materialize the config of node `i` (fleet prototype + site for fleet
/// configs). Only used on small-N paths — never called per node at scale.
[[nodiscard]] IotNodeConfig dts_node_config(const DtsNetworkConfig& cfg,
                                            std::size_t i);

/// Tail exclusion actually applied to eligible-packet accounting:
/// cfg.aggregate_tail_exclusion_s clamped to half the run duration, so a
/// short probe run still reports a nonzero eligible population. Shared by
/// both engines.
[[nodiscard]] double effective_tail_exclusion_s(const DtsNetworkConfig& cfg);

/// The world both engines simulate: the constellation's satellites, the
/// node locations and every contact window. Construction first validates
/// the config (throws std::invalid_argument): the duration, beacon
/// period, report intervals, scan step and congestion block must be
/// finite and positive.
struct DtsSetup {
  explicit DtsSetup(const DtsNetworkConfig& cfg);

  std::vector<orbit::Tle> tles;
  std::vector<Satellite> satellites;
  /// Unique node locations in first-appearance order (fleet: its sites).
  std::vector<orbit::Geodetic> locations;
  std::vector<orbit::TopocentricFrame> frames;  ///< per location
  std::vector<std::uint32_t> node_loc;          ///< node -> location
  // node_windows[sat][location], gs_windows[sat][ground station]
  std::vector<std::vector<std::vector<orbit::ContactWindow>>> node_windows;
  std::vector<std::vector<std::vector<orbit::ContactWindow>>> gs_windows;

  /// Append satellite `s`'s timeline: its beacon ticks (a per-satellite
  /// phase on the beacon grid, inside any node location's window,
  /// deduplicated) merged with its ground-station flushes, time-sorted,
  /// a beacon before a flush at equal times. `is_flush` gets 0 for a
  /// beacon entry and 1 for a flush.
  void append_timeline(const DtsNetworkConfig& cfg, std::size_t s,
                       std::vector<double>& times,
                       std::vector<std::uint8_t>& is_flush) const;

  /// Receiver-on seconds of a node at `loc` over the run: the node keeps
  /// its receiver on through every predicted pass of every satellite.
  [[nodiscard]] double location_rx_seconds(const DtsNetworkConfig& cfg,
                                           std::size_t loc) const;
};

/// Publish the net.dts.* counters, the delivery gauges and the
/// net.dts.scale.{nodes,sat_buffer_peak_packets,peak_rss_bytes} gauges of
/// a finished run (no-op when cfg.metrics is null).
void publish_dts_metrics(const DtsNetworkConfig& cfg, const DtsSetup& setup,
                         const DtsNetworkResult& result);

/// Build `Engine` from `cfg` and run it, timing the two under the
/// net.dts.phase.setup_s / simulate_s gauges.
template <class Engine>
[[nodiscard]] DtsNetworkResult run_phased(const DtsNetworkConfig& cfg) {
  obs::PhaseProfiler phases(cfg.metrics, "net.dts");
  phases.phase("setup");
  Engine engine(cfg);
  phases.phase("simulate");
  DtsNetworkResult result = engine.run();
  phases.stop();
  return result;
}

}  // namespace detail

}  // namespace sinet::net
