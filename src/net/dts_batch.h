// Population-scale batched DtS engine (internal to src/net).
//
// run_dts_network() dispatches here for DtsEngine::kBatched / kAuto. The
// engine restructures the legacy per-node-event simulator for fleets of
// millions of nodes under thousands of satellites:
//
//   * node state lives in struct-of-arrays storage (NodeStore): plain
//     parallel vectors of doubles/integers plus a compact run-list
//     packet buffer — no per-node std::deque, no per-node name string;
//   * reports are never scheduled as events: an activation min-heap of
//     (next_report_time, node) materializes every due report lazily at
//     the handler that could observe it, preserving the legacy
//     "reports before beacons at equal times" ordering;
//   * each satellite owns ONE chained timeline event (beacon ticks and
//     ground-station flushes merged in time order) via
//     sim::EventQueue::schedule_chain, so pending events stay O(sats)
//     instead of O(reports + ticks);
//   * at or below cfg.trace_node_threshold nodes the engine replays the
//     legacy RNG draw sequence exactly and emits a bit-identical
//     DtsNetworkResult (randomized parity suite: test_dts_scale.cpp);
//     above the threshold only nodes with queued reports are resolved
//     per beacon and all per-packet output streams into DtsAggregates.
#pragma once

#include <cstddef>

#include "net/dts_network.h"

namespace sinet::net {

/// Batched-engine entry point; same contract as run_dts_network().
[[nodiscard]] DtsNetworkResult run_dts_network_batched(
    const DtsNetworkConfig& cfg);

namespace detail {

/// Node population size across both config styles (nodes / fleet).
[[nodiscard]] std::size_t dts_node_count(const DtsNetworkConfig& cfg);

/// Materialize the config of node `i` (fleet prototype + site for fleet
/// configs). Only used on small-N paths — never called per node at scale.
[[nodiscard]] IotNodeConfig dts_node_config(const DtsNetworkConfig& cfg,
                                            std::size_t i);

/// Shared config validation (throws std::invalid_argument).
void validate_dts_config(const DtsNetworkConfig& cfg);

/// Tail exclusion actually applied to eligible-packet accounting:
/// cfg.aggregate_tail_exclusion_s clamped to half the run duration, so a
/// short probe run still reports a nonzero eligible population. Shared by
/// every engine (legacy, exact batched, parallel aggregate).
[[nodiscard]] double effective_tail_exclusion_s(const DtsNetworkConfig& cfg);

/// Derive the streaming aggregates from a full per-packet trace, so
/// trace-mode results (legacy engine included) expose the same
/// DtsAggregates surface as aggregate-mode runs. Does not touch
/// fleet_residency.
void aggregate_from_uplinks(const std::vector<trace::UplinkRecord>& uplinks,
                            double run_end_unix_s, double tail_exclusion_s,
                            DtsAggregates& agg);

}  // namespace detail

}  // namespace sinet::net
