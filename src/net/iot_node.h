// Satellite IoT end-node (Tianqi-node analogue) configuration and
// runtime state used by the DtS network simulator.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "channel/antenna.h"
#include "energy/power_model.h"
#include "net/packet.h"
#include "orbit/geodetic.h"

namespace sinet::net {

struct IotNodeConfig {
  std::string name = "node";
  orbit::Geodetic location;
  channel::AntennaType antenna =
      channel::AntennaType::kQuarterWaveMonopole;
  int report_payload_bytes = 20;    ///< paper: 20-byte agriculture reading
  double report_interval_s = 1800.0;  ///< every 30 minutes
  /// Maximum DtS retransmissions after the first attempt (0 disables ARQ;
  /// the paper evaluates 0 and 5).
  int max_retransmissions = 0;
  std::size_t buffer_capacity = 512;  ///< local store-and-forward buffer
};

/// Mutable per-node state owned by the simulator.
struct IotNodeState {
  IotNodeConfig config;
  std::uint64_t next_sequence = 0;
  std::deque<AppPacket> buffer;     ///< reports waiting for a satellite
  int head_attempts = 0;            ///< attempts spent on buffer front
  /// Radio busy with an uplink until this sim time: a node answers at
  /// most one beacon at a time (half-duplex single radio). The busy test
  /// is strict (`now < busy_until`), so 0.0 — "never transmitted" — can
  /// not mark a node busy at sim time 0: a beacon arriving exactly at
  /// t = 0 (or exactly at a resumed shard boundary) is answered. The
  /// previous -1.0 magic sentinel behaved identically for every now >= 0
  /// but read as if negative times were meaningful; the regression test
  /// in test_dts_scale.cpp pins the t = 0 behavior either way.
  sim::SimTime busy_until = 0.0;
  std::size_t local_drops = 0;      ///< reports lost to buffer overflow
  std::uint64_t packets_abandoned = 0;  ///< ARQ budget exhausted
  double tx_seconds = 0.0;              ///< airtime, for energy residency

  explicit IotNodeState(IotNodeConfig cfg) : config(std::move(cfg)) {}
};

}  // namespace sinet::net
