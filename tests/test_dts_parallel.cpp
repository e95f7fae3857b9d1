// Thread-count invariance suite for the parallel population engine.
//
// The contract under test: DtsAggregates and DtsCounters are
// bit-identical for every sim_threads value — not statistically close,
// EXPECT_EQ on every counter, every double sum, every histogram bin and
// every residency mode. The engine (a per-event dependency graph over
// satellites and footprint locations, counter-based RNG streams, fixed
// merge orders) makes that hold by construction; this suite is the
// regression fence, and a golden file pins the output itself.
//
// DtsParallelStress.HighContentionFootprints doubles as the TSan stress
// target (tools/run_sanitizers.sh tsan preset): every node on a handful
// of sites so the same locations are contended by many satellites.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "energy/power_model.h"
#include "net/dts_batch.h"
#include "net/dts_network.h"
#include "obs/metrics.h"
#include "stats/histogram.h"

namespace {

using namespace sinet;
using namespace sinet::net;

DtsNetworkConfig parallel_config(std::size_t nodes, double duration_days) {
  DtsNetworkConfig cfg = scale_fleet_config(
      nodes, 22, 16, core::campaign_epoch_jd(), duration_days);
  // Paper constellation: its contact windows stay in the global cache
  // across cases, so only the first run pays pass prediction.
  cfg.constellation = orbit::paper_constellation("Tianqi");
  cfg.downlink.carrier_hz = cfg.constellation.dts_frequency_hz;
  cfg.uplink.carrier_hz = cfg.constellation.dts_frequency_hz;
  cfg.trace_node_threshold = 64;  // force the parallel aggregate engine
  return cfg;
}

/// One of the two invariance scenarios: 0 = slotted ALOHA with the
/// congestion field, 1 = scheduled access with adaptive SF.
DtsNetworkConfig variant_config(int variant) {
  DtsNetworkConfig cfg = parallel_config(2000, 0.1);
  cfg.seed = 7000 + static_cast<std::uint64_t>(variant);
  if (variant == 1) {
    cfg.uplink_access = UplinkAccess::kScheduled;
    cfg.adaptive_sf = true;
  }
  return cfg;
}

void dump_line(std::string& out, const char* name, double v) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s=%.17g\n", name, v);
  out += buf;
}

void dump_count(std::string& out, const char* name, std::uint64_t v) {
  out += std::string(name) + "=" + std::to_string(v) + "\n";
}

void dump_histogram(std::string& out, const std::string& name,
                    const stats::Histogram& h) {
  for (std::size_t i = 0; i < h.bin_count(); ++i)
    dump_line(out, (name + ".bin" + std::to_string(i)).c_str(), h.count(i));
  dump_line(out, (name + ".underflow").c_str(), h.underflow());
  dump_line(out, (name + ".overflow").c_str(), h.overflow());
  dump_line(out, (name + ".nan").c_str(), h.nan());
  dump_line(out, (name + ".total").c_str(), h.total());
}

/// Every counter, double sum, histogram bin and residency mode of an
/// aggregate-mode result, one `name=value` line each (doubles as %.17g,
/// so two dumps are equal iff the results are bit-identical).
std::string dump_result(const DtsNetworkResult& r) {
  std::string out;
  const DtsCounters& c = r.counters;
  dump_count(out, "beacons_sent", c.beacons_sent);
  dump_count(out, "beacons_heard", c.beacons_heard);
  dump_count(out, "uplink_attempts", c.uplink_attempts);
  dump_count(out, "uplinks_received", c.uplinks_received);
  dump_count(out, "uplinks_collided", c.uplinks_collided);
  dump_count(out, "acks_sent", c.acks_sent);
  dump_count(out, "acks_received", c.acks_received);
  dump_count(out, "duplicate_uplinks", c.duplicate_uplinks);
  dump_count(out, "satellite_buffer_drops", c.satellite_buffer_drops);
  dump_count(out, "background_losses", c.background_losses);
  const DtsAggregates& a = r.agg;
  dump_count(out, "reports_generated", a.reports_generated);
  dump_count(out, "reports_delivered", a.reports_delivered);
  dump_count(out, "eligible_generated", a.eligible_generated);
  dump_count(out, "eligible_delivered", a.eligible_delivered);
  dump_count(out, "local_buffer_drops", a.local_buffer_drops);
  dump_count(out, "packets_abandoned", a.packets_abandoned);
  dump_line(out, "sum_end_to_end_s", a.sum_end_to_end_s);
  dump_line(out, "sum_wait_s", a.sum_wait_s);
  dump_count(out, "wait_samples", a.wait_samples);
  dump_line(out, "sum_dts_transfer_s", a.sum_dts_transfer_s);
  dump_line(out, "sum_delivery_s", a.sum_delivery_s);
  dump_count(out, "breakdown_samples", a.breakdown_samples);
  dump_histogram(out, "latency_s", a.latency_s);
  dump_histogram(out, "wait_s", a.wait_s);
  dump_histogram(out, "attempts", a.attempts);
  for (int m = 0; m < energy::kModeCount; ++m)
    dump_line(out, ("residency" + std::to_string(m)).c_str(),
              a.fleet_residency.seconds_in(static_cast<energy::Mode>(m)));
  return out;
}

/// dump_result of both variants at `threads`, each under a header line.
std::string dump_variants(unsigned threads) {
  std::string out;
  for (int variant = 0; variant < 2; ++variant) {
    DtsNetworkConfig cfg = variant_config(variant);
    cfg.sim_threads = threads;
    out += "[variant " + std::to_string(variant) + "]\n";
    out += dump_result(run_dts_network(cfg));
  }
  return out;
}

void expect_histograms_equal(const stats::Histogram& a,
                             const stats::Histogram& b, const char* name) {
  SCOPED_TRACE(name);
  ASSERT_EQ(a.bin_count(), b.bin_count());
  for (std::size_t i = 0; i < a.bin_count(); ++i)
    EXPECT_EQ(a.count(i), b.count(i)) << "bin " << i;
  EXPECT_EQ(a.underflow(), b.underflow());
  EXPECT_EQ(a.overflow(), b.overflow());
  EXPECT_EQ(a.nan(), b.nan());
  EXPECT_EQ(a.total(), b.total());
}

void expect_results_identical(const DtsNetworkResult& a,
                              const DtsNetworkResult& b) {
  EXPECT_EQ(a.counters.beacons_sent, b.counters.beacons_sent);
  EXPECT_EQ(a.counters.beacons_heard, b.counters.beacons_heard);
  EXPECT_EQ(a.counters.uplink_attempts, b.counters.uplink_attempts);
  EXPECT_EQ(a.counters.uplinks_received, b.counters.uplinks_received);
  EXPECT_EQ(a.counters.uplinks_collided, b.counters.uplinks_collided);
  EXPECT_EQ(a.counters.acks_sent, b.counters.acks_sent);
  EXPECT_EQ(a.counters.acks_received, b.counters.acks_received);
  EXPECT_EQ(a.counters.duplicate_uplinks, b.counters.duplicate_uplinks);
  EXPECT_EQ(a.counters.satellite_buffer_drops,
            b.counters.satellite_buffer_drops);
  EXPECT_EQ(a.counters.background_losses, b.counters.background_losses);

  EXPECT_EQ(a.agg.reports_generated, b.agg.reports_generated);
  EXPECT_EQ(a.agg.reports_delivered, b.agg.reports_delivered);
  EXPECT_EQ(a.agg.eligible_generated, b.agg.eligible_generated);
  EXPECT_EQ(a.agg.eligible_delivered, b.agg.eligible_delivered);
  EXPECT_EQ(a.agg.local_buffer_drops, b.agg.local_buffer_drops);
  EXPECT_EQ(a.agg.packets_abandoned, b.agg.packets_abandoned);
  EXPECT_EQ(a.agg.sum_end_to_end_s, b.agg.sum_end_to_end_s);
  EXPECT_EQ(a.agg.sum_wait_s, b.agg.sum_wait_s);
  EXPECT_EQ(a.agg.wait_samples, b.agg.wait_samples);
  EXPECT_EQ(a.agg.sum_dts_transfer_s, b.agg.sum_dts_transfer_s);
  EXPECT_EQ(a.agg.sum_delivery_s, b.agg.sum_delivery_s);
  EXPECT_EQ(a.agg.breakdown_samples, b.agg.breakdown_samples);

  expect_histograms_equal(a.agg.latency_s, b.agg.latency_s, "latency_s");
  expect_histograms_equal(a.agg.wait_s, b.agg.wait_s, "wait_s");
  expect_histograms_equal(a.agg.attempts, b.agg.attempts, "attempts");

  for (int m = 0; m < energy::kModeCount; ++m) {
    const auto mode = static_cast<energy::Mode>(m);
    EXPECT_EQ(a.agg.fleet_residency.seconds_in(mode),
              b.agg.fleet_residency.seconds_in(mode))
        << "residency mode " << m;
  }
}

TEST(DtsParallel, ThreadCountInvariance) {
  // Two scenario shapes (ALOHA w/ congestion, scheduled w/ ADR) so the
  // invariance covers both access schemes' draw sequences.
  for (int variant = 0; variant < 2; ++variant) {
    SCOPED_TRACE("variant " + std::to_string(variant));
    DtsNetworkConfig cfg = variant_config(variant);
    cfg.sim_threads = 1;
    const DtsNetworkResult reference = run_dts_network(cfg);
    ASSERT_GT(reference.agg.reports_generated, 0u);
    ASSERT_GT(reference.counters.beacons_sent, 0u);
    for (const unsigned threads : {2u, 4u, 0u}) {  // 0 = all hw threads
      SCOPED_TRACE("threads " + std::to_string(threads));
      cfg.sim_threads = threads;
      expect_results_identical(reference, run_dts_network(cfg));
    }
  }
}

TEST(DtsParallel, MatchesRecordedEngineOutput) {
  // Golden output of both invariance variants, recorded from the
  // slice/shard engine that preceded the event-graph executor. Thread
  // invariance alone would pass for an engine that is consistently
  // wrong; this pins the output itself, byte for byte.
  std::ifstream in(std::string(SINET_TEST_DATA_DIR) +
                   "/dts_parallel_golden.txt");
  ASSERT_TRUE(in) << "missing tests/data/dts_parallel_golden.txt";
  std::stringstream golden;
  golden << in.rdbuf();
  for (const unsigned threads : {1u, 0u}) {  // 0 = all hw threads
    SCOPED_TRACE("threads " + std::to_string(threads));
    EXPECT_EQ(golden.str(), dump_variants(threads));
  }
}

TEST(DtsParallel, EventGraphExposesParallelism) {
  // The engine's event graph must leave real concurrency on the table:
  // its longest dependency chain is a small share of all events. A
  // resource shared by every event (a global lock in disguise) would
  // make the chain every event, share 1.0.
  for (int variant = 0; variant < 2; ++variant) {
    SCOPED_TRACE("variant " + std::to_string(variant));
    DtsNetworkConfig cfg = variant_config(variant);
    obs::MetricsRegistry metrics;
    cfg.metrics = &metrics;
    const DtsNetworkResult res = run_dts_network(cfg);
    const auto s = metrics.snapshot();
    ASSERT_TRUE(s.gauges.count("net.dts.parallel.events"));
    ASSERT_TRUE(s.gauges.count("net.dts.parallel.critical_path_share"));
    const double events = s.gauges.at("net.dts.parallel.events").value;
    const double share =
        s.gauges.at("net.dts.parallel.critical_path_share").value;
    // One event per beacon slot plus one per ground-station flush.
    EXPECT_GT(events, static_cast<double>(res.counters.beacons_sent));
    EXPECT_GT(share, 0.0);
    // Measured 0.113 on both variants; the bound leaves room for small
    // geometry changes while still failing long before share 1.0.
    EXPECT_LT(share, 0.15) << "critical path share " << share;
  }
}

TEST(DtsParallel, ExactModeIgnoresThreads) {
  // Below the trace threshold the bit-parity exact engine runs; the
  // thread knob must not reroute those configs into the parallel engine.
  DtsNetworkConfig cfg = parallel_config(48, 0.1);
  cfg.trace_node_threshold = 64;  // 48 nodes <= threshold: exact mode
  cfg.sim_threads = 1;
  const DtsNetworkResult serial = run_dts_network(cfg);
  cfg.sim_threads = 4;
  const DtsNetworkResult threaded = run_dts_network(cfg);
  ASSERT_FALSE(serial.uplinks.empty()) << "exact mode must keep traces";
  ASSERT_EQ(serial.uplinks.size(), threaded.uplinks.size());
  for (std::size_t i = 0; i < serial.uplinks.size(); ++i) {
    EXPECT_EQ(serial.uplinks[i].sequence, threaded.uplinks[i].sequence);
    EXPECT_EQ(serial.uplinks[i].node, threaded.uplinks[i].node);
    EXPECT_EQ(serial.uplinks[i].server_rx_unix_s,
              threaded.uplinks[i].server_rx_unix_s);
    EXPECT_EQ(serial.uplinks[i].delivered, threaded.uplinks[i].delivered);
  }
  expect_results_identical(serial, threaded);
}

TEST(DtsParallel, ShortProbeRunsKeepNonzeroEligiblePopulation) {
  // Regression: scale_ablation's 100k-node probe runs 0.05 days
  // (4320 s), shorter than the default 6 h aggregate tail exclusion —
  // every report was classified ineligible and the probe published
  // dts.eligible_generated = 0 / dts.eligible_pdr = 0. The exclusion is
  // now clamped to half the run duration.
  DtsNetworkConfig cfg = parallel_config(2000, 0.05);
  ASSERT_LT(cfg.duration_days * 86400.0, cfg.aggregate_tail_exclusion_s)
      << "regression config must be shorter than the configured tail";
  const DtsNetworkResult res = run_dts_network(cfg);
  ASSERT_GT(res.agg.reports_generated, 0u);
  EXPECT_GT(res.agg.eligible_generated, 0u)
      << "tail exclusion swallowed the whole probe run";
  EXPECT_LE(res.agg.eligible_delivered, res.agg.eligible_generated);
  EXPECT_LE(res.agg.eligible_generated, res.agg.reports_generated);
  // The clamp: exactly the first half of the run stays eligible.
  EXPECT_EQ(net::detail::effective_tail_exclusion_s(cfg),
            cfg.duration_days * 86400.0 / 2.0);
}

TEST(DtsParallelStress, HighContentionFootprints) {
  // Every node on 4 sites inside one footprint-sized patch: maximal
  // location sharing between satellites, so this is the worst case for
  // the event graph's resource isolation. Run under TSan via
  // tools/run_sanitizers.sh; the EXPECT_EQs double as a determinism
  // check under real contention.
  DtsNetworkConfig cfg = parallel_config(10000, 0.05);
  cfg.fleet.sites.clear();
  for (int i = 0; i < 4; ++i)
    cfg.fleet.sites.push_back(
        orbit::Geodetic{22.7 + 0.2 * i, 100.9 + 0.2 * i, 1.0});
  cfg.sim_threads = 4;
  const DtsNetworkResult a = run_dts_network(cfg);
  const DtsNetworkResult b = run_dts_network(cfg);
  ASSERT_GT(a.agg.reports_generated, 0u);
  expect_results_identical(a, b);
  cfg.sim_threads = 1;
  expect_results_identical(a, run_dts_network(cfg));
}

}  // namespace
