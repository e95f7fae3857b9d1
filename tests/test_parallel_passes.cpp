// Parallel pass-prediction engine: thread pool semantics, serial-vs-
// parallel bit parity of predict_passes_batch over a mixed constellation,
// and ContactWindowCache hit behavior.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/scenario.h"
#include "orbit/constellation.h"
#include "orbit/geodetic.h"
#include "orbit/passes.h"
#include "sim/thread_pool.h"

namespace {

using namespace sinet;
using namespace sinet::orbit;

// --- ThreadPool ----------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  sim::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroThreadCountMeansHardware) {
  sim::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), sim::ThreadPool::hardware_threads());
  EXPECT_GE(sim::ThreadPool::hardware_threads(), 1u);
}

TEST(ThreadPool, EmptyAndSingleIterationsWork) {
  sim::ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, RethrowsLowestIndexException) {
  sim::ThreadPool pool(3);
  try {
    pool.parallel_for(16, [](std::size_t i) {
      if (i == 11) throw std::runtime_error("task 11");
      if (i == 5) throw std::runtime_error("task 5");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 5");
  }
}

TEST(ThreadPool, AsyncFanoutRunsEveryIndexOnce) {
  sim::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  auto fanout = pool.parallel_for_async(
      hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  fanout.wait();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  fanout.wait();  // a second wait returns at once
}

TEST(ThreadPool, AsyncFanoutRethrowsAndDestructorWaits) {
  sim::ThreadPool pool(2);
  auto failing = pool.parallel_for_async(8, [](std::size_t i) {
    if (i == 6) throw std::runtime_error("task 6");
    if (i == 3) throw std::runtime_error("task 3");
  });
  try {
    failing.wait();
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 3");
  }

  std::atomic<int> done{0};
  {
    auto pending = pool.parallel_for_async(32, [&](std::size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      done.fetch_add(1);
    });
  }  // destroyed without wait(): must still block until every index ran
  EXPECT_EQ(done.load(), 32);
  auto empty = pool.parallel_for_async(0, [](std::size_t) {});
  empty.wait();
}

TEST(ThreadPool, SharedPoolIsUsable) {
  std::atomic<int> sum{0};
  sim::ThreadPool::shared().parallel_for(
      10, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 45);
}

// --- Batch parity --------------------------------------------------------

/// The full 39-satellite mixed constellation of the paper's campaign.
std::vector<Tle> mixed_constellation(JulianDate epoch) {
  std::vector<Tle> tles;
  for (const ConstellationSpec& spec : paper_constellations()) {
    const auto batch = generate_tles(spec, epoch);
    tles.insert(tles.end(), batch.begin(), batch.end());
  }
  return tles;
}

void expect_identical(const std::vector<std::vector<ContactWindow>>& a,
                      const std::vector<std::vector<ContactWindow>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << "satellite " << i;
    for (std::size_t w = 0; w < a[i].size(); ++w) {
      // EXPECT_EQ on doubles: bit-for-bit identity, not approximation.
      EXPECT_EQ(a[i][w].aos_jd, b[i][w].aos_jd);
      EXPECT_EQ(a[i][w].los_jd, b[i][w].los_jd);
      EXPECT_EQ(a[i][w].tca_jd, b[i][w].tca_jd);
      EXPECT_EQ(a[i][w].max_elevation_deg, b[i][w].max_elevation_deg);
    }
  }
}

TEST(PredictPassesBatch, ParallelIsBitIdenticalToSerial) {
  const JulianDate epoch = core::campaign_epoch_jd();
  const auto tles = mixed_constellation(epoch);
  ASSERT_EQ(tles.size(), 39u);
  const Geodetic site = core::paper_site("HK").location;

  std::vector<Sgp4> props;
  props.reserve(tles.size());
  for (const Tle& tle : tles) props.emplace_back(tle);
  std::vector<PassBatchRequest> requests(tles.size());
  for (std::size_t i = 0; i < tles.size(); ++i)
    requests[i] = {&props[i], site};

  PassPredictionOptions opts;
  opts.coarse_step_s = 60.0;

  // Reference: the plain serial predict_passes loop.
  std::vector<std::vector<ContactWindow>> serial(tles.size());
  for (std::size_t i = 0; i < tles.size(); ++i)
    serial[i] = predict_passes(props[i], site, epoch, epoch + 1.0, opts);

  const auto one =
      predict_passes_batch(requests, epoch, epoch + 1.0, opts, 1);
  const auto four =
      predict_passes_batch(requests, epoch, epoch + 1.0, opts, 4);
  const auto hw = predict_passes_batch(requests, epoch, epoch + 1.0, opts, 0);

  expect_identical(serial, one);
  expect_identical(one, four);
  expect_identical(one, hw);

  // Sanity: the campaign span actually contains contacts.
  std::size_t total = 0;
  for (const auto& ws : one) total += ws.size();
  EXPECT_GT(total, 10u);
}

TEST(PredictPassesBatch, ValidatesBeforeSpawning) {
  const JulianDate epoch = core::campaign_epoch_jd();
  const auto tles = generate_tles(paper_constellation("FOSSA"), epoch);
  std::vector<Sgp4> props;
  for (const Tle& tle : tles) props.emplace_back(tle);
  std::vector<PassBatchRequest> requests;
  for (const Sgp4& p : props)
    requests.push_back({&p, core::paper_site("HK").location});

  EXPECT_THROW(predict_passes_batch(requests, epoch, epoch - 1.0),
               std::invalid_argument);
  PassPredictionOptions bad;
  bad.coarse_step_s = 0.0;
  EXPECT_THROW(predict_passes_batch(requests, epoch, epoch + 1.0, bad),
               std::invalid_argument);
  requests[1].propagator = nullptr;
  EXPECT_THROW(predict_passes_batch(requests, epoch, epoch + 1.0),
               std::invalid_argument);
}

TEST(ElevationSampler, MatchesNaiveFramePath) {
  // The sampler shares one GMST rotation between position and velocity;
  // this must be bit-identical to the two-call frame conversion it
  // replaced (sample_geometry now routes through the sampler).
  const JulianDate epoch = core::campaign_epoch_jd();
  const auto tles = generate_tles(paper_constellation("PICO"), epoch);
  const Sgp4 prop(tles.front());
  const Geodetic site = core::paper_site("SYD").location;
  const ElevationSampler sampler(prop, site);
  for (int i = 0; i < 200; ++i) {
    const JulianDate jd = epoch + i * (1.0 / 288.0);
    const PassSample s = sampler.sample(jd);
    const PassSample naive = sample_geometry(prop, site, jd);
    EXPECT_EQ(s.look.elevation_deg, naive.look.elevation_deg);
    EXPECT_EQ(s.look.azimuth_deg, naive.look.azimuth_deg);
    EXPECT_EQ(s.look.range_km, naive.look.range_km);
    EXPECT_EQ(s.look.range_rate_km_s, naive.look.range_rate_km_s);
    EXPECT_EQ(sampler.elevation_deg(jd), s.look.elevation_deg);
  }
}

TEST(ElevationSampler, LookMatchesSampleGeometry) {
  // look() is sample() without the subsatellite point; the point itself
  // must follow bit for bit from the ECEF position look() reports.
  const JulianDate epoch = core::campaign_epoch_jd();
  std::mt19937_64 gen(20250301);
  std::uniform_real_distribution<double> lat(-80.0, 80.0);
  std::uniform_real_distribution<double> lon(-180.0, 180.0);
  std::uniform_real_distribution<double> alt(0.0, 3.0);
  std::uniform_real_distribution<double> day(0.0, 7.0);
  std::vector<Sgp4> props;
  for (const char* name : {"Tianqi", "FOSSA", "PICO", "CSTP"})
    for (const Tle& tle : generate_tles(paper_constellation(name), epoch))
      props.emplace_back(tle);
  std::uniform_int_distribution<std::size_t> pick(0, props.size() - 1);
  for (int i = 0; i < 500; ++i) {
    const Geodetic site{lat(gen), lon(gen), alt(gen)};
    const Sgp4& prop = props[pick(gen)];
    const JulianDate jd = epoch + day(gen);
    const ElevationSampler sampler(prop, TopocentricFrame(site));
    Vec3 ecef_km;
    const LookAngles look = sampler.look(jd, &ecef_km);
    const PassSample ref = sample_geometry(prop, site, jd);
    EXPECT_EQ(look.elevation_deg, ref.look.elevation_deg);
    EXPECT_EQ(look.azimuth_deg, ref.look.azimuth_deg);
    EXPECT_EQ(look.range_km, ref.look.range_km);
    EXPECT_EQ(look.range_rate_km_s, ref.look.range_rate_km_s);
    EXPECT_EQ(sampler.look(jd).range_rate_km_s, look.range_rate_km_s);
    const Geodetic sub = ecef_to_geodetic(ecef_km);
    EXPECT_EQ(sub.altitude_km, ref.subsatellite_point.altitude_km);
    EXPECT_EQ(sub.latitude_deg, ref.subsatellite_point.latitude_deg);
    EXPECT_EQ(sub.longitude_deg, ref.subsatellite_point.longitude_deg);
  }
}

// --- ContactWindowCache --------------------------------------------------

TEST(ContactWindowCache, HitReturnsIdenticalWindows) {
  const JulianDate epoch = core::campaign_epoch_jd();
  const auto tles = generate_tles(paper_constellation("CSTP"), epoch);
  const Geodetic site = core::paper_site("LDN").location;

  ContactWindowCache cache;
  const auto first = cache.get_or_predict(tles[0], site, epoch, epoch + 1.0);
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);

  const auto second = cache.get_or_predict(tles[0], site, epoch, epoch + 1.0);
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);

  ASSERT_EQ(first.size(), second.size());
  for (std::size_t w = 0; w < first.size(); ++w) {
    EXPECT_EQ(first[w].aos_jd, second[w].aos_jd);
    EXPECT_EQ(first[w].los_jd, second[w].los_jd);
    EXPECT_EQ(first[w].tca_jd, second[w].tca_jd);
    EXPECT_EQ(first[w].max_elevation_deg, second[w].max_elevation_deg);
  }

  // A different span / site / option set is a distinct key.
  (void)cache.get_or_predict(tles[0], site, epoch, epoch + 2.0);
  PassPredictionOptions masked;
  masked.min_elevation_deg = 10.0;
  (void)cache.get_or_predict(tles[0], site, epoch, epoch + 1.0, masked);
  stats = cache.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.entries, 3u);
}

TEST(ContactWindowCache, BatchCachedHitsOnSecondCall) {
  const JulianDate epoch = core::campaign_epoch_jd();
  const auto tles = generate_tles(paper_constellation("PICO"), epoch);
  const Geodetic site = core::paper_site("PGH").location;

  ContactWindowCache cache;
  const auto first = predict_passes_batch_cached(tles, site, epoch,
                                                 epoch + 1.0, {}, 0, &cache);
  auto stats = cache.stats();
  EXPECT_EQ(stats.misses, tles.size());
  EXPECT_EQ(stats.hits, 0u);

  const auto second = predict_passes_batch_cached(tles, site, epoch,
                                                  epoch + 1.0, {}, 0, &cache);
  stats = cache.stats();
  EXPECT_EQ(stats.hits, tles.size());
  EXPECT_EQ(stats.misses, tles.size());
  expect_identical(first, second);

  // Bypassing the cache computes the same thing from scratch.
  const auto uncached = predict_passes_batch_cached(
      tles, site, epoch, epoch + 1.0, {}, 0, nullptr);
  expect_identical(first, uncached);
  EXPECT_EQ(cache.stats().hits, tles.size());  // untouched
}

TEST(ContactWindowCache, ClearAndEviction) {
  const JulianDate epoch = core::campaign_epoch_jd();
  const auto tles = generate_tles(paper_constellation("FOSSA"), epoch);
  const Geodetic site = core::paper_site("HK").location;

  ContactWindowCache tiny(2);  // max two entries -> FIFO eviction
  for (const Tle& tle : tles)
    (void)tiny.get_or_predict(tle, site, epoch, epoch + 0.5);
  EXPECT_EQ(tiny.stats().entries, 2u);
  // The oldest entry (tles[0]) was evicted: re-requesting it misses.
  (void)tiny.get_or_predict(tles[0], site, epoch, epoch + 0.5);
  EXPECT_EQ(tiny.stats().misses, tles.size() + 1);

  tiny.clear();
  const auto stats = tiny.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
}

}  // namespace
