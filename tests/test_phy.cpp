// LoRa PHY: time-on-air, thresholds, sensitivity, error model, Doppler,
// link budget.
#include <gtest/gtest.h>

#include <cmath>

#include "phy/doppler.h"
#include "phy/error_model.h"
#include "phy/link_budget.h"
#include "orbit/constellation.h"
#include "phy/lora.h"
#include "sim/rng.h"

namespace {

using namespace sinet::phy;

TEST(Lora, SymbolTimeAndBins) {
  LoraParams p;
  p.sf = SpreadingFactor::kSf10;
  p.bandwidth_hz = 125e3;
  EXPECT_NEAR(p.symbol_time_s(), 1024.0 / 125000.0, 1e-12);
  EXPECT_NEAR(p.bin_width_hz(), 125000.0 / 1024.0, 1e-9);
  EXPECT_FALSE(p.low_data_rate_optimize());  // 8.2 ms < 16 ms
  p.sf = SpreadingFactor::kSf12;
  EXPECT_TRUE(p.low_data_rate_optimize());  // 32.8 ms > 16 ms
}

TEST(Lora, TimeOnAirKnownValues) {
  // Cross-checked against the Semtech SX126x calculator.
  LoraParams p;
  p.sf = SpreadingFactor::kSf7;
  p.bandwidth_hz = 125e3;
  p.cr = CodingRate::k4_5;
  // SF7/125k, 20-byte payload, 8-symbol preamble, explicit header + CRC:
  // preamble 12.25 sym, payload 8 + ceil(176/28)*5 = 43 sym -> 56.6 ms
  // (Semtech SX126x calculator).
  EXPECT_NEAR(time_on_air_s(p, 20), 0.0566, 0.001);

  p.sf = SpreadingFactor::kSf10;
  // SF10: payload symbols 8 + ceil(164/40)*5 = 33; total 45.25 sym
  // of 8.192 ms = 370.7 ms.
  EXPECT_NEAR(time_on_air_s(p, 20), 0.3707, 0.002);

  p.sf = SpreadingFactor::kSf12;
  // SF12 with LDRO: 8 + ceil(132/40)*5 = 28; total 40.25 sym x 32.768 ms
  // = 1.319 s — the "hundreds to thousands of ms" of paper Sec 1.
  EXPECT_NEAR(time_on_air_s(p, 20), 1.319, 0.01);
}

TEST(Lora, ToaMonotonicInPayloadAndSf) {
  LoraParams p;
  for (const auto sf : {SpreadingFactor::kSf7, SpreadingFactor::kSf9,
                        SpreadingFactor::kSf11}) {
    p.sf = sf;
    double prev = 0.0;
    for (int bytes = 0; bytes <= 240; bytes += 20) {
      const double t = time_on_air_s(p, bytes);
      EXPECT_GE(t, prev);
      prev = t;
    }
  }
  LoraParams a, b;
  a.sf = SpreadingFactor::kSf8;
  b.sf = SpreadingFactor::kSf9;
  EXPECT_LT(time_on_air_s(a, 50), time_on_air_s(b, 50));
}

TEST(Lora, PayloadBoundsChecked) {
  LoraParams p;
  EXPECT_THROW(time_on_air_s(p, -1), std::invalid_argument);
  EXPECT_THROW(time_on_air_s(p, 256), std::invalid_argument);
  EXPECT_NO_THROW(time_on_air_s(p, 0));
  EXPECT_NO_THROW(time_on_air_s(p, 255));
}

TEST(Lora, DemodThresholdsMatchDatasheet) {
  EXPECT_DOUBLE_EQ(demod_snr_threshold_db(SpreadingFactor::kSf7), -7.5);
  EXPECT_DOUBLE_EQ(demod_snr_threshold_db(SpreadingFactor::kSf10), -15.0);
  EXPECT_DOUBLE_EQ(demod_snr_threshold_db(SpreadingFactor::kSf12), -20.0);
}

TEST(Lora, SensitivityMatchesDatasheetBallpark) {
  LoraParams p;
  p.sf = SpreadingFactor::kSf12;
  p.bandwidth_hz = 125e3;
  // SX1262 datasheet: about -137 dBm at SF12/125 kHz.
  EXPECT_NEAR(sensitivity_dbm(p, 6.0), -137.0, 1.5);
  p.sf = SpreadingFactor::kSf7;
  EXPECT_NEAR(sensitivity_dbm(p, 6.0), -124.5, 1.5);
}

TEST(Lora, DefaultDtsProfile) {
  const LoraParams p = default_dts_params();
  EXPECT_EQ(p.sf, SpreadingFactor::kSf10);
  EXPECT_DOUBLE_EQ(p.bandwidth_hz, 125e3);
  EXPECT_EQ(to_string(p.sf), "SF10");
}

TEST(ErrorModel, WaterfallAroundThreshold) {
  const ErrorModel model;
  LoraParams p = default_dts_params();
  const double thr = demod_snr_threshold_db(p.sf);
  // Far above threshold: near residual floor. Far below: certain loss.
  EXPECT_LT(model.packet_error_probability(thr + 10.0, p, 20), 0.01);
  EXPECT_GT(model.packet_error_probability(thr - 6.0, p, 20), 0.99);
  // At threshold: in a "lossy but usable" band.
  const double at = model.packet_error_probability(thr, p, 20);
  EXPECT_GT(at, 0.005);
  EXPECT_LT(at, 0.5);
}

TEST(ErrorModel, MonotonicInSnr) {
  const ErrorModel model;
  const LoraParams p = default_dts_params();
  double prev = 1.1;
  for (double snr = -30.0; snr <= 10.0; snr += 0.5) {
    const double per = model.packet_error_probability(snr, p, 20);
    EXPECT_LE(per, prev + 1e-12);
    prev = per;
  }
}

TEST(ErrorModel, LongerPacketsLoseMore) {
  const ErrorModel model;
  const LoraParams p = default_dts_params();
  const double snr = demod_snr_threshold_db(p.sf) + 1.0;
  EXPECT_LT(model.packet_error_probability(snr, p, 10),
            model.packet_error_probability(snr, p, 120));
}

TEST(ErrorModel, StrongerFecHelps) {
  const ErrorModel model;
  LoraParams weak = default_dts_params();
  weak.cr = CodingRate::k4_5;
  LoraParams strong = default_dts_params();
  strong.cr = CodingRate::k4_8;
  const double snr = demod_snr_threshold_db(weak.sf);
  EXPECT_GT(model.packet_error_probability(snr, weak, 60),
            model.packet_error_probability(snr, strong, 60));
}

TEST(ErrorModel, ConfigValidation) {
  ErrorModelConfig bad;
  bad.ser_at_threshold = 0.0;
  EXPECT_THROW(ErrorModel{bad}, std::invalid_argument);
  ErrorModelConfig bad2;
  bad2.slope_per_db = -1.0;
  EXPECT_THROW(ErrorModel{bad2}, std::invalid_argument);
  ErrorModelConfig bad3;
  bad3.residual_per = 1.0;
  EXPECT_THROW(ErrorModel{bad3}, std::invalid_argument);
}

TEST(ErrorModel, ReceiveMatchesProbability) {
  const ErrorModel model;
  const LoraParams p = default_dts_params();
  LinkState link;
  link.snr_db = demod_snr_threshold_db(p.sf) + 0.5;
  link.doppler = {};
  sinet::sim::Rng rng(11);
  int received = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (model.receive(link, p, 20, rng)) ++received;
  const double expected =
      1.0 - model.packet_error_probability(link.snr_db, p, 20);
  EXPECT_NEAR(static_cast<double>(received) / n, expected, 0.02);
}

TEST(Doppler, PenaltySmallWithinCapture) {
  const LoraParams p = default_dts_params();
  DopplerProfile prof;
  prof.shift_hz = 10e3;  // ~ max LEO shift at 433 MHz, within 31 kHz
  prof.rate_hz_per_s = 0.0;
  const double pen = doppler_snr_penalty_db(prof, p, 0.37);
  EXPECT_GT(pen, 0.0);
  EXPECT_LT(pen, 3.0);
}

TEST(Doppler, OffsetBeyondCaptureKillsPacket) {
  const LoraParams p = default_dts_params();
  DopplerProfile prof;
  prof.shift_hz = 0.26 * p.bandwidth_hz;
  EXPECT_GE(doppler_snr_penalty_db(prof, p, 0.37), 50.0);
}

TEST(Doppler, DriftPenaltyGrowsWithPacketDuration) {
  LoraParams p = default_dts_params();
  p.sf = SpreadingFactor::kSf12;  // narrow bins, long packets
  DopplerProfile prof;
  prof.shift_hz = 0.0;
  prof.rate_hz_per_s = 150.0;  // culmination-level drift
  const double short_pen = doppler_snr_penalty_db(prof, p, 0.1);
  const double long_pen = doppler_snr_penalty_db(prof, p, 1.3);
  EXPECT_GT(long_pen, short_pen);
  EXPECT_THROW(doppler_snr_penalty_db(prof, p, -1.0), std::invalid_argument);
}

TEST(Doppler, MaxRateFormula) {
  // 7.6 km/s at 600 km closest range on 433 MHz: ~139 Hz/s.
  const double rate = max_doppler_rate_hz_s(7.6, 600.0, 433e6);
  EXPECT_NEAR(rate, 7.6 * 7.6 / 600.0 * 433e6 / 299792.458, 1e-6);
  EXPECT_GT(rate, 100.0);
  EXPECT_LT(rate, 200.0);
  EXPECT_THROW(max_doppler_rate_hz_s(7.6, 0.0, 433e6),
               std::invalid_argument);
}

TEST(LinkBudget, MeanStateMatchesHandComputation) {
  LinkConfig cfg;
  cfg.tx_power_dbm = 22.0;
  cfg.tx_antenna = sinet::channel::AntennaType::kIsotropic;
  cfg.rx_antenna = sinet::channel::AntennaType::kIsotropic;
  cfg.carrier_hz = 400e6;
  cfg.implementation_loss_db = 1.0;
  sinet::orbit::LookAngles look;
  look.elevation_deg = 90.0;
  look.range_km = 1000.0;
  look.range_rate_km_s = 0.0;
  const LinkState st =
      mean_link_state(cfg, look, sinet::channel::Weather::kSunny);
  // FSPL(1000 km, 400 MHz) = 144.5; + zenith 0.1 + pol 3 + impl 1.
  EXPECT_NEAR(st.path_loss_db, 148.6, 0.2);
  EXPECT_NEAR(st.rssi_dbm, 22.0 - 148.6, 0.2);
  // Noise floor (125 kHz, NF 6, ext 2) = -115 dBm.
  EXPECT_NEAR(st.snr_db, st.rssi_dbm + 115.0, 0.2);
  EXPECT_NEAR(st.doppler.shift_hz, 0.0, 1e-9);
}

TEST(LinkBudget, RssiInPaperRangeForTypicalGeometry) {
  // Paper Fig 3b: received beacons land between about -140 and -110 dBm.
  LinkConfig cfg;
  cfg.tx_power_dbm = 23.0;
  cfg.carrier_hz = 400.45e6;
  for (double el : {10.0, 30.0, 60.0}) {
    sinet::orbit::LookAngles look;
    look.elevation_deg = el;
    look.range_km = sinet::orbit::slant_range_km(860.0, el);
    const LinkState st =
        mean_link_state(cfg, look, sinet::channel::Weather::kSunny);
    EXPECT_GT(st.rssi_dbm, -145.0) << "el=" << el;
    EXPECT_LT(st.rssi_dbm, -105.0) << "el=" << el;
  }
  // Directly overhead, both the whip's and the dipole's nulls align:
  // the link is *worse* at zenith than at 60 degrees despite the
  // shorter range.
  sinet::orbit::LookAngles zenith;
  zenith.elevation_deg = 90.0;
  zenith.range_km = sinet::orbit::slant_range_km(860.0, 90.0);
  sinet::orbit::LookAngles mid;
  mid.elevation_deg = 60.0;
  mid.range_km = sinet::orbit::slant_range_km(860.0, 60.0);
  EXPECT_LT(
      mean_link_state(cfg, zenith, sinet::channel::Weather::kSunny).rssi_dbm,
      mean_link_state(cfg, mid, sinet::channel::Weather::kSunny).rssi_dbm);
}

TEST(LinkBudget, DrawAddsFadingAndDopplerRate) {
  LinkConfig cfg;
  sinet::orbit::LookAngles look;
  look.elevation_deg = 45.0;
  look.range_km = 900.0;
  look.range_rate_km_s = -5.0;
  sinet::sim::Rng rng(21);
  const LinkState mean =
      mean_link_state(cfg, look, sinet::channel::Weather::kSunny);
  double diff = 0.0;
  for (int i = 0; i < 100; ++i) {
    const LinkState st = draw_link_state(
        cfg, look, sinet::channel::Weather::kSunny, 120.0, rng);
    diff += std::abs(st.rssi_dbm - mean.rssi_dbm);
    EXPECT_DOUBLE_EQ(st.doppler.rate_hz_per_s, 120.0);
    EXPECT_GT(st.doppler.shift_hz, 0.0);  // approaching
  }
  EXPECT_GT(diff / 100.0, 0.3);  // fading actually perturbs the draw
}

}  // namespace

namespace {

using sinet::channel::AntennaType;
using sinet::channel::Weather;

TEST(PreparedLink, BeaconDecodeMatchesPlainPathBitForBit) {
  // The population engine's hoisted beacon decode must be the same
  // computation as draw_link_state + ErrorModel::receive: same SNR and
  // RSSI bits, same outcome, and the stream left in the same state.
  sinet::sim::Rng gen(20240611);
  const ErrorModel model;
  const AntennaType antennas[] = {
      AntennaType::kQuarterWaveMonopole, AntennaType::kFiveEighthsWaveMonopole,
      AntennaType::kDipole, AntennaType::kIsotropic};
  const Weather weathers[] = {Weather::kSunny, Weather::kCloudy,
                              Weather::kRainy};
  int heard = 0;
  int lost = 0;
  for (int trial = 0; trial < 400; ++trial) {
    LinkConfig cfg;
    cfg.rx_antenna = antennas[gen.uniform_int(0, 3)];
    cfg.lora.sf = static_cast<SpreadingFactor>(gen.uniform_int(7, 12));
    cfg.lora.cr = static_cast<CodingRate>(gen.uniform_int(1, 4));
    cfg.tx_power_dbm = gen.uniform(0.0, 30.0);
    sinet::orbit::LookAngles look;
    look.elevation_deg = gen.uniform(-5.0, 90.0);
    look.azimuth_deg = gen.uniform(0.0, 360.0);
    look.range_km = gen.uniform(400.0, 3500.0);
    look.range_rate_km_s = gen.uniform(-7.5, 7.5);
    const Weather wx = weathers[gen.uniform_int(0, 2)];
    const double rate = gen.uniform(-300.0, 300.0);
    const int payload = static_cast<int>(gen.uniform_int(0, 255));
    const std::uint64_t seed = gen.next_u64();

    const PreparedLink link(cfg, look, wx, rate);
    const PreparedReception rx =
        model.prepare(link.mean().doppler, cfg.lora, payload);
    sinet::sim::Rng plain(seed);
    sinet::sim::Rng prepared(seed);
    for (int node = 0; node < 8; ++node) {
      const LinkState a = draw_link_state(cfg, look, wx, rate, plain);
      const bool got_a = model.receive(a, cfg.lora, payload, plain);
      const LinkState b = link.draw(prepared);
      const bool got_b = rx.receive(b.snr_db, prepared);
      ASSERT_EQ(a.snr_db, b.snr_db) << "trial " << trial;
      ASSERT_EQ(a.rssi_dbm, b.rssi_dbm) << "trial " << trial;
      ASSERT_EQ(a.doppler.shift_hz, b.doppler.shift_hz);
      ASSERT_EQ(a.doppler.rate_hz_per_s, b.doppler.rate_hz_per_s);
      ASSERT_EQ(got_a, got_b) << "trial " << trial;
      (got_a ? heard : lost) += 1;
    }
    ASSERT_EQ(plain.next_u64(), prepared.next_u64()) << "trial " << trial;
  }
  // The random geometry spans both sides of the decode threshold.
  EXPECT_GT(heard, 100);
  EXPECT_GT(lost, 100);
}

TEST(PreparedLink, FadingAndRicianPreparedFormsMatch) {
  const sinet::channel::FadingModel fading;
  for (const double el : {-3.0, 0.0, 7.5, 19.9, 20.0, 65.0}) {
    for (const Weather wx : {Weather::kSunny, Weather::kRainy}) {
      sinet::sim::Rng a(77);
      sinet::sim::Rng b(77);
      const sinet::channel::PreparedFading prep = fading.prepare(el, wx);
      for (int i = 0; i < 16; ++i)
        ASSERT_EQ(fading.draw_db(a, el, wx), prep.draw_db(b));
      const double k_db = fading.k_factor_db(el);
      ASSERT_EQ(a.rician_amplitude(k_db),
                b.rician_amplitude(sinet::sim::RicianShape::from_k_db(k_db)));
      ASSERT_EQ(a.next_u64(), b.next_u64());
    }
  }
}

}  // namespace
