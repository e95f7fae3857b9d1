// End-to-end link budget for a DtS LoRa link: transforms pass geometry
// into received power (RSSI), SNR and Doppler, combining path loss,
// weather, antenna patterns and stochastic fading.
#pragma once

#include "channel/antenna.h"
#include "channel/fading.h"
#include "channel/weather.h"
#include "orbit/look_angles.h"
#include "phy/doppler.h"
#include "phy/lora.h"
#include "sim/rng.h"

namespace sinet::phy {

/// Static radio configuration of one end-to-end link.
struct LinkConfig {
  double tx_power_dbm = 22.0;  ///< typical LoRa max in the 400 MHz band
  sinet::channel::AntennaType tx_antenna =
      sinet::channel::AntennaType::kDipole;
  sinet::channel::AntennaType rx_antenna =
      sinet::channel::AntennaType::kQuarterWaveMonopole;
  double carrier_hz = 400.45e6;
  double rx_noise_figure_db = 6.0;
  double external_noise_db = 2.0;
  double implementation_loss_db = 1.0;  ///< connectors, matching, aging
  LoraParams lora;
  sinet::channel::FadingConfig fading;
};

/// Instantaneous link-budget evaluation result.
struct LinkState {
  double rssi_dbm = 0.0;
  double snr_db = 0.0;
  double path_loss_db = 0.0;
  DopplerProfile doppler;
  double elevation_deg = 0.0;
  double range_km = 0.0;
};

/// Deterministic (mean) link budget at the given geometry: no fading draw.
/// `tx_elevation_deg` is the elevation of the ground terminal as seen in
/// the satellite antenna frame; for a nanosat dipole we evaluate the
/// pattern at the same elevation by symmetry.
[[nodiscard]] LinkState mean_link_state(const LinkConfig& cfg,
                                        const sinet::orbit::LookAngles& look,
                                        sinet::channel::Weather weather);

/// Stochastic link budget: mean state plus a fading realization drawn
/// from `rng`. The Doppler rate is estimated by the caller (pass slope)
/// and stored in `doppler_rate_hz_s`.
[[nodiscard]] LinkState draw_link_state(const LinkConfig& cfg,
                                        const sinet::orbit::LookAngles& look,
                                        sinet::channel::Weather weather,
                                        double doppler_rate_hz_s,
                                        sinet::sim::Rng& rng);

/// draw_link_state split at the fading draw: the constructor evaluates
/// everything that depends only on (config, geometry, weather, Doppler
/// rate) — the mean link budget and the fading constants — and draw()
/// adds one fading realization. draw(rng) returns exactly what
/// draw_link_state returns for the same arguments and stream state, so
/// callers drawing many links at one geometry (every node at one
/// location under one beacon) pay the libm work once.
class PreparedLink {
 public:
  /// An empty link, for storage that a prepared link is assigned to.
  PreparedLink() = default;
  PreparedLink(const LinkConfig& cfg, const sinet::orbit::LookAngles& look,
               sinet::channel::Weather weather, double doppler_rate_hz_s);

  [[nodiscard]] LinkState draw(sinet::sim::Rng& rng) const;

  /// The fading-free state, Doppler rate included.
  [[nodiscard]] const LinkState& mean() const noexcept { return mean_; }

 private:
  LinkState mean_;
  sinet::channel::PreparedFading fading_;
};

}  // namespace sinet::phy
