// Packet error probability for LoRa receptions.
//
// Abstraction level: the paper observes packet-level outcomes (beacon
// received / lost), so we model the demodulator as an SNR-margin waterfall
// calibrated to the Semtech quasi-error-free thresholds: at threshold the
// PER is ~10%, each dB of margin divides the symbol error rate roughly by
// e^1.9, and longer packets (more symbols) are proportionally more likely
// to contain an uncorrectable error. Doppler contributes an SNR penalty
// computed by phy/doppler.h.
#pragma once

#include "phy/doppler.h"
#include "phy/link_budget.h"
#include "phy/lora.h"
#include "sim/rng.h"

namespace sinet::phy {

struct ErrorModelConfig {
  /// Symbol error rate at exactly the demod SNR threshold.
  double ser_at_threshold = 2e-3;
  /// Exponential slope of SER vs margin (per dB).
  double slope_per_db = 1.9;
  /// Floor on PER from non-SNR effects (interference bursts, sync loss).
  double residual_per = 2e-3;
  /// Coding-rate correction capability: fraction of symbol errors the FEC
  /// absorbs at CR 4/8 (scaled linearly down to 0 at CR 4/5-equivalent).
  double fec_strength = 0.5;
};

/// ErrorModel::receive with everything but the SNR evaluated once for
/// one (Doppler profile, radio parameters, payload): the Doppler penalty,
/// the demod threshold and the symbol count. receive(snr, rng) performs
/// the same floating-point operations and the same Bernoulli draw as
/// ErrorModel::receive on a link with that SNR and profile.
class PreparedReception {
 public:
  [[nodiscard]] bool receive(double snr_db, sinet::sim::Rng& rng) const;

 private:
  friend class ErrorModel;
  ErrorModelConfig cfg_;
  double penalty_db_ = 0.0;
  double threshold_db_ = 0.0;
  double fec_keep_ = 1.0;  ///< 1 - fraction of symbol errors FEC absorbs
  int n_sym_ = 0;
};

class ErrorModel {
 public:
  explicit ErrorModel(const ErrorModelConfig& cfg = {});

  /// Probability that a packet of `payload_bytes` is lost at the given
  /// post-Doppler SNR. Deterministic; in [residual_per, 1].
  [[nodiscard]] double packet_error_probability(double snr_db,
                                                const LoraParams& params,
                                                int payload_bytes) const;

  /// Full reception decision: applies Doppler penalty then draws a
  /// Bernoulli outcome. Returns true when the packet is received.
  [[nodiscard]] bool receive(const LinkState& link, const LoraParams& params,
                             int payload_bytes, sinet::sim::Rng& rng) const;

  /// Evaluate the SNR-independent part of receive() once.
  [[nodiscard]] PreparedReception prepare(const DopplerProfile& doppler,
                                          const LoraParams& params,
                                          int payload_bytes) const;

  [[nodiscard]] const ErrorModelConfig& config() const noexcept {
    return cfg_;
  }

 private:
  ErrorModelConfig cfg_;
};

}  // namespace sinet::phy
