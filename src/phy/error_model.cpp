#include "phy/error_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sinet::phy {

ErrorModel::ErrorModel(const ErrorModelConfig& cfg) : cfg_(cfg) {
  if (cfg.ser_at_threshold <= 0.0 || cfg.ser_at_threshold >= 1.0)
    throw std::invalid_argument("ErrorModel: ser_at_threshold out of (0,1)");
  if (cfg.slope_per_db <= 0.0)
    throw std::invalid_argument("ErrorModel: nonpositive slope");
  if (cfg.residual_per < 0.0 || cfg.residual_per >= 1.0)
    throw std::invalid_argument("ErrorModel: residual_per out of [0,1)");
}

namespace {

/// The SNR-margin waterfall shared by the plain and prepared paths, so
/// both perform identical floating-point operations.
double per_at(const ErrorModelConfig& cfg, double snr_db, double threshold_db,
              double fec_keep, int n_sym) {
  const double margin = snr_db - threshold_db;
  // Symbol error rate decays exponentially with margin; saturates at 1.
  double ser = cfg.ser_at_threshold * std::exp(-cfg.slope_per_db * margin);
  ser = std::min(ser, 1.0);
  ser *= fec_keep;
  const double p_ok = std::pow(1.0 - std::min(ser, 1.0), n_sym);
  const double per = 1.0 - (1.0 - cfg.residual_per) * p_ok;
  return std::clamp(per, cfg.residual_per, 1.0);
}

/// Fraction of symbol errors surviving FEC, proportional to redundancy.
double fec_keep(const ErrorModelConfig& cfg, const LoraParams& params) {
  const double redundancy =
      static_cast<double>(static_cast<int>(params.cr)) / 4.0;  // 0.25..1
  return 1.0 - cfg.fec_strength * redundancy;
}

}  // namespace

double ErrorModel::packet_error_probability(double snr_db,
                                            const LoraParams& params,
                                            int payload_bytes) const {
  return per_at(cfg_, snr_db, demod_snr_threshold_db(params.sf),
                fec_keep(cfg_, params),
                params.preamble_symbols +
                    payload_symbol_count(params, payload_bytes));
}

bool ErrorModel::receive(const LinkState& link, const LoraParams& params,
                         int payload_bytes, sinet::sim::Rng& rng) const {
  return prepare(link.doppler, params, payload_bytes)
      .receive(link.snr_db, rng);
}

PreparedReception ErrorModel::prepare(const DopplerProfile& doppler,
                                      const LoraParams& params,
                                      int payload_bytes) const {
  PreparedReception r;
  r.cfg_ = cfg_;
  const double toa = time_on_air_s(params, payload_bytes);
  r.penalty_db_ = doppler_snr_penalty_db(doppler, params, toa);
  r.threshold_db_ = demod_snr_threshold_db(params.sf);
  r.fec_keep_ = fec_keep(cfg_, params);
  r.n_sym_ =
      params.preamble_symbols + payload_symbol_count(params, payload_bytes);
  return r;
}

bool PreparedReception::receive(double snr_db, sinet::sim::Rng& rng) const {
  return !rng.chance(
      per_at(cfg_, snr_db - penalty_db_, threshold_db_, fec_keep_, n_sym_));
}

}  // namespace sinet::phy
