// Seeded random number streams for reproducible simulation.
//
// Every stochastic component (channel fading, packet jitter, weather, ...)
// draws from its own named stream so that adding a component never
// perturbs the draws of another — runs stay comparable across versions.
//
// Cross-platform determinism: every distribution below is an explicit
// algorithm over the raw (fully specified) mt19937_64 output — no
// std::*_distribution, whose sequences are implementation-defined and
// differ between standard libraries. This is what lets a sweep manifest
// written on one toolchain resume on another (see exp/sweep_runner.h);
// test_sim.cpp pins golden values for each helper.
#pragma once

#include <cstdint>
#include <random>
#include <string_view>

namespace sinet::sim {

/// Deterministic constants of a Rician amplitude draw with mean power 1:
/// the line-of-sight amplitude sqrt(K/(K+1)) and the per-axis scatter
/// sigma sqrt(1/(2(K+1))).
struct RicianShape {
  double los = 0.0;
  double sigma = 0.0;
  [[nodiscard]] static RicianShape from_k_db(double k_factor_db);
};

/// One random stream. Thin, value-semantic wrapper over a 64-bit engine
/// with the distribution helpers the simulator needs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Raw 64-bit engine draw (the primitive every helper is built on).
  std::uint64_t next_u64() { return engine_(); }
  /// Uniform in [0, 1), 53-bit resolution: (next_u64() >> 11) * 2^-53.
  double uniform();
  /// Uniform in [lo, hi). Requires hi >= lo.
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive (unbiased rejection sampling
  /// over raw draws).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal (mean 0, stddev 1) by inverse-transform sampling
  /// (Wichura's AS241 PPND16 inverse CDF); one uniform per draw.
  double normal();
  /// Normal with given mean / stddev.
  double normal(double mean, double stddev);
  /// Exponential with given mean (>0).
  double exponential(double mean);
  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool chance(double p);
  /// Rayleigh-distributed magnitude with scale sigma.
  double rayleigh(double sigma);
  /// Rician fading amplitude with K-factor (dB) and mean power 1.
  double rician_amplitude(double k_factor_db);
  /// rician_amplitude with the K-factor constants already evaluated:
  /// rician_amplitude(RicianShape::from_k_db(k)) == rician_amplitude(k)
  /// for the same stream state (two normal draws either way).
  double rician_amplitude(const RicianShape& shape);

  std::mt19937_64& engine() noexcept { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// Derive a child seed from a root seed and a component name (FNV-1a).
/// Deterministic across platforms.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t root,
                                        std::string_view component);

/// Derive the `counter`-th child seed of `base` — the counter-based
/// (numeric) sibling of derive_seed for hot paths that would otherwise
/// format a string per draw (e.g. "node/<i>/event/<k>"). Splitmix64-style
/// avalanche over (base, counter): consecutive counters yield unrelated
/// seeds, so a per-entity stream family can be opened at any index in
/// O(1) with no shared state. Deterministic across platforms; golden
/// values pinned in test_sim.cpp.
[[nodiscard]] std::uint64_t derive_stream(std::uint64_t base,
                                          std::uint64_t counter);

/// Factory producing independent named streams from one root seed.
class RngFactory {
 public:
  explicit RngFactory(std::uint64_t root_seed) : root_(root_seed) {}
  [[nodiscard]] Rng make(std::string_view component) const {
    return Rng(derive_seed(root_, component));
  }
  [[nodiscard]] std::uint64_t root_seed() const noexcept { return root_; }

 private:
  std::uint64_t root_;
};

}  // namespace sinet::sim
