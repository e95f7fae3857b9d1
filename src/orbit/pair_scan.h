// Per-(satellite, observer) scan state shared by the batch engine
// (scan_pass_pairs) and the rolling-horizon engine (RollingEphemeris).
//
// Both engines walk a coarse grid of precomputed ECEF samples, cull
// stretches that are provably below the elevation mask (see ephemeris.h
// for the cone/rate math), classify the rest exactly, and refine every
// visibility transition with the legacy predict_passes primitives. This
// header holds that walk ONCE, templated over a sample view, so the two
// engines cannot drift apart: the rolling scan is bit-identical to the
// fresh full-span scan by construction, not by parallel maintenance.
// The rolling engine's early-stopping walk (first_window_after) takes
// the same per-sample step, classify(), so its brackets are scan()'s.
//
// The view concept supplies the grid samples by ABSOLUTE index:
//   JulianDate  time(std::size_t k)
//   const Vec3& position(std::size_t s, std::size_t k)   // ECEF km
//   double      distance(std::size_t s, std::size_t k)   // geocentric km
// Absolute indexing is what lets one scan state persist across table
// chunks (batch engine) or retained horizon chunks (rolling engine) with
// identical skip-ahead clamps in both.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "orbit/ephemeris.h"
#include "orbit/geodetic.h"
#include "orbit/look_angles.h"
#include "orbit/passes.h"
#include "orbit/sgp4.h"
#include "orbit/time.h"
#include "orbit/vec3.h"

namespace sinet::orbit {

/// Scan state of one (satellite, observer) pair; persists across table
/// chunks so culling skips can cross chunk boundaries. Fields are public
/// because the kFast lane-fused path (ephemeris.cpp) classifies samples
/// itself and feeds them in via record_init/record_sample.
struct PairScanState {
  PairScanState(const Sgp4& prop, const Geodetic& observer_location,
                double mask, const ObserverCullGeometry* observer_geometry,
                double gamma_vis, double omega_max, bool cull_enabled,
                std::size_t satellite_row)
      : sampler(prop, observer_location), geometry(observer_geometry),
        mask_deg(mask), gamma_vis_rad(gamma_vis),
        omega_max_rad_s(omega_max), cull(cull_enabled), sat(satellite_row) {}

  ElevationSampler sampler;
  const ObserverCullGeometry* geometry;
  double mask_deg;
  double gamma_vis_rad;
  double omega_max_rad_s;
  bool cull;
  std::size_t sat;

  bool init_done = false;
  bool prev_vis = false;
  JulianDate window_start = 0.0;
  std::size_t next_k = 1;  // next grid sample this pair must visit
  std::vector<ContactWindow> windows;

  std::uint64_t visited = 0;
  std::uint64_t culled = 0;
  std::uint64_t cull_decisions = 0;
  std::uint64_t exact_evals = 0;

  /// Seed the scan from an externally classified first sample (the kFast
  /// fused-kernel init path). Does not touch next_k — the fast path
  /// tracks its own lockstep cursor.
  void record_init(bool vis, JulianDate t0) {
    prev_vis = vis;
    window_start = prev_vis ? t0 : 0.0;
    init_done = true;
    ++visited;
    ++exact_evals;
  }

  /// Classify the scan's first sample (absolute index `base_k`) exactly,
  /// as predict_passes evaluates its sample 0, and aim the scan at the
  /// following sample.
  template <typename View>
  void init(const View& view, std::size_t base_k) {
    const double el0 =
        elevation_from_ecef(sampler.frame(), view.position(sat, base_k));
    record_init(el0 >= mask_deg, view.time(base_k));
    next_k = base_k + 1;
  }

  /// AOS/LOS transition handling for one classified sample — identical
  /// refinement primitives (and brackets) in every engine and mode.
  void record_sample(bool vis, JulianDate t, double step_days,
                     double refine_tolerance_s) {
    if (vis && !prev_vis) {
      window_start = refine_mask_crossing(sampler, t - step_days, t, mask_deg,
                                          refine_tolerance_s);
    } else if (!vis && prev_vis) {
      const JulianDate window_end = refine_mask_crossing(
          sampler, t - step_days, t, mask_deg, refine_tolerance_s);
      ContactWindow w;
      w.aos_jd = window_start;
      w.los_jd = window_end;
      const auto [tca, elev] = refine_max_elevation(sampler, w.aos_jd, w.los_jd);
      w.tca_jd = tca;
      w.max_elevation_deg = elev;
      windows.push_back(w);
    }
    prev_vis = vis;
  }

  /// Classify grid sample `k` (absolute): the conservative cull test
  /// first, the exact elevation test only when the cull cannot decide.
  /// Returns visibility and sets `advance` to the samples the walk may
  /// step — more than one only across a stretch proven below the mask.
  /// `total_end` is one past the last absolute sample of the WHOLE scan:
  /// it clamps the skip-ahead, so skip lengths are identical no matter
  /// how the span is chunked (total_end - k equals the fresh scan's
  /// size() - k_local). The one step every walk of the grid shares.
  template <typename View>
  bool classify(const View& view, std::size_t k, std::size_t total_end,
                double step_s, std::size_t& advance) {
    const Vec3& pos = view.position(sat, k);
    bool vis = false;
    bool decided = false;
    advance = 1;
    if (cull) {
      const double d = view.distance(sat, k);
      const double cos_gamma = pos.dot(geometry->unit_ecef) / d;
      const double gamma = std::acos(std::clamp(cos_gamma, -1.0, 1.0));
      if (gamma > gamma_vis_rad) {
        // Provably below the mask here, and for at least margin_s: the
        // geocentric angle cannot close faster than omega_max.
        decided = true;
        ++cull_decisions;
        const double margin_s = (gamma - gamma_vis_rad) / omega_max_rad_s;
        const double steps = margin_s / step_s;
        if (steps > 1.0)
          advance = std::min(static_cast<std::size_t>(steps), total_end - k);
      }
    }
    if (!decided) {
      ++exact_evals;
      vis = elevation_from_ecef(sampler.frame(), pos) >= mask_deg;
    }
    ++visited;
    culled += advance - 1;
    return vis;
  }

  /// Advance through grid samples [next_k, chunk_end), refining every
  /// transition. `total_end` as for classify().
  template <typename View>
  void scan(const View& view, std::size_t chunk_end, std::size_t total_end,
            double step_days, double step_s, double refine_tolerance_s) {
    while (next_k < chunk_end) {
      const std::size_t k = next_k;
      std::size_t advance = 1;
      const bool vis = classify(view, k, total_end, step_s, advance);
      // Identical transition handling (and refinement brackets) to
      // predict_passes; skipped samples are all proven invisible while
      // prev_vis is false, so no transition can hide inside a skip.
      record_sample(vis, view.time(k), step_days, refine_tolerance_s);
      next_k = k + advance;
    }
  }

  /// Walk grid samples [next_k, total_end) only until the first window
  /// whose LOS is after `after`, and leave that window in `out` with its
  /// transitions as the coarse brackets scan() would refine (an AOS at
  /// the scan's first sample and a LOS truncated at `jd_end` are exact).
  /// A LOS bracket is refined only when it straddles `after`, because
  /// only the refined LOS says whether that window is over; each such
  /// refinement bumps out.refinements. Refining the remaining brackets
  /// with the same primitives gives scan()'s window bit for bit. Returns
  /// false, with only out.refinements set, when no window ends after
  /// `after`.
  template <typename View>
  bool first_window_after(const View& view, std::size_t total_end,
                          JulianDate jd_end, JulianDate after,
                          double step_days, double step_s,
                          double refine_tolerance_s, WindowBrackets& out) {
    if (prev_vis) out.aos_lo = out.aos_hi = window_start;
    while (next_k < total_end) {
      const std::size_t k = next_k;
      std::size_t advance = 1;
      const bool vis = classify(view, k, total_end, step_s, advance);
      next_k = k + advance;
      if (vis != prev_vis) {
        const JulianDate t = view.time(k);
        if (vis) {
          out.aos_lo = t - step_days;
          out.aos_hi = t;
        } else {
          out.los_lo = t - step_days;
          out.los_hi = t;
          if (out.los_lo <= after && after < out.los_hi) {
            ++out.refinements;
            out.los_lo = out.los_hi = refine_mask_crossing(
                sampler, out.los_lo, out.los_hi, mask_deg,
                refine_tolerance_s);
          }
          // refine_mask_crossing returns a point of its bracket, so a
          // bracket that starts after `after` holds a LOS after it.
          if (out.los_lo > after) return true;
        }
      }
      prev_vis = vis;
    }
    if (!prev_vis || jd_end <= after) return false;
    out.los_lo = out.los_hi = jd_end;  // truncated, like finalize()
    return true;
  }

  /// Truncate a still-open window at jd_end, exactly like predict_passes.
  void finalize(JulianDate jd_end) {
    if (!prev_vis) return;
    ContactWindow w;
    w.aos_jd = window_start;
    w.los_jd = jd_end;
    const auto [tca, elev] = refine_max_elevation(sampler, w.aos_jd, w.los_jd);
    w.tca_jd = tca;
    w.max_elevation_deg = elev;
    windows.push_back(w);
  }
};

}  // namespace sinet::orbit
