#pragma once

/// \file reference_march.h
/// An independent CPU reference for the packet pass (DESIGN.md §14),
/// test code only: the scalar ray generator, the Amanatides-Woo setup
/// and a march that follows one ray at a time through a Tracer's levels
/// with libm's exp. The packet pass performs the same IEEE operations
/// per ray except for its polynomial exp, so rays, lane setups, cell
/// paths and segment counts agree with it exactly and intensities within
/// the ULP budget simd_march_test pins. reference_march.cc builds
/// without floating-point contraction, as rmcrt_core does, so the
/// reference is the same on every target.

#include <cstddef>
#include <cstdint>

#include "core/ray_setup.h"
#include "core/ray_tracer.h"

namespace rmcrt::core {

/// Rays [rBegin, rEnd) of \p cell, a cell of level \p g, written to
/// out[0 .. rEnd - rBegin): ray r draws from Rng(seed, cell, r), its
/// origin jittered over the cell (the draws go to z, y, x, in that order)
/// or at the cell center, and its direction isotropic.
void generateRays(const LevelGeom& g, bool jitter, std::uint64_t seed,
                  const IntVector& cell, int rBegin, int rEnd,
                  const RaySoA& out);

/// The lane setup of a ray at \p pos heading \p dir on level \p L.
LaneSetup laneSetup(const TraceLevel& L, const Vector& pos,
                    const Vector& dir);

/// The per-ray march over \p tracer's levels, walls and configuration.
/// Counts the crossings it marches, as Tracer::segmentCount does.
class ReferenceMarch {
 public:
  explicit ReferenceMarch(const Tracer& tracer) : m_tracer(tracer) {}

  /// One ray from level 0, kappa scaled by \p kappaScale; returns its
  /// incoming intensity.
  double traceRay(const Vector& origin, const Vector& dir,
                  double kappaScale = 1.0);

  void traceRays(int n, const Vector* origins, const Vector* dirs,
                 double* out);

  /// Mean incoming intensity of \p cell over the nDivQRays rays of band
  /// \p band: the rays and kappa scale that band's divQ uses.
  double meanIncomingIntensity(const IntVector& cell, std::size_t band = 0);

  /// divQ of \p cell, summed over the tracer's bands.
  double divQ(const IntVector& cell);

  std::uint64_t segmentCount() const { return m_segments; }

 private:
  /// March level \p li from \p pos; returns true once the ray is
  /// finished, false if it left `allowed` for level li+1 at the updated
  /// \p pos.
  bool marchLevel(std::size_t li, Vector& pos, const Vector& dir,
                  double kappaScale, double& sumI, double& transmissivity);

  const Tracer& m_tracer;
  std::uint64_t m_segments = 0;
};

}  // namespace rmcrt::core
