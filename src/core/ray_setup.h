#pragma once

/// \file ray_setup.h
/// The per-ray work that starts a march, in the structure-of-arrays form
/// the packet pass reads (DESIGN.md §14): the divQ ray generator and a
/// packet lane's DDA setup. Each has a scalar definition here and a
/// vector form in ray_tracer_simd.cc that performs the same IEEE
/// operations per ray, so the two agree bitwise (simd_march_test pins
/// them). Internal to rmcrt_core.

#include <cstdint>

#include "core/ray_tracer.h"

namespace rmcrt::core {

/// Entries every RaySoA array must hold past its last ray: the vector
/// forms read and write whole registers (up to 8 lanes) at the tail.
constexpr int kRaySlack = 8;

/// Rays in structure-of-arrays form: ray i starts at
/// (pos[0][i], pos[1][i], pos[2][i]) heading (dir[0][i], dir[1][i],
/// dir[2][i]). Each array holds kRaySlack entries past the last ray.
struct RaySoA {
  double* pos[3];
  double* dir[3];

  /// The same arrays from ray \p i on.
  RaySoA at(int i) const {
    return RaySoA{{pos[0] + i, pos[1] + i, pos[2] + i},
                  {dir[0] + i, dir[1] + i, dir[2] + i}};
  }
};

/// Rays [rBegin, rEnd) of \p cell, a cell of level \p g, written to
/// out[0 .. rEnd - rBegin): ray r draws from Rng(seed, cell, r), its
/// origin jittered over the cell (the draws go to z, y, x, in that order)
/// or at the cell center, and its direction isotropic. The one ray
/// generator of the divQ estimator, whichever pass, stream or entry
/// point asks for a ray.
void generateRays(const LevelGeom& g, bool jitter, std::uint64_t seed,
                  const IntVector& cell, int rBegin, int rEnd,
                  const RaySoA& out);

/// generateRays' signature.
using RayGenerator = void (*)(const LevelGeom& g, bool jitter,
                              std::uint64_t seed, const IntVector& cell,
                              int rBegin, int rEnd, const RaySoA& out);

/// generateRays in vector form for this host's packet pass
/// (ray_tracer_simd.cc; RMCRT_FORCE_AVX2 is read on every call), or
/// generateRays itself where Tracer::simdSupported() is false. The vector
/// form runs one splitmix64 chain per lane from the cell's hashed seed
/// prefix and draws bitwise the same rays; sin and cos stay the libm
/// calls, one lane at a time. It may overwrite kRaySlack entries past the
/// last ray.
RayGenerator simdRayGenerator();

/// A packet lane's state on entering level L: ddaStart's distances, the
/// steps left along each axis before the ray leaves `allowed` (as
/// doubles, small exact integers, so the exit test is a vector compare;
/// the scalar march's bounds check fails exactly when one goes
/// negative), and the byte offset of the starting cell's record with the
/// pre-signed byte stride per axis (so a lane's gather index needs no
/// per-crossing multiply).
struct LaneSetup {
  double tMax[3];
  double tDelta[3];
  double cnt[3];
  std::int64_t off;
  std::int64_t stride[3];
};

/// The lane setup of a ray at \p pos heading \p dir on level \p L.
/// Defined in rmcrt_core, which builds without floating-point
/// contraction, so the reference is the same in every caller.
LaneSetup laneSetup(const TraceLevel& L, const Vector& pos,
                    const Vector& dir);

/// The lane setups of \p n rays on level \p L as the packet pass computes
/// them, a register of rays at a time; laneSetup for each ray where
/// Tracer::simdSupported() is false.
void laneSetupsSimd(const TraceLevel& L, int n, const RaySoA& rays,
                    LaneSetup* out);

}  // namespace rmcrt::core
