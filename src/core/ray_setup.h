#pragma once

/// \file ray_setup.h
/// The packet pass's instantiations (DESIGN.md §14) and the
/// structure-of-arrays rays they read. The pass (packet_pass.inc) is
/// written once over a vector type and compiled three times by
/// ray_tracer_simd.cc: for AVX-512, for AVX2, and at width 1 (plain
/// doubles at baseline ISA). Each instantiation generates its rays,
/// computes their DDA setups and marches them with the same IEEE
/// operations per ray, so all three give bitwise-equal results. Internal
/// to rmcrt_core.

#include <cstdint>

#include "core/ray_tracer.h"

/// Whether this build carries the AVX-512 and AVX2 instantiations at all
/// (their `#pragma GCC target` regions keep the rest of the binary
/// baseline-ISA, so carrying them never requires -mavx2). Runtime
/// dispatch (packetKernel) decides whether to call them.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RMCRT_SIMD_X86 1
#else
#define RMCRT_SIMD_X86 0
#endif

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

/// A packet lane's state on entering level L: the Amanatides-Woo
/// distances (tMax to the next face and tDelta across one cell, per
/// axis), the steps left along each axis before the ray leaves `allowed`
/// (as doubles, small exact integers, so the exit test is a vector
/// compare), and the byte offset of the starting cell's record with the
/// pre-signed byte stride per axis (so a lane's gather index needs no
/// per-crossing multiply).
struct LaneSetup {
  double tMax[3];
  double tDelta[3];
  double cnt[3];
  std::int64_t off;
  std::int64_t stride[3];
};

struct PacketPass;  // ray_tracer_simd.cc
struct PassRays;

/// One instantiation of the packet pass.
struct PacketKernel {
  /// One level's pass over \p rays; Tracer::traceRays runs it level by
  /// level.
  void (*pass)(const PacketPass& pass, const PassRays& rays,
               std::uint64_t& segments);
  /// Rays [rBegin, rEnd) of \p cell, a cell of level \p g, written to
  /// out[0 .. rEnd - rBegin): ray r draws from Rng(seed, cell, r), its
  /// origin jittered over the cell (the draws go to z, y, x, in that
  /// order) or at the cell center, and its direction isotropic. The one
  /// ray generator of the divQ estimator. It runs one splitmix64 chain
  /// per lane from the cell's hashed seed prefix; sin and cos are the
  /// libm calls, one ray at a time. It may overwrite kRaySlack entries
  /// past the last ray.
  void (*generateRays)(const LevelGeom& g, bool jitter, std::uint64_t seed,
                       const IntVector& cell, int rBegin, int rEnd,
                       const RaySoA& out);
  /// The lane setups of \p n rays on level \p L as the pass computes
  /// them.
  void (*laneSetups)(const TraceLevel& L, int n, const RaySoA& rays,
                     LaneSetup* out);
};

/// The one dispatch point: the width-1 instantiation when \p useSimd is
/// false or Tracer::simdSupported() is false, otherwise AVX-512 where
/// the host has it and RMCRT_FORCE_AVX2 (read on every call) is unset,
/// else AVX2.
const PacketKernel& packetKernel(bool useSimd);

}  // namespace rmcrt::core
