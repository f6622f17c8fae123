#pragma once

/// \file dda.h
/// The Amanatides-Woo setup every march starts a level with. The scalar
/// march calls ddaStart; the packet march runs its IEEE operations in
/// vector form (setupLanes in packet_pass.inc, pinned to it bitwise by
/// simd_march_test), so a ray's cell path is bitwise the same whichever
/// march runs it.

#include <cmath>
#include <limits>

#include "core/ray_tracer.h"

namespace rmcrt::core {

/// A ray's DDA state on entering a level.
struct DdaStart {
  int cell[3];       ///< starting cell, clamped into the level's `allowed`
  int step[3];       ///< +1 or -1 per axis
  double tMax[3];    ///< distance along the ray to the next face per axis
  double tDelta[3];  ///< distance along the ray across one cell per axis
};

/// Setup for a ray at \p pos heading \p dir on level \p L.
inline DdaStart ddaStart(const TraceLevel& L, const Vector& pos,
                         const Vector& dir) {
  const LevelGeom& g = L.geom;
  // The clamp absorbs marginal float error at a handoff point.
  const IntVector start =
      max(min(g.cellAt(pos), L.allowed.high() - IntVector(1)),
          L.allowed.low());
  // Infinity-safe division: an axis the ray runs parallel to is never
  // crossed.
  const auto safeDiv = [](double num, double den) {
    return den == 0.0 ? std::numeric_limits<double>::infinity() : num / den;
  };
  DdaStart s;
  for (int i = 0; i < 3; ++i) {
    s.cell[i] = start[i];
    s.step[i] = dir[i] >= 0.0 ? 1 : -1;
    s.tDelta[i] = safeDiv(g.dx[i], std::abs(dir[i]));
    const double planeCoord =
        g.physLow[i] +
        (start[i] - g.cells.low()[i] + (dir[i] >= 0.0 ? 1 : 0)) * g.dx[i];
    s.tMax[i] = safeDiv(planeCoord - pos[i], dir[i]);
    if (s.tMax[i] < 0.0) s.tMax[i] = 0.0;  // float slop at the boundary
  }
  return s;
}

}  // namespace rmcrt::core
