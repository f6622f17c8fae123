#include "reference_march.h"

#include <cmath>
#include <limits>

#include "util/rng.h"

namespace rmcrt::core {

namespace {

/// A ray's DDA state on entering a level.
struct DdaStart {
  int cell[3];       ///< starting cell, clamped into the level's `allowed`
  int step[3];       ///< +1 or -1 per axis
  double tMax[3];    ///< distance along the ray to the next face per axis
  double tDelta[3];  ///< distance along the ray across one cell per axis
};

/// The Amanatides-Woo setup for a ray at \p pos heading \p dir on level
/// \p L.
DdaStart ddaStart(const TraceLevel& L, const Vector& pos, const Vector& dir) {
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

/// Ray \p r of \p cell (generateRays).
void referenceRay(const LevelGeom& g, bool jitter, std::uint64_t seed,
                  const IntVector& cell, int r, Vector& origin, Vector& dir) {
  Rng rng(seed, cell, static_cast<std::uint32_t>(r));
  if (jitter) {
    const Vector lo = g.cellLowCorner(cell);
    const double uz = rng.nextDouble();
    const double uy = rng.nextDouble();
    const double ux = rng.nextDouble();
    origin = lo + Vector(ux, uy, uz) * g.dx;
  } else {
    origin = g.cellCenter(cell);
  }
  dir = isotropicDirection(rng);
}

}  // namespace

void generateRays(const LevelGeom& g, bool jitter, std::uint64_t seed,
                  const IntVector& cell, int rBegin, int rEnd,
                  const RaySoA& out) {
  for (int r = rBegin; r < rEnd; ++r) {
    Vector origin, dir;
    referenceRay(g, jitter, seed, cell, r, origin, dir);
    const std::size_t i = static_cast<std::size_t>(r - rBegin);
    for (int a = 0; a < 3; ++a) {
      out.pos[a][i] = origin[a];
      out.dir[a][i] = dir[a];
    }
  }
}

LaneSetup laneSetup(const TraceLevel& L, const Vector& pos,
                    const Vector& dir) {
  const DdaStart s = ddaStart(L, pos, dir);
  const PackedFieldView& pf = L.packed;
  LaneSetup ls;
  for (int a = 0; a < 3; ++a) {
    ls.tMax[a] = s.tMax[a];
    ls.tDelta[a] = s.tDelta[a];
    ls.cnt[a] = s.step[a] > 0 ? L.allowed.high()[a] - 1 - s.cell[a]
                              : s.cell[a] - L.allowed.low()[a];
    ls.stride[a] =
        pf.laneStride(a, s.step[a]) * PackedFieldView::kRecordBytes;
  }
  ls.off = pf.offsetOf(IntVector(s.cell[0], s.cell[1], s.cell[2])) *
           PackedFieldView::kRecordBytes;
  return ls;
}

bool ReferenceMarch::marchLevel(std::size_t li, Vector& pos,
                                const Vector& dir, double kappaScale,
                                double& sumI, double& transmissivity) {
  const std::vector<TraceLevel>& levels = m_tracer.levels();
  const WallProperties& walls = m_tracer.walls();
  const TraceLevel& L = levels[li];
  const LevelGeom& g = L.geom;

  DdaStart s = ddaStart(L, pos, dir);
  int* const cur = s.cell;
  const int* const step = s.step;
  double* const tMax = s.tMax;
  const double* const tDelta = s.tDelta;
  int lo[3], hi[3];
  for (int i = 0; i < 3; ++i) {
    lo[i] = L.allowed.low()[i];
    hi[i] = L.allowed.high()[i];
  }

  // Incremental-stride DDA state: resolve the 3-D index once, then bump
  // the record pointer by the pre-signed axis stride on each crossing.
  const PackedFieldView& pf = L.packed;
  const PackedCell* cell = &pf[IntVector(cur[0], cur[1], cur[2])];
  std::int64_t stepOffset[3];
  for (int i = 0; i < 3; ++i) stepOffset[i] = pf.stride(i) * step[i];

  double tCur = 0.0;
  const double threshold = m_tracer.config().threshold;

  for (;;) {
    const PackedCell& rec = *cell;
    // A wall cell absorbs the ray: add its emission seen through the
    // accumulated transmissivity.
    if (rec.cellType == PackedCell::kWall) {
      sumI += walls.emissivity * rec.sigmaT4OverPi * transmissivity;
      return true;
    }

    // Min-axis selection, tie-break x beats y beats z.
    const double t0 = tMax[0], t1 = tMax[1], t2 = tMax[2];
    const int yBeforeX = t1 < t0;
    const double m01 = t1 < t0 ? t1 : t0;
    const int zFirst = t2 < m01;
    const double tNext = t2 < m01 ? t2 : m01;
    const int axis = yBeforeX + ((2 - yBeforeX) & -zFirst);
    const double segLen = tNext - tCur;

    // Absorb + emit along the segment (paper Eq. 2 without scattering).
    const double expSeg = std::exp(-(rec.abskg * kappaScale) * segLen);
    sumI += rec.sigmaT4OverPi * (1.0 - expSeg) * transmissivity;
    transmissivity *= expSeg;
    // Zero-length crossings (a ray starting exactly on a face, axis ties
    // at corners) contribute nothing and do not count.
    m_segments += (segLen != 0.0);

    if (transmissivity < threshold) return true;  // extinguished

    // Advance to the next cell: tMax[axis] == tNext here.
    tCur = tNext;
    const int stepped = cur[axis] + step[axis];
    cur[axis] = stepped;
    tMax[axis] = tNext + tDelta[axis];

    // Only the stepped axis can leave the allowed box.
    if (stepped < lo[axis] || stepped >= hi[axis]) {
      const IntVector curV(cur[0], cur[1], cur[2]);
      if (!g.cells.contains(curV)) {
        // Left the physical domain: the boundary is a wall.
        sumI += walls.emissivity * walls.sigmaT4OverPi * transmissivity;
        return true;
      }
      // Left the region of interest but not the domain: continue on the
      // next coarser level from the crossing position.
      if (li + 1 >= levels.size()) {
        sumI += walls.emissivity * walls.sigmaT4OverPi * transmissivity;
        return true;
      }
      pos = pos + dir * tCur;
      return false;
    }
    cell += stepOffset[axis];
  }
}

double ReferenceMarch::traceRay(const Vector& origin, const Vector& dir,
                                double kappaScale) {
  double sumI = 0.0;
  double transmissivity = 1.0;
  Vector pos = origin;
  for (std::size_t li = 0; li < m_tracer.levels().size(); ++li)
    if (marchLevel(li, pos, dir, kappaScale, sumI, transmissivity)) break;
  return sumI;
}

void ReferenceMarch::traceRays(int n, const Vector* origins,
                               const Vector* dirs, double* out) {
  for (int i = 0; i < n; ++i) out[i] = traceRay(origins[i], dirs[i]);
}

double ReferenceMarch::meanIncomingIntensity(const IntVector& cell,
                                             std::size_t band) {
  const TraceConfig& cfg = m_tracer.config();
  const std::uint64_t seed = cfg.seed + 0x5370656Bull * band;
  const double kappaScale = cfg.bands.at(band).kappaScale;
  double sum = 0.0;
  for (int r = 0; r < cfg.nDivQRays; ++r) {
    Vector origin, dir;
    referenceRay(m_tracer.levels().front().geom, cfg.jitterRayOrigin, seed,
                 cell, r, origin, dir);
    sum += traceRay(origin, dir, kappaScale);
  }
  return sum / static_cast<double>(cfg.nDivQRays);
}

double ReferenceMarch::divQ(const IntVector& cell) {
  const TraceConfig& cfg = m_tracer.config();
  const PackedCell& rec = m_tracer.levels().front().packed[cell];
  double q = 0.0;
  for (std::size_t b = 0; b < cfg.bands.size(); ++b) {
    const SpectralBand& band = cfg.bands[b];
    const double meanI = meanIncomingIntensity(cell, b);
    const double qb = 4.0 * M_PI * (rec.abskg * band.kappaScale) *
                      (rec.sigmaT4OverPi - meanI);
    q = b == 0 ? band.weight * qb : q + band.weight * qb;
  }
  return q;
}

}  // namespace rmcrt::core
