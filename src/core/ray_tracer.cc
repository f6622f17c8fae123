#include "core/ray_tracer.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/dda.h"
#include "core/ray_setup.h"
#include "util/metrics.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/trace_recorder.h"

namespace rmcrt::core {

namespace {

/// Registry references resolved once; per-tile bumps are single relaxed
/// atomic adds (same cost class as the existing m_segments flush).
MetricsCounter& tracerSegmentsCounter() {
  static MetricsCounter& c =
      MetricsRegistry::global().counter("tracer.segments");
  return c;
}
MetricsCounter& tracerRaysCounter() {
  static MetricsCounter& c = MetricsRegistry::global().counter("tracer.rays");
  return c;
}
/// Segments the adaptive controller avoided tracing versus the fixed
/// nDivQRays fan, estimated per tile from that tile's own mean
/// segments-per-ray (saved rays never marched, so their exact crossing
/// count is unknowable).
MetricsCounter& tracerSegmentsSavedCounter() {
  static MetricsCounter& c =
      MetricsRegistry::global().counter("tracer.segments_saved");
  return c;
}

/// divQ = 4 pi kappa (sigmaT4/pi - mean incoming intensity) of a level-0
/// cell's record, with the band scale on kappa (paper Eq. 2).
double divQOf(const PackedCell& src, double kappaScale, double meanI) {
  return 4.0 * M_PI * (src.abskg * kappaScale) * (src.sigmaT4OverPi - meanI);
}

/// Fold band \p b's share weight * q into a divQ cell: band 0 assigns,
/// later bands add, in band order — so the single gray band {a=1} is the
/// gray divQ bitwise (IEEE: 1.0*q == q).
void foldBand(std::size_t b, double weight, double q, double& out) {
  if (b == 0)
    out = weight * q;
  else
    out += weight * q;
}

/// Per-thread scratch behind the ray streams (Tracer::traceTileRays, and
/// the packet march's structure-of-arrays copy of a caller's rays):
/// Tracer::kStreamRays entries, allocated once and reused by every later
/// stream on the same thread, so steady-state streaming allocates nothing
/// and its footprint is bounded whatever the tile size.
struct StreamScratch {
  std::vector<double> pos[3], dir[3];  ///< the rays, kRaySlack past the cap
  std::vector<double> intensity;
  std::vector<std::size_t> cellIndex;  ///< stream slot -> cell of the tile

  /// The scratch, allocated on first use.
  static StreamScratch& get(std::size_t cap) {
    static thread_local StreamScratch s;
    if (s.intensity.empty()) {
      for (int a = 0; a < 3; ++a) {
        s.pos[a].resize(cap + kRaySlack);
        s.dir[a].resize(cap + kRaySlack);
      }
      s.intensity.resize(cap);
      s.cellIndex.resize(cap);
    }
    return s;
  }

  RaySoA rays() {
    return RaySoA{{pos[0].data(), pos[1].data(), pos[2].data()},
                  {dir[0].data(), dir[1].data(), dir[2].data()}};
  }
};

}  // namespace

std::vector<CellRange> tileCells(const CellRange& cells,
                                 const IntVector& tileSize) {
  const IntVector ts = max(tileSize, IntVector(1));
  const IntVector lo = cells.low();
  const IntVector hi = cells.high();
  const IntVector sz = cells.size();
  const auto tilesAlong = [](int extent, int tile) {
    return (extent + tile - 1) / tile;
  };
  std::vector<CellRange> tiles;
  tiles.reserve(static_cast<std::size_t>(tilesAlong(sz.x(), ts.x())) *
                static_cast<std::size_t>(tilesAlong(sz.y(), ts.y())) *
                static_cast<std::size_t>(tilesAlong(sz.z(), ts.z())));
  for (int z = lo.z(); z < hi.z(); z += ts.z())
    for (int y = lo.y(); y < hi.y(); y += ts.y())
      for (int x = lo.x(); x < hi.x(); x += ts.x())
        tiles.push_back(
            CellRange(IntVector(x, y, z),
                      min(IntVector(x + ts.x(), y + ts.y(), z + ts.z()), hi)));
  return tiles;
}

IntVector adaptiveTileSize(const CellRange& cells, IntVector tileSize,
                           std::size_t workers) {
  IntVector ts = max(tileSize, IntVector(1));
  const auto tileCount = [&cells](const IntVector& t) {
    std::int64_t n = 1;
    for (int i = 0; i < 3; ++i)
      n *= (cells.size()[i] + t[i] - 1) / t[i];
    return n;
  };
  const std::int64_t want = static_cast<std::int64_t>(workers) * 4;
  while (tileCount(ts) < want) {
    // Halve the largest axis; stop once tiles are already small.
    int axis = 0;
    if (ts[1] > ts[axis]) axis = 1;
    if (ts[2] > ts[axis]) axis = 2;
    const std::int64_t volume =
        static_cast<std::int64_t>(ts[0]) * ts[1] * ts[2];
    if (ts[axis] <= 2 || volume <= 64) break;
    ts[axis] = (ts[axis] + 1) / 2;
  }
  return ts;
}

bool Tracer::simdSupported() {
#if RMCRT_SIMD_X86
  static const bool ok = [] {
    // RMCRT_NO_SIMD=<non-zero> forces the scalar dispatch — the CI
    // no-AVX2 fallback job sets it to exercise this path on AVX2 hosts.
    const char* e = std::getenv("RMCRT_NO_SIMD");
    if (e != nullptr && e[0] != '\0' && e[0] != '0') return false;
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }();
  return ok;
#else
  return false;
#endif
}

Tracer::Tracer(std::vector<TraceLevel> levels, const WallProperties& walls,
               const TraceConfig& cfg)
    : m_levels(std::move(levels)),
      m_walls(walls),
      m_cfg(cfg),
      m_bandStats(cfg.bands.size()) {
  if (m_cfg.nDivQRays <= 0)
    throw std::invalid_argument(
        "TraceConfig::nDivQRays must be positive (got " +
        std::to_string(m_cfg.nDivQRays) +
        "): meanIncomingIntensity divides by it, so divQ would be NaN");
  if (m_cfg.nFluxRays <= 0)
    throw std::invalid_argument(
        "TraceConfig::nFluxRays must be positive (got " +
        std::to_string(m_cfg.nFluxRays) +
        "): boundaryFlux divides by it, so the flux would be NaN");
  if (m_cfg.bands.empty())
    throw std::invalid_argument(
        "TraceConfig::bands must hold at least one band: divQ is their "
        "sum, so an empty model would never write it");
  for (std::size_t b = 0; b < m_cfg.bands.size(); ++b) {
    const SpectralBand& band = m_cfg.bands[b];
    if (!std::isfinite(band.kappaScale) || !(band.kappaScale > 0.0))
      throw std::invalid_argument(
          "TraceConfig::bands[" + std::to_string(b) +
          "].kappaScale must be finite and positive (got " +
          std::to_string(band.kappaScale) + ")");
    if (!std::isfinite(band.weight))
      throw std::invalid_argument("TraceConfig::bands[" + std::to_string(b) +
                                  "].weight must be finite (got " +
                                  std::to_string(band.weight) + ")");
  }
  if (m_cfg.adaptiveRays) {
    if (m_cfg.nPilotRays <= 0)
      throw std::invalid_argument(
          "TraceConfig::nPilotRays must be positive (got " +
          std::to_string(m_cfg.nPilotRays) +
          ") when adaptiveRays is set: the pilot mean divides by it");
    if (!(m_cfg.errorTarget > 0.0))
      throw std::invalid_argument(
          "TraceConfig::errorTarget must be positive (got " +
          std::to_string(m_cfg.errorTarget) +
          ") when adaptiveRays is set: the budget rule divides by it");
    if (m_cfg.nMaxRays < 0)
      throw std::invalid_argument(
          "TraceConfig::nMaxRays must be >= 0 (got " +
          std::to_string(m_cfg.nMaxRays) +
          "): 0 means cap budgets at nDivQRays");
  }
  packLevels(m_levels, m_ownedPacked);
}

void packLevels(std::vector<TraceLevel>& levels,
                std::vector<PackedLevelField>& owned) {
  owned.reserve(owned.size() + levels.size());
  for (TraceLevel& L : levels) {
    if (L.packed.valid()) continue;
    if (!L.fields.abskg.valid() || !L.fields.sigmaT4OverPi.valid())
      throw std::invalid_argument(
          "TraceLevel carries neither packed records nor the property "
          "views to pack them from");
    owned.emplace_back(L.fields);
    L.packed = owned.back().view();
  }
}

bool Tracer::marchLevel(std::size_t li, Vector& pos, const Vector& dir,
                        double kappaScale, double& sumI,
                        double& transmissivity,
                        std::uint64_t& segments) const {
  const TraceLevel& L = m_levels[li];
  const LevelGeom& g = L.geom;

  // Amanatides-Woo setup (shared with the packet march): distance along
  // the ray to the next cell face in each axis (tMax) and per-cell
  // crossing distances (tDelta). Everything the segment loop touches
  // lives in small stack arrays (the compiler keeps the FP state in
  // registers) rather than IntVector/Vector.
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
  const double threshold = m_cfg.threshold;

  for (;;) {
    const PackedCell& rec = *cell;
    // A wall cell absorbs the ray: add its emission seen through the
    // accumulated transmissivity. Wall-ness is baked into the record, so
    // there is no per-segment field-validity branch.
    if (rec.cellType == PackedCell::kWall) [[unlikely]] {
      sumI += m_walls.emissivity * rec.sigmaT4OverPi * transmissivity;
      return true;
    }

    // Branchless min-axis selection. The stepped axis is data-dependent
    // and close to uniformly random, so the naive two-compare `if` chain
    // mispredicts on most crossings — selecting via conditional moves
    // costs a couple of cmovs instead of a ~15-cycle flush. The
    // tie-breaking is x wins over y wins over z.
    const double t0 = tMax[0], t1 = tMax[1], t2 = tMax[2];
    const int yBeforeX = t1 < t0;
    const double m01 = t1 < t0 ? t1 : t0;    // minsd
    const int zFirst = t2 < m01;
    const double tNext = t2 < m01 ? t2 : m01;  // minsd
    // axis = zFirst ? 2 : yBeforeX, written as arithmetic so the
    // compiler cannot re-materialize the compare as a branch.
    const int axis = yBeforeX + ((2 - yBeforeX) & -zFirst);
    const double segLen = tNext - tCur;

    // Absorb + emit along the segment (paper Eq. 2 without scattering):
    // one cache-line-local record load per crossing.
    const double expSeg = std::exp(-(rec.abskg * kappaScale) * segLen);
    sumI += rec.sigmaT4OverPi * (1.0 - expSeg) * transmissivity;
    transmissivity *= expSeg;
    // Zero-length crossings (the float-slop tMax clamp puts the first
    // face at t=0 when a ray starts exactly on it; axis ties produce
    // them mid-march at corners) contribute nothing — exp(0) is exactly
    // 1 — so they must not count as marched segments or every Mseg/s
    // figure inflates. Branchless: the FP work above already ran and is
    // a bitwise no-op for segLen == 0.
    segments += (segLen != 0.0);

    if (transmissivity < threshold) return true;  // extinguished

    // Advance to the next cell: tMax[axis] == tNext here.
    tCur = tNext;
    const int stepped = cur[axis] + step[axis];
    cur[axis] = stepped;
    tMax[axis] = tNext + tDelta[axis];

    // Only the stepped axis can leave the allowed box, so test that one
    // component instead of the full 3-axis containment check.
    if (stepped < lo[axis] || stepped >= hi[axis]) [[unlikely]] {
      const IntVector curV(cur[0], cur[1], cur[2]);
      if (!g.cells.contains(curV)) {
        // Left the physical domain: the boundary is a wall.
        sumI += m_walls.emissivity * m_walls.sigmaT4OverPi * transmissivity;
        return true;
      }
      // Left the region of interest but not the domain: continue on the
      // next coarser level from the crossing position.
      if (li + 1 >= m_levels.size()) {
        sumI += m_walls.emissivity * m_walls.sigmaT4OverPi * transmissivity;
        return true;
      }
      pos = pos + dir * tCur;
      return false;
    }
    cell += stepOffset[axis];
  }
}

double Tracer::traceRay(Vector origin, Vector dir, std::size_t startLevel,
                        double kappaScale, std::uint64_t& segments) const {
  double sumI = 0.0;
  double transmissivity = 1.0;
  Vector pos = origin;
  for (std::size_t li = startLevel; li < m_levels.size(); ++li) {
    if (marchLevel(li, pos, dir, kappaScale, sumI, transmissivity, segments))
      break;
  }
  return sumI;
}

double Tracer::traceRay(Vector origin, Vector dir,
                        std::size_t startLevel) const {
  std::uint64_t segments = 0;
  const double sumI = traceRay(origin, dir, startLevel, 1.0, segments);
  flushSegments(segments);
  return sumI;
}

void Tracer::traceRays(int n, const Vector* origins, const Vector* dirs,
                       double kappaScale, double* out,
                       std::uint64_t& segments) const {
  if (!simdActive()) {
    for (int i = 0; i < n; ++i)
      out[i] = traceRay(origins[i], dirs[i], 0, kappaScale, segments);
    return;
  }
  StreamScratch& s = StreamScratch::get(kStreamRays);
  for (int b = 0; b < n; b += kStreamRays) {
    const int m = std::min(kStreamRays, n - b);
    for (int i = 0; i < m; ++i)
      for (int a = 0; a < 3; ++a) {
        s.pos[a][static_cast<std::size_t>(i)] = origins[b + i][a];
        s.dir[a][static_cast<std::size_t>(i)] = dirs[b + i][a];
      }
    traceRaysSimd(m, s.rays(), kappaScale, out + b, segments);
  }
}

void Tracer::traceRays(int n, const RaySoA& rays, double kappaScale,
                       double* out, std::uint64_t& segments) const {
  if (simdActive()) {
    traceRaysSimd(n, rays, kappaScale, out, segments);
    return;
  }
  for (int i = 0; i < n; ++i)
    out[i] = traceRay(Vector(rays.pos[0][i], rays.pos[1][i], rays.pos[2][i]),
                      Vector(rays.dir[0][i], rays.dir[1][i], rays.dir[2][i]),
                      0, kappaScale, segments);
}

void Tracer::traceRays(int n, const Vector* origins, const Vector* dirs,
                       double* out) const {
  std::uint64_t segments = 0;
  traceRays(n, origins, dirs, 1.0, out, segments);
  flushSegments(segments);
}

void Tracer::flushSegments(std::uint64_t n) const {
  m_segments.fetch_add(n, std::memory_order_relaxed);
  tracerSegmentsCounter().add(n);
}

void Tracer::resetSegmentCount() {
  m_segments.store(0, std::memory_order_relaxed);
  for (BandCounters& c : m_bandStats) {
    c.segments.store(0, std::memory_order_relaxed);
    c.nanoseconds.store(0, std::memory_order_relaxed);
  }
}

Tracer::BandTrace Tracer::bandTrace(std::size_t b) const {
  return BandTrace{m_cfg.seed + 0x5370656Bull * b,
                   m_cfg.bands.at(b).kappaScale};
}

void generateRays(const LevelGeom& g, bool jitter, std::uint64_t seed,
                  const IntVector& cell, int rBegin, int rEnd,
                  const RaySoA& out) {
  for (int r = rBegin; r < rEnd; ++r) {
    Rng rng(seed, cell, static_cast<std::uint32_t>(r));
    Vector origin;
    if (jitter) {
      const Vector lo = g.cellLowCorner(cell);
      // z draws first: the order GCC evaluated the constructor arguments
      // in when this was one Vector(draw, draw, draw) expression.
      const double uz = rng.nextDouble();
      const double uy = rng.nextDouble();
      const double ux = rng.nextDouble();
      origin = lo + Vector(ux, uy, uz) * g.dx;
    } else {
      origin = g.cellCenter(cell);
    }
    const Vector dir = isotropicDirection(rng);
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

template <class RayRange, class Consume>
void Tracer::traceTileRays(const CellRange& tile, const BandTrace& band,
                           RayRange rays, Consume consume,
                           std::uint64_t& segments) const {
  constexpr std::size_t cap = kStreamRays;
  StreamScratch& s = StreamScratch::get(cap);
  const RayGenerator generate =
      simdActive() ? simdRayGenerator() : generateRays;
  const LevelGeom& g = m_levels.front().geom;
  std::size_t n = 0;
  const auto flush = [&] {
    traceRays(static_cast<int>(n), s.rays(), band.kappaScale,
              s.intensity.data(), segments);
    for (std::size_t k = 0; k < n; ++k)
      consume(s.cellIndex[k], s.intensity[k]);
    n = 0;
  };
  std::size_t i = 0;
  for (const IntVector& c : tile) {
    const auto [rBegin, rEnd] = rays(i);
    // A cell's rays may straddle two streams: consume() still sees them
    // in ray order, so the per-cell sums do not depend on the stream
    // boundaries.
    for (int r = rBegin; r < rEnd;) {
      const int take = static_cast<int>(
          std::min(static_cast<std::size_t>(rEnd - r), cap - n));
      generate(g, m_cfg.jitterRayOrigin, band.seed, c, r, r + take,
               s.rays().at(static_cast<int>(n)));
      std::fill_n(s.cellIndex.begin() + static_cast<std::ptrdiff_t>(n),
                  take, i);
      n += static_cast<std::size_t>(take);
      r += take;
      if (n == cap) flush();
    }
    ++i;
  }
  if (n > 0) flush();
}

double Tracer::meanIncomingIntensity(const IntVector& cell,
                                     std::size_t band) const {
  std::uint64_t segments = 0;
  double sum = 0.0;
  traceTileRays(
      CellRange(cell, cell + IntVector(1)), bandTrace(band),
      [this](std::size_t) { return std::pair(0, m_cfg.nDivQRays); },
      [&sum](std::size_t, double I) { sum += I; }, segments);
  flushSegments(segments);
  return sum / static_cast<double>(m_cfg.nDivQRays);
}

void Tracer::computeDivQTile(const CellRange& tile,
                             MutableFieldView<double> divQ) const {
  RMCRT_TRACE_SPAN("tracer", "divQ_tile");
  std::uint64_t segments = 0;
  for (std::size_t b = 0; b < m_cfg.bands.size(); ++b) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t bandSegments =
        m_cfg.adaptiveRays ? computeDivQTileAdaptive(tile, b, divQ)
                           : computeDivQTileFixed(tile, b, divQ);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    m_bandStats[b].segments.fetch_add(bandSegments,
                                      std::memory_order_relaxed);
    m_bandStats[b].nanoseconds.fetch_add(static_cast<std::uint64_t>(ns),
                                         std::memory_order_relaxed);
    segments += bandSegments;
  }
  flushSegments(segments);
}

std::uint64_t Tracer::computeDivQTileFixed(
    const CellRange& tile, std::size_t b,
    MutableFieldView<double> divQ) const {
  const BandTrace band = bandTrace(b);
  const double weight = m_cfg.bands[b].weight;
  const std::uint64_t nCells = static_cast<std::uint64_t>(tile.volume());
  std::uint64_t segments = 0;
  // One stream over the whole tile; each cell's intensities are summed in
  // ray order, the reduction order of the fixed fan.
  std::vector<double> sums(nCells, 0.0);
  traceTileRays(
      tile, band,
      [this](std::size_t) { return std::pair(0, m_cfg.nDivQRays); },
      [&sums](std::size_t i, double I) { sums[i] += I; }, segments);
  std::size_t i = 0;
  for (const IntVector& c : tile)
    foldBand(b, weight,
             divQOf(m_levels.front().packed[c], band.kappaScale,
                    sums[i++] / static_cast<double>(m_cfg.nDivQRays)),
             divQ[c]);
  const std::uint64_t rays =
      nCells * static_cast<std::uint64_t>(m_cfg.nDivQRays);
  tracerRaysCounter().add(rays);
  m_raysTraced.fetch_add(rays, std::memory_order_relaxed);
  m_cellsTraced.fetch_add(nCells, std::memory_order_relaxed);
  const std::uint64_t fan = static_cast<std::uint64_t>(m_cfg.nDivQRays);
  std::uint64_t prev = m_maxBudget.load(std::memory_order_relaxed);
  while (fan > prev && !m_maxBudget.compare_exchange_weak(
                           prev, fan, std::memory_order_relaxed)) {
  }
  return segments;
}

int Tracer::adaptiveBudget(double pilotMean, double pilotStddev,
                           double sigmaT4OverPi) const {
  const int cap = m_cfg.nMaxRays > 0 ? m_cfg.nMaxRays : m_cfg.nDivQRays;
  const int pilot = std::min(m_cfg.nPilotRays, cap);
  if (pilotStddev <= 0.0) return pilot;  // uniform pilot: nothing to refine
  // n rays shrink the standard error to s/sqrt(n); require it below
  // errorTarget * |difference| where the difference is exactly the
  // (source - meanI) factor divQ multiplies — a cell in near-equilibrium
  // saturates at the cap rather than divide by ~0.
  const double denom =
      m_cfg.errorTarget * std::abs(sigmaT4OverPi - pilotMean);
  if (denom <= 0.0) return cap;
  const double ratio = pilotStddev / denom;
  const double need = std::ceil(ratio * ratio);
  if (!(need < static_cast<double>(cap))) return cap;  // also inf/NaN
  return std::max(pilot, static_cast<int>(need));
}

std::uint64_t Tracer::computeDivQTileAdaptive(
    const CellRange& tile, std::size_t b,
    MutableFieldView<double> divQ) const {
  const BandTrace band = bandTrace(b);
  const double weight = m_cfg.bands[b].weight;
  const TraceLevel& L0 = m_levels.front();
  const int cap = m_cfg.nMaxRays > 0 ? m_cfg.nMaxRays : m_cfg.nDivQRays;
  const int pilot = std::min(m_cfg.nPilotRays, cap);

  struct CellState {
    double sum = 0.0;    // intensity sum over the rays traced so far
    RunningStats pilot;  // streaming variance of the pilot rays
    int budget = 0;      // total rays granted to this cell
  };
  std::vector<CellState> states(static_cast<std::size_t>(tile.volume()));
  std::uint64_t segments = 0;

  {
    // Pass 1: pilot fan + streaming variance -> deterministic budget.
    // The budget is a function of (seed, cell) alone, so any tiling,
    // stream size or thread schedule grants identical budgets.
    RMCRT_TRACE_SPAN("tracer", "adaptive_pilot");
    traceTileRays(
        tile, band, [pilot](std::size_t) { return std::pair(0, pilot); },
        [&states](std::size_t i, double I) {
          states[i].sum += I;
          states[i].pilot.add(I);
        },
        segments);
    std::size_t i = 0;
    for (const IntVector& c : tile) {
      CellState& cs = states[i++];
      cs.budget = adaptiveBudget(cs.pilot.mean(), cs.pilot.stddev(),
                                 L0.packed[c].sigmaT4OverPi);
    }
  }

  std::uint64_t raysTraced = 0;
  std::uint64_t tileMaxBudget = 0;
  {
    // Pass 2: top up only where the pilot missed the error target,
    // appending to the same running sum so a cell whose budget reaches
    // nDivQRays reproduces the fixed fan's reduction bitwise.
    RMCRT_TRACE_SPAN("tracer", "adaptive_topup");
    traceTileRays(
        tile, band,
        [&states, pilot](std::size_t i) {
          return std::pair(pilot, std::max(pilot, states[i].budget));
        },
        [&states](std::size_t i, double I) { states[i].sum += I; },
        segments);
    std::size_t i = 0;
    for (const IntVector& c : tile) {
      const CellState& cs = states[i++];
      foldBand(b, weight,
               divQOf(L0.packed[c], band.kappaScale,
                      cs.sum / static_cast<double>(cs.budget)),
               divQ[c]);
      raysTraced += static_cast<std::uint64_t>(cs.budget);
      tileMaxBudget =
          std::max(tileMaxBudget, static_cast<std::uint64_t>(cs.budget));
    }
  }

  tracerRaysCounter().add(raysTraced);
  const std::uint64_t nCells = static_cast<std::uint64_t>(tile.volume());
  m_raysTraced.fetch_add(raysTraced, std::memory_order_relaxed);
  m_cellsTraced.fetch_add(nCells, std::memory_order_relaxed);
  std::uint64_t prev = m_maxBudget.load(std::memory_order_relaxed);
  while (tileMaxBudget > prev &&
         !m_maxBudget.compare_exchange_weak(prev, tileMaxBudget,
                                            std::memory_order_relaxed)) {
  }
  // Work avoided vs the fixed fan, estimated from this tile's own mean
  // segments-per-ray (untraced rays have no exact crossing count).
  const std::uint64_t fixedRays =
      nCells * static_cast<std::uint64_t>(m_cfg.nDivQRays);
  if (raysTraced > 0 && fixedRays > raysTraced) {
    const double perRay =
        static_cast<double>(segments) / static_cast<double>(raysTraced);
    tracerSegmentsSavedCounter().add(static_cast<std::uint64_t>(
        static_cast<double>(fixedRays - raysTraced) * perRay));
  }
  return segments;
}

void Tracer::publishRayGauges() const {
  const std::uint64_t cells = m_cellsTraced.load(std::memory_order_relaxed);
  if (cells == 0) return;
  auto& reg = MetricsRegistry::global();
  reg.setGauge("tracer.rays_per_cell_mean",
               static_cast<double>(m_raysTraced.load(
                   std::memory_order_relaxed)) /
                   static_cast<double>(cells));
  reg.setGauge("tracer.rays_per_cell_max",
               static_cast<double>(
                   m_maxBudget.load(std::memory_order_relaxed)));
  for (std::size_t b = 0; b < m_bandStats.size(); ++b) {
    const std::uint64_t ns =
        m_bandStats[b].nanoseconds.load(std::memory_order_relaxed);
    if (ns == 0) continue;
    // Mseg/s = segments / (ns * 1e-9) / 1e6.
    reg.setGauge("tracer.band" + std::to_string(b) + ".mseg_per_s",
                 static_cast<double>(m_bandStats[b].segments.load(
                     std::memory_order_relaxed)) *
                     1e3 / static_cast<double>(ns));
  }
}

void Tracer::computeDivQ(const CellRange& cells,
                         MutableFieldView<double> divQ,
                         ThreadPool* pool) const {
  RMCRT_TRACE_SPAN("tracer", "computeDivQ");
  if (pool == nullptr || pool->size() <= 1) {
    computeDivQTile(cells, divQ);
    publishRayGauges();
    return;
  }
  // Adapt the tile size to the pool so small sweeps don't undersubscribe
  // it: the default 8^3 tiling of a small range can produce fewer tiles
  // than parallelFor wants chunks (~4 per worker), leaving workers idle.
  const std::vector<CellRange> tiles = tileCells(
      cells, adaptiveTileSize(cells, m_cfg.tileSize, pool->size()));
  std::vector<DivQTileJob> jobs;
  jobs.reserve(tiles.size());
  for (const CellRange& tile : tiles)
    jobs.push_back(DivQTileJob{this, tile, divQ});
  computeDivQBatch(jobs, pool);
}

void Tracer::computeDivQBatch(const std::vector<DivQTileJob>& jobs,
                              ThreadPool* pool) {
  RMCRT_TRACE_SPAN("tracer", "computeDivQBatch");
  const auto run = [](const DivQTileJob& j) {
    j.tracer->computeDivQTile(j.tile, j.sink);
  };
  if (pool == nullptr || pool->size() <= 1) {
    for (const DivQTileJob& j : jobs) run(j);
  } else {
    pool->parallelFor(0, static_cast<std::int64_t>(jobs.size()),
                      [&](std::int64_t i) {
                        run(jobs[static_cast<std::size_t>(i)]);
                      });
  }
  // Rays-per-cell and band-rate gauges: publish once per drain for each
  // distinct tracer (never per tile, so concurrent tiles cannot race the
  // gauge).
  std::vector<const Tracer*> seen;
  for (const DivQTileJob& j : jobs) {
    if (std::find(seen.begin(), seen.end(), j.tracer) == seen.end()) {
      seen.push_back(j.tracer);
      j.tracer->publishRayGauges();
    }
  }
}

double Tracer::boundaryFlux(const IntVector& cell, const IntVector& face,
                            int nRays, ThreadPool* pool) const {
  RMCRT_TRACE_SPAN("tracer", "boundaryFlux");
  // The flux fan has its own knob: 0 (the default argument) means
  // TraceConfig::nFluxRays, validated positive at construction.
  if (nRays <= 0) nRays = m_cfg.nFluxRays;
  tracerRaysCounter().add(static_cast<std::uint64_t>(nRays));
  // Incident flux on the face = integral over the inward hemisphere of
  // I(s) |s . n| dOmega. Monte Carlo with directions sampled
  // cosine-weighted about the inward normal -> flux = pi * mean(I).
  const LevelGeom& g = m_levels.front().geom;
  const Vector inward = -Vector(face).normalized();
  // Build an orthonormal basis around the inward normal.
  const Vector ref =
      std::abs(inward.x()) < 0.9 ? Vector(1, 0, 0) : Vector(0, 1, 0);
  Vector u = Vector(inward.y() * ref.z() - inward.z() * ref.y(),
                    inward.z() * ref.x() - inward.x() * ref.z(),
                    inward.x() * ref.y() - inward.y() * ref.x())
                 .normalized();
  Vector v(inward.y() * u.z() - inward.z() * u.y(),
           inward.z() * u.x() - inward.x() * u.z(),
           inward.x() * u.y() - inward.y() * u.x());

  // Ray origins sit on the face; nudge inside by a tiny offset so the
  // marcher starts in the boundary cell.
  const Vector faceCenter =
      g.cellCenter(cell) + Vector(face) * (g.dx * 0.5) -
      Vector(face) * (g.dx.minComponent() * 1e-9);

  const std::size_t n = static_cast<std::size_t>(nRays);
  std::vector<Vector> origins(n), dirs(n);
  std::vector<double> intensity(n);
  // Rays [b, e) of the fan, one chunk per worker: ray r draws from its
  // own Rng stream, so any split of the fan traces the same rays.
  const int chunks =
      pool != nullptr ? static_cast<int>(std::min<std::size_t>(pool->size(), n))
                      : 1;
  const auto traceChunk = [&](std::int64_t k) {
    const int b = static_cast<int>(k * nRays / chunks);
    const int e = static_cast<int>((k + 1) * nRays / chunks);
    for (int r = b; r < e; ++r) {
      Rng rng(m_cfg.seed ^ 0xF00DULL, cell, static_cast<std::uint32_t>(r));
      // Jitter the origin uniformly over the face — the cosine-weighted
      // directions sample the hemisphere, the jitter samples the face
      // area, matching the divQ estimator. The normal-axis coordinate
      // stays on the (nudged) face plane.
      Vector origin = faceCenter;
      if (m_cfg.jitterRayOrigin) {
        for (int i = 0; i < 3; ++i)
          if (face[i] == 0) origin[i] += (rng.nextDouble() - 0.5) * g.dx[i];
      }
      // Cosine-weighted hemisphere sample.
      const double r1 = rng.nextDouble(), r2 = rng.nextDouble();
      const double sinT = std::sqrt(r1);
      const double cosT = std::sqrt(1.0 - r1);
      const double phi = 2.0 * M_PI * r2;
      origins[static_cast<std::size_t>(r)] = origin;
      dirs[static_cast<std::size_t>(r)] = u * (sinT * std::cos(phi)) +
                                          v * (sinT * std::sin(phi)) +
                                          inward * cosT;
    }
    std::uint64_t segments = 0;
    // The gray-mean field: scale 1 whatever the band model.
    traceRays(e - b, &origins[static_cast<std::size_t>(b)],
              &dirs[static_cast<std::size_t>(b)], 1.0,
              &intensity[static_cast<std::size_t>(b)], segments);
    flushSegments(segments);
  };
  if (chunks > 1)
    pool->parallelFor(0, chunks, traceChunk);
  else
    traceChunk(0);
  // Reduce in ray order: the flux is bitwise the same for any chunking.
  double sum = 0.0;
  for (const double I : intensity) sum += I;
  return M_PI * sum / static_cast<double>(nRays);
}

}  // namespace rmcrt::core
