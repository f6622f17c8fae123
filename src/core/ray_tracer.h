#pragma once

/// \file ray_tracer.h
/// The RMCRT kernel: reverse Monte Carlo ray tracing of the radiative
/// transfer equation (paper Eq. 2) to compute the divergence of the heat
/// flux (divQ) for every cell. Rays are traced *backwards* from each cell
/// (the detector) through the participating medium, accumulating the
/// incoming intensity absorbed at the origin; then
///
///   divQ(c) = 4*pi*kappa(c) * ( sigmaT4/pi(c)  -  mean_r I_r )
///
/// which vanishes in radiative equilibrium; with a spectral band model
/// (TraceConfig::bands) divQ is the weighted sum of that term over the
/// bands, and the gray solver is the one-band case. Marching is an exact
/// 3-D DDA (amanatides-woo) through the structured mesh; the multi-level
/// configuration marches fine-mesh data inside a region of interest
/// (patch + halo) and the coarsened whole-domain data outside — the
/// paper's communication-avoiding AMR scheme (Section III-B/C).
///
/// The same kernel serves the CPU path and the simulated-GPU path
/// (field views over host or device storage; see field_view.h).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/field_view.h"
#include "core/packed_field.h"
#include "grid/level.h"
#include "util/rng.h"

namespace rmcrt {
class ThreadPool;
}

namespace rmcrt::core {

struct RaySoA;  // core/ray_setup.h

/// Geometric description of one mesh level, detached from grid::Level so
/// kernels can run against device-resident metadata.
struct LevelGeom {
  Vector physLow;
  Vector dx;
  CellRange cells;

  static LevelGeom from(const grid::Level& l) {
    return LevelGeom{l.physLow(), l.dx(), l.cells()};
  }

  Vector cellCenter(const IntVector& c) const {
    return physLow + (Vector(c - cells.low()) + Vector(0.5)) * dx;
  }
  Vector cellLowCorner(const IntVector& c) const {
    return physLow + Vector(c - cells.low()) * dx;
  }
  IntVector cellAt(const Vector& p) const {
    const Vector rel = (p - physLow) / dx;
    return IntVector(static_cast<int>(std::floor(rel.x())),
                     static_cast<int>(std::floor(rel.y())),
                     static_cast<int>(std::floor(rel.z()))) +
           cells.low();
  }
};

/// One band of a weighted-sum-of-gray-gases spectral model — the
/// paper's future work (Section III-A: "Adding spectral frequencies to
/// RMCRT would entail adding a loop over wave-lengths"). Band b carries a
/// weight a_b (its fraction of the Planck emissive power) and a scale s_b
/// on the gray-mean absorption coefficient, and
///
///   divQ(c) = sum_b  a_b * 4*pi*(s_b*kappa(c)) * ( sigmaT4/pi(c) - meanI_b )
///
/// where meanI_b is the mean incoming intensity marched with kappa scaled
/// by s_b against the unscaled source (intensity is linear in it).
struct SpectralBand {
  double weight = 1.0;      ///< fraction of blackbody emissive power, a_b
  double kappaScale = 1.0;  ///< s_b multiplying the gray-mean kappa field
};

/// A band set; weights should sum to ~1.
using BandModel = std::vector<SpectralBand>;

/// The single gray band {a=1, s=1}: the gray solver, bitwise (IEEE:
/// x*1.0 == x).
inline BandModel grayBand() { return {SpectralBand{1.0, 1.0}}; }

/// A 3-band toy combustion-gas model: one nearly transparent window, one
/// moderate band, one strongly absorbing band (CO2/H2O-like), chosen so
/// the Planck-weighted mean equals the gray kappa (sum a_b * s_b = 1).
inline BandModel threeband() {
  return {SpectralBand{0.45, 0.12},
          SpectralBand{0.35, 0.80},
          SpectralBand{0.20, 3.33}};
}

/// Planck-weighted mean absorption scale of a band model — equals the
/// effective gray kappa multiplier.
inline double planckMeanScale(const BandModel& bands) {
  double s = 0.0;
  for (const auto& b : bands) s += b.weight * b.kappaScale;
  return s;
}

/// Wall (domain boundary / intruding geometry) radiative properties.
struct WallProperties {
  double sigmaT4OverPi = 0.0;  ///< wall emissive source (0: cold walls)
  double emissivity = 1.0;     ///< black walls by default
};

/// Tracing parameters (paper Section V uses 100 rays per cell).
struct TraceConfig {
  int nDivQRays = 100;
  /// Terminate a ray once its transmissivity drops below this.
  double threshold = 1e-4;
  /// Domain seed; (seed, cell, ray) determines each ray exactly, so
  /// results are independent of patch decomposition and thread schedule.
  std::uint64_t seed = 0;
  /// Jitter ray origins uniformly within the cell (true, the Monte Carlo
  /// estimator) or emit from cell centers (deterministic debugging).
  /// boundaryFlux likewise jitters its origins over the face.
  bool jitterRayOrigin = true;
  /// Cells per tile (each axis) when computeDivQ fans out on a thread
  /// pool. Tiles are the unit of work stealing AND of segment-counter
  /// aggregation: one atomic add per tile, none in the march loop. The
  /// default keeps a tile's field data within L1/L2 reach.
  IntVector tileSize = IntVector(8, 8, 8);
  /// Run the packet pass (DESIGN.md §14) on vector registers — 8 rays
  /// per AVX-512 register, 4 per AVX2 one — where the host supports
  /// AVX2+FMA (the default); false, like hosts without AVX2 and
  /// RMCRT_NO_SIMD=1, runs the pass's width-1 instantiation, one ray at
  /// a time. Every divQ tile streams all of its (cell, ray) pairs
  /// through the pass, and rays leaving a level's `allowed` box continue
  /// on the next level in the same pass. All instantiations run the same
  /// IEEE operations per ray, so this only changes speed: results are
  /// bitwise identical either way, as they are across thread counts,
  /// tilings and hosts.
  bool useSimd = true;
  /// Rays per boundaryFlux / radiometer query. Historically these fans
  /// inherited nDivQRays; wall heat-flux QoIs usually want a different
  /// (often larger) count than the volumetric estimator, so they now
  /// have their own knob with the same positive-count ctor validation.
  /// boundaryFlux(nRays = 0) resolves to this value.
  int nFluxRays = 100;
  /// The spectral band model divQ loops over (SpectralBand). The default
  /// single gray band is the gray solver. Every band marches the same
  /// PackedCell records with its kappa scale applied in the march, so
  /// bands add no packing and no device upload. Band b draws its rays
  /// from seed + 0x5370656B*b (band 0 keeps `seed`). boundaryFlux,
  /// radiometers and traceRay/traceRays march the gray-mean field
  /// whatever the bands. Must be non-empty, with finite positive scales
  /// and finite weights (checked at construction).
  BandModel bands = grayBand();
  /// Variance-adaptive per-cell ray budgets (two-pass pilot/top-up
  /// estimator, DESIGN.md §17). Off (default): every cell fires exactly
  /// nDivQRays rays — the fixed fan, bitwise unchanged. On: each cell
  /// traces nPilotRays pilot rays (a prefix of the fixed fan's
  /// (seed, cell, ray) streams), sizes its budget from the streaming
  /// pilot variance, and tops up only where the relative standard error
  /// of divQ's (source - meanI) difference exceeds errorTarget. Budgets
  /// depend only on (seed, cell), never on threads or tiles.
  bool adaptiveRays = false;
  /// Pilot fan size when adaptiveRays is set: rays 0..nPilotRays-1 are
  /// always traced and double as the budget probe. Must be positive;
  /// clamped to the effective budget cap.
  int nPilotRays = 16;
  /// Relative standard-error target for the adaptive controller: a cell
  /// whose pilot-estimated stderr(meanI) exceeds errorTarget *
  /// |sigmaT4/pi - pilotMean| tops up to ceil((s / (target * |D|))^2)
  /// rays. Calibrated on the 41^3 Burns-Christon golden: 0.015 keeps
  /// the centerline within 1% relative L2 error of the fixed 64-ray fan
  /// while tracing ~1.7x fewer segments. Must be positive when
  /// adaptiveRays is set.
  double errorTarget = 0.015;
  /// Per-cell budget cap when adaptiveRays is set. 0 (default) means
  /// nDivQRays — pure truncation of the fixed fan, so a cell that tops
  /// up to the cap reproduces its fixed-fan value bitwise. Values above
  /// nDivQRays let high-variance cells exceed the fixed fan. Negative
  /// values are rejected at construction.
  int nMaxRays = 0;
};

/// Split \p cells into tiles of at most \p tileSize cells per axis
/// (components clamped to >= 1). Tiles are emitted in z-major order and
/// exactly partition the range.
std::vector<CellRange> tileCells(const CellRange& cells,
                                 const IntVector& tileSize);

/// Shrink \p tileSize — halving the largest axis first — until tiling
/// \p cells yields at least 4 tiles per worker (the granularity
/// ThreadPool::parallelFor's static chunking needs to keep every worker
/// fed), stopping at 2 cells per axis or 64 cells per tile so tiles stay
/// big enough to amortize the per-tile segment-counter flush. Sweeps
/// whose default 8^3 tiling produces fewer tiles than workers would
/// otherwise undersubscribe the pool. Results are unchanged by tiling
/// (each cell's rays are fixed by (seed, cell, ray)), so this only moves
/// work-unit boundaries.
IntVector adaptiveTileSize(const CellRange& cells, IntVector tileSize,
                           std::size_t workers);

/// One level of marching state handed to the tracer.
struct TraceLevel {
  TraceLevel() = default;
  TraceLevel(const LevelGeom& g, const RadiationFieldsView& f,
             const CellRange& a, const PackedFieldView& p = {})
      : geom(g), fields(f), allowed(a), packed(p) {}

  LevelGeom geom;
  RadiationFieldsView fields;
  /// Cells the ray may visit on this level; leaving this box hands the
  /// ray to the next (coarser) entry, or to the wall if none remains.
  /// Must lie within the property windows.
  CellRange allowed;
  /// Fused property records covering the same window as `fields` — what
  /// the march reads. Leave invalid to have packLevels fuse them from
  /// `fields`; supply one to share packing across Tracers — the adaptive
  /// pipeline's PackedLevelCache and the GPU level database.
  PackedFieldView packed;
};

/// Fuse PackedCell records for every level of \p levels that carries
/// none, appending their storage to \p owned (which must outlive the
/// views; moving the outer vector never moves the record buffers). Used
/// by the Tracer constructor, so every level a march sees carries
/// records.
/// \throws std::invalid_argument for a level with neither records nor
/// the abskg/sigmaT4OverPi views to pack them from.
void packLevels(std::vector<TraceLevel>& levels,
                std::vector<PackedLevelField>& owned);

/// The RMCRT tracer over a fine->coarse stack of levels. divQ loops over
/// TraceConfig::bands inside each tile; the gray solver is the one-band
/// case.
///
/// Single-level configuration: one TraceLevel whose `allowed` equals the
/// whole level. Multi-level: entry 0 is the fine level with `allowed` set
/// to the region of interest (patch + halo); the last entry is the
/// coarsest level spanning the whole domain.
class Tracer {
 public:
  /// Levels whose `packed` view is unset are fused into Tracer-owned
  /// PackedCell arrays here (packLevels; the owned storage lives as long
  /// as the Tracer).
  /// \throws std::invalid_argument when cfg.nDivQRays <= 0 (the divQ
  /// estimator divides by nDivQRays, so a non-positive count would
  /// silently fill divQ with NaN/inf), and when cfg.bands is empty (divQ
  /// would never be written) or holds a non-finite or non-positive
  /// kappaScale or a non-finite weight.
  Tracer(std::vector<TraceLevel> levels, const WallProperties& walls,
         const TraceConfig& cfg);

  const TraceConfig& config() const { return m_cfg; }

  /// True when this build carries the AVX-512 and AVX2 instantiations of
  /// the packet pass and the host CPU supports AVX2+FMA at runtime
  /// (CPUID). The environment variable RMCRT_NO_SIMD=1 forces false —
  /// the CI dispatch job uses it to run the width-1 instantiation on
  /// AVX2 hardware.
  static bool simdSupported();

  /// Name of the instruction set a useSimd tracer's packet pass uses on
  /// this host: "avx512" (AVX-512 F/DQ/VL/BW, 8 lanes per register),
  /// "avx2" (4 lanes per register), or "none" when simdSupported() is
  /// false (the width-1 instantiation). RMCRT_FORCE_AVX2=1 pins an
  /// AVX-512 host to the AVX2 instantiation (the CI dispatch matrix uses
  /// it); RMCRT_NO_SIMD=1 yields "none". Recorded in the benchmark JSON
  /// so speedups compare like for like.
  static const char* simdIsa();

  /// The trace levels this tracer marches (read-only).
  const std::vector<TraceLevel>& levels() const { return m_levels; }

  /// The domain walls rays take when they leave the last level.
  const WallProperties& walls() const { return m_walls; }

  /// Trace one ray from physical position \p origin in direction \p dir
  /// starting on level 0; returns the incoming intensity. A one-ray
  /// traceRays.
  double traceRay(Vector origin, Vector dir) const;

  /// Trace \p n independent rays (origins[i], dirs[i]) starting on level
  /// 0, writing each ray's incoming intensity to out[i], through the
  /// packet pass instantiation packetKernel picks (DESIGN.md §14). Every
  /// instantiation gives the same bits, and out[i] depends on ray i
  /// alone — not on \p n, the other rays, or the lane the ray lands in.
  void traceRays(int n, const Vector* origins, const Vector* dirs,
                 double* out) const;

  /// Mean incoming intensity over nDivQRays rays for \p cell (a cell of
  /// levels[0]) in band \p band of TraceConfig::bands — the rays and
  /// kappa scale that band's divQ uses.
  double meanIncomingIntensity(const IntVector& cell,
                               std::size_t band = 0) const;

  /// Compute divQ for every cell in \p cells (cells of levels[0]),
  /// summed over TraceConfig::bands.
  ///
  /// With a \p pool, the range is split into TraceConfig::tileSize tiles
  /// run via ThreadPool::parallelFor. Because the RNG stream of every
  /// (cell, ray) pair is fixed by (seed, cell, ray) alone and each cell is
  /// written by exactly one tile, the result is bitwise identical to the
  /// serial path for any thread count and tile shape. Segment counts
  /// accumulate in per-tile locals and flush with one atomic add per
  /// tile, so the march loop itself performs no atomic operations.
  void computeDivQ(const CellRange& cells, MutableFieldView<double> divQ,
                   ThreadPool* pool = nullptr) const;

  /// One cross-request batch work unit: a tile of cells traced by \p
  /// tracer with results scattered into the request-scoped \p sink (the
  /// originating query's output buffer, whose window must contain the
  /// tile). Jobs in one batch may reference *different* Tracers — the
  /// radiation service coalesces tiles from many concurrent queries,
  /// each with its own region of interest, into a single drain over the
  /// shared pool (DESIGN.md §16).
  struct DivQTileJob {
    const Tracer* tracer = nullptr;
    CellRange tile;
    MutableFieldView<double> sink;
  };

  /// Serial divQ over one tile — the batch work-unit entry point. The
  /// band loop runs inside the tile: band b's share a_b * q_b folds into
  /// the sink in place (band 0 assigns, later bands add, in band order).
  /// Every cell's rays are fixed by (seed, band, cell, ray), so any
  /// partition of a region into tile calls produces results bitwise
  /// identical to one computeDivQ over the whole region. Flushes the
  /// tile's segment count with a single atomic add, and each band's
  /// segment and time totals with one add each.
  void computeDivQTile(const CellRange& tile,
                       MutableFieldView<double> divQ) const;

  /// Drain a batch of tile jobs — potentially from many requests and many
  /// Tracers — across \p pool (serially in job order when null). Each
  /// job's cells land only in its own sink, so results are bitwise
  /// identical to running every job's tile through computeDivQTile
  /// serially, for any thread count.
  static void computeDivQBatch(const std::vector<DivQTileJob>& jobs,
                               ThreadPool* pool);

  /// Incident radiative flux [W/m^2] through the domain-boundary face of
  /// \p cell whose outward normal is \p face (unit axis vector): traces
  /// nRays over the inward hemisphere — the boiler wall heat-flux QoI.
  /// nRays == 0 (the default) resolves to TraceConfig::nFluxRays, the
  /// flux fan's own knob. Origins are jittered uniformly over the face
  /// when TraceConfig::jitterRayOrigin is set (matching the divQ
  /// estimator). The fan goes through traceRays; with a \p pool it is
  /// split into one chunk per worker. Per-ray intensities are reduced in
  /// ray order, so the flux is bitwise identical to the serial path.
  double boundaryFlux(const IntVector& cell, const IntVector& face,
                      int nRays = 0, ThreadPool* pool = nullptr) const;

  /// Total cell crossings marched so far (thread-safe, relaxed) — the
  /// work metric the performance model is calibrated against.
  std::uint64_t segmentCount() const {
    return m_segments.load(std::memory_order_relaxed);
  }
  /// Also restarts the per-band rate totals.
  void resetSegmentCount();

  /// Adaptive-sampling work statistics since construction / last reset
  /// (relaxed atomics; exact once trace calls have returned). When
  /// adaptiveRays is off, raysTraced tracks the fixed fan so the
  /// rays-per-cell gauges stay meaningful either way.
  std::uint64_t raysTraced() const {
    return m_raysTraced.load(std::memory_order_relaxed);
  }
  std::uint64_t cellsTraced() const {
    return m_cellsTraced.load(std::memory_order_relaxed);
  }
  /// Largest per-cell ray budget granted by the adaptive controller
  /// (== nDivQRays when adaptivity is off).
  std::uint64_t maxRayBudget() const {
    return m_maxBudget.load(std::memory_order_relaxed);
  }
  void resetRayStats() {
    m_raysTraced.store(0, std::memory_order_relaxed);
    m_cellsTraced.store(0, std::memory_order_relaxed);
    m_maxBudget.store(0, std::memory_order_relaxed);
  }

 private:
  /// The single flush point for per-tile / per-call segment counts: adds
  /// \p n to both the tracer's own counter and the global metrics
  /// counter, so the two can never drift.
  void flushSegments(std::uint64_t n) const;

  /// The packet march (ray_tracer_simd.cc, DESIGN.md §14) with a band's
  /// kappa scale and a caller-owned segment counter: one packet pass per
  /// level, of the instantiation packetKernel(useSimd) picks. Level 0's
  /// pass marches the given rays; each ray that leaves a level's
  /// `allowed` box inside the domain goes into a handoff buffer with its
  /// position, direction, intensity and transmissivity, and the next
  /// level's pass marches that buffer from the carried state. Every
  /// array of \p rays holds kRaySlack entries past the last ray.
  void traceRays(int n, const RaySoA& rays, double kappaScale, double* out,
                 std::uint64_t& segments) const;

  /// One band's march: the seed its rays draw from and its kappa scale.
  struct BandTrace {
    std::uint64_t seed;
    double kappaScale;
  };
  /// Band \p b of TraceConfig::bands: seed cfg.seed + 0x5370656B*b, so
  /// bands do not share sample paths and band 0 keeps cfg.seed.
  BandTrace bandTrace(std::size_t b) const;

  /// Rays per stream: traceTileRays generates a tile's (cell, ray) pairs
  /// (PacketKernel::generateRays in core/ray_setup.h) into per-thread
  /// scratch of this many rays and traces each full stream with one
  /// traceRays call, and traceRays marches longer calls this many rays
  /// at a time. Bounds the per-thread scratch (64 bytes a ray, plus up
  /// to 144 for the two level handoff buffers) whatever the tile or
  /// patch size; results do not depend on it.
  static constexpr int kStreamRays = 1024;

  /// The tile ray stream behind every divQ entry point. For the i-th
  /// cell c of \p tile (z-major order), rays(i) gives the ray range
  /// [first, second) of \p band to trace. The rays are generated into
  /// bounded per-thread scratch and traced kStreamRays at a time through
  /// one traceRays call, so packet lanes refill across cell boundaries;
  /// consume(i, intensity) then sees every ray in (cell, ray) order,
  /// whatever the stream size.
  template <class RayRange, class Consume>
  void traceTileRays(const CellRange& tile, const BandTrace& band,
                     RayRange rays, Consume consume,
                     std::uint64_t& segments) const;

  /// Deterministic per-cell ray budget from the pilot statistics alone —
  /// a pure function of (seed, cell), never of threads or tiles:
  /// clamp(ceil((s / (errorTarget * |sigmaT4OverPi - pilotMean|))^2),
  ///       nPilotRays, effective cap). Zero pilot variance keeps the
  /// pilot fan; a vanishing denominator saturates at the cap.
  int adaptiveBudget(double pilotMean, double pilotStddev,
                     double sigmaT4OverPi) const;

  /// Band \p b of a tile with the fixed nDivQRays fan, folded into \p
  /// divQ; returns the crossings marched.
  std::uint64_t computeDivQTileFixed(const CellRange& tile, std::size_t b,
                                     MutableFieldView<double> divQ) const;

  /// Band \p b of a tile with the two-pass adaptive budget: pilot fan +
  /// variance-sized top-up per cell, both passes consuming the same
  /// (seed, cell, ray) streams as the fixed fan (pilot = rays
  /// 0..nPilot-1; the top-up continues the prefix) and summed in ray
  /// order, so a cell whose budget reaches nDivQRays reproduces its
  /// fixed-fan divQ bitwise. Folded into \p divQ like the fixed fan;
  /// returns the crossings marched.
  std::uint64_t computeDivQTileAdaptive(const CellRange& tile,
                                        std::size_t b,
                                        MutableFieldView<double> divQ) const;

  /// Publish tracer.rays_per_cell_{mean,max} from the ray statistics and
  /// tracer.band<k>.mseg_per_s from the per-band totals — called at the
  /// end of computeDivQ / computeDivQBatch (not per tile, so concurrent
  /// tiles never race on the gauges).
  void publishRayGauges() const;

  std::vector<TraceLevel> m_levels;
  WallProperties m_walls;
  TraceConfig m_cfg;
  /// Storage behind the packed views the constructor built itself. Moves
  /// of the outer vector never touch the record buffers, so the views in
  /// m_levels stay valid for the Tracer's lifetime.
  std::vector<PackedLevelField> m_ownedPacked;
  mutable std::atomic<std::uint64_t> m_segments{0};
  /// Ray-budget accounting behind the rays-per-cell gauges: rays
  /// actually traced by divQ sweeps, cells processed, and the largest
  /// per-cell budget granted. Bumped once per tile (relaxed), like
  /// m_segments.
  mutable std::atomic<std::uint64_t> m_raysTraced{0};
  mutable std::atomic<std::uint64_t> m_cellsTraced{0};
  mutable std::atomic<std::uint64_t> m_maxBudget{0};
  /// Per-band crossings and thread-time behind the band<k>.mseg_per_s
  /// gauges, bumped once per band per tile.
  struct BandCounters {
    std::atomic<std::uint64_t> segments{0};
    std::atomic<std::uint64_t> nanoseconds{0};
  };
  mutable std::vector<BandCounters> m_bandStats;
};

/// Sample an isotropic direction on the unit sphere.
inline Vector isotropicDirection(Rng& rng) {
  const double cosTheta = 2.0 * rng.nextDouble() - 1.0;
  const double sinTheta = std::sqrt(std::max(0.0, 1.0 - cosTheta * cosTheta));
  const double phi = 2.0 * M_PI * rng.nextDouble();
  return Vector(sinTheta * std::cos(phi), sinTheta * std::sin(phi),
                cosTheta);
}

}  // namespace rmcrt::core
