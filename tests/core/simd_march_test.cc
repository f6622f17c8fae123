/// Equivalence harness for the packet march (ray_tracer_simd.cc,
/// DESIGN.md §14).
///
/// Its three instantiations (AVX-512, AVX2, width 1) run the same IEEE
/// operations per ray, so they agree bitwise (RayStreams.*). Against the
/// independent per-ray reference march (reference_march.h) the DDA
/// arithmetic is the same too (bitwise-identical rays, lane setups, cell
/// sequences and segment lengths); the only divergence is the pass's
/// polynomial exp (≤ ~2 ulp per segment) against libm's, which
/// accumulates multiplicatively through the transmissivity. Per-ray
/// intensities therefore agree with the reference within a small ULP
/// budget, not bitwise; these tests pin that budget (kUlpTolerance)
/// across wall hits, extinction retirement, coarse-level handoff,
/// degenerate directions, and partial packets.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/problems.h"
#include "core/ray_setup.h"
#include "core/ray_tracer.h"
#include "core/rmcrt_component.h"
#include "gpu/gpu_data_warehouse.h"
#include "gpu/gpu_device.h"
#include "grid/grid.h"
#include "grid/load_balancer.h"
#include "grid/operators.h"
#include "runtime/scheduler.h"
#include "util/thread_pool.h"

#include "reference_march.h"

namespace rmcrt::core {
namespace {

using grid::CCVariable;
using grid::CellType;
using grid::Grid;

/// ULP budget for per-ray intensity agreement. Each marched segment
/// contributes ≤ ~2 ulp of exp divergence into the running
/// transmissivity product; with the extinction threshold at 1e-4 a ray
/// marches at most a few hundred segments, so a 4096-ulp budget carries
/// ~10x headroom while still catching any real marching divergence
/// (a wrong cell path or segment length shows up as ~1e6+ ulp).
constexpr std::uint64_t kUlpTolerance = 4096;

/// Distance in units-in-the-last-place between two doubles, via the
/// standard monotone reinterpretation of the IEEE bit pattern. a == b
/// (including +0 vs -0) is 0; any NaN is "infinitely" far.
std::uint64_t ulpDistance(double a, double b) {
  if (a == b) return 0;
  if (std::isnan(a) || std::isnan(b))
    return std::numeric_limits<std::uint64_t>::max();
  auto ordered = [](double x) {
    std::int64_t i;
    std::memcpy(&i, &x, sizeof(i));
    if (i < 0) i = std::numeric_limits<std::int64_t>::min() - i;
    return i;
  };
  const std::int64_t ia = ordered(a), ib = ordered(b);
  const std::uint64_t d = static_cast<std::uint64_t>(ia) -
                          static_cast<std::uint64_t>(ib);
  return d > 0x8000000000000000ULL ? ~d + 1 : d;
}

TEST(UlpDistanceSelfCheck, BehavesLikeUlps) {
  EXPECT_EQ(ulpDistance(1.0, 1.0), 0u);
  EXPECT_EQ(ulpDistance(0.0, -0.0), 0u);
  EXPECT_EQ(ulpDistance(1.0, std::nextafter(1.0, 2.0)), 1u);
  EXPECT_EQ(ulpDistance(1.0, std::nextafter(std::nextafter(1.0, 0.0), 0.0)),
            2u);
  EXPECT_GT(ulpDistance(1.0, 1.0 + 1e-9), 1000000u);
}

/// Owns the fields and grid behind a single-level tracer configuration.
struct SingleLevelSetup {
  std::shared_ptr<Grid> grid;
  CCVariable<double> abskg;
  CCVariable<double> sig;
  CCVariable<CellType> ct;
  WallProperties walls;

  SingleLevelSetup(const RadiationProblem& prob, const IntVector& n)
      : grid(Grid::makeSingleLevel(Vector(0.0), Vector(1.0), n, n)),
        abskg(grid->fineLevel().cells(), 0.0),
        sig(grid->fineLevel().cells(), 0.0),
        ct(grid->fineLevel().cells(), CellType::Flow),
        walls{prob.wallSigmaT4OverPi, prob.wallEmissivity} {
    initializeProperties(grid->fineLevel(), prob, abskg, sig, ct);
  }

  Tracer makeTracer(bool simd, TraceConfig cfg = TraceConfig{}) const {
    cfg.useSimd = simd;
    TraceLevel tl{LevelGeom::from(grid->fineLevel()),
                  RadiationFieldsView{FieldView<double>::fromHost(abskg),
                                      FieldView<double>::fromHost(sig),
                                      FieldView<CellType>::fromHost(ct)},
                  grid->fineLevel().cells()};
    return Tracer({tl}, walls, cfg);
  }
};

/// Deterministic ray bundle spanning the direction sphere plus the
/// degenerate cases: axis-aligned (two exactly-zero components, both
/// signs of zero), axis-plane diagonals, the corner diagonal,
/// near-axis directions, and the zero vector (every face at infinity,
/// so its one segment is infinitely long and the exp reduction runs on
/// -inf). Sized to leave a partial final packet.
void makeRayBundle(int n, std::vector<Vector>& origins,
                   std::vector<Vector>& dirs) {
  origins.clear();
  dirs.clear();
  const Vector special[] = {
      Vector(1.0, 0.0, 0.0),   Vector(-1.0, 0.0, 0.0),
      Vector(0.0, 1.0, -0.0),  Vector(0.0, -1.0, 0.0),
      Vector(-0.0, 0.0, 1.0),  Vector(0.0, -0.0, -1.0),
      Vector(std::sqrt(0.5), std::sqrt(0.5), 0.0),
      Vector(-std::sqrt(0.5), 0.0, std::sqrt(0.5)),
      Vector(1.0, 1.0, 1.0) / std::sqrt(3.0),
      Vector(-1.0, -1.0, -1.0) / std::sqrt(3.0),
      Vector(1.0, 1e-14, -1e-14).normalized(),
      Vector(0.0, 0.0, 0.0),
  };
  for (int i = 0; i < n; ++i) {
    Rng rng(/*seed=*/1234, IntVector(i, 2 * i, 3 * i),
            static_cast<std::uint32_t>(i));
    origins.push_back(Vector(0.05, 0.05, 0.05) +
                      Vector(rng.nextDouble(), rng.nextDouble(),
                             rng.nextDouble()) *
                          0.9);
    if (i < static_cast<int>(std::size(special)))
      dirs.push_back(special[static_cast<std::size_t>(i)]);
    else
      dirs.push_back(isotropicDirection(rng));
  }
}

/// \p t's traceRays against the reference march over the same tracer.
void expectBundleParity(const Tracer& t, int n) {
  std::vector<Vector> origins, dirs;
  makeRayBundle(n, origins, dirs);
  std::vector<double> iPacket(static_cast<std::size_t>(n), -1.0);
  std::vector<double> iRef(static_cast<std::size_t>(n), -1.0);
  t.traceRays(n, origins.data(), dirs.data(), iPacket.data());
  ReferenceMarch(t).traceRays(n, origins.data(), dirs.data(), iRef.data());
  for (int i = 0; i < n; ++i) {
    const std::size_t s = static_cast<std::size_t>(i);
    EXPECT_LE(ulpDistance(iPacket[s], iRef[s]), kUlpTolerance)
        << "ray " << i << " dir " << dirs[s] << ": packet " << iPacket[s]
        << " vs reference " << iRef[s];
  }
}

/// Sets (or, with nullptr, clears) an environment variable for one
/// scope and restores the previous value after, so a CI job that runs
/// this binary with RMCRT_FORCE_AVX2 or RMCRT_NO_SIMD set keeps it for
/// the tests that follow.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : m_name(name) {
    const char* old = std::getenv(name);
    m_had = old != nullptr;
    if (m_had) m_old = old;
    if (value != nullptr)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~ScopedEnv() {
    if (m_had)
      ::setenv(m_name, m_old.c_str(), 1);
    else
      ::unsetenv(m_name);
  }

 private:
  const char* m_name;
  bool m_had = false;
  std::string m_old;
};

/// Runs \p body(useSimd) once per packet kernel: the native dispatch,
/// the AVX2 kernel pinned with RMCRT_FORCE_AVX2 (read on every call),
/// then the width-1 kernel (useSimd false). On an AVX2-only host the
/// first two runs take the AVX2 kernel; without AVX2 (or with
/// RMCRT_NO_SIMD set) all three take the width-1 kernel.
template <class Body>
void forEachPacketKernel(Body body) {
  {
    SCOPED_TRACE("native kernel");
    ScopedEnv native("RMCRT_FORCE_AVX2", nullptr);
    body(true);
  }
  {
    SCOPED_TRACE("AVX2 kernel");
    ScopedEnv avx2("RMCRT_FORCE_AVX2", "1");
    body(true);
  }
  {
    SCOPED_TRACE("width-1 kernel");
    body(false);
  }
}

/// A refined stack over the unit cube: level 0 is the finest (16^3),
/// each later level coarsens the one before by \p ratios. Every level
/// but the last marches only its `allowed` box (a centered region of
/// interest), so rays hand off level by level.
struct LevelStack {
  std::vector<CCVariable<double>> abskg, sig;
  std::vector<CCVariable<CellType>> ct;
  std::vector<LevelGeom> geoms;
  std::vector<CellRange> allowed;
  WallProperties walls;

  LevelStack(const RadiationProblem& prob, const std::vector<int>& ratios,
             const std::vector<CellRange>& rois)
      : walls{prob.wallSigmaT4OverPi, prob.wallEmissivity} {
    auto grid = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                      IntVector(16));
    const grid::Level& fine = grid->fineLevel();
    abskg.emplace_back(fine.cells(), 0.0);
    sig.emplace_back(fine.cells(), 0.0);
    ct.emplace_back(fine.cells(), CellType::Flow);
    initializeProperties(fine, prob, abskg[0], sig[0], ct[0]);
    geoms.push_back(LevelGeom::from(fine));
    for (const int r : ratios) {
      const LevelGeom& finer = geoms.back();
      const IntVector rr(r);
      const CellRange cells(IntVector(0), finer.cells.high() / rr);
      const std::size_t k = geoms.size();
      abskg.emplace_back(cells, 0.0);
      sig.emplace_back(cells, 0.0);
      ct.emplace_back(cells, CellType::Flow);
      grid::coarsenAverage(abskg[k - 1], rr, abskg[k], cells);
      grid::coarsenAverage(sig[k - 1], rr, sig[k], cells);
      grid::coarsenCellType(ct[k - 1], rr, ct[k], cells);
      geoms.push_back(LevelGeom{finer.physLow, finer.dx * Vector(r), cells});
    }
    allowed = rois;
    allowed.push_back(geoms.back().cells);
  }

  Tracer makeTracer(bool simd, TraceConfig cfg = TraceConfig{}) const {
    cfg.useSimd = simd;
    std::vector<TraceLevel> levels;
    for (std::size_t k = 0; k < geoms.size(); ++k)
      levels.emplace_back(
          geoms[k],
          RadiationFieldsView{FieldView<double>::fromHost(abskg[k]),
                              FieldView<double>::fromHost(sig[k]),
                              FieldView<CellType>::fromHost(ct[k])},
          allowed[k]);
    return Tracer(std::move(levels), walls, cfg);
  }
};

/// The two-level fixture: 16^3 fine with a small centered ROI (most rays
/// hand off), 4^3 coarse. The ROI faces lie on coarse faces, as the
/// pipeline's patch + halo boxes do when patch and halo are multiples of
/// the refinement ratio, so handed-off rays start exactly on a coarse
/// face.
LevelStack twoLevelStack(const RadiationProblem& prob = burnsChriston()) {
  return LevelStack(prob, {4}, {CellRange(IntVector(4), IntVector(12))});
}

TEST(SimdMarch, DispatchMatchesRuntimeSupport) {
  // useSimd = false always takes the width-1 instantiation; useSimd =
  // true takes a vector one exactly when the host supports it.
  const bool width1 = &packetKernel(true) == &packetKernel(false);
  EXPECT_EQ(width1, !Tracer::simdSupported());
  EXPECT_EQ(std::string(Tracer::simdIsa()) == "none",
            !Tracer::simdSupported());
}

TEST(SimdMarch, BurnsChristonBundleWithinUlpTolerance) {
  // The benchmark medium: no interior walls, absorbing enough that rays
  // both extinguish (lane retirement mid-packet) and reach the walls.
  SingleLevelSetup setup(burnsChriston(), IntVector(16));
  // Partial final packet (203 % 8 != 0).
  expectBundleParity(setup.makeTracer(true), 203);
}

TEST(SimdMarch, PartialPacketsAllSizes) {
  // Every bundle size below and around one packet: lane refill and
  // dead-lane masking must be right for n = 1..19 (not just multiples
  // of 8), and each ray's result must be independent of bundle size.
  SingleLevelSetup setup(burnsChriston(), IntVector(8));
  const Tracer simd = setup.makeTracer(true);
  for (int n = 1; n <= 19; ++n) {
    SCOPED_TRACE("bundle size " + std::to_string(n));
    expectBundleParity(simd, n);
  }
}

TEST(SimdMarch, WallHeavyMediumRetiresLanesOnWalls) {
  // Near-transparent medium with hot walls: almost every ray retires on
  // a domain wall rather than by extinction.
  SingleLevelSetup setup(uniformMedium(0.05, 1.0), IntVector(16));
  TraceConfig cfg;
  cfg.threshold = 1e-10;
  expectBundleParity(setup.makeTracer(true, cfg), 100);
}

TEST(SimdMarch, InteriorWallCellsRetireLanes) {
  // A wall slab inside the domain exercises the packet march's cellType
  // gather and the wall-lane retirement mask (m_level0HasWalls is true).
  SingleLevelSetup setup(uniformMedium(0.5, 1.0), IntVector(16));
  for (const auto& c : setup.ct.window())
    if (c.x() == 11) setup.ct[c] = CellType::Wall;
  TraceConfig cfg;
  cfg.threshold = 1e-10;
  const Tracer simd = setup.makeTracer(true, cfg);
  expectBundleParity(simd, 100);
  // The slab must actually absorb: a +x ray from its doorstep sees the
  // wall emission immediately (identical in both marches up to ulps).
  const Vector o(10.5 / 16.0, 0.53, 0.51), d(1.0, 0.0, 0.0);
  double is = -1.0;
  simd.traceRays(1, &o, &d, &is);
  EXPECT_LE(ulpDistance(is, ReferenceMarch(simd).traceRay(o, d)),
            kUlpTolerance);
  EXPECT_GT(is, 0.0);
}

TEST(SimdMarch, HighExtinctionRetiresLanesEarly) {
  // Optically thick medium: every lane retires by the transmissivity
  // threshold within a few segments, churning the refill queue hard.
  SingleLevelSetup setup(uniformMedium(60.0, 1.0), IntVector(16));
  expectBundleParity(setup.makeTracer(true), 64);
}

TEST(SimdMarch, MeanIntensityAndDivQParity) {
  // The production entry points: meanIncomingIntensity (packet bundle
  // per cell, identical RNG consumption) and computeDivQ.
  SingleLevelSetup setup(burnsChriston(), IntVector(16));
  TraceConfig cfg;
  cfg.nDivQRays = 48;
  cfg.seed = 11;
  const Tracer simd = setup.makeTracer(true, cfg);
  ReferenceMarch ref(simd);
  for (const IntVector& c :
       {IntVector(0, 0, 0), IntVector(8, 8, 8), IntVector(15, 3, 9)}) {
    const double a = simd.meanIncomingIntensity(c);
    const double b = ref.meanIncomingIntensity(c);
    EXPECT_LE(ulpDistance(a, b), kUlpTolerance) << "cell " << c;
  }
  CCVariable<double> dqSimd(setup.grid->fineLevel().cells(), 0.0);
  const CellRange probe(IntVector(4, 4, 4), IntVector(8, 8, 8));
  simd.computeDivQ(probe, MutableFieldView<double>::fromHost(dqSimd));
  for (const auto& c : probe) {
    // divQ differences pick up cancellation in (sigmaT4/pi - meanI), so
    // bound relative-to-magnitude rather than raw ulps.
    const double want = ref.divQ(c);
    const double scale =
        std::max({std::abs(dqSimd[c]), std::abs(want), 1e-12});
    EXPECT_LE(std::abs(dqSimd[c] - want) / scale, 1e-10) << "cell " << c;
  }
}

TEST(SimdMarch, SegmentCountsAgreeWithScalar) {
  // Ray geometry is bitwise identical to the reference march's, so
  // segment counts can differ only where the exp divergence flips a
  // ray's extinction test on the exact threshold-straddling segment.
  // Allow one segment of slack per ray; with walls and moderate
  // absorption that slack is almost never consumed.
  SingleLevelSetup setup(burnsChriston(), IntVector(16));
  Tracer simd = setup.makeTracer(true);
  ReferenceMarch ref(simd);
  std::vector<Vector> origins, dirs;
  const int n = 128;
  makeRayBundle(n, origins, dirs);
  std::vector<double> out(static_cast<std::size_t>(n));
  simd.traceRays(n, origins.data(), dirs.data(), out.data());
  ref.traceRays(n, origins.data(), dirs.data(), out.data());
  const auto a = static_cast<std::int64_t>(simd.segmentCount());
  const auto b = static_cast<std::int64_t>(ref.segmentCount());
  EXPECT_LE(std::abs(a - b), n);
  EXPECT_GT(a, 0);

  // Two levels with ROI exits: the handoff position and the coarse DDA
  // are the reference march's, operation for operation, so the counts
  // must agree exactly on every kernel. (A handoff position rounded by
  // an FMA lands next to the coarse face instead of on it, and the ray
  // counts a sliver of a crossing the reference skips as zero-length.)
  const LevelStack stack = twoLevelStack();
  forEachPacketKernel([&](bool useSimd) {
    Tracer simd2 = stack.makeTracer(useSimd);
    ReferenceMarch ref2(simd2);
    std::vector<Vector> o2, d2;
    const int n2 = 2000;
    makeRayBundle(n2, o2, d2);
    for (Vector& o : o2)  // start inside the ROI so the rays exit it
      o = Vector(0.25) + (o - Vector(0.05)) * (0.5 / 0.9);
    std::vector<double> out2(static_cast<std::size_t>(n2));
    simd2.traceRays(n2, o2.data(), d2.data(), out2.data());
    ref2.traceRays(n2, o2.data(), d2.data(), out2.data());
    EXPECT_EQ(simd2.segmentCount(), ref2.segmentCount());
  });
}

TEST(SimdMarch, TwoLevelHandoffParity) {
  // Fine ROI + coarse continuation: rays leaving the fine allowed box go
  // into the handoff buffer and finish in the coarse level's packet pass
  // — intensities must still match the reference march within the ULP
  // budget, and the marching work must match exactly. The three-level
  // stack hands rays off twice (fine ROI -> mid-level ROI -> coarse). The
  // corner ROI shares the domain's high faces, so rays also leave the
  // domain straight from the fine level and take the (hot) wall term
  // there.
  const LevelStack two = twoLevelStack();
  const LevelStack three(burnsChriston(), {2, 2},
                         {CellRange(IntVector(4), IntVector(12)),
                          CellRange(IntVector(1), IntVector(7))});
  RadiationProblem hotWalls = burnsChriston();
  hotWalls.wallSigmaT4OverPi = 0.3;
  hotWalls.wallEmissivity = 0.9;
  const LevelStack corner(hotWalls, {4},
                          {CellRange(IntVector(8), IntVector(16))});
  for (const LevelStack* stack : {&two, &three, &corner}) {
    SCOPED_TRACE(std::to_string(stack->geoms.size()) + " levels");
    TraceConfig cfg;
    cfg.nDivQRays = 32;
    cfg.seed = 5;
    const Tracer simd = stack->makeTracer(true, cfg);
    ReferenceMarch ref(simd);
    for (const IntVector& c :
         {IntVector(8, 8, 8), IntVector(6, 9, 10), IntVector(10, 5, 7),
          IntVector(14, 15, 13)}) {
      const double a = simd.meanIncomingIntensity(c);
      const double b = ref.meanIncomingIntensity(c);
      EXPECT_LE(ulpDistance(a, b), kUlpTolerance) << "cell " << c;
    }
    EXPECT_EQ(simd.segmentCount(), ref.segmentCount());
  }
}

// ---------------------------------------------------------------------
// Ray-stream invariance (DESIGN.md §14): a ray's result depends on the
// ray alone — not on the stream, packet or lane it lands in, the tile it
// belongs to, the thread that traces it, or the packet kernel — so
// divQ is bitwise identical across all of those. The fixture puts wall
// cells on both levels, so wall retirement and the coarse handoff both
// run inside the packet passes.

/// Burns-Christon with a wall block at [0.25, 0.5)^3 (fine cells 4..7,
/// the coarse cell 1 at ratio 4) and hot, grey domain walls.
RadiationProblem walledProblem() {
  RadiationProblem p = burnsChriston();
  p.isWall = [](const Vector& x) {
    return x.x() >= 0.25 && x.x() < 0.5 && x.y() >= 0.25 && x.y() < 0.5 &&
           x.z() >= 0.25 && x.z() < 0.5;
  };
  p.wallSigmaT4OverPi = 0.3;
  p.wallEmissivity = 0.9;
  return p;
}

bool sameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expectSameDivQ(const CCVariable<double>& a, const CCVariable<double>& b) {
  for (const IntVector& c : a.window())
    ASSERT_TRUE(sameBits(a[c], b[c]))
        << "cell " << c << ": " << a[c] << " vs " << b[c];
}

/// The 8^3 patch at the origin with 3 cells of halo as its ROI: the wall
/// block sits inside the ROI, and most rays still leave it for the
/// coarse level.
LevelStack walledTwoLevelStack() {
  return LevelStack(walledProblem(), {4},
                    {CellRange(IntVector(0), IntVector(11))});
}

TEST(RayStreams, DivQBitwiseAcrossStreamsTilesAndThreads) {
  const LevelStack stack = walledTwoLevelStack();
  const CellRange patch(IntVector(0), IntVector(8));
  TraceConfig base;
  base.nDivQRays = 12;
  base.seed = 7;
  ThreadPool pool2(2), pool4(4);

  for (const bool adaptive : {false, true}) {
    SCOPED_TRACE(adaptive ? "adaptive budgets" : "fixed fan");
    TraceConfig cfg = base;
    cfg.adaptiveRays = adaptive;
    cfg.nPilotRays = 4;
    cfg.errorTarget = 0.05;
    const Tracer ref = stack.makeTracer(true, cfg);
    ASSERT_TRUE(ref.levels()[0].packed.hasWalls());
    ASSERT_TRUE(ref.levels()[1].packed.hasWalls());
    CCVariable<double> want(patch, 0.0);
    ref.computeDivQ(patch, MutableFieldView<double>::fromHost(want));

    // Tiles set the streams: an 8^3 tile is 6144 rays, six streams with
    // cells straddling stream ends; a 3x2x5 tile is one 360-ray stream;
    // a one-cell tile is one 12-ray stream, the old per-cell bundle.
    // Thread pools shrink the tiles further (adaptiveTileSize).
    for (const IntVector& tile :
         {IntVector(8), IntVector(3, 2, 5), IntVector(1)}) {
      for (ThreadPool* pool :
           {static_cast<ThreadPool*>(nullptr), &pool2, &pool4}) {
        SCOPED_TRACE("tile x " + std::to_string(tile.x()) + " threads " +
                     std::to_string(pool != nullptr ? pool->size() : 1));
        TraceConfig c = cfg;
        c.tileSize = tile;
        const Tracer t = stack.makeTracer(true, c);
        CCVariable<double> got(patch, 0.0);
        t.computeDivQ(patch, MutableFieldView<double>::fromHost(got), pool);
        expectSameDivQ(got, want);
      }
    }
  }

  // A traceRays call longer than a stream marches a stream at a time;
  // each ray's result equals tracing it alone.
  const Tracer single = stack.makeTracer(true, base);
  std::vector<Vector> origins, dirs;
  makeRayBundle(2500, origins, dirs);
  std::vector<double> whole(origins.size());
  single.traceRays(2500, origins.data(), dirs.data(), whole.data());
  for (std::size_t k = 0; k < whole.size(); ++k) {
    double alone = 0.0;
    single.traceRays(1, &origins[k], &dirs[k], &alone);
    EXPECT_TRUE(sameBits(alone, whole[k])) << "ray " << k;
  }

  // meanIncomingIntensity traces one cell as its own stream; the divQ
  // formula over it reproduces the tile-stream value bitwise.
  const Tracer t = stack.makeTracer(true, base);
  CCVariable<double> divQ(patch, 0.0);
  t.computeDivQ(patch, MutableFieldView<double>::fromHost(divQ));
  for (const IntVector& c :
       {IntVector(0, 0, 0), IntVector(3, 3, 3), IntVector(7, 2, 5)}) {
    const PackedCell& rec = t.levels()[0].packed[c];
    const double meanI = t.meanIncomingIntensity(c);
    EXPECT_TRUE(sameBits(
        divQ[c], 4.0 * M_PI * rec.abskg * (rec.sigmaT4OverPi - meanI)))
        << "cell " << c;
  }
}

TEST(RayStreams, PacketKernelsAgreeBitwise) {
  // The AVX-512 (8-lane), AVX2 (4-lane) and width-1 instantiations of the
  // packet pass perform the same IEEE operations per ray, with FP
  // contraction off, so their results are bitwise equal — on every level
  // and through the handoff.
  const LevelStack stack = walledTwoLevelStack();
  const CellRange patch(IntVector(0), IntVector(8));
  TraceConfig cfg;
  cfg.nDivQRays = 12;
  cfg.seed = 9;
  std::vector<Vector> origins, dirs;
  makeRayBundle(203, origins, dirs);
  std::vector<CCVariable<double>> divQ;
  std::vector<std::vector<double>> bundles;
  std::vector<std::uint64_t> segments;
  forEachPacketKernel([&](bool useSimd) {
    const Tracer t = stack.makeTracer(useSimd, cfg);
    divQ.emplace_back(patch, 0.0);
    t.computeDivQ(patch, MutableFieldView<double>::fromHost(divQ.back()));
    bundles.emplace_back(origins.size());
    t.traceRays(static_cast<int>(origins.size()), origins.data(),
                dirs.data(), bundles.back().data());
    segments.push_back(t.segmentCount());
  });
  ASSERT_EQ(divQ.size(), 3u);
  for (std::size_t k = 1; k < divQ.size(); ++k) {
    SCOPED_TRACE("kernel " + std::to_string(k) + " vs native");
    expectSameDivQ(divQ[k], divQ[0]);
    for (std::size_t i = 0; i < origins.size(); ++i)
      EXPECT_TRUE(sameBits(bundles[k][i], bundles[0][i])) << "ray " << i;
    EXPECT_EQ(segments[k], segments[0]);
  }
}

TEST(RayStreams, GpuPipelineMatchesSerialBitwiseWithWalls) {
  // The simulated-GPU kernel traces each 8^3 patch as one serial stream
  // over device-resident records; the serial solver tiles the same
  // patches on the host. Same rays, same arithmetic: bitwise equal.
  auto grid = Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                 IntVector(4), IntVector(8), IntVector(4));
  RmcrtSetup setup;
  setup.problem = walledProblem();
  setup.trace.nDivQRays = 12;
  setup.trace.seed = 21;
  setup.roiHalo = 3;
  const int numRanks = 2;
  auto lb = std::make_shared<grid::LoadBalancer>(*grid, numRanks);
  comm::Communicator world(numRanks);
  std::vector<std::unique_ptr<gpu::GpuDevice>> devices;
  std::vector<std::unique_ptr<gpu::GpuDataWarehouse>> gdws;
  std::vector<std::unique_ptr<runtime::Scheduler>> scheds;
  for (int r = 0; r < numRanks; ++r) {
    gpu::GpuDevice::Config dc;
    dc.globalMemoryBytes = 256 << 20;
    devices.push_back(std::make_unique<gpu::GpuDevice>(dc));
    gdws.push_back(std::make_unique<gpu::GpuDataWarehouse>(*devices.back()));
    scheds.push_back(
        std::make_unique<runtime::Scheduler>(grid, lb, world, r));
  }
  std::vector<std::thread> threads;
  for (int r = 0; r < numRanks; ++r)
    threads.emplace_back([&, r] {
      RmcrtComponent::registerTwoLevelGpuPipeline(*scheds[r], setup,
                                                  *gdws[r]);
      scheds[r]->executeTimestep();
    });
  for (std::thread& t : threads) t.join();

  const CCVariable<double> serial =
      RmcrtComponent::solveSerialTwoLevel(*grid, setup);
  const int fine = grid->numLevels() - 1;
  int patches = 0;
  for (auto& s : scheds)
    for (const int pid :
         s->loadBalancer().patchesOf(s->rank(), *grid, fine)) {
      const auto& divQ = s->newDW().get<double>(RmcrtLabels::divQ, pid);
      for (const IntVector& c : grid->patchById(pid)->cells())
        ASSERT_TRUE(sameBits(divQ[c], serial[c]))
            << "patch " << pid << " cell " << c;
      ++patches;
    }
  EXPECT_EQ(patches, 8);
  for (auto& dev : devices) EXPECT_EQ(dev->stats().cpuFallbacks, 0u);
}

TEST(SimdMarch, ScalarPathUnchangedByDispatchMachinery) {
  // traceRay is a one-ray traceRays: whichever kernel runs, a ray traced
  // alone gives the bits it gets in a bundle.
  SingleLevelSetup setup(burnsChriston(), IntVector(8));
  for (const bool useSimd : {true, false}) {
    SCOPED_TRACE(useSimd ? "useSimd" : "width 1");
    const Tracer t = setup.makeTracer(useSimd);
    std::vector<Vector> origins, dirs;
    makeRayBundle(32, origins, dirs);
    std::vector<double> bundle(32);
    t.traceRays(32, origins.data(), dirs.data(), bundle.data());
    for (int i = 0; i < 32; ++i) {
      const std::size_t s = static_cast<std::size_t>(i);
      EXPECT_TRUE(sameBits(bundle[s], t.traceRay(origins[s], dirs[s])))
          << "ray " << i;
    }
  }
}

// ---------------------------------------------------------------------
// Vector ray setup (DESIGN.md §14): the packet pass generates its rays
// and starts their DDA in vector form. Both must equal the reference's
// scalar pieces (generateRays, laneSetup) bitwise, in every kernel; the
// march's results then differ from the reference march's by the exp
// alone.

/// Rays in structure-of-arrays form over owned arrays, with the slack
/// the vector forms read and write past the last ray.
struct SoaRays {
  std::vector<double> pos[3], dir[3];
  explicit SoaRays(std::size_t n) {
    for (int a = 0; a < 3; ++a) {
      pos[a].assign(n + kRaySlack, 0.0);
      dir[a].assign(n + kRaySlack, 0.0);
    }
  }
  RaySoA view(std::size_t at = 0) {
    return RaySoA{{&pos[0][at], &pos[1][at], &pos[2][at]},
                  {&dir[0][at], &dir[1][at], &dir[2][at]}};
  }
  void set(std::size_t i, const Vector& p, const Vector& d) {
    for (int a = 0; a < 3; ++a) {
      pos[a][i] = p[a];
      dir[a][i] = d[a];
    }
  }
};

void expectSameRays(SoaRays& a, SoaRays& b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    for (int k = 0; k < 3; ++k) {
      ASSERT_TRUE(sameBits(a.pos[k][i], b.pos[k][i]))
          << "ray " << i << " pos[" << k << "] " << a.pos[k][i] << " vs "
          << b.pos[k][i];
      ASSERT_TRUE(sameBits(a.dir[k][i], b.dir[k][i]))
          << "ray " << i << " dir[" << k << "] " << a.dir[k][i] << " vs "
          << b.dir[k][i];
    }
}

TEST(VectorRaySetup, GeneratorMatchesScalarBitwise) {
  const LevelGeom g{Vector(-0.25, 0.5, 1.0), Vector(0.125, 0.0625, 0.25),
                    CellRange(IntVector(-3, -3, -3), IntVector(64))};
  const IntVector cells[] = {IntVector(0, 0, 0),
                             IntVector(-1, -2, -3),
                             IntVector(5, -7, 11),
                             IntVector(1 << 21, 3, (1 << 21) + 5),
                             IntVector(-(1 << 21), 1 << 22, -1)};
  forEachPacketKernel([&](bool useSimd) {
    const auto simd = packetKernel(useSimd).generateRays;
    for (const bool jitter : {true, false})
      for (const std::uint64_t seed : {0ull, 21ull, 0xFFFFFFFFFFFFFFFFull})
        for (const IntVector& c : cells) {
          SCOPED_TRACE("cell " + std::to_string(c.x()) + "," +
                       std::to_string(c.y()) + "," + std::to_string(c.z()) +
                       " seed " + std::to_string(seed) +
                       (jitter ? " jittered" : " centered"));
          // Whole registers, a partial one, and a range that starts
          // mid-fan (a cell straddling two streams).
          for (const auto& [rBegin, rEnd] :
               {std::pair(0, 16), std::pair(0, 13), std::pair(5, 22),
                std::pair(7, 8)}) {
            const std::size_t n = static_cast<std::size_t>(rEnd - rBegin);
            SoaRays a(n), b(n);
            simd(g, jitter, seed, c, rBegin, rEnd, a.view());
            generateRays(g, jitter, seed, c, rBegin, rEnd, b.view());
            expectSameRays(a, b, n);
          }
        }
  });
}

TEST(VectorRaySetup, StreamStraddlingCellsAndStreamsMatchesScalar) {
  // The tile stream's loop with a small stream: cells' fans split across
  // stream ends and start mid-register, so every call overwrites the
  // previous call's slack. Each stream must hold exactly the reference
  // rays.
  const LevelGeom g{Vector(0.0), Vector(1.0 / 16), CellRange(IntVector(0),
                                                            IntVector(16))};
  const std::size_t cap = 37;
  const int fan = 11;
  forEachPacketKernel([&](bool useSimd) {
    const auto simd = packetKernel(useSimd).generateRays;
    SoaRays a(cap), b(cap);
    std::size_t n = 0;
    int streams = 0;
    const auto flush = [&] {
      expectSameRays(a, b, n);
      n = 0;
      ++streams;
    };
    for (const IntVector& c : CellRange(IntVector(3), IntVector(6))) {
      for (int r = 0; r < fan;) {
        const int take =
            static_cast<int>(std::min<std::size_t>(fan - r, cap - n));
        simd(g, true, 99, c, r, r + take, a.view(n));
        generateRays(g, true, 99, c, r, r + take, b.view(n));
        n += static_cast<std::size_t>(take);
        r += take;
        if (n == cap) flush();
      }
    }
    if (n > 0) flush();
    EXPECT_EQ(streams, (27 * fan + 36) / 37);
  });
}

void expectSameSetups(const LaneSetup& v, const LaneSetup& s, int i) {
  for (int a = 0; a < 3; ++a) {
    EXPECT_TRUE(sameBits(v.tMax[a], s.tMax[a]))
        << "ray " << i << " tMax[" << a << "] " << v.tMax[a] << " vs "
        << s.tMax[a];
    EXPECT_TRUE(sameBits(v.tDelta[a], s.tDelta[a]))
        << "ray " << i << " tDelta[" << a << "] " << v.tDelta[a] << " vs "
        << s.tDelta[a];
    EXPECT_TRUE(sameBits(v.cnt[a], s.cnt[a])) << "ray " << i << " cnt[" << a
                                              << "]";
    EXPECT_EQ(v.stride[a], s.stride[a]) << "ray " << i << " stride[" << a
                                        << "]";
  }
  EXPECT_EQ(v.off, s.off) << "ray " << i;
}

TEST(VectorRaySetup, LaneSetupsMatchDdaStartBitwise) {
  // The two-level stack: fine 16^3 (dx 1/16) with `allowed` [4, 12)^3,
  // coarse 4^3 (dx 1/4); and a 24^3 level, whose spacing is not a power
  // of two, so cellAt's quotient is inexact on most faces.
  const LevelStack stack = twoLevelStack();
  const Tracer tracer = stack.makeTracer(true);
  const SingleLevelSetup single(burnsChriston(), IntVector(24));
  const Tracer tracer24 = single.makeTracer(true);
  const double dx24 = tracer24.levels()[0].geom.dx.x();
  const std::vector<Vector> axisDirs = {
      Vector(1.0, 0.0, 0.0),  Vector(-1.0, 0.0, -0.0), Vector(0.0, 1.0, 0.0),
      Vector(-0.0, -1.0, 0.0), Vector(0.0, -0.0, 1.0), Vector(0.0, 0.0, -1.0),
      Vector(-0.0, -0.0, -1.0)};
  std::vector<Vector> origins = {
      Vector(0.5, 0.5, 0.5),          // a fine face, edge and corner
      Vector(0.5, 0.53, 0.47),        // on an x face
      Vector(0.375, 0.4375, 0.51),    // on an x-y edge
      Vector(0.25, 0.25, 0.25),       // the `allowed` low corner
      Vector(0.75, 0.75, 0.75),       // the `allowed` high corner: clamped
      Vector(0.75, 0.6, 0.3),         // on the `allowed` high x face
      Vector(0.2, 0.8, 0.9),          // outside `allowed`: clamped
      Vector(0.7499999999999999, 0.25, 0.6),  // just inside the high face
      Vector(std::nextafter(0.25, 0.0), 0.5, 0.5),  // just outside the low
      Vector(0.0, 0.0, 0.0),          // the domain corner
      Vector(1.0, 0.99, 0.0),         // on the domain's high x face
  };
  for (int k = 1; k < 24; k += 2)  // on faces of the 24^3 level
    origins.push_back(Vector(k * dx24, 0.3 + k * dx24 / 2, (24 - k) * dx24));
  std::vector<Vector> pos, dir;
  for (const Vector& o : origins) {
    for (const Vector& d : axisDirs) {
      pos.push_back(o);
      dir.push_back(d);
    }
    for (int k = 0; k < 9; ++k) {
      Rng rng(7, IntVector(k), static_cast<std::uint32_t>(pos.size()));
      pos.push_back(o);
      dir.push_back(isotropicDirection(rng));
    }
  }
  // Handoff points: where a fine ray leaves `allowed`, as the packet pass
  // computes them (pos + dir * tCur), including the ones a rounding puts
  // a hair outside the coarse level's cell.
  for (int k = 0; k < 300; ++k) {
    Rng rng(11, IntVector(k, 1, 2), 3);
    const Vector o(0.25 + 0.5 * rng.nextDouble(), 0.25 + 0.5 * rng.nextDouble(),
                   0.25 + 0.5 * rng.nextDouble());
    const Vector d = isotropicDirection(rng);
    const LaneSetup s = laneSetup(tracer.levels()[0], o, d);
    const double t = std::min({s.tMax[0] + 3 * s.tDelta[0],
                               s.tMax[1] + 2 * s.tDelta[1], s.tMax[2]});
    pos.push_back(o + d * t);
    dir.push_back(d);
  }
  // More than two setup chunks of 128, with a partial last register.
  ASSERT_GT(pos.size(), 2u * 128u);
  ASSERT_NE(pos.size() % 8, 0u);
  const int n = static_cast<int>(pos.size());
  SoaRays rays(pos.size());
  for (std::size_t i = 0; i < pos.size(); ++i) rays.set(i, pos[i], dir[i]);
  const TraceLevel* levels[] = {&tracer.levels()[0], &tracer.levels()[1],
                                &tracer24.levels()[0]};
  forEachPacketKernel([&](bool useSimd) {
    for (const TraceLevel* L : levels) {
      SCOPED_TRACE(std::to_string(L->geom.cells.high().x()) + "^3 level");
      std::vector<LaneSetup> v(pos.size());
      packetKernel(useSimd).laneSetups(*L, n, rays.view(), v.data());
      for (int i = 0; i < n; ++i) {
        const std::size_t s = static_cast<std::size_t>(i);
        expectSameSetups(v[s], laneSetup(*L, pos[s], dir[s]), i);
      }
    }
  });
}

TEST(VectorRaySetup, LanesRetiringTogetherAndPartialLastChunk) {
  // Identical rays retire in the same crossing, so every refill takes
  // every lane at once, and the counts leave a partial last setup chunk
  // and a partial last packet. Each ray must give the single ray's result
  // bitwise, whichever lane and chunk it lands in, and within the ULP
  // budget of the reference march.
  const LevelStack stack = twoLevelStack();
  const SingleLevelSetup single(burnsChriston(), IntVector(16));
  const Vector o(0.5 + 1.0 / 32, 0.5, 0.47);
  const Vector exits[] = {Vector(1.0, 0.2, 0.1).normalized(),
                          Vector(-0.3, 1.0, -0.2).normalized(),
                          Vector(0.0, 0.0, -1.0)};
  forEachPacketKernel([&](bool useSimd) {
    for (const bool twoLevel : {true, false}) {
      Tracer simd =
          twoLevel ? stack.makeTracer(useSimd) : single.makeTracer(useSimd);
      for (const Vector& d : exits) {
        double one = 0.0;
        simd.traceRays(1, &o, &d, &one);
        ReferenceMarch ref(simd);
        EXPECT_LE(ulpDistance(one, ref.traceRay(o, d)), kUlpTolerance);
        const std::uint64_t raySegments = ref.segmentCount();
        for (const int n : {3 * 128 + 5, 13, 8}) {
          SCOPED_TRACE(std::to_string(n) + " rays, " +
                       (twoLevel ? "two levels" : "one level"));
          const std::vector<Vector> origins(static_cast<std::size_t>(n), o);
          const std::vector<Vector> dirs(static_cast<std::size_t>(n), d);
          std::vector<double> out(static_cast<std::size_t>(n), -1.0);
          simd.resetSegmentCount();
          simd.traceRays(n, origins.data(), dirs.data(), out.data());
          EXPECT_EQ(simd.segmentCount(),
                    static_cast<std::uint64_t>(n) * raySegments);
          for (int i = 0; i < n; ++i)
            ASSERT_TRUE(sameBits(out[static_cast<std::size_t>(i)], one))
                << "ray " << i;
        }
      }
    }
  });
}

// ---------------------------------------------------------------------
// Zero-length segment accounting (the hot-path counter fix): crossings
// with segLen == 0 — a ray starting exactly on the face it is about to
// cross, or the 2nd/3rd face crossings of an exact corner hit — are FP
// no-ops and must not count as marched segments.

TEST(SegmentAccounting, RayStartingOnAFaceSkipsTheZeroCrossing) {
  SingleLevelSetup setup(uniformMedium(0.25, 1.0), IntVector(8));
  TraceConfig cfg;
  cfg.threshold = 1e-12;
  Tracer t = setup.makeTracer(false, cfg);
  // Origin exactly on the low face of cell 3 (x = 3/8), marching -x:
  // the Amanatides-Woo setup clamps the first crossing to t = 0, a
  // zero-length segment in cell 3; the marched cells are 2, 1, 0.
  t.resetSegmentCount();
  t.traceRay(Vector(3.0 / 8.0, 0.51, 0.52), Vector(-1.0, 0.0, 0.0));
  EXPECT_EQ(t.segmentCount(), 3u);
}

TEST(SegmentAccounting, CornerDiagonalCountsOneSegmentPerSpan) {
  SingleLevelSetup setup(uniformMedium(0.25, 1.0), IntVector(8));
  TraceConfig cfg;
  cfg.threshold = 1e-12;
  Tracer t = setup.makeTracer(false, cfg);
  // From the exact cell corner at the domain center along the main
  // diagonal: every cell boundary is a 3-fold axis tie, where the x step
  // is followed by zero-length y and z crossings. Only the 4 real spans
  // (corner to corner, cells (4,4,4)..(7,7,7)) may count.
  t.resetSegmentCount();
  t.traceRay(Vector(0.5, 0.5, 0.5),
             Vector(1.0, 1.0, 1.0) / std::sqrt(3.0));
  EXPECT_EQ(t.segmentCount(), 4u);

  // And the packet path applies the identical rule.
  Tracer ts = setup.makeTracer(true, cfg);
  const Vector o(0.5, 0.5, 0.5);
  const Vector d = Vector(1.0, 1.0, 1.0) / std::sqrt(3.0);
  double out = 0.0;
  ts.resetSegmentCount();
  ts.traceRays(1, &o, &d, &out);
  EXPECT_EQ(ts.segmentCount(), 4u);
}

// ---------------------------------------------------------------------
// TraceConfig validation (the NaN-divQ fix): a non-positive ray count
// must be rejected at construction, not surface as NaN divQ later.

TEST(TraceConfigValidation, NonPositiveRayCountThrows) {
  SingleLevelSetup setup(burnsChriston(), IntVector(8));
  for (int bad : {0, -1, -100}) {
    TraceConfig cfg;
    cfg.nDivQRays = bad;
    EXPECT_THROW(setup.makeTracer(false, cfg), std::invalid_argument)
        << "nDivQRays = " << bad;
  }
  // And the boundary case is accepted and produces finite divQ.
  TraceConfig cfg;
  cfg.nDivQRays = 1;
  Tracer t = setup.makeTracer(false, cfg);
  EXPECT_TRUE(std::isfinite(t.meanIncomingIntensity(IntVector(4, 4, 4))));
}

}  // namespace
}  // namespace rmcrt::core
