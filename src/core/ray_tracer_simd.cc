/// \file ray_tracer_simd.cc
/// marchPacket8: the 8-wide SIMD ray-packet march (DESIGN.md §14).
///
/// Eight rays march in lockstep through one level's packed records — one
/// *packet pass* per level. Two ISA-specific kernels sit behind
/// Tracer::traceRaysSimd:
///
///  - packetPassAvx512 — TWO independent 8-lane packets, interleaved in
///    one loop, one lane per __m512d element, k-mask predication
///    throughout. Each packet's whole lane state (tMax/tDelta/cnt per
///    axis, offset, strides, tCur/trans/sumI, result slot) stays in
///    registers; every commit is a single masked op, so there is no
///    hot/slow path split, and the second packet's independent
///    gather→exp→transmissivity chain fills the first's latency
///    bubbles. Preferred whenever the host has AVX-512 F/DQ/VL/BW.
///  - packetPassAvx2 — the packet as two 4-lane __m256d halves, with a
///    register-resident unmasked hot loop that breaks (without
///    committing) on any lane event and a masked slow path that redoes
///    the event crossing and retires/refills lanes.
///
/// Both kernels do exactly the per-crossing work of the scalar packed
/// march — min-axis selection, one record load, one exp, one FMA-shaped
/// absorb/emit — with vector compares/blends (or k-masks) for the
/// min-axis selection, gathers against the PackedFieldView byte-offset
/// helpers for the record loads, and a vectorized polynomial exp
/// (exp4d / exp8d below). Lanes retire when a ray hits a wall cell,
/// extinguishes below TraceConfig::threshold, or steps out of the
/// level's `allowed` box; retired lanes refill from the pending rays
/// through a SetupQueue that precomputes per-ray DDA setups a chunk at
/// a time (the setup's division chain would otherwise stall the packet
/// at every refill). A ray that leaves `allowed` inside the domain goes
/// into a handoff buffer with its carried intensity and transmissivity,
/// and the next level's pass marches the buffer.
///
/// Numerical contract: the DDA bookkeeping (tMax/tDelta setup, min-axis
/// tie-breaking, segment lengths, cell paths) performs the exact same
/// IEEE operations as the scalar packed march, so every ray visits the
/// bitwise-identical cell sequence with bitwise-identical segment
/// lengths, on every level (the handoff position is rounded like the
/// scalar march's; rmcrt_core builds with -ffp-contract=off so no
/// mul+add becomes an FMA). The only divergence is the polynomial exp
/// vs libm exp (≤ ~2 ulp per segment), which accumulates
/// multiplicatively through the transmissivity — hence the documented
/// ULP tolerance on per-ray intensities (DESIGN.md §14,
/// simd_march_test) instead of bitwise equality. The two kernels run
/// the same IEEE operations per ray and agree bitwise with each other.
/// The scalar path remains the golden reference.
///
/// This translation unit is compiled with the baseline ISA; only the
/// functions marked RMCRT_TARGET_AVX2 / RMCRT_TARGET_AVX512 carry
/// `target(...)` attributes, so the binary stays runnable on non-SIMD
/// hosts and Tracer::simdSupported() gates every call at runtime.
/// RMCRT_FORCE_AVX2=1 pins an AVX-512 host to the AVX2 kernel so the
/// fallback stays testable on modern hardware.

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include "core/packed_field.h"
#include "core/ray_tracer.h"

#if RMCRT_SIMD_X86
#include <immintrin.h>
#endif

namespace rmcrt::core {

#if RMCRT_SIMD_X86

#define RMCRT_TARGET_AVX2 __attribute__((target("avx2,fma")))
#define RMCRT_TARGET_AVX512 \
  __attribute__((target("avx512f,avx512dq,avx512vl,avx512bw,avx2,fma")))
// For the helpers the packet loops call on lane retirement and refill.
// Any call left in a kernel's loop makes GCC keep the packet state (all
// vector registers are caller-saved) in memory across the whole loop;
// at -O2 its inliner leaves these calls in and the march runs at half
// speed.
#define RMCRT_ALWAYS_INLINE inline __attribute__((always_inline))

namespace {

/// Infinity-safe division, identical to the scalar march's setup helper.
double safeDivSimd(double num, double den) {
  return den == 0.0 ? std::numeric_limits<double>::infinity() : num / den;
}

/// A packet pass's input: n rays starting at pos[i] in direction dir[i].
/// Level 0's pass starts every ray fresh (null carried state: intensity
/// 0, transmissivity 1, result slot i); a coarser level's pass resumes
/// the rays the finer pass handed off, with the state they carried out.
struct PassRays {
  int n = 0;
  const Vector* pos = nullptr;
  const Vector* dir = nullptr;
  const double* sumI = nullptr;
  const double* trans = nullptr;
  const int* ray = nullptr;
};

/// The rays one level's pass hands to the next coarser level: each left
/// the level's `allowed` box inside the domain at `pos`. Reused across
/// calls (see Tracer::traceRaysSimd), so steady-state passes allocate
/// nothing.
struct Handoff {
  std::vector<Vector> pos, dir;
  std::vector<double> sumI, trans;
  std::vector<int> ray;

  void clear() {
    pos.clear();
    dir.clear();
    sumI.clear();
    trans.clear();
    ray.clear();
  }
  void push(const Vector& p, const Vector& d, double s, double t, int r) {
    pos.push_back(p);
    dir.push_back(d);
    sumI.push_back(s);
    trans.push_back(t);
    ray.push_back(r);
  }
  PassRays rays() const {
    return PassRays{static_cast<int>(ray.size()), pos.data(), dir.data(),
                    sumI.data(), trans.data(), ray.data()};
  }
};

/// One level's packet pass: the level, the constants of the march and
/// where finished and handed-off rays go.
struct PacketPass {
  const TraceLevel* level = nullptr;
  /// A coarser level follows: rays leaving `allowed` inside the domain
  /// go to `next` instead of taking the domain-wall term.
  bool hasNext = false;
  double threshold = 0.0;
  double kappaScale = 1.0;
  double wallEmissivity = 1.0;
  double wallSigmaT4OverPi = 0.0;
  double* out = nullptr;
  Handoff* next = nullptr;
};

/// Per-ray Amanatides-Woo setup, precomputed by SetupQueue so a lane
/// refill is a handful of L1 copies instead of a chain of divisions.
struct RaySetup {
  double tMax[3];
  double tDelta[3];
  /// Steps remaining along each axis before the ray leaves `allowed`,
  /// kept as doubles (small exact integers) so the exit test is a
  /// vector compare. The scalar march's post-step bounds check
  /// `stepped < lo || stepped >= hi` is equivalent to this count going
  /// negative.
  double cnt[3];
  /// State carried in from the finer level (0 and 1 on level 0).
  double sumI;
  double trans;
  /// Linear record element offset of the ray's starting cell.
  std::int64_t off;
  /// Pre-signed element stride per axis (PackedFieldView::laneStride).
  std::int64_t axStride[3];
  std::int64_t initCnt[3];
  /// Result slot: out[ray] receives the ray's intensity.
  std::int64_t ray;
  int step[3];
  int start[3];
};

/// Performs the exact FP sequence of the scalar packed march's setup, so
/// the ray's tMax/tDelta (and therefore its whole cell path) are bitwise
/// identical to the scalar reference.
RMCRT_ALWAYS_INLINE void computeRaySetup(const TraceLevel& L,
                                         const Vector& origin,
                                         const Vector& dir, RaySetup& rs) {
  const LevelGeom& g = L.geom;
  IntVector start = g.cellAt(origin);
  start = max(min(start, L.allowed.high() - IntVector(1)), L.allowed.low());
  for (int i = 0; i < 3; ++i) {
    const int step = dir[i] >= 0.0 ? 1 : -1;
    rs.step[i] = step;
    rs.start[i] = start[i];
    rs.tDelta[i] = safeDivSimd(g.dx[i], std::abs(dir[i]));
    const double planeCoord =
        g.physLow[i] +
        (start[i] - g.cells.low()[i] + (dir[i] >= 0.0 ? 1 : 0)) * g.dx[i];
    double tM = safeDivSimd(planeCoord - origin[i], dir[i]);
    if (tM < 0.0) tM = 0.0;  // float slop at the boundary
    rs.tMax[i] = tM;
    const std::int64_t cnt =
        step > 0
            ? static_cast<std::int64_t>(L.allowed.high()[i] - 1 - start[i])
            : static_cast<std::int64_t>(start[i] - L.allowed.low()[i]);
    rs.cnt[i] = static_cast<double>(cnt);
    rs.initCnt[i] = cnt;
    rs.axStride[i] = L.packed.laneStride(i, step);
  }
  rs.off = L.packed.offsetOf(start);
}

/// Chunked precompute of per-ray DDA setups. Lane refill happens inside
/// the packet kernels' retirement path, where computeRaySetup's
/// dependent divisions would stall the resumed march; batching the
/// setups a chunk ahead keeps the refill itself to plain copies out of
/// L1 and lets the divisions pipeline against the marching packet.
class SetupQueue {
 public:
  SetupQueue(const TraceLevel& level, const PassRays& rays)
      : m_level(level), m_rays(rays) {}

  bool empty() const { return m_next >= m_rays.n; }

  /// Pops the next pending ray's setup; \p idx receives its index in
  /// the pass input. Only valid when !empty(). The reference stays valid
  /// until the next pop.
  RMCRT_ALWAYS_INLINE const RaySetup& pop(int& idx) {
    if (m_next >= m_base + m_filled) fill();
    idx = m_next;
    return m_buf[m_next++ - m_base];
  }

 private:
  RMCRT_ALWAYS_INLINE void fill() {
    m_base = m_next;
    const int remaining = m_rays.n - m_base;
    m_filled = remaining < kChunk ? remaining : kChunk;
    for (int i = 0; i < m_filled; ++i) {
      const int k = m_base + i;
      RaySetup& rs = m_buf[i];
      computeRaySetup(m_level, m_rays.pos[k], m_rays.dir[k], rs);
      rs.sumI = m_rays.sumI != nullptr ? m_rays.sumI[k] : 0.0;
      rs.trans = m_rays.trans != nullptr ? m_rays.trans[k] : 1.0;
      rs.ray = m_rays.ray != nullptr ? m_rays.ray[k] : k;
    }
  }

  static constexpr int kChunk = 128;
  const TraceLevel& m_level;
  PassRays m_rays;
  int m_next = 0;
  int m_base = 0;
  int m_filled = 0;
  RaySetup m_buf[kChunk];
};

/// SoA lane state for one 8-ray packet plus the scalar-side per-lane
/// data the (rare) retirement path needs. The AVX-512 kernel keeps the
/// vector rows in registers and uses this struct only as the spill /
/// refill staging area; the AVX2 kernel's slow path works on it
/// directly. Rows are 64-byte aligned for whole-packet __m512d loads.
struct PacketLanes {
  alignas(64) double tMax[3][8];
  alignas(64) double tDelta[3][8];
  alignas(64) double tCur[8];
  alignas(64) double trans[8];
  alignas(64) double sumI[8];
  alignas(64) double cnt[3][8];
  alignas(64) std::int64_t off[8];
  alignas(64) std::int64_t axStride[3][8];

  // Scalar-side data for lane retirement / coarse handoff: where the ray
  // entered this level, its direction and its result slot.
  Vector pos[8];
  Vector dir[8];
  int rayIdx[8];
  int step[3][8];
  int start[3][8];
  std::int64_t initCnt[3][8];
};

/// Copy a precomputed setup into lane \p lane.
RMCRT_ALWAYS_INLINE void fillLane(PacketLanes& P, int lane,
                                  const RaySetup& rs, const Vector& pos,
                                  const Vector& dir) {
  for (int i = 0; i < 3; ++i) {
    P.tMax[i][lane] = rs.tMax[i];
    P.tDelta[i][lane] = rs.tDelta[i];
    P.cnt[i][lane] = rs.cnt[i];
    P.axStride[i][lane] = rs.axStride[i];
    P.initCnt[i][lane] = rs.initCnt[i];
    P.step[i][lane] = rs.step[i];
    P.start[i][lane] = rs.start[i];
  }
  P.tCur[lane] = 0.0;
  P.trans[lane] = rs.trans;
  P.sumI[lane] = rs.sumI;
  P.off[lane] = rs.off;
  P.pos[lane] = pos;
  P.dir[lane] = dir;
  P.rayIdx[lane] = static_cast<int>(rs.ray);
}

/// The scalar-side subset of fillLane: only what the retirement /
/// handoff code reads. The AVX-512 kernel keeps the vector rows in
/// registers (merged via insertLane below), so writing them to P would
/// be dead stores.
RMCRT_ALWAYS_INLINE void fillLaneMeta(PacketLanes& P, int lane,
                                      const RaySetup& rs, const Vector& pos,
                                      const Vector& dir) {
  for (int i = 0; i < 3; ++i) {
    P.initCnt[i][lane] = rs.initCnt[i];
    P.step[i][lane] = rs.step[i];
    P.start[i][lane] = rs.start[i];
  }
  P.pos[lane] = pos;
  P.dir[lane] = dir;
  P.rayIdx[lane] = static_cast<int>(rs.ray);
}

/// Finish lane \p lane of a multi-level pass after it stepped out of
/// `allowed` with intensity \p laneSum: reconstruct the stepped cell;
/// outside the domain the ray takes the domain-wall term and its result
/// is final, inside it goes to the next level's handoff buffer from the
/// crossing position (the scalar march's `pos + dir * tCur`, rounded the
/// same way). Returns true when the result is final.
RMCRT_ALWAYS_INLINE bool exitLane(const PacketPass& pass,
                                  const PacketLanes& P, int lane,
                                  double& laneSum) {
  IntVector cur;
  for (int a = 0; a < 3; ++a) {
    const std::int64_t taken =
        P.initCnt[a][lane] - static_cast<std::int64_t>(P.cnt[a][lane]);
    cur[a] = P.start[a][lane] + P.step[a][lane] * static_cast<int>(taken);
  }
  const double laneTrans = P.trans[lane];
  if (!pass.level->geom.cells.contains(cur)) {
    laneSum += pass.wallEmissivity * pass.wallSigmaT4OverPi * laneTrans;
    return true;
  }
  pass.next->push(P.pos[lane] + P.dir[lane] * P.tCur[lane], P.dir[lane],
                  laneSum, laneTrans, P.rayIdx[lane]);
  return false;
}

/// Shared constants of the vector exp kernels: round-to-nearest
/// power-of-two reduction with a two-part ln2, then a degree-13 Taylor
/// polynomial (truncation ≤ 1e-17 relative on |r| ≤ ln2/2) evaluated as
/// an Estrin tree — ~4 FMA levels of latency instead of Horner's 13, so
/// consecutive crossings' exps pipeline instead of serializing the
/// march. Accuracy ≈ 2 ulp over the march's argument range (-inf, 0].
constexpr double kExpLog2E = 1.4426950408889634074;
constexpr double kExpLn2Hi = 6.93145751953125e-1;
constexpr double kExpLn2Lo = 1.42860682030941723212e-6;
/// 1/k! for k = 0..13.
constexpr double kExpCoeff[14] = {
    1.0,
    1.0,
    5.0e-1,
    1.6666666666666665741e-1,
    4.1666666666666664354e-2,
    8.3333333333333332177e-3,
    1.3888888888888889419e-3,
    1.9841269841269841253e-4,
    2.4801587301587301566e-5,
    2.7557319223985892511e-6,
    2.7557319223985890653e-7,
    2.5052108385441718775e-8,
    2.0876756987868098979e-9,
    1.6059043836821614599e-10,
};

/// Vectorized exp for 4 doubles. Arguments below -700 flush to exactly
/// 0 (exp(-700) ≈ 1e-304 is still normal; anything a march could do
/// with ≤ 1e-304 transmissivity is identical to 0 at the 1e-4
/// extinction threshold). NaN propagates; -inf → 0 — both matching
/// libm semantics where they are observable.
RMCRT_TARGET_AVX2 inline __m256d exp4d(__m256d x) {
  // Fast path: for |x| ≤ ln2/2 the reduction is an exact identity
  // (fn = 0, r = x, scale = 2^0), so skipping it is bitwise-identical
  // to running it. March arguments are -abskg*segLen — almost always a
  // small fraction of an optical depth — so this branch predicts
  // essentially always taken.
  const __m256d ax =
      _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
  if (_mm256_movemask_pd(_mm256_cmp_pd(
          ax, _mm256_set1_pd(0.34657359027997264), _CMP_GT_OQ)) == 0) {
    const __m256d r = x;
    const __m256d r2 = _mm256_mul_pd(r, r);
    const __m256d r4 = _mm256_mul_pd(r2, r2);
    const __m256d r8 = _mm256_mul_pd(r4, r4);
    const __m256d p01 = _mm256_fmadd_pd(r, _mm256_set1_pd(kExpCoeff[1]),
                                        _mm256_set1_pd(kExpCoeff[0]));
    const __m256d p23 = _mm256_fmadd_pd(r, _mm256_set1_pd(kExpCoeff[3]),
                                        _mm256_set1_pd(kExpCoeff[2]));
    const __m256d p45 = _mm256_fmadd_pd(r, _mm256_set1_pd(kExpCoeff[5]),
                                        _mm256_set1_pd(kExpCoeff[4]));
    const __m256d p67 = _mm256_fmadd_pd(r, _mm256_set1_pd(kExpCoeff[7]),
                                        _mm256_set1_pd(kExpCoeff[6]));
    const __m256d p89 = _mm256_fmadd_pd(r, _mm256_set1_pd(kExpCoeff[9]),
                                        _mm256_set1_pd(kExpCoeff[8]));
    const __m256d pAB = _mm256_fmadd_pd(r, _mm256_set1_pd(kExpCoeff[11]),
                                        _mm256_set1_pd(kExpCoeff[10]));
    const __m256d pCD = _mm256_fmadd_pd(r, _mm256_set1_pd(kExpCoeff[13]),
                                        _mm256_set1_pd(kExpCoeff[12]));
    const __m256d q0 = _mm256_fmadd_pd(r2, p23, p01);
    const __m256d q1 = _mm256_fmadd_pd(r2, p67, p45);
    const __m256d q2 = _mm256_fmadd_pd(r2, pAB, p89);
    const __m256d w0 = _mm256_fmadd_pd(r4, q1, q0);
    const __m256d w1 = _mm256_fmadd_pd(r4, pCD, q2);
    return _mm256_fmadd_pd(r8, w1, w0);
  }
  const __m256d fn = _mm256_round_pd(
      _mm256_mul_pd(x, _mm256_set1_pd(kExpLog2E)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  // r = x - fn*ln2, in two FMA steps for an exactly-representable hi
  // part.
  __m256d r = _mm256_fnmadd_pd(fn, _mm256_set1_pd(kExpLn2Hi), x);
  r = _mm256_fnmadd_pd(fn, _mm256_set1_pd(kExpLn2Lo), r);
  const __m256d r2 = _mm256_mul_pd(r, r);
  const __m256d r4 = _mm256_mul_pd(r2, r2);
  const __m256d r8 = _mm256_mul_pd(r4, r4);
  const __m256d p01 = _mm256_fmadd_pd(r, _mm256_set1_pd(kExpCoeff[1]),
                                      _mm256_set1_pd(kExpCoeff[0]));
  const __m256d p23 = _mm256_fmadd_pd(r, _mm256_set1_pd(kExpCoeff[3]),
                                      _mm256_set1_pd(kExpCoeff[2]));
  const __m256d p45 = _mm256_fmadd_pd(r, _mm256_set1_pd(kExpCoeff[5]),
                                      _mm256_set1_pd(kExpCoeff[4]));
  const __m256d p67 = _mm256_fmadd_pd(r, _mm256_set1_pd(kExpCoeff[7]),
                                      _mm256_set1_pd(kExpCoeff[6]));
  const __m256d p89 = _mm256_fmadd_pd(r, _mm256_set1_pd(kExpCoeff[9]),
                                      _mm256_set1_pd(kExpCoeff[8]));
  const __m256d pAB = _mm256_fmadd_pd(r, _mm256_set1_pd(kExpCoeff[11]),
                                      _mm256_set1_pd(kExpCoeff[10]));
  const __m256d pCD = _mm256_fmadd_pd(r, _mm256_set1_pd(kExpCoeff[13]),
                                      _mm256_set1_pd(kExpCoeff[12]));
  const __m256d q0 = _mm256_fmadd_pd(r2, p23, p01);
  const __m256d q1 = _mm256_fmadd_pd(r2, p67, p45);
  const __m256d q2 = _mm256_fmadd_pd(r2, pAB, p89);
  const __m256d w0 = _mm256_fmadd_pd(r4, q1, q0);
  const __m256d w1 = _mm256_fmadd_pd(r4, pCD, q2);
  const __m256d p = _mm256_fmadd_pd(r8, w1, w0);
  // Scale by 2^n: build the exponent bits directly. fn is in [-1023,
  // 1024] for sane inputs, and the underflow clamp below handles the
  // subnormal range.
  const __m128i n32 = _mm256_cvtpd_epi32(fn);
  const __m256i n64 = _mm256_cvtepi32_epi64(n32);
  const __m256i pow2 =
      _mm256_slli_epi64(_mm256_add_epi64(n64, _mm256_set1_epi64x(1023)), 52);
  __m256d result = _mm256_mul_pd(p, _mm256_castsi256_pd(pow2));
  const __m256d tiny = _mm256_cmp_pd(x, _mm256_set1_pd(-700.0), _CMP_LT_OQ);
  return _mm256_andnot_pd(tiny, result);
}

/// Replace lane(s) \p m of \p v with the double at \p p. The load comes
/// from the setup chunk (written long before), so it store-forwards
/// cleanly — unlike a wide masked load over freshly written scalars,
/// which stalls on forwarding at every lane refill.
RMCRT_TARGET_AVX512 inline __m512d insertLane(__m512d v, __mmask8 m,
                                              const double* p) {
  return _mm512_mask_broadcastsd_pd(v, m, _mm_load_sd(p));
}

RMCRT_TARGET_AVX512 inline __m512i insertLane64(__m512i v, __mmask8 m,
                                                const std::int64_t* p) {
  return _mm512_mask_broadcastq_epi64(v, m, _mm_loadu_si64(p));
}

/// exp4d's 8-lane AVX-512 sibling: same reduction, same polynomial,
/// same underflow clamp (NLT_UQ keeps NaN lanes, matching exp4d's
/// andnot of an ordered compare).
RMCRT_TARGET_AVX512 inline __m512d exp8d(__m512d x) {
  // Same |x| ≤ ln2/2 fast path as exp4d: the reduction degenerates to
  // an exact identity there, so the short form is bitwise-identical and
  // the branch predicts taken for march-sized optical depths.
  const __m512d ax = _mm512_abs_pd(x);
  if (_mm512_cmp_pd_mask(ax, _mm512_set1_pd(0.34657359027997264),
                         _CMP_GT_OQ) == 0) {
    const __m512d r = x;
    const __m512d r2 = _mm512_mul_pd(r, r);
    const __m512d r4 = _mm512_mul_pd(r2, r2);
    const __m512d r8 = _mm512_mul_pd(r4, r4);
    const __m512d p01 = _mm512_fmadd_pd(r, _mm512_set1_pd(kExpCoeff[1]),
                                        _mm512_set1_pd(kExpCoeff[0]));
    const __m512d p23 = _mm512_fmadd_pd(r, _mm512_set1_pd(kExpCoeff[3]),
                                        _mm512_set1_pd(kExpCoeff[2]));
    const __m512d p45 = _mm512_fmadd_pd(r, _mm512_set1_pd(kExpCoeff[5]),
                                        _mm512_set1_pd(kExpCoeff[4]));
    const __m512d p67 = _mm512_fmadd_pd(r, _mm512_set1_pd(kExpCoeff[7]),
                                        _mm512_set1_pd(kExpCoeff[6]));
    const __m512d p89 = _mm512_fmadd_pd(r, _mm512_set1_pd(kExpCoeff[9]),
                                        _mm512_set1_pd(kExpCoeff[8]));
    const __m512d pAB = _mm512_fmadd_pd(r, _mm512_set1_pd(kExpCoeff[11]),
                                        _mm512_set1_pd(kExpCoeff[10]));
    const __m512d pCD = _mm512_fmadd_pd(r, _mm512_set1_pd(kExpCoeff[13]),
                                        _mm512_set1_pd(kExpCoeff[12]));
    const __m512d q0 = _mm512_fmadd_pd(r2, p23, p01);
    const __m512d q1 = _mm512_fmadd_pd(r2, p67, p45);
    const __m512d q2 = _mm512_fmadd_pd(r2, pAB, p89);
    const __m512d w0 = _mm512_fmadd_pd(r4, q1, q0);
    const __m512d w1 = _mm512_fmadd_pd(r4, pCD, q2);
    return _mm512_fmadd_pd(r8, w1, w0);
  }
  const __m512d fn = _mm512_roundscale_pd(
      _mm512_mul_pd(x, _mm512_set1_pd(kExpLog2E)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m512d r = _mm512_fnmadd_pd(fn, _mm512_set1_pd(kExpLn2Hi), x);
  r = _mm512_fnmadd_pd(fn, _mm512_set1_pd(kExpLn2Lo), r);
  const __m512d r2 = _mm512_mul_pd(r, r);
  const __m512d r4 = _mm512_mul_pd(r2, r2);
  const __m512d r8 = _mm512_mul_pd(r4, r4);
  const __m512d p01 = _mm512_fmadd_pd(r, _mm512_set1_pd(kExpCoeff[1]),
                                      _mm512_set1_pd(kExpCoeff[0]));
  const __m512d p23 = _mm512_fmadd_pd(r, _mm512_set1_pd(kExpCoeff[3]),
                                      _mm512_set1_pd(kExpCoeff[2]));
  const __m512d p45 = _mm512_fmadd_pd(r, _mm512_set1_pd(kExpCoeff[5]),
                                      _mm512_set1_pd(kExpCoeff[4]));
  const __m512d p67 = _mm512_fmadd_pd(r, _mm512_set1_pd(kExpCoeff[7]),
                                      _mm512_set1_pd(kExpCoeff[6]));
  const __m512d p89 = _mm512_fmadd_pd(r, _mm512_set1_pd(kExpCoeff[9]),
                                      _mm512_set1_pd(kExpCoeff[8]));
  const __m512d pAB = _mm512_fmadd_pd(r, _mm512_set1_pd(kExpCoeff[11]),
                                      _mm512_set1_pd(kExpCoeff[10]));
  const __m512d pCD = _mm512_fmadd_pd(r, _mm512_set1_pd(kExpCoeff[13]),
                                      _mm512_set1_pd(kExpCoeff[12]));
  const __m512d q0 = _mm512_fmadd_pd(r2, p23, p01);
  const __m512d q1 = _mm512_fmadd_pd(r2, p67, p45);
  const __m512d q2 = _mm512_fmadd_pd(r2, pAB, p89);
  const __m512d w0 = _mm512_fmadd_pd(r4, q1, q0);
  const __m512d w1 = _mm512_fmadd_pd(r4, pCD, q2);
  const __m512d p = _mm512_fmadd_pd(r8, w1, w0);
  const __m256i n32 = _mm512_cvtpd_epi32(fn);
  const __m512i n64 = _mm512_cvtepi32_epi64(n32);
  const __m512i pow2 =
      _mm512_slli_epi64(_mm512_add_epi64(n64, _mm512_set1_epi64(1023)), 52);
  const __m512d result = _mm512_mul_pd(p, _mm512_castsi512_pd(pow2));
  const __mmask8 keep =
      _mm512_cmp_pd_mask(x, _mm512_set1_pd(-700.0), _CMP_NLT_UQ);
  return _mm512_maskz_mov_pd(keep, result);
}

/// Expand the low 4 bits of \p bits into a 4x64 lane mask.
RMCRT_TARGET_AVX2 inline __m256d maskFromBits(unsigned bits) {
  const __m256i laneBit = _mm256_setr_epi64x(1, 2, 4, 8);
  const __m256i b = _mm256_set1_epi64x(static_cast<long long>(bits & 0xF));
  return _mm256_castsi256_pd(
      _mm256_cmpeq_epi64(_mm256_and_si256(b, laneBit), laneBit));
}

/// Narrow a 4x64 double mask to the 4x32 integer mask an epi32 gather
/// wants (pick the sign-carrying high dword of each 64-bit lane).
RMCRT_TARGET_AVX2 inline __m128i mask32From64(__m256d m) {
  const __m256i idx = _mm256_setr_epi32(1, 3, 5, 7, 1, 3, 5, 7);
  return _mm256_castsi256_si128(
      _mm256_permutevar8x32_epi32(_mm256_castpd_si256(m), idx));
}

/// AVX-512 eligibility for the 8-lane kernel (the subsets it uses),
/// with RMCRT_FORCE_AVX2 as the escape hatch that keeps the AVX2 kernel
/// testable on AVX-512 hardware. Read per call so tests can toggle it.
bool avx512Usable() {
  static const bool hw =
      __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx512bw");
  if (!hw) return false;
  const char* e = std::getenv("RMCRT_FORCE_AVX2");
  return e == nullptr || e[0] == '\0' || e[0] == '0';
}

/// One level's pass on AVX2: the 8-lane packet as two 4-lane halves.
RMCRT_TARGET_AVX2
void packetPassAvx2(const PacketPass& pass, const PassRays& rays,
                    std::uint64_t& segments) {
  assert(rays.n > 0);
  const TraceLevel& L = *pass.level;
  const PackedFieldView& pf = L.packed;
  assert(pf.valid());
  const unsigned char* base = pf.bytes();
  const double* abskgBase = reinterpret_cast<const double*>(
      base + PackedFieldView::kAbskgByteOffset);
  const double* sigmaBase = reinterpret_cast<const double*>(
      base + PackedFieldView::kSigmaByteOffset);
  const int* cellTypeBase = reinterpret_cast<const int*>(
      base + PackedFieldView::kCellTypeByteOffset);
  // Loop-invariant, so both branches predict perfectly: wall-free
  // levels skip the cellType gather, and the last level's `allowed`
  // exits take the domain-wall term instead of the handoff.
  const bool hasWalls = pf.hasWalls();
  const bool hasNext = pass.hasNext;
  double* const out = pass.out;

  const __m256d vThreshold = _mm256_set1_pd(pass.threshold);
  const __m256d vEmissivity = _mm256_set1_pd(pass.wallEmissivity);
  const __m256d vOne = _mm256_set1_pd(1.0);
  const __m256d vZero = _mm256_setzero_pd();
  const __m256d vSign = _mm256_set1_pd(-0.0);
  // Band scale on gathered kappa (spectral pipeline); 1.0 in gray mode,
  // where the extra mul is bitwise neutral. Sources are never scaled.
  const __m256d vKappaScale = _mm256_set1_pd(pass.kappaScale);
  const __m128i vWallType =
      _mm_set1_epi32(static_cast<int>(PackedCell::kWall));

  SetupQueue queue(L, rays);
  PacketLanes P = {};
  unsigned aliveBits = 0;
  for (int lane = 0; lane < 8 && !queue.empty(); ++lane) {
    int idx;
    const RaySetup& rs = queue.pop(idx);
    fillLane(P, lane, rs, rays.pos[idx], rays.dir[idx]);
    aliveBits |= 1u << lane;
  }

  while (aliveBits != 0) {
    for (int h = 0; h < 2; ++h) {
      const unsigned halfBits = (aliveBits >> (4 * h)) & 0xFu;
      if (halfBits == 0) continue;
      const int lo = 4 * h;

      if (halfBits == 0xFu) {
        // Hot path: all 4 lanes of this half are marching, so the whole
        // lane state lives in registers and every update is unmasked.
        // The loop commits one crossing per iteration and breaks — WITHOUT
        // committing — the moment any lane sees an event (wall cell,
        // extinction, allowed-box exit); the masked slow path below then
        // redoes that crossing with per-lane masks and retires/refills.
        // Events are rare (one per ray per tens-to-hundreds of
        // crossings), so nearly all segments march here.
        __m256d t0 = _mm256_load_pd(P.tMax[0] + lo);
        __m256d t1 = _mm256_load_pd(P.tMax[1] + lo);
        __m256d t2 = _mm256_load_pd(P.tMax[2] + lo);
        const __m256d d0 = _mm256_load_pd(P.tDelta[0] + lo);
        const __m256d d1 = _mm256_load_pd(P.tDelta[1] + lo);
        const __m256d d2 = _mm256_load_pd(P.tDelta[2] + lo);
        __m256d c0 = _mm256_load_pd(P.cnt[0] + lo);
        __m256d c1 = _mm256_load_pd(P.cnt[1] + lo);
        __m256d c2 = _mm256_load_pd(P.cnt[2] + lo);
        const __m256i s0 = _mm256_load_si256(
            reinterpret_cast<const __m256i*>(P.axStride[0] + lo));
        const __m256i s1 = _mm256_load_si256(
            reinterpret_cast<const __m256i*>(P.axStride[1] + lo));
        const __m256i s2 = _mm256_load_si256(
            reinterpret_cast<const __m256i*>(P.axStride[2] + lo));
        __m256d tCur = _mm256_load_pd(P.tCur + lo);
        __m256d trans = _mm256_load_pd(P.trans + lo);
        __m256d sumI = _mm256_load_pd(P.sumI + lo);
        __m256i off = _mm256_load_si256(
            reinterpret_cast<const __m256i*>(P.off + lo));
        __m256d segAcc = vZero;  // committed nonzero crossings, per lane
        const __m256d vAllOnes =
            _mm256_castsi256_pd(_mm256_set1_epi64x(-1));

        for (;;) {
          const __m256i bytes = _mm256_add_epi64(_mm256_slli_epi64(off, 4),
                                                 _mm256_slli_epi64(off, 3));
          if (hasWalls) {
            const __m128i ct = _mm256_i64gather_epi32(cellTypeBase, bytes, 1);
            if (_mm_movemask_epi8(_mm_cmpeq_epi32(ct, vWallType)) != 0)
              break;
          }
          const __m256d abskg = _mm256_mul_pd(
              _mm256_i64gather_pd(abskgBase, bytes, 1), vKappaScale);
          const __m256d sig = _mm256_i64gather_pd(sigmaBase, bytes, 1);

          const __m256d yBeforeX = _mm256_cmp_pd(t1, t0, _CMP_LT_OQ);
          const __m256d m01 = _mm256_min_pd(t1, t0);
          const __m256d zFirst = _mm256_cmp_pd(t2, m01, _CMP_LT_OQ);
          const __m256d tNext = _mm256_min_pd(t2, m01);
          const __m256d segLen = _mm256_sub_pd(tNext, tCur);

          const __m256d expSeg =
              exp4d(_mm256_mul_pd(_mm256_xor_pd(abskg, vSign), segLen));
          const __m256d transNew = _mm256_mul_pd(trans, expSeg);
          const int eb = _mm256_movemask_pd(
              _mm256_cmp_pd(transNew, vThreshold, _CMP_LT_OQ));

          const __m256d mZ = zFirst;
          const __m256d mY = _mm256_andnot_pd(zFirst, yBeforeX);
          const __m256d mX = _mm256_andnot_pd(
              zFirst, _mm256_andnot_pd(yBeforeX, vAllOnes));
          const __m256d t0n =
              _mm256_blendv_pd(t0, _mm256_add_pd(tNext, d0), mX);
          const __m256d t1n =
              _mm256_blendv_pd(t1, _mm256_add_pd(tNext, d1), mY);
          const __m256d t2n =
              _mm256_blendv_pd(t2, _mm256_add_pd(tNext, d2), mZ);
          const __m256d c0n = _mm256_sub_pd(c0, _mm256_and_pd(vOne, mX));
          const __m256d c1n = _mm256_sub_pd(c1, _mm256_and_pd(vOne, mY));
          const __m256d c2n = _mm256_sub_pd(c2, _mm256_and_pd(vOne, mZ));
          const __m256d exited = _mm256_or_pd(
              _mm256_or_pd(_mm256_cmp_pd(c0n, vZero, _CMP_LT_OQ),
                           _mm256_cmp_pd(c1n, vZero, _CMP_LT_OQ)),
              _mm256_cmp_pd(c2n, vZero, _CMP_LT_OQ));
          const int xb = _mm256_movemask_pd(exited);
          if ((eb | xb) != 0) break;  // discard; slow path redoes this

          // Commit the crossing: absorb/emit with the *pre-segment*
          // transmissivity (the scalar operation order), then advance.
          sumI = _mm256_add_pd(
              sumI, _mm256_mul_pd(
                        _mm256_mul_pd(sig, _mm256_sub_pd(vOne, expSeg)),
                        trans));
          trans = transNew;
          t0 = t0n;
          t1 = t1n;
          t2 = t2n;
          c0 = c0n;
          c1 = c1n;
          c2 = c2n;
          off = _mm256_add_epi64(
              off, _mm256_and_si256(s0, _mm256_castpd_si256(mX)));
          off = _mm256_add_epi64(
              off, _mm256_and_si256(s1, _mm256_castpd_si256(mY)));
          off = _mm256_add_epi64(
              off, _mm256_and_si256(s2, _mm256_castpd_si256(mZ)));
          tCur = tNext;
          segAcc = _mm256_add_pd(
              segAcc,
              _mm256_and_pd(vOne,
                            _mm256_cmp_pd(segLen, vZero, _CMP_NEQ_UQ)));
        }

        _mm256_store_pd(P.tMax[0] + lo, t0);
        _mm256_store_pd(P.tMax[1] + lo, t1);
        _mm256_store_pd(P.tMax[2] + lo, t2);
        _mm256_store_pd(P.cnt[0] + lo, c0);
        _mm256_store_pd(P.cnt[1] + lo, c1);
        _mm256_store_pd(P.cnt[2] + lo, c2);
        _mm256_store_pd(P.tCur + lo, tCur);
        _mm256_store_pd(P.trans + lo, trans);
        _mm256_store_pd(P.sumI + lo, sumI);
        _mm256_store_si256(reinterpret_cast<__m256i*>(P.off + lo), off);
        alignas(32) double segLanes[4];
        _mm256_store_pd(segLanes, segAcc);
        segments += static_cast<std::uint64_t>(segLanes[0] + segLanes[1] +
                                               segLanes[2] + segLanes[3]);
      }

      const __m256d alive = maskFromBits(halfBits);

      const __m256i off = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(P.off + lo));
      // Byte offset of each lane's record: off * 24 = (off<<4) + (off<<3).
      const __m256i byteOff = _mm256_add_epi64(_mm256_slli_epi64(off, 4),
                                               _mm256_slli_epi64(off, 3));

      __m256d trans =
          _mm256_load_pd(P.trans + lo);
      __m256d sumI = _mm256_load_pd(P.sumI + lo);

      // Property gathers for all alive lanes (the record layout keeps
      // abskg and sigmaT4OverPi in one cache line per lane). Masked so
      // dead lanes never dereference their stale offsets.
      const __m256d abskg = _mm256_mul_pd(
          _mm256_mask_i64gather_pd(vZero, abskgBase, byteOff, alive, 1),
          vKappaScale);
      const __m256d sig =
          _mm256_mask_i64gather_pd(vZero, sigmaBase, byteOff, alive, 1);

      // Wall-cell lanes: add the wall emission seen through the
      // accumulated transmissivity, then retire. Levels packed without
      // any wall record skip the cellType gather entirely.
      __m256d wall = vZero;
      if (hasWalls) {
        const __m128i ct = _mm256_mask_i64gather_epi32(
            _mm_setzero_si128(), cellTypeBase, byteOff, mask32From64(alive),
            1);
        const __m256i wall64 =
            _mm256_cvtepi32_epi64(_mm_cmpeq_epi32(ct, vWallType));
        wall = _mm256_and_pd(_mm256_castsi256_pd(wall64), alive);
        const __m256d wallContrib = _mm256_mul_pd(
            _mm256_mul_pd(vEmissivity, sig), trans);
        sumI = _mm256_add_pd(sumI, _mm256_and_pd(wallContrib, wall));
      }
      const __m256d live = _mm256_andnot_pd(wall, alive);

      // Branchless min-axis selection — identical tie-breaking (x beats
      // y beats z) and identical IEEE min semantics to the scalar march:
      // minpd(a, b) returns b unless a < b, exactly `a < b ? a : b`.
      const __m256d t0 = _mm256_load_pd(P.tMax[0] + lo);
      const __m256d t1 = _mm256_load_pd(P.tMax[1] + lo);
      const __m256d t2 = _mm256_load_pd(P.tMax[2] + lo);
      const __m256d yBeforeX = _mm256_cmp_pd(t1, t0, _CMP_LT_OQ);
      const __m256d m01 = _mm256_min_pd(t1, t0);
      const __m256d zFirst = _mm256_cmp_pd(t2, m01, _CMP_LT_OQ);
      const __m256d tNext = _mm256_min_pd(t2, m01);
      const __m256d tCur = _mm256_load_pd(P.tCur + lo);
      const __m256d segLen = _mm256_sub_pd(tNext, tCur);

      // Absorb + emit along the segment; same operation order as the
      // scalar march, with exp4d standing in for libm exp.
      const __m256d expSeg =
          exp4d(_mm256_mul_pd(_mm256_xor_pd(abskg, vSign), segLen));
      const __m256d contrib = _mm256_mul_pd(
          _mm256_mul_pd(sig, _mm256_sub_pd(vOne, expSeg)), trans);
      sumI = _mm256_add_pd(sumI, _mm256_and_pd(contrib, live));
      trans = _mm256_blendv_pd(trans, _mm256_mul_pd(trans, expSeg), live);

      // Segment accounting matches the scalar rule: zero-length
      // crossings do not count.
      const __m256d segNZ = _mm256_cmp_pd(segLen, vZero, _CMP_NEQ_UQ);
      segments += static_cast<std::uint64_t>(__builtin_popcount(
          static_cast<unsigned>(
              _mm256_movemask_pd(_mm256_and_pd(live, segNZ)))));

      // Extinguished lanes retire without advancing (the scalar march
      // returns before the advance); everything else advances.
      const __m256d ext = _mm256_and_pd(
          live, _mm256_cmp_pd(trans, vThreshold, _CMP_LT_OQ));
      const __m256d adv = _mm256_andnot_pd(ext, live);

      __m256d newTCur = _mm256_blendv_pd(tCur, tNext, adv);

      // Per-axis advance masks: z if it won, else y if it beat x, else x.
      const __m256d mAxis[3] = {
          _mm256_andnot_pd(zFirst,
                           _mm256_andnot_pd(yBeforeX,
                                            _mm256_castsi256_pd(
                                                _mm256_set1_epi64x(-1)))),
          _mm256_andnot_pd(zFirst, yBeforeX), zFirst};

      __m256i newOff = off;
      __m256d exited = vZero;
      for (int a = 0; a < 3; ++a) {
        const __m256d ma = _mm256_and_pd(mAxis[a], adv);
        const __m256d ta = _mm256_load_pd(P.tMax[a] + lo);
        const __m256d da = _mm256_load_pd(P.tDelta[a] + lo);
        _mm256_store_pd(P.tMax[a] + lo,
                        _mm256_blendv_pd(ta, _mm256_add_pd(tNext, da), ma));
        const __m256d ca = _mm256_load_pd(P.cnt[a] + lo);
        const __m256d newCa = _mm256_sub_pd(ca, _mm256_and_pd(vOne, ma));
        _mm256_store_pd(P.cnt[a] + lo, newCa);
        const __m256i sa = _mm256_load_si256(
            reinterpret_cast<const __m256i*>(P.axStride[a] + lo));
        newOff = _mm256_add_epi64(
            newOff,
            _mm256_and_si256(sa, _mm256_castpd_si256(ma)));
        exited = _mm256_or_pd(exited,
                              _mm256_cmp_pd(newCa, vZero, _CMP_LT_OQ));
      }
      exited = _mm256_and_pd(exited, adv);
      _mm256_store_si256(reinterpret_cast<__m256i*>(P.off + lo), newOff);
      _mm256_store_pd(P.tCur + lo, newTCur);
      _mm256_store_pd(P.trans + lo, trans);
      _mm256_store_pd(P.sumI + lo, sumI);

      // Retire finished lanes (wall, extinction, allowed-box exit) and
      // refill from the pending rays.
      const __m256d retire =
          _mm256_or_pd(_mm256_or_pd(wall, ext), exited);
      unsigned rbits = static_cast<unsigned>(_mm256_movemask_pd(retire));
      if (rbits == 0) continue;
      const unsigned ebits = static_cast<unsigned>(_mm256_movemask_pd(exited));
      while (rbits != 0) {
        const int bit = __builtin_ctz(rbits);
        rbits &= rbits - 1;
        const int lane = lo + bit;
        double laneSum = P.sumI[lane];
        bool finished = true;
        if ((ebits >> bit) & 1u) {
          // Stepped out of `allowed`: the domain wall, or the next level.
          if (hasNext)
            finished = exitLane(pass, P, lane, laneSum);
          else
            laneSum += pass.wallEmissivity * pass.wallSigmaT4OverPi *
                       P.trans[lane];
        }
        if (finished) out[P.rayIdx[lane]] = laneSum;
        if (!queue.empty()) {
          int idx;
          const RaySetup& rs = queue.pop(idx);
          fillLane(P, lane, rs, rays.pos[idx], rays.dir[idx]);
        } else {
          aliveBits &= ~(1u << lane);
        }
      }
    }
  }
}

// The AVX-512 march runs TWO independent 8-lane packets interleaved in
// one loop. A single packet is latency-bound: each iteration's
// gather -> exp -> transmissivity-update chain leaves the FMA ports idle
// for most of its span, and the second packet's chain (fully
// independent data) fills those gaps — measured ~+22% at L2-resident
// sizes and more where the gathers miss to L3/DRAM. A third packet
// regresses: 3x17 live vector registers exceed the 32 architectural
// zmm and the spill traffic cancels the overlap win.
//
// The step body is stamped out per packet with a macro rather than a
// helper function or lambda: GCC does not propagate target attributes
// into lambdas (the intrinsics would fail to compile), and an
// out-of-line helper would round-trip all seventeen packet registers
// through memory on every call. `PFX` prefixes every packet-local;
// shared state (queue, pass, bases, constants) is captured from the
// enclosing scope.
//
// RMCRT_DECL_PKT: stage up to 8 rays into PFX##P, then lift the whole
// packet into registers. Dead lanes carry zeros (P is zero-initialized)
// and every commit is k-masked, so they march harmlessly and never
// retire. PFX##ridx keeps each lane's result slot register-resident
// for the last-level scatter retirement; only lanes in `retire` (a
// subset of alive) ever scatter, so stale indices on dead lanes are
// harmless.
#define RMCRT_DECL_PKT(PFX)                                                    \
  PacketLanes PFX##P = {};                                                     \
  __mmask8 PFX##alive = 0;                                                     \
  for (int lane = 0; lane < 8 && !queue.empty(); ++lane) {                     \
    int idx;                                                                   \
    const RaySetup& rs = queue.pop(idx);                                       \
    fillLane(PFX##P, lane, rs, rays.pos[idx], rays.dir[idx]);                  \
    PFX##alive = static_cast<__mmask8>(PFX##alive | (1u << lane));             \
  }                                                                            \
  __m512d PFX##t0 = _mm512_load_pd(PFX##P.tMax[0]);                            \
  __m512d PFX##t1 = _mm512_load_pd(PFX##P.tMax[1]);                            \
  __m512d PFX##t2 = _mm512_load_pd(PFX##P.tMax[2]);                            \
  __m512d PFX##d0 = _mm512_load_pd(PFX##P.tDelta[0]);                          \
  __m512d PFX##d1 = _mm512_load_pd(PFX##P.tDelta[1]);                          \
  __m512d PFX##d2 = _mm512_load_pd(PFX##P.tDelta[2]);                          \
  __m512d PFX##c0 = _mm512_load_pd(PFX##P.cnt[0]);                             \
  __m512d PFX##c1 = _mm512_load_pd(PFX##P.cnt[1]);                             \
  __m512d PFX##c2 = _mm512_load_pd(PFX##P.cnt[2]);                             \
  __m512i PFX##s0 = _mm512_load_si512(PFX##P.axStride[0]);                     \
  __m512i PFX##s1 = _mm512_load_si512(PFX##P.axStride[1]);                     \
  __m512i PFX##s2 = _mm512_load_si512(PFX##P.axStride[2]);                     \
  __m512i PFX##off = _mm512_load_si512(PFX##P.off);                            \
  __m512d PFX##tCur = _mm512_load_pd(PFX##P.tCur);                             \
  __m512d PFX##trans = _mm512_load_pd(PFX##P.trans);                           \
  __m512d PFX##sumI = _mm512_load_pd(PFX##P.sumI);                             \
  __m512d PFX##segAcc = vZero;                                                 \
  alignas(64) std::int64_t PFX##idxInit[8];                                    \
  for (int lane = 0; lane < 8; ++lane)                                         \
    PFX##idxInit[lane] = PFX##P.rayIdx[lane];                                  \
  __m512i PFX##ridx = _mm512_load_si512(PFX##idxInit);

// RMCRT_STEP: one DDA crossing for every live lane of one packet, then
// retirement/refill. Identical operation order and IEEE semantics to
// the scalar march (see the numerical contract in the file header):
// wall test first, absorb+emit with the pre-segment transmissivity,
// zero-length crossings uncounted, extinction checked before the
// advance commits, min-axis tie-break x beats y beats z.
//
// Retirement splits on hasNext (loop-invariant, perfectly predicted).
// Last level (or a single level): every exited lane takes
// the domain-wall term (the scalar march's wall arm when no coarser
// level remains) and all retiring lanes finish with one mul+masked-add
// (the scalar two-rounding order - no FMA) and one masked scatter to
// their result slots; refill is register-only broadcast inserts straight
// from the setup chunk, no spills and no scalar-side metadata. A level
// with a coarser one after it: spill the rows the scalar-side code reads
// (wide stores, later narrow loads - that direction store-forwards
// cleanly), then exitLane either applies the domain wall or pushes the
// ray into the handoff buffer, and refill goes through fillLaneMeta plus
// the same register-only inserts.
#define RMCRT_STEP(PFX)                                                        \
  if (PFX##alive != 0) {                                                       \
    /* Byte offset of each lane's record: off*24 = (off<<4)+(off<<3). */       \
    const __m512i bytes = _mm512_add_epi64(_mm512_slli_epi64(PFX##off, 4),     \
                                           _mm512_slli_epi64(PFX##off, 3));    \
    /* Wall-cell lanes: wall emission through the accumulated */               \
    /* transmissivity, no absorb, no advance - they retire below. */           \
    /* Levels packed without any wall record skip the gather. */               \
    __mmask8 wallM = 0;                                                        \
    if (hasWalls) {                                                            \
      const __m256i ct = _mm512_mask_i64gather_epi32(                          \
          _mm256_setzero_si256(), PFX##alive, bytes, cellTypeBase, 1);         \
      wallM = _mm256_mask_cmpeq_epi32_mask(PFX##alive, ct, vWallType);         \
    }                                                                          \
    const __m512d abskg = _mm512_mul_pd(                                       \
        _mm512_mask_i64gather_pd(vZero, PFX##alive, bytes, abskgBase, 1),      \
        vKappaScale);                                                          \
    const __m512d sig =                                                        \
        _mm512_mask_i64gather_pd(vZero, PFX##alive, bytes, sigmaBase, 1);      \
    PFX##sumI = _mm512_mask_add_pd(                                            \
        PFX##sumI, wallM, PFX##sumI,                                           \
        _mm512_mul_pd(_mm512_mul_pd(vEmissivity, sig), PFX##trans));           \
    const __mmask8 live = static_cast<__mmask8>(PFX##alive & ~wallM);          \
    /* Min-axis selection: minpd(a, b) is exactly `a < b ? a : b`. */          \
    const __mmask8 yBeforeX =                                                  \
        _mm512_cmp_pd_mask(PFX##t1, PFX##t0, _CMP_LT_OQ);                      \
    const __m512d m01 = _mm512_min_pd(PFX##t1, PFX##t0);                       \
    const __mmask8 zFirst = _mm512_cmp_pd_mask(PFX##t2, m01, _CMP_LT_OQ);      \
    const __m512d tNext = _mm512_min_pd(PFX##t2, m01);                         \
    const __m512d segLen = _mm512_sub_pd(tNext, PFX##tCur);                    \
    const __m512d expSeg =                                                     \
        exp8d(_mm512_mul_pd(_mm512_xor_pd(abskg, vSign), segLen));             \
    PFX##sumI = _mm512_mask_add_pd(                                            \
        PFX##sumI, live, PFX##sumI,                                            \
        _mm512_mul_pd(_mm512_mul_pd(sig, _mm512_sub_pd(vOne, expSeg)),         \
                      PFX##trans));                                            \
    PFX##trans = _mm512_mask_mul_pd(PFX##trans, live, PFX##trans, expSeg);     \
    const __mmask8 segNZ =                                                     \
        _mm512_mask_cmp_pd_mask(live, segLen, vZero, _CMP_NEQ_UQ);             \
    PFX##segAcc = _mm512_mask_add_pd(PFX##segAcc, segNZ, PFX##segAcc, vOne);   \
    /* Extinguished lanes retire without advancing (the scalar march */        \
    /* returns before the advance). */                                         \
    const __mmask8 ext =                                                       \
        _mm512_mask_cmp_pd_mask(live, PFX##trans, vThreshold, _CMP_LT_OQ);     \
    const __mmask8 adv = static_cast<__mmask8>(live & ~ext);                   \
    const __mmask8 mZ = static_cast<__mmask8>(zFirst & adv);                   \
    const __mmask8 mY = static_cast<__mmask8>(~zFirst & yBeforeX & adv);       \
    const __mmask8 mX = static_cast<__mmask8>(~zFirst & ~yBeforeX & adv);      \
    PFX##t0 = _mm512_mask_add_pd(PFX##t0, mX, tNext, PFX##d0);                 \
    PFX##t1 = _mm512_mask_add_pd(PFX##t1, mY, tNext, PFX##d1);                 \
    PFX##t2 = _mm512_mask_add_pd(PFX##t2, mZ, tNext, PFX##d2);                 \
    PFX##c0 = _mm512_mask_sub_pd(PFX##c0, mX, PFX##c0, vOne);                  \
    PFX##c1 = _mm512_mask_sub_pd(PFX##c1, mY, PFX##c1, vOne);                  \
    PFX##c2 = _mm512_mask_sub_pd(PFX##c2, mZ, PFX##c2, vOne);                  \
    PFX##off = _mm512_mask_add_epi64(PFX##off, mX, PFX##off, PFX##s0);         \
    PFX##off = _mm512_mask_add_epi64(PFX##off, mY, PFX##off, PFX##s1);         \
    PFX##off = _mm512_mask_add_epi64(PFX##off, mZ, PFX##off, PFX##s2);         \
    PFX##tCur = _mm512_mask_mov_pd(PFX##tCur, adv, tNext);                     \
    const __mmask8 exited = static_cast<__mmask8>(                             \
        adv & (_mm512_cmp_pd_mask(PFX##c0, vZero, _CMP_LT_OQ) |                \
               _mm512_cmp_pd_mask(PFX##c1, vZero, _CMP_LT_OQ) |                \
               _mm512_cmp_pd_mask(PFX##c2, vZero, _CMP_LT_OQ)));               \
    const __mmask8 retire = static_cast<__mmask8>(wallM | ext | exited);       \
    if (retire != 0) {                                                         \
      __mmask8 refill = 0;                                                     \
      if (!hasNext) {                                                          \
        const __m512d outV = _mm512_mask_add_pd(                               \
            PFX##sumI, exited, PFX##sumI,                                      \
            _mm512_mul_pd(vWallTerm, PFX##trans));                             \
        _mm512_mask_i64scatter_pd(out, retire, PFX##ridx, outV, 8);            \
        unsigned rbits = retire;                                               \
        while (rbits != 0) {                                                   \
          const int lane = __builtin_ctz(rbits);                               \
          rbits &= rbits - 1;                                                  \
          const __mmask8 lm = static_cast<__mmask8>(1u << lane);               \
          if (!queue.empty()) {                                                \
            int idx;                                                           \
            const RaySetup& rs = queue.pop(idx);                               \
            RMCRT_REFILL_LANE(PFX)                                             \
            PFX##ridx = insertLane64(PFX##ridx, lm, &rs.ray);                  \
            refill = static_cast<__mmask8>(refill | lm);                       \
          } else {                                                             \
            RMCRT_KILL_LANE(PFX)                                               \
          }                                                                    \
        }                                                                      \
      } else {                                                                 \
        _mm512_store_pd(PFX##P.cnt[0], PFX##c0);                               \
        _mm512_store_pd(PFX##P.cnt[1], PFX##c1);                               \
        _mm512_store_pd(PFX##P.cnt[2], PFX##c2);                               \
        _mm512_store_pd(PFX##P.tCur, PFX##tCur);                               \
        _mm512_store_pd(PFX##P.trans, PFX##trans);                             \
        _mm512_store_pd(PFX##P.sumI, PFX##sumI);                               \
        unsigned rbits = retire;                                               \
        while (rbits != 0) {                                                   \
          const int lane = __builtin_ctz(rbits);                               \
          rbits &= rbits - 1;                                                  \
          double laneSum = PFX##P.sumI[lane];                                  \
          const bool finished = !((exited >> lane) & 1u) ||                    \
                                exitLane(pass, PFX##P, lane, laneSum);         \
          if (finished) out[PFX##P.rayIdx[lane]] = laneSum;                    \
          const __mmask8 lm = static_cast<__mmask8>(1u << lane);               \
          if (!queue.empty()) {                                                \
            int idx;                                                           \
            const RaySetup& rs = queue.pop(idx);                               \
            fillLaneMeta(PFX##P, lane, rs, rays.pos[idx], rays.dir[idx]);      \
            RMCRT_REFILL_LANE(PFX)                                             \
            refill = static_cast<__mmask8>(refill | lm);                       \
          } else {                                                             \
            RMCRT_KILL_LANE(PFX)                                               \
          }                                                                    \
        }                                                                      \
      }                                                                        \
      /* Refilled rays start at t = 0 on this level. */                        \
      PFX##tCur =                                                              \
          _mm512_maskz_mov_pd(static_cast<__mmask8>(~refill), PFX##tCur);      \
    }                                                                          \
  }

// Refill lane `lm` straight from the setup chunk with register-only
// broadcast inserts (see insertLane), including the intensity and
// transmissivity the ray carries in from a finer level.
#define RMCRT_REFILL_LANE(PFX)                                                 \
  PFX##sumI = insertLane(PFX##sumI, lm, &rs.sumI);                             \
  PFX##trans = insertLane(PFX##trans, lm, &rs.trans);                          \
  PFX##t0 = insertLane(PFX##t0, lm, &rs.tMax[0]);                              \
  PFX##t1 = insertLane(PFX##t1, lm, &rs.tMax[1]);                              \
  PFX##t2 = insertLane(PFX##t2, lm, &rs.tMax[2]);                              \
  PFX##d0 = insertLane(PFX##d0, lm, &rs.tDelta[0]);                            \
  PFX##d1 = insertLane(PFX##d1, lm, &rs.tDelta[1]);                            \
  PFX##d2 = insertLane(PFX##d2, lm, &rs.tDelta[2]);                            \
  PFX##c0 = insertLane(PFX##c0, lm, &rs.cnt[0]);                               \
  PFX##c1 = insertLane(PFX##c1, lm, &rs.cnt[1]);                               \
  PFX##c2 = insertLane(PFX##c2, lm, &rs.cnt[2]);                               \
  PFX##s0 = insertLane64(PFX##s0, lm, &rs.axStride[0]);                        \
  PFX##s1 = insertLane64(PFX##s1, lm, &rs.axStride[1]);                        \
  PFX##s2 = insertLane64(PFX##s2, lm, &rs.axStride[2]);                        \
  PFX##off = insertLane64(PFX##off, lm, &rs.off);

// The bundle is drained: drop the lane from `alive` and park its stale
// (possibly out-of-window) offset on record 0 so it can never feed a
// gather again.
#define RMCRT_KILL_LANE(PFX)                                                   \
  PFX##alive = static_cast<__mmask8>(PFX##alive & ~lm);                        \
  PFX##off = _mm512_maskz_mov_epi64(static_cast<__mmask8>(~lm), PFX##off);

// GCC 12's avx512 headers implement the all-ones-mask forms of
// _mm512_slli_epi64 / _mm512_min_pd via _mm512_undefined_pd(), whose
// `__Y = __Y` self-init still trips -Wmaybe-uninitialized once the
// intrinsics inline into a loop this deep. Header-internal false
// positive, not our state.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
/// One level's pass on AVX-512: two interleaved 8-lane packets.
RMCRT_TARGET_AVX512
void packetPassAvx512(const PacketPass& pass, const PassRays& rays,
                      std::uint64_t& segments) {
  assert(rays.n > 0);
  const TraceLevel& L = *pass.level;
  const PackedFieldView& pf = L.packed;
  assert(pf.valid());
  const unsigned char* base = pf.bytes();
  const double* abskgBase = reinterpret_cast<const double*>(
      base + PackedFieldView::kAbskgByteOffset);
  const double* sigmaBase = reinterpret_cast<const double*>(
      base + PackedFieldView::kSigmaByteOffset);
  const int* cellTypeBase = reinterpret_cast<const int*>(
      base + PackedFieldView::kCellTypeByteOffset);
  // Loop-invariant, so both branches predict perfectly: wall-free
  // levels skip the cellType gather, and the last level's `allowed`
  // exits take the domain-wall term instead of the handoff.
  const bool hasWalls = pf.hasWalls();
  const bool hasNext = pass.hasNext;
  double* const out = pass.out;

  const __m512d vThreshold = _mm512_set1_pd(pass.threshold);
  const __m512d vEmissivity = _mm512_set1_pd(pass.wallEmissivity);
  const __m512d vOne = _mm512_set1_pd(1.0);
  const __m512d vZero = _mm512_setzero_pd();
  const __m512d vSign = _mm512_set1_pd(-0.0);
  // Band scale on gathered kappa (spectral pipeline); 1.0 in gray mode,
  // where the extra mul is bitwise neutral. Sources are never scaled.
  const __m512d vKappaScale = _mm512_set1_pd(pass.kappaScale);
  const __m256i vWallType =
      _mm256_set1_epi32(static_cast<int>(PackedCell::kWall));
  // Hoisted domain-wall emission factor for the last-level vectorized
  // retirement; the scalar march multiplies the same product before the
  // separately rounded add.
  const __m512d vWallTerm =
      _mm512_set1_pd(pass.wallEmissivity * pass.wallSigmaT4OverPi);

  // Both packets draw rays from one shared queue. Ray-to-packet
  // assignment does not affect results: each ray's march is independent
  // and bitwise-deterministic, results land at out[ray] via its result
  // slot, and the segment total is a per-ray sum.
  SetupQueue queue(L, rays);
  RMCRT_DECL_PKT(A)
  RMCRT_DECL_PKT(B)

  while ((Aalive | Balive) != 0) {
    RMCRT_STEP(A)
    RMCRT_STEP(B)
  }

  // Lane counts are integer-valued doubles well under 2^53, so the
  // horizontal sum is exact.
  alignas(64) double segLanes[8];
  _mm512_store_pd(segLanes, _mm512_add_pd(AsegAcc, BsegAcc));
  double committed = 0.0;
  for (int i = 0; i < 8; ++i) committed += segLanes[i];
  segments += static_cast<std::uint64_t>(committed);
}

#pragma GCC diagnostic pop

#undef RMCRT_DECL_PKT
#undef RMCRT_STEP
#undef RMCRT_REFILL_LANE
#undef RMCRT_KILL_LANE

}  // namespace

void Tracer::traceRaysSimd(int n, const Vector* origins, const Vector* dirs,
                           double* out, std::uint64_t& segments) const {
  // Two handoff buffers per thread, reused across calls: the pass over
  // level li reads the rays level li-1 handed off from one and fills the
  // other for level li+1.
  static thread_local Handoff buffers[2];
  const auto passFn = avx512Usable() ? packetPassAvx512 : packetPassAvx2;
  PacketPass pass;
  pass.threshold = m_cfg.threshold;
  pass.kappaScale = m_cfg.kappaScale;
  pass.wallEmissivity = m_walls.emissivity;
  pass.wallSigmaT4OverPi = m_walls.sigmaT4OverPi;
  // Calls longer than a stream march a stream at a time, which bounds
  // the handoff buffers.
  for (int b = 0; b < n; b += kStreamRays) {
    pass.out = out + b;
    PassRays rays{std::min(kStreamRays, n - b), origins + b, dirs + b,
                  nullptr, nullptr, nullptr};
    for (std::size_t li = 0; rays.n > 0; ++li) {
      Handoff& next = buffers[li % 2];
      next.clear();
      pass.level = &m_levels[li];
      pass.hasNext = li + 1 < m_levels.size();
      pass.next = &next;
      passFn(pass, rays, segments);
      rays = next.rays();
    }
  }
}

const char* Tracer::simdIsa() {
  if (!simdSupported()) return "none";
  return avx512Usable() ? "avx512" : "avx2";
}

#else  // !RMCRT_SIMD_X86

void Tracer::traceRaysSimd(int n, const Vector* origins, const Vector* dirs,
                           double* out, std::uint64_t& segments) const {
  // Non-x86 build: simdSupported() is constant-false so this is
  // unreachable through the public dispatch; keep a correct fallback for
  // direct callers anyway.
  traceRaysScalar(n, origins, dirs, out, segments);
}

const char* Tracer::simdIsa() { return "none"; }

#endif  // RMCRT_SIMD_X86

}  // namespace rmcrt::core
