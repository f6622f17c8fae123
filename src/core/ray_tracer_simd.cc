/// \file ray_tracer_simd.cc
/// The SIMD ray-packet march (DESIGN.md §14): rays march in lockstep
/// through one level's packed records, one vector lane per ray — one
/// *packet pass* per level. The pass (packet_pass.inc) is written once
/// over a thin vector type V and compiled twice: for AVX-512 (8 lanes in
/// a __m512d, lane masks in a __mmask8) and for AVX2 (4 lanes in a
/// __m256d, lane masks as all-ones lanes of a __m256i, committed with
/// blends). A lane retires in place when its ray hits a wall cell,
/// extinguishes below TraceConfig::threshold or steps out of the
/// level's `allowed` box, and refills from the pending rays through a
/// SetupQueue that precomputes DDA setups a chunk at a time. A ray that
/// leaves `allowed` inside the domain goes into a handoff buffer with
/// its carried intensity and transmissivity, and the next level's pass
/// marches the buffer.
///
/// Numerical contract: the DDA bookkeeping (ddaStart, min-axis
/// tie-breaking, segment lengths, cell paths, the handoff position)
/// performs the exact same IEEE operations as the scalar march, so every
/// ray visits the bitwise-identical cell sequence with bitwise-identical
/// segment lengths on every level (rmcrt_core builds with
/// -ffp-contract=off so no mul+add becomes an FMA). The only divergence
/// is the polynomial exp vs libm exp (≤ ~2 ulp per segment), which
/// accumulates multiplicatively through the transmissivity — hence the
/// documented ULP tolerance on per-ray intensities (DESIGN.md §14,
/// simd_march_test) instead of bitwise equality. Both instantiations run
/// the same IEEE operations per ray and agree bitwise with each other.
/// The scalar march remains the golden reference.
///
/// Only the two instantiations sit inside `#pragma GCC target` regions
/// (per-function target attributes do not reach lambdas); the rest of
/// the binary is baseline ISA and Tracer::simdSupported() gates every
/// call at runtime. RMCRT_FORCE_AVX2=1 pins an AVX-512 host to the AVX2
/// instantiation so it stays testable on modern hardware.

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "core/dda.h"
#include "core/packed_field.h"
#include "core/ray_tracer.h"

#if RMCRT_SIMD_X86
#include <immintrin.h>
#endif

namespace rmcrt::core {

#if RMCRT_SIMD_X86

// For the helpers the packet loop calls on lane retirement and refill: a
// call left in the loop makes GCC keep the packet state (all vector
// registers are caller-saved) in memory across the whole loop, and -O2
// leaves these calls in.
#define RMCRT_ALWAYS_INLINE inline __attribute__((always_inline))

namespace {

/// What a ray carries from a finer level's pass into the next one.
struct Carried {
  double sumI;
  double trans;
  int ray;  ///< result slot
};

/// A packet pass's input: n rays starting at pos[i] in direction dir[i].
/// Level 0's pass starts every ray fresh (null `carried`: intensity 0,
/// transmissivity 1, result slot i); a coarser level's pass resumes the
/// rays the finer pass handed off, with the state they carried out.
struct PassRays {
  int n = 0;
  const Vector* pos = nullptr;
  const Vector* dir = nullptr;
  const Carried* carried = nullptr;
};

/// The rays one level's pass hands to the next coarser level: each left
/// the level's `allowed` box inside the domain at `pos`. Reused across
/// calls (see Tracer::traceRaysSimd), so steady-state passes allocate
/// nothing.
struct Handoff {
  std::vector<Vector> pos, dir;
  std::vector<Carried> carried;

  void clear() { pos.clear(); dir.clear(); carried.clear(); }
  PassRays rays() const {
    return PassRays{static_cast<int>(pos.size()), pos.data(), dir.data(),
                    carried.data()};
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
  /// The band's scale on every kappa the pass reads (1.0: gray).
  double kappaScale = 1.0;
  double wallEmissivity = 1.0;
  double wallSigmaT4OverPi = 0.0;
  double* out = nullptr;
  Handoff* next = nullptr;
};

/// A ray's lane state on entering a level, precomputed by SetupQueue so
/// a lane refill is a handful of L1 loads instead of a chain of
/// divisions.
struct RaySetup {
  DdaStart dda;
  /// Steps left along each axis before the ray leaves `allowed`, as
  /// doubles (small exact integers) so the exit test is a vector compare:
  /// the scalar march's bounds check fails exactly when one goes negative.
  double cnt[3];
  /// Byte offset of the starting cell's record, and the pre-signed byte
  /// stride per axis (PackedFieldView::laneStride in records), so a
  /// lane's gather index needs no per-crossing multiply.
  std::int64_t off;
  std::int64_t axStride[3];
  Carried in;  ///< from the finer level; {0, 1, index} on level 0
  int index;   ///< position in the pass input
};

/// Chunked precompute of per-ray setups. Lane refill happens inside the
/// packet loop's retirement path, where ddaStart's dependent divisions
/// would stall the resumed march; batching the setups a chunk ahead
/// keeps the refill itself to plain loads out of L1 and lets the
/// divisions pipeline against the marching packets.
class SetupQueue {
 public:
  SetupQueue(const TraceLevel& level, const PassRays& rays)
      : m_level(level), m_rays(rays) {}

  bool empty() const { return m_next >= m_rays.n; }

  /// Pops the next pending ray's setup. Only valid when !empty(). The
  /// reference stays valid until the next pop.
  RMCRT_ALWAYS_INLINE const RaySetup& pop() {
    if (m_next >= m_base + m_filled) fill();
    return m_buf[m_next++ - m_base];
  }

 private:
  RMCRT_ALWAYS_INLINE void fill() {
    m_base = m_next;
    m_filled = std::min(m_rays.n - m_base, kChunk);
    const PackedFieldView& pf = m_level.packed;
    for (int i = 0; i < m_filled; ++i) {
      const int k = m_base + i;
      RaySetup& rs = m_buf[i];
      rs.dda = ddaStart(m_level, m_rays.pos[k], m_rays.dir[k]);
      for (int a = 0; a < 3; ++a) {
        const int step = rs.dda.step[a];
        const int start = rs.dda.cell[a];
        rs.cnt[a] = step > 0 ? m_level.allowed.high()[a] - 1 - start
                             : start - m_level.allowed.low()[a];
        rs.axStride[a] =
            pf.laneStride(a, step) * PackedFieldView::kRecordBytes;
      }
      rs.off = pf.offsetOf(IntVector(rs.dda.cell[0], rs.dda.cell[1],
                                     rs.dda.cell[2])) *
               PackedFieldView::kRecordBytes;
      rs.in = m_rays.carried != nullptr ? m_rays.carried[k]
                                        : Carried{0.0, 1.0, k};
      rs.index = k;
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

/// Finish a ray of a multi-level pass that stepped out of `allowed`:
/// ray \p k of the pass input, with result slot \p ray, \p cnt steps
/// left per axis (-1 on the axis it left by), intensity \p sumI and
/// transmissivity \p trans at distance \p tCur. Outside the domain the
/// ray takes the domain-wall term and \p sumI is final; inside, it goes
/// to the next level's handoff buffer from the crossing position (the
/// scalar march's `pos + dir * tCur`, rounded the same way). Returns
/// true when \p sumI is final.
RMCRT_ALWAYS_INLINE bool exitRay(const PacketPass& pass, const PassRays& rays,
                                 int k, int ray, const double* cnt,
                                 double tCur, double trans, double& sumI) {
  const TraceLevel& L = *pass.level;
  const Vector& dir = rays.dir[k];
  // The stepped cell: cnt counts the steps left before the `allowed`
  // face the ray moves towards (ddaStart's step is +1 iff dir >= 0).
  // Branch-free: the signs are random, and a mispredicted branch per
  // axis costs more than marching a short ray.
  IntVector cur;
  for (int a = 0; a < 3; ++a) {
    const int c = static_cast<int>(cnt[a]);
    const int up = dir[a] >= 0.0;
    cur[a] = up * (L.allowed.high()[a] - 1 - c) +
             (1 - up) * (L.allowed.low()[a] + c);
  }
  if (!L.geom.cells.contains(cur)) {
    sumI += pass.wallEmissivity * pass.wallSigmaT4OverPi * trans;
    return true;
  }
  pass.next->pos.push_back(rays.pos[k] + dir * tCur);
  pass.next->dir.push_back(dir);
  pass.next->carried.push_back({sumI, trans, ray});
  return false;
}

/// The vector exp (expv in packet_pass.inc): round-to-nearest
/// power-of-two reduction with a two-part ln2, then a degree-13 Taylor
/// polynomial (truncation ≤ 1e-17 relative on |r| ≤ ln2/2) evaluated as
/// an Estrin tree — ~4 FMA levels of latency instead of Horner's 13, so
/// consecutive crossings' exps pipeline instead of serializing the
/// march. Accuracy ≈ 2 ulp over the march's argument range (-inf, 0].
constexpr double kExpLog2E = 1.4426950408889634074;
constexpr double kExpLn2Hi = 6.93145751953125e-1;
constexpr double kExpLn2Lo = 1.42860682030941723212e-6;
/// 1/k! for k = 0..13: k! is exact in a double and the division rounds
/// correctly, so each is the double nearest its Taylor coefficient.
constexpr std::array<double, 14> kExpCoeff = [] {
  std::array<double, 14> c{};
  double factorial = 1.0;
  for (int k = 0; k < 14; ++k) {
    if (k > 0) factorial *= k;
    c[k] = 1.0 / factorial;
  }
  return c;
}();

/// AVX-512 eligibility for the 8-lane instantiation (the subsets it
/// uses), with RMCRT_FORCE_AVX2 as the escape hatch that keeps the AVX2
/// instantiation testable on AVX-512 hardware. Read per call so tests
/// can toggle it.
bool avx512Usable() {
  static const bool hw =
      __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx512bw");
  if (!hw) return false;
  const char* e = std::getenv("RMCRT_FORCE_AVX2");
  return e == nullptr || e[0] == '\0' || e[0] == '0';
}

}  // namespace

// Each vector type supplies what the two ISAs spell differently: lane
// count, broadcasts, compares into a lane mask, mask bits, sel(m, a, b)
// (`m ? a : b` per lane), masked adds, gathers, the scatter and the exp's
// rounding and 2^n scale. Arithmetic on D and I and the mask logic
// (&, |, ~) are GCC vector operators, written once in packet_pass.inc.

#pragma GCC push_options
#pragma GCC target("avx2,fma")
namespace avx2 {
namespace {
struct V {
  using D = __m256d;
  using I = __m256i;
  using M = __m256i;  // all-ones lanes
  static constexpr int kLanes = 4;
  static D set(double x) { return _mm256_set1_pd(x); }
  static I seti(std::int64_t x) { return _mm256_set1_epi64x(x); }
  static M lane(int l) {
    return _mm256_cmpeq_epi64(_mm256_setr_epi64x(0, 1, 2, 3),
                              _mm256_set1_epi64x(l));
  }
  static unsigned bits(M m) {
    return static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(m)));
  }
  static M lt(D a, D b) {
    return _mm256_castpd_si256(_mm256_cmp_pd(a, b, _CMP_LT_OQ));
  }
  static M ne(D a, D b) {
    return _mm256_castpd_si256(_mm256_cmp_pd(a, b, _CMP_NEQ_UQ));
  }
  static D sel(M m, D a, D b) {
    return _mm256_blendv_pd(b, a, _mm256_castsi256_pd(m));
  }
  static I sel(M m, I a, I b) { return _mm256_blendv_epi8(b, a, m); }
  // a + 0.0 == a for every a the march accumulates (none is -0.0), so
  // adding the masked-off addend is the masked add, minus the blend.
  static D addIf(M m, D a, D b) {
    return a + _mm256_and_pd(b, _mm256_castsi256_pd(m));
  }
  static I addIf(M m, I a, I b) { return a + (b & m); }
  static D min(D a, D b) { return _mm256_min_pd(a, b); }
  static D abs(D x) { return _mm256_andnot_pd(set(-0.0), x); }
  static D fma(D a, D b, D c) { return _mm256_fmadd_pd(a, b, c); }
  static D fnma(D a, D b, D c) { return _mm256_fnmadd_pd(a, b, c); }
  static D round(D x) {
    return _mm256_round_pd(x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  static D pow2(D n) {
    const I e = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(n));
    return _mm256_castsi256_pd((e + 1023) << 52);
  }
  static D gather(M m, const double* base, I byteOff) {
    return _mm256_mask_i64gather_pd(set(0.0), base, byteOff,
                                    _mm256_castsi256_pd(m), 1);
  }
  /// Lanes of \p m whose int at \p base + byteOff equals \p v.
  static M eq32(M m, const int* base, I byteOff, int v) {
    // The epi32 gather wants a 4x32 mask: each lane's high dword.
    const __m128i m32 = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
        m, _mm256_setr_epi32(1, 3, 5, 7, 1, 3, 5, 7)));
    const __m128i x = _mm256_mask_i64gather_epi32(_mm_setzero_si128(), base,
                                                  byteOff, m32, 1);
    return _mm256_cvtepi32_epi64(_mm_cmpeq_epi32(x, _mm_set1_epi32(v))) & m;
  }
  static void scatter(double* out, M m, I idx, D v) {
    for (unsigned b = bits(m); b != 0; b &= b - 1) {
      const int l = __builtin_ctz(b);
      out[idx[l]] = v[l];
    }
  }
};
#include "core/packet_pass.inc"
}  // namespace
}  // namespace avx2
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f,avx512dq,avx512vl,avx512bw,avx2,fma")
// GCC 12's avx512 headers implement the all-ones-mask forms of several
// intrinsics via _mm512_undefined_pd(), whose `__Y = __Y` self-init
// trips -Wmaybe-uninitialized once they inline into a loop this deep.
// Header-internal false positive, not our state.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
namespace avx512 {
namespace {
struct V {
  using D = __m512d;
  using I = __m512i;
  using M = __mmask8;
  static constexpr int kLanes = 8;
  static D set(double x) { return _mm512_set1_pd(x); }
  static I seti(std::int64_t x) { return _mm512_set1_epi64(x); }
  static M lane(int l) { return static_cast<M>(1u << l); }
  static unsigned bits(M m) { return m; }
  static M lt(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ); }
  static M ne(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_NEQ_UQ); }
  static D sel(M m, D a, D b) { return _mm512_mask_blend_pd(m, b, a); }
  static I sel(M m, I a, I b) { return _mm512_mask_blend_epi64(m, b, a); }
  static D addIf(M m, D a, D b) { return _mm512_mask_add_pd(a, m, a, b); }
  static I addIf(M m, I a, I b) { return _mm512_mask_add_epi64(a, m, a, b); }
  static D min(D a, D b) { return _mm512_min_pd(a, b); }
  static D abs(D x) { return _mm512_abs_pd(x); }
  static D fma(D a, D b, D c) { return _mm512_fmadd_pd(a, b, c); }
  static D fnma(D a, D b, D c) { return _mm512_fnmadd_pd(a, b, c); }
  static D round(D x) {
    return _mm512_roundscale_pd(x,
                                _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  static D pow2(D n) {
    const I e = _mm512_cvtepi32_epi64(_mm512_cvtpd_epi32(n));
    return _mm512_castsi512_pd((e + 1023) << 52);
  }
  static D gather(M m, const double* base, I byteOff) {
    return _mm512_mask_i64gather_pd(set(0.0), m, byteOff, base, 1);
  }
  static M eq32(M m, const int* base, I byteOff, int v) {
    const __m256i x = _mm512_mask_i64gather_epi32(_mm256_setzero_si256(), m,
                                                   byteOff, base, 1);
    return _mm256_mask_cmpeq_epi32_mask(m, x, _mm256_set1_epi32(v));
  }
  static void scatter(double* out, M m, I idx, D v) {
    _mm512_mask_i64scatter_pd(out, m, idx, v, 8);
  }
};
#include "core/packet_pass.inc"
}  // namespace
}  // namespace avx512
#pragma GCC diagnostic pop
#pragma GCC pop_options

void Tracer::traceRaysSimd(int n, const Vector* origins, const Vector* dirs,
                           double kappaScale, double* out,
                           std::uint64_t& segments) const {
  // Two handoff buffers per thread, reused across calls: the pass over
  // level li reads the rays level li-1 handed off from one and fills the
  // other for level li+1.
  static thread_local Handoff buffers[2];
  const auto passFn =
      avx512Usable() ? avx512::packetPass : avx2::packetPass;
  PacketPass pass;
  pass.threshold = m_cfg.threshold;
  pass.kappaScale = kappaScale;
  pass.wallEmissivity = m_walls.emissivity;
  pass.wallSigmaT4OverPi = m_walls.sigmaT4OverPi;
  // Calls longer than a stream march a stream at a time, which bounds
  // the handoff buffers.
  for (int b = 0; b < n; b += kStreamRays) {
    pass.out = out + b;
    PassRays rays{std::min(kStreamRays, n - b), origins + b, dirs + b};
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
                           double kappaScale, double* out,
                           std::uint64_t& segments) const {
  // Non-x86 build: simdSupported() is constant-false so this is
  // unreachable through the public dispatch; keep a correct fallback for
  // direct callers anyway.
  traceRaysScalar(n, origins, dirs, kappaScale, out, segments);
}

const char* Tracer::simdIsa() { return "none"; }

#endif  // RMCRT_SIMD_X86

}  // namespace rmcrt::core
