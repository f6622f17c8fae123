/// \file ray_tracer_simd.cc
/// The SIMD ray-packet march (DESIGN.md §14): rays march in lockstep
/// through one level's packed records, one vector lane per ray — one
/// *packet pass* per level. The pass (packet_pass.inc) is written once
/// over a thin vector type V and compiled twice: for AVX-512 (8 lanes in
/// a __m512d, lane masks in a __mmask8) and for AVX2 (4 lanes in a
/// __m256d, lane masks as all-ones lanes of a __m256i, committed with
/// blends). A lane retires in place when its ray hits a wall cell,
/// extinguishes below TraceConfig::threshold or steps out of the
/// level's `allowed` box; every retiring lane refills at once, with
/// expand loads, from the pending rays' lane setups, which a SetupQueue
/// computes a chunk ahead in vector form. A ray that leaves `allowed`
/// inside the domain is compress-stored into a handoff buffer with its
/// carried intensity and transmissivity, and the next level's pass
/// marches the buffer. The divQ streams' rays are generated in vector
/// form too (generateRayLanes), before the pass.
///
/// Numerical contract: the ray generator and the DDA bookkeeping
/// (ddaStart, min-axis tie-breaking, segment lengths, cell paths, the
/// handoff position) perform the exact same IEEE operations per ray as
/// generateRays and the scalar march (sin and cos stay libm's, one lane
/// at a time), so every ray starts bitwise where the scalar one does and
/// visits the bitwise-identical cell sequence with bitwise-identical
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
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include "core/packed_field.h"
#include "core/ray_setup.h"
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

/// A packet pass's input: n rays in structure-of-arrays form. Level 0's
/// pass starts every ray fresh (null carried arrays: intensity 0,
/// transmissivity 1, result slot = position in the input); a coarser
/// level's pass resumes the rays the finer pass handed off, with the
/// state they carried out. Every array holds kRaySlack entries past the
/// last ray.
struct PassRays {
  int n = 0;
  RaySoA rays{};
  const double* sumI = nullptr;
  const double* trans = nullptr;
  const std::int64_t* slot = nullptr;
};

/// The rays one level's pass hands to the next coarser level: each left
/// the level's `allowed` box inside the domain at pos. A pass hands off
/// at most its input, a stream of at most Tracer::kStreamRays rays, so
/// the arrays have a fixed capacity; they are allocated once per thread
/// and reused (see Tracer::traceRaysSimd), so steady-state passes
/// allocate nothing.
struct Handoff {
  std::vector<double> pos[3], dir[3], sumI, trans;
  std::vector<std::int64_t> slot;
  int n = 0;

  void allocate(std::size_t cap) {
    if (!slot.empty()) return;
    for (int a = 0; a < 3; ++a) {
      pos[a].resize(cap + kRaySlack);
      dir[a].resize(cap + kRaySlack);
    }
    sumI.resize(cap + kRaySlack);
    trans.resize(cap + kRaySlack);
    slot.resize(cap + kRaySlack);
  }
  PassRays rays() {
    return PassRays{n,
                    RaySoA{{pos[0].data(), pos[1].data(), pos[2].data()},
                           {dir[0].data(), dir[1].data(), dir[2].data()}},
                    sumI.data(), trans.data(), slot.data()};
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

/// A chunk of lane setups (LaneSetup, one entry per ray) in
/// structure-of-arrays form, so a register of rays is written with one
/// wide store per field and a refill reads its lanes with expand loads.
struct SetupChunk {
  static constexpr int kRays = 128;
  static constexpr int kCap = kRays + kRaySlack;
  double tMax[3][kCap];
  double tDelta[3][kCap];
  double cnt[3][kCap];
  std::int64_t stride[3][kCap];
  std::int64_t off[kCap];
};

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

/// The AVX2 expand and compress as lane permutations, one per 4-lane
/// mask m, each as the 32-bit halves _mm256_permutevar8x32_epi32 moves:
/// lane l of expand[m] takes element rank(l) of a loaded run (its rank
/// among m's lanes), and element j of compress[m] lane l of the j-th
/// lane of m.
struct Perm4 {
  alignas(32) int idx[8];
};
struct Perms4 {
  std::array<Perm4, 16> expand, compress;
};
constexpr Perms4 kPerms4 = [] {
  Perms4 p{};
  for (unsigned m = 0; m < 16; ++m) {
    int rank = 0;
    for (int l = 0; l < 4; ++l) {
      if (!((m >> l) & 1u)) continue;
      p.expand[m].idx[2 * l] = 2 * rank;
      p.expand[m].idx[2 * l + 1] = 2 * rank + 1;
      p.compress[m].idx[2 * rank] = 2 * l;
      p.compress[m].idx[2 * rank + 1] = 2 * l + 1;
      ++rank;
    }
  }
  return p;
}();

}  // namespace

// Each vector type supplies what the two ISAs spell differently: lane
// count, broadcasts, loads and stores, compares into a lane mask, mask
// bits, sel(m, a, b) (`m ? a : b` per lane), masked adds, gathers, the
// scatter, expand loads and compress stores, the 64-bit lane multiply and
// integer/double conversions the ray setup needs, and the exp's rounding
// and 2^n scale. Arithmetic on D and I and the mask logic (&, |, ~) are
// GCC vector operators, written once in packet_pass.inc.

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
  static I iota() { return _mm256_setr_epi64x(0, 1, 2, 3); }
  static M fromBits(unsigned b) {
    const I bit = _mm256_setr_epi64x(1, 2, 4, 8);
    return _mm256_cmpeq_epi64(_mm256_set1_epi64x(b) & bit, bit);
  }
  static unsigned bits(M m) {
    return static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(m)));
  }
  static D load(const double* p) { return _mm256_loadu_pd(p); }
  static I load(const std::int64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(double* p, D v) { _mm256_storeu_pd(p, v); }
  static void store(std::int64_t* p, I v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static M lt(D a, D b) {
    return _mm256_castpd_si256(_mm256_cmp_pd(a, b, _CMP_LT_OQ));
  }
  static M le(D a, D b) {
    return _mm256_castpd_si256(_mm256_cmp_pd(a, b, _CMP_LE_OQ));
  }
  static M ge(D a, D b) {
    return _mm256_castpd_si256(_mm256_cmp_pd(a, b, _CMP_GE_OQ));
  }
  static M eq(D a, D b) {
    return _mm256_castpd_si256(_mm256_cmp_pd(a, b, _CMP_EQ_OQ));
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
  static D max(D a, D b) { return _mm256_max_pd(a, b); }  // a > b ? a : b
  static D abs(D x) { return _mm256_andnot_pd(set(-0.0), x); }
  static D sqrt(D x) { return _mm256_sqrt_pd(x); }
  static D fma(D a, D b, D c) { return _mm256_fmadd_pd(a, b, c); }
  static D fnma(D a, D b, D c) { return _mm256_fnmadd_pd(a, b, c); }
  static D round(D x) {
    return _mm256_round_pd(x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  static D floor(D x) {
    return _mm256_round_pd(x, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  }
  /// Lane sums and products modulo 2^64; the product from three 32x32-bit
  /// multiplies (AVX2 has no 64-bit one).
  static I add(I a, I b) { return _mm256_add_epi64(a, b); }
  static I mul64(I a, I b) {
    const I cross = add(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
                        _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
    return add(_mm256_mul_epu32(a, b), _mm256_slli_epi64(cross, 32));
  }
  static I srl(I x, int n) { return _mm256_srli_epi64(x, n); }
  /// Lanes below 2^53 as doubles, exactly: each 32-bit half under a
  /// magic exponent (2^84 for the high half, 2^52 for the low one), and
  /// the exact sum.
  static D u53ToDouble(I x) {
    const D hi = _mm256_castsi256_pd(_mm256_srli_epi64(x, 32) |
                                     _mm256_castpd_si256(set(0x1.0p84))) -
                 set(0x1.0p84);
    const D lo = _mm256_castsi256_pd(_mm256_blend_epi32(
                     x, _mm256_castpd_si256(set(0x1.0p52)), 0xAA)) -
                 set(0x1.0p52);
    return hi + lo;
  }
  /// Integer-valued lanes of magnitude below 2^51 as int64: the sum with
  /// 1.5 * 2^52 is exact and keeps the integer in the low mantissa bits.
  static I toInt64(D x) {
    const D magic = set(0x1.8p52);
    return _mm256_castpd_si256(x + magic) - _mm256_castpd_si256(magic);
  }
  /// Lanes of \p m take consecutive elements of \p v (from element 0, in
  /// lane order); the others keep \p old.
  static I expand(M m, I old, I v) {
    const I perm = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kPerms4.expand[bits(m)].idx));
    return sel(m, _mm256_permutevar8x32_epi32(v, perm), old);
  }
  static I expand(M m, I old, const std::int64_t* src) {
    return expand(m, old, load(src));
  }
  static D expand(M m, D old, const double* src) {
    return _mm256_castsi256_pd(expand(m, _mm256_castpd_si256(old),
                                      _mm256_castpd_si256(load(src))));
  }
  /// Stores the lanes of \p m at dst[0..popcount), in lane order, and
  /// scratch past them up to a whole register.
  static void compress(std::int64_t* dst, M m, I v) {
    const I perm = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kPerms4.compress[bits(m)].idx));
    store(dst, _mm256_permutevar8x32_epi32(v, perm));
  }
  static void compress(double* dst, M m, D v) {
    const I perm = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kPerms4.compress[bits(m)].idx));
    store(dst, _mm256_castsi256_pd(
                   _mm256_permutevar8x32_epi32(_mm256_castpd_si256(v), perm)));
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
  static I iota() { return _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0); }
  static M fromBits(unsigned b) { return static_cast<M>(b); }
  static unsigned bits(M m) { return m; }
  static D load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, D v) { _mm512_storeu_pd(p, v); }
  static void store(std::int64_t* p, I v) { _mm512_storeu_si512(p, v); }
  static M lt(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ); }
  static M le(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_LE_OQ); }
  static M ge(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_GE_OQ); }
  static M eq(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_EQ_OQ); }
  static M ne(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_NEQ_UQ); }
  static D sel(M m, D a, D b) { return _mm512_mask_blend_pd(m, b, a); }
  static I sel(M m, I a, I b) { return _mm512_mask_blend_epi64(m, b, a); }
  static D addIf(M m, D a, D b) { return _mm512_mask_add_pd(a, m, a, b); }
  static I addIf(M m, I a, I b) { return _mm512_mask_add_epi64(a, m, a, b); }
  static D min(D a, D b) { return _mm512_min_pd(a, b); }
  static D max(D a, D b) { return _mm512_max_pd(a, b); }  // a > b ? a : b
  static D abs(D x) { return _mm512_abs_pd(x); }
  static D sqrt(D x) { return _mm512_sqrt_pd(x); }
  static D fma(D a, D b, D c) { return _mm512_fmadd_pd(a, b, c); }
  static D fnma(D a, D b, D c) { return _mm512_fnmadd_pd(a, b, c); }
  static D round(D x) {
    return _mm512_roundscale_pd(x,
                                _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  static D floor(D x) {
    return _mm512_roundscale_pd(x, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  }
  static I add(I a, I b) { return _mm512_add_epi64(a, b); }
  static I mul64(I a, I b) { return _mm512_mullo_epi64(a, b); }
  static I srl(I x, int n) { return _mm512_srli_epi64(x, n); }
  static D u53ToDouble(I x) { return _mm512_cvtepu64_pd(x); }
  static I toInt64(D x) { return _mm512_cvtpd_epi64(x); }
  static D expand(M m, D old, const double* src) {
    return _mm512_mask_expandloadu_pd(old, m, src);
  }
  static I expand(M m, I old, const std::int64_t* src) {
    return _mm512_mask_expandloadu_epi64(old, m, src);
  }
  static I expand(M m, I old, I v) { return _mm512_mask_expand_epi64(old, m, v); }
  static void compress(double* dst, M m, D v) {
    store(dst, _mm512_maskz_compress_pd(m, v));
  }
  static void compress(std::int64_t* dst, M m, I v) {
    store(dst, _mm512_maskz_compress_epi64(m, v));
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

void Tracer::traceRaysSimd(int n, const RaySoA& rays, double kappaScale,
                           double* out, std::uint64_t& segments) const {
  // Two handoff buffers per thread, reused across calls: the pass over
  // level li reads the rays level li-1 handed off from one and fills the
  // other for level li+1.
  static thread_local Handoff buffers[2];
  for (Handoff& h : buffers) h.allocate(kStreamRays);
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
    PassRays in{std::min(kStreamRays, n - b), rays.at(b)};
    for (std::size_t li = 0; in.n > 0; ++li) {
      Handoff& next = buffers[li % 2];
      next.n = 0;
      pass.level = &m_levels[li];
      pass.hasNext = li + 1 < m_levels.size();
      pass.next = &next;
      passFn(pass, in, segments);
      in = next.rays();
    }
  }
}

const char* Tracer::simdIsa() {
  if (!simdSupported()) return "none";
  return avx512Usable() ? "avx512" : "avx2";
}

#else  // !RMCRT_SIMD_X86

void Tracer::traceRaysSimd(int n, const RaySoA& rays, double kappaScale,
                           double* out, std::uint64_t& segments) const {
  // Non-x86 build: simdSupported() is constant-false, so this is
  // unreachable through the public dispatch, which then takes the scalar
  // loop.
  traceRays(n, rays, kappaScale, out, segments);
}


const char* Tracer::simdIsa() { return "none"; }

#endif  // RMCRT_SIMD_X86

RayGenerator simdRayGenerator() {
#if RMCRT_SIMD_X86
  if (Tracer::simdSupported())
    return avx512Usable() ? avx512::generateRayLanes : avx2::generateRayLanes;
#endif
  return generateRays;
}

void laneSetupsSimd(const TraceLevel& L, int n, const RaySoA& rays,
                    LaneSetup* out) {
#if RMCRT_SIMD_X86
  if (Tracer::simdSupported()) {
    (avx512Usable() ? avx512::laneSetups : avx2::laneSetups)(L, n, rays, out);
    return;
  }
#endif
  for (int i = 0; i < n; ++i)
    out[i] = laneSetup(
        L, Vector(rays.pos[0][i], rays.pos[1][i], rays.pos[2][i]),
        Vector(rays.dir[0][i], rays.dir[1][i], rays.dir[2][i]));
}

}  // namespace rmcrt::core
