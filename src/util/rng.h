#pragma once

/// \file rng.h
/// Counter-based pseudo-random number generation for Monte Carlo ray
/// tracing. Every (cell, ray) pair gets an independent, reproducible
/// stream regardless of patch decomposition, rank count or thread
/// scheduling — the property needed so RMCRT results are bitwise
/// deterministic across any parallel configuration. The mixing function is
/// splitmix64, which passes BigCrush as a 64-bit mixer.

#include <cstdint>

#include "util/int_vector.h"

namespace rmcrt {

/// splitmix64's constants: the Weyl increment and the two multipliers
/// of its mix (shared with the vector ray generator, which must draw the
/// same bits).
inline constexpr std::uint64_t kSplitmixGamma = 0x9E3779B97F4A7C15ull;
inline constexpr std::uint64_t kSplitmixMul1 = 0xBF58476D1CE4E5B9ull;
inline constexpr std::uint64_t kSplitmixMul2 = 0x94D049BB133111EBull;

/// splitmix64 finalizer: a bijective 64-bit mix.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += kSplitmixGamma;
  x = (x ^ (x >> 30)) * kSplitmixMul1;
  x = (x ^ (x >> 27)) * kSplitmixMul2;
  return x ^ (x >> 31);
}

/// A small counter-based RNG: state advances through splitmix64 from a
/// seed derived by hashing (domain seed, cell index, ray id). Cheap to
/// construct per ray; no shared state between threads.
class Rng {
 public:
  /// Seed from an arbitrary 64-bit value.
  constexpr explicit Rng(std::uint64_t seed)
      : m_state(splitmix64(seed ^ kSeedMix)) {}

  /// What the constructor xors into its seed before hashing it.
  static constexpr std::uint64_t kSeedMix = 0xD1B54A32D192ED03ull;

  /// Seed an independent stream for ray \p ray of cell \p cell in a
  /// simulation seeded with \p domainSeed. Each component is absorbed by
  /// its own full splitmix64 round (hash chaining). Packing the three
  /// 32-bit coordinates into one word at bit offsets 0/21/42 — the
  /// previous scheme — overlaps the fields, so cells with any coordinate
  /// >= 2^21, and all negative coordinates (whose uint32 images set the
  /// high bits), could collide into the same stream and correlate
  /// neighboring cells' estimators.
  Rng(std::uint64_t domainSeed, const IntVector& cell, std::uint32_t ray)
      : Rng(streamSeed(domainSeed, cell, ray)) {}

  /// The chained stream seed for (domainSeed, cell, ray); exposed for
  /// collision tests.
  static constexpr std::uint64_t streamSeed(std::uint64_t domainSeed,
                                            const IntVector& cell,
                                            std::uint32_t ray) {
    return splitmix64(cellSeed(domainSeed, cell) ^
                      static_cast<std::uint64_t>(ray));
  }

  /// The (domainSeed, cell) prefix of streamSeed's chain, which every ray
  /// of the cell shares: streamSeed(s, c, r) is
  /// splitmix64(cellSeed(s, c) ^ r).
  static constexpr std::uint64_t cellSeed(std::uint64_t domainSeed,
                                          const IntVector& cell) {
    auto absorb = [](std::uint64_t h, std::uint64_t v) {
      return splitmix64(h ^ v);
    };
    std::uint64_t h = splitmix64(domainSeed);
    h = absorb(h, static_cast<std::uint64_t>(
                      static_cast<std::int64_t>(cell.x())));
    h = absorb(h, static_cast<std::uint64_t>(
                      static_cast<std::int64_t>(cell.y())));
    h = absorb(h, static_cast<std::uint64_t>(
                      static_cast<std::int64_t>(cell.z())));
    return h;
  }

  /// Next 64 uniformly distributed bits.
  constexpr std::uint64_t nextU64() {
    m_state += kSplitmixGamma;
    std::uint64_t x = m_state;
    x = (x ^ (x >> 30)) * kSplitmixMul1;
    x = (x ^ (x >> 27)) * kSplitmixMul2;
    return x ^ (x >> 31);
  }

  /// Uniform double in [0, 1).
  constexpr double nextDouble() {
    // 53 high-quality bits -> [0,1).
    return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  constexpr double uniform(double lo, double hi) {
    return lo + (hi - lo) * nextDouble();
  }

  /// Uniform integer in [0, n). Unbiased enough for MC use (n << 2^64).
  constexpr std::uint64_t nextBelow(std::uint64_t n) {
    return nextU64() % n;
  }

  /// The raw stream counter. Together with fromState() this lets a
  /// checkpoint resume a stream mid-sequence: the constructor hashes its
  /// seed, so re-seeding with state() would NOT continue the stream.
  constexpr std::uint64_t state() const { return m_state; }

  /// Rebuild an Rng that continues exactly where the stream whose state()
  /// was \p rawState left off.
  static constexpr Rng fromState(std::uint64_t rawState) {
    Rng r(0);
    r.m_state = rawState;
    return r;
  }

 private:
  std::uint64_t m_state;
};

}  // namespace rmcrt
