#pragma once

/// \file radiometer.h
/// The virtual radiometer: Uintah RMCRT's instrument model (used in the
/// CCMSC boiler validation campaigns alongside the divQ solve this paper
/// scales). A radiometer sits at a physical location, looks along a unit
/// direction, and integrates incoming intensity over a cone of
/// half-angle theta — exactly what a physical narrow-angle radiometer
/// mounted in a boiler wall measures. Monte Carlo: directions sampled
/// uniformly over the spherical cap, flux = mean(I) * solid angle.

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/ray_tracer.h"

namespace rmcrt::core {

/// Radiometer description.
struct RadiometerSpec {
  Vector position;          ///< physical mounting point (inside the domain)
  Vector viewDirection;     ///< unit vector the instrument looks along
  double halfAngleRadians = 0.2;  ///< cone half-angle (narrow-angle inst.)
  int nRays = 500;
};

/// Result of one radiometer evaluation.
struct RadiometerReading {
  double meanIntensity = 0.0;   ///< [W/m^2/sr] average over the cone
  double solidAngle = 0.0;      ///< [sr] of the viewing cone
  double flux = 0.0;            ///< meanIntensity * solidAngle [W/m^2]
};

/// Evaluate a radiometer against an existing tracer (any level stack).
///
/// Directions are sampled uniformly on the spherical cap around
/// viewDirection: cosTheta uniform in [cos(halfAngle), 1].
inline RadiometerReading evaluateRadiometer(const Tracer& tracer,
                                            const RadiometerSpec& spec) {
  const Vector w = spec.viewDirection.normalized();
  // Orthonormal basis (u, v, w).
  const Vector ref = std::abs(w.x()) < 0.9 ? Vector(1, 0, 0) : Vector(0, 1, 0);
  const Vector u = Vector(w.y() * ref.z() - w.z() * ref.y(),
                          w.z() * ref.x() - w.x() * ref.z(),
                          w.x() * ref.y() - w.y() * ref.x())
                       .normalized();
  const Vector v(w.y() * u.z() - w.z() * u.y(),
                 w.z() * u.x() - w.x() * u.z(),
                 w.x() * u.y() - w.y() * u.x());

  const double cosMax = std::cos(spec.halfAngleRadians);
  RadiometerReading out;
  out.solidAngle = 2.0 * M_PI * (1.0 - cosMax);

  // The whole fan goes through one traceRays call (the packet march when
  // active); per-ray intensities are reduced in ray order.
  const std::size_t n = static_cast<std::size_t>(std::max(spec.nRays, 0));
  const std::vector<Vector> origins(n, spec.position);
  std::vector<Vector> dirs(n);
  Rng rng(tracer.config().seed ^ 0x52414449ull);  // "RADI"
  for (Vector& dir : dirs) {
    const double cosT = cosMax + (1.0 - cosMax) * rng.nextDouble();
    const double sinT = std::sqrt(std::max(0.0, 1.0 - cosT * cosT));
    const double phi = 2.0 * M_PI * rng.nextDouble();
    dir = u * (sinT * std::cos(phi)) + v * (sinT * std::sin(phi)) + w * cosT;
  }
  std::vector<double> intensity(n);
  tracer.traceRays(spec.nRays, origins.data(), dirs.data(), intensity.data());
  double sum = 0.0;
  for (const double I : intensity) sum += I;
  out.meanIntensity = sum / spec.nRays;
  out.flux = out.meanIntensity * out.solidAngle;
  return out;
}

}  // namespace rmcrt::core
