#pragma once

/// \file problems.h
/// Radiation problem definitions: analytic fields for the absorption
/// coefficient kappa(x), the emissive source sigmaT4/pi(x), and cell
/// classification. Includes the Burns & Christon benchmark — the problem
/// the paper scales (its refs [30], [3]; Uintah's RMCRT "benchmark 1") —
/// and a synthetic boiler-like field standing in for the ARCHES
/// combustion state per DESIGN.md §2.

#include <cmath>
#include <functional>
#include <memory>

#include "grid/level.h"
#include "grid/variable.h"

namespace rmcrt::core {

/// An analytic radiation problem on the unit-ish domain.
struct RadiationProblem {
  /// Absorption coefficient at a physical point [1/m].
  std::function<double(const Vector&)> abskg;
  /// sigma*T^4/pi at a physical point [W/m^2/sr].
  std::function<double(const Vector&)> sigmaT4OverPi;
  /// Wall emission term used when a ray leaves the domain (cold black
  /// walls emit zero).
  double wallSigmaT4OverPi = 0.0;
  double wallEmissivity = 1.0;
  /// Intruding wall geometry: a cell whose center it maps to true is a
  /// wall cell, which ends every ray reaching it and adds its own
  /// sigmaT4OverPi times wallEmissivity. Empty means no interior walls.
  std::function<bool(const Vector&)> isWall;
};

/// The Burns & Christon benchmark: domain [0,1]^3, cold black walls,
/// uniform emissive power sigmaT4 = 1 (so sigmaT4/pi = 1/pi), and
///
///   kappa(x,y,z) = 0.9 (1-2|x-1/2|)(1-2|y-1/2|)(1-2|z-1/2|) + 0.1
///
/// peaking at 1.0 in the center and falling to 0.1 at the corners.
inline RadiationProblem burnsChriston() {
  RadiationProblem p;
  p.abskg = [](const Vector& x) {
    return 0.9 * (1.0 - 2.0 * std::abs(x.x() - 0.5)) *
               (1.0 - 2.0 * std::abs(x.y() - 0.5)) *
               (1.0 - 2.0 * std::abs(x.z() - 0.5)) +
           0.1;
  };
  p.sigmaT4OverPi = [](const Vector&) { return 1.0 / M_PI; };
  p.wallSigmaT4OverPi = 0.0;
  p.wallEmissivity = 1.0;
  return p;
}

/// Uniform medium: constant kappa and source. In an optically thick
/// uniform medium far from walls, incoming intensity approaches the local
/// emission and divQ -> 0 — an analytic sanity anchor for the tracer.
inline RadiationProblem uniformMedium(double kappa, double sigmaT4) {
  RadiationProblem p;
  p.abskg = [kappa](const Vector&) { return kappa; };
  p.sigmaT4OverPi = [sigmaT4](const Vector&) { return sigmaT4 / M_PI; };
  p.wallSigmaT4OverPi = sigmaT4 / M_PI;  // hot walls at the same T
  return p;
}

/// A boiler-like field: hot gaussian flame core, cooler gas toward the
/// (cold, emissive) walls, soot-laden absorbing medium strongest in the
/// core. Stands in for the ARCHES LES temperature/absorption state the
/// production simulations would supply (loose CFD-radiation coupling).
inline RadiationProblem syntheticBoiler() {
  RadiationProblem p;
  constexpr double sigma = 5.67037e-8;
  constexpr double tCore = 1800.0;   // K, flame core
  constexpr double tGas = 800.0;     // K, bulk gas
  constexpr double tWall = 600.0;    // K, water walls
  p.abskg = [](const Vector& x) {
    const Vector d = x - Vector(0.5, 0.5, 0.4);
    const double r2 = d.dot(d);
    return 0.25 + 1.75 * std::exp(-r2 / 0.08);  // sooty core
  };
  p.sigmaT4OverPi = [=](const Vector& x) {
    const Vector d = x - Vector(0.5, 0.5, 0.4);
    const double r2 = d.dot(d);
    const double t = tGas + (tCore - tGas) * std::exp(-r2 / 0.05);
    return sigma * t * t * t * t / M_PI;
  };
  p.wallSigmaT4OverPi = sigma * tWall * tWall * tWall * tWall / M_PI;
  p.wallEmissivity = 0.8;
  return p;
}

/// Fill per-patch radiative property variables from an analytic problem
/// by sampling at cell centers (over the variable's full window, ghosts
/// included, so locally-initialized ghosts match remote data exactly).
inline void initializeProperties(const grid::Level& level,
                                 const RadiationProblem& prob,
                                 grid::CCVariable<double>& abskg,
                                 grid::CCVariable<double>& sigmaT4OverPi,
                                 grid::CCVariable<grid::CellType>& cellType) {
  for (const auto& c : abskg.window())
    abskg[c] = prob.abskg(level.cellCenter(c));
  for (const auto& c : sigmaT4OverPi.window())
    sigmaT4OverPi[c] = prob.sigmaT4OverPi(level.cellCenter(c));
  cellType.fill(grid::CellType::Flow);
  if (prob.isWall)
    for (const auto& c : cellType.window())
      if (prob.isWall(level.cellCenter(c))) cellType[c] = grid::CellType::Wall;
}

}  // namespace rmcrt::core
