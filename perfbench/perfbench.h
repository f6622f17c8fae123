#pragma once

/// \file perfbench.h
/// Shared plumbing of the end-to-end benchmark program: run options, the
/// report every workload fills, the Burns–Christon hot-spot field the
/// seed perturbs, the high-ray centerline reference, process memory and
/// the benchmark's own trace spans.

#include <cstdint>
#include <string>
#include <vector>

#include "core/problems.h"
#include "grid/grid.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload run produced. `metrics` holds the end-to-end set for
/// an untraced run and the per-layer set for a traced one. `failed`
/// counts operations (set-up, measured and probe steps or requests)
/// that threw, were rejected or failed their correctness check; every
/// one of them is also in `attempted`. The run is correct when none
/// failed.
struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// A hot region on top of the Burns–Christon medium, standing in for the
/// temperature field a loosely coupled CFD solver hands the radiation
/// solve each step. Its position moves with the step index on a path
/// whose phase and strength come from the workload seed, so no step
/// repeats an earlier input.
struct HotSpot {
  rmcrt::Vector center{0.5, 0.5, 0.5};
  double amplitude = 0.0;  ///< peak sigmaT4 over the background
  double width = 0.15;     ///< gaussian radius [m]
};

HotSpot hotSpotFor(std::uint64_t seed, int step);

/// Burns–Christon absorption with the hot spot added to sigmaT4/pi. The
/// spot is captured by value.
rmcrt::core::RadiationProblem hotBurnsChriston(const HotSpot& spot);

/// The three axis-aligned centerlines of \p level (x, y and z lines
/// through the middle cell), the cells the accuracy metric compares.
std::vector<rmcrt::CellRange> centerlines(const rmcrt::grid::Level& level);

/// High-ray single-level divQ over the fine-level centerlines of \p grid,
/// concatenated in centerlines() order: the accuracy reference,
/// independent of the two-level pipeline and its ray seed. Deterministic
/// per problem.
std::vector<double> referenceCenterlines(const rmcrt::grid::Grid& grid,
                                         const rmcrt::core::RadiationProblem& p);

/// Relative L2 distance ||a - b|| / ||b||.
double relL2(const std::vector<double>& a, const std::vector<double>& b);

/// Peak resident set size of this process so far [MiB] (ru_maxrss).
double peakRssMb();

/// Seconds on the steady clock since an arbitrary epoch.
double nowSec();

/// Timestep workloads (bc2l_march, bc2l_comm) and the service workload.
Report runTimestepWorkload(const Options& opt);
Report runServiceWorkload(const Options& opt);

/// Category of the benchmark's own spans in the trace recorder.
inline constexpr const char* kSpanCat = "bench";

}  // namespace perfbench
