/// \file main.cc
/// End-to-end benchmark program for rmcrt. One workload per invocation:
///
///   perfbench --workload <bc2l_march|bc2l_comm|svc_mixed> --seed <n>
///             --seconds <s> --trace <0|1>
///
/// Prints a host fingerprint, one "metric <name> <value> <unit>" line per
/// metric, and, as the last line, one JSON object with the keys correct,
/// attempted, failed and metrics. --trace 0 reports the end-to-end set,
/// --trace 1 the per-layer set (run.py orders both by BENCHMARK.json).
/// Exit code 1 when any operation failed (correct is then false), 2 on
/// bad arguments, 3 on an unoptimised build.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include <sys/resource.h>

#include "bench_stats.h"
#include "core/ray_tracer.h"
#include "perfbench.h"
#include "util/thread_pool.h"

namespace perfbench {

using rmcrt::CellRange;
using rmcrt::IntVector;
using rmcrt::Vector;

HotSpot hotSpotFor(std::uint64_t seed, int step) {
  // The seed gives the path's phases and strength.
  const auto unit = [&](std::uint64_t k) {
    return static_cast<double>(mix64(seed * 4 + k) >> 11) * 0x1.0p-53;
  };
  const double theta0 = 2 * M_PI * unit(0);
  const double phi0 = 2 * M_PI * unit(1);
  HotSpot h;
  // A mild spot (25-50% over the background) keeps the accuracy metric's
  // scale comparable across seeds while still changing every step.
  h.amplitude = 0.25 + 0.25 * unit(2);
  // Irrational angular steps: the path never revisits a position.
  const double theta = theta0 + 0.7071067811865476 * step;
  const double phi = phi0 + 0.41421356237309515 * step;
  h.center = Vector(0.5 + 0.22 * std::cos(theta), 0.5 + 0.22 * std::sin(theta),
                    0.5 + 0.18 * std::sin(phi));
  return h;
}

rmcrt::core::RadiationProblem hotBurnsChriston(const HotSpot& spot) {
  rmcrt::core::RadiationProblem p = rmcrt::core::burnsChriston();
  p.sigmaT4OverPi = [spot](const Vector& x) {
    const Vector d = x - spot.center;
    const double g = std::exp(-d.dot(d) / (spot.width * spot.width));
    return (1.0 + spot.amplitude * g) / M_PI;
  };
  return p;
}

std::vector<CellRange> centerlines(const rmcrt::grid::Level& level) {
  const CellRange c = level.cells();
  const IntVector lo = c.low(), hi = c.high();
  const IntVector mid = (lo + hi) / 2;
  return {CellRange(IntVector(lo.x(), mid.y(), mid.z()),
                    IntVector(hi.x(), mid.y() + 1, mid.z() + 1)),
          CellRange(IntVector(mid.x(), lo.y(), mid.z()),
                    IntVector(mid.x() + 1, hi.y(), mid.z() + 1)),
          CellRange(IntVector(mid.x(), mid.y(), lo.z()),
                    IntVector(mid.x() + 1, mid.y() + 1, hi.z()))};
}

std::vector<double> referenceCenterlines(
    const rmcrt::grid::Grid& grid, const rmcrt::core::RadiationProblem& p) {
  using namespace rmcrt::core;
  const rmcrt::grid::Level& fine = grid.fineLevel();
  rmcrt::grid::CCVariable<double> abskg(fine.cells(), 0.0);
  rmcrt::grid::CCVariable<double> sig(fine.cells(), 0.0);
  rmcrt::grid::CCVariable<rmcrt::grid::CellType> ct(
      fine.cells(), rmcrt::grid::CellType::Flow);
  initializeProperties(fine, p, abskg, sig, ct);
  TraceLevel tl{LevelGeom::from(fine),
                RadiationFieldsView{FieldView<double>::fromHost(abskg),
                                    FieldView<double>::fromHost(sig),
                                    FieldView<rmcrt::grid::CellType>::fromHost(
                                        ct)},
                fine.cells()};
  TraceConfig cfg;
  cfg.nDivQRays = 2048;
  cfg.seed = 0x5EEDF00Dull;  // independent of the pipeline's ray streams
  Tracer tracer({tl}, WallProperties{p.wallSigmaT4OverPi, p.wallEmissivity},
                cfg);
  rmcrt::ThreadPool pool(
      std::max(1u, std::min(4u, std::thread::hardware_concurrency())));
  std::vector<double> out;
  for (const CellRange& line : centerlines(fine)) {
    rmcrt::grid::CCVariable<double> divQ(line, 0.0);
    tracer.computeDivQ(line, MutableFieldView<double>::fromHost(divQ), &pool);
    for (const auto& c : line) out.push_back(divQ[c]);
  }
  return out;
}

double relL2(const std::vector<double>& a, const std::vector<double>& b) {
  double num = 0, den = 0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    num += (a[i] - b[i]) * (a[i] - b[i]);
    den += b[i] * b[i];
  }
  return den > 0 ? std::sqrt(num / den) : std::nan("");
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double nowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench

namespace {

void printFingerprint(const perfbench::Options& opt) {
  const rmcrt::core::TraceConfig defaults;
  std::cout << "host nproc=" << std::thread::hardware_concurrency()
            << " simd_isa=" << rmcrt::core::Tracer::simdIsa()
            << " compiler=\"" << PERFBENCH_COMPILER << "\""
            << " build_type=" << PERFBENCH_BUILD_TYPE << "\n"
            << "defaults TraceConfig.useSimd=" << defaults.useSimd
            << " TraceConfig.adaptiveRays=" << defaults.adaptiveRays << "\n"
            << "run workload=" << opt.workload << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << opt.trace << "\n";
}

bool optimisedBuild() {
#if defined(__OPTIMIZE__)
  const std::string bt = PERFBENCH_BUILD_TYPE;
  return bt == "Release" || bt == "RelWithDebInfo" || bt == "MinSizeRel";
#else
  return false;
#endif
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <bc2l_march|bc2l_comm|"
               "svc_mixed> --seed <n> --seconds <s> --trace <0|1>\n";
  return 2;
}

void printJson(const perfbench::Report& r) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": ";
    if (std::isfinite(m.value))
      os << m.value;
    else
      os << "null";
    os << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
      haveWorkload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return usage("bad --seed");
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(opt.seconds > 0))
        return usage("bad --seconds");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage("bad --trace");
      opt.trace = v == "1";
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!haveWorkload) return usage("--workload is required");
  if (!optimisedBuild()) {
    std::cerr << "perfbench: refusing to report from an unoptimised build ("
              << PERFBENCH_BUILD_TYPE << ")\n";
    return 3;
  }
  printFingerprint(opt);

  perfbench::Report report;
  if (opt.workload == "bc2l_march" || opt.workload == "bc2l_comm") {
    report = perfbench::runTimestepWorkload(opt);
  } else if (opt.workload == "svc_mixed") {
    report = perfbench::runServiceWorkload(opt);
  } else {
    return usage(("unknown workload " + opt.workload).c_str());
  }

  for (const auto& m : report.metrics) {
    if (!perfbench::validMetricName(m.name)) {
      std::cerr << "perfbench: invalid metric name '" << m.name << "'\n";
      return 2;
    }
    std::cout << "metric " << m.name << " " << m.value << " " << m.unit
              << "\n";
  }
  std::cout << "failed_frac "
            << static_cast<double>(report.failed) /
                   static_cast<double>(std::max<std::uint64_t>(
                       1, report.attempted))
            << " (" << report.failed << " of " << report.attempted << ")\n";
  printJson(report);
  return report.failed == 0 ? 0 : 1;
}
