/// \file service_workload.cc
/// The svc_mixed workload: one service::Service with two workers over a
/// 32^3/8^3 Burns–Christon scene, fed from a single sender thread — divQ
/// x-slabs, wall-flux probes and radiometer cones from eight tenants,
/// with an updateProperties roughly every twenty arrivals. Untraced runs
/// measure two closed loops: two clients per worker (request latency with
/// a short queue) and a saturated one (capacity). Traced runs measure an open-loop Poisson
/// stream near half of capacity, timed from each request's due time, and
/// a ladder of offered rates that finds the highest rate keeping p99
/// within 20 ms with at most 1% failures and no growing backlog.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <iostream>
#include <map>
#include <mutex>
#include <random>
#include <thread>

#include "bench_stats.h"
#include "mem/mmap_arena.h"
#include "perfbench.h"
#include "service/service.h"
#include "util/metrics.h"
#include "util/trace_recorder.h"

namespace perfbench {
namespace {

using namespace rmcrt;
using namespace rmcrt::service;

constexpr int kFineEdge = 32;
/// bc2l_march's rays per cell. At the TraceConfig default (100) one slab
/// takes about 45 ms, beyond the ladder's 20 ms p99 limit.
constexpr int kDivQRays = 16;
constexpr int kTenants = 8;
constexpr double kUpdateShare = 1.0 / 20.0;
constexpr std::size_t kWorkers = 2;
constexpr double kNominalQps = 400.0;
/// Untraced runs alternate kWindows parts of two closed loops:
/// kLatencyClients clients (request latency: the workers stay busy, and
/// at most three requests wait) and kCapacityClients clients (a
/// saturated service: its capacity). With one client the workers idle
/// between requests, so thread wake-ups set the latency and it swung
/// twice as far as the throughput when the host slowed; with two, a
/// probe queued behind the other client's slab takes ten times as long
/// as one answered alone, and the median falls on the edge between the
/// two. Traced
/// runs measure the open loop at kNominalQps (about half of capacity),
/// untraced then traced, then climb the max-rate ladder from
/// kLadderStartQps for at most kLadderShare of --seconds.
constexpr std::size_t kLatencyClients = 2 * kWorkers;
constexpr std::size_t kCapacityClients = 64;
constexpr double kLadderShare = 1.0 / 3.0;
constexpr double kLadderStartQps = 100.0;
constexpr double kLadderStep = 1.25;
constexpr double kRungSeconds = 1.0;
constexpr int kWindows = 4;
/// Every kSampleEvery-th query (by a seeded hash) is re-solved one-shot.
constexpr std::uint64_t kSampleEvery = 16;
constexpr std::size_t kMaxSamples = 48;

std::shared_ptr<const grid::Grid> makeScene() {
  return grid::Grid::makeTwoLevel(Vector(0.0), Vector(1.0),
                                  IntVector(kFineEdge), IntVector(4),
                                  IntVector(8), IntVector(4));
}

core::RmcrtSetup sceneSetup(const HotSpot& spot) {
  core::RmcrtSetup s;
  s.problem = hotBurnsChriston(spot);
  s.trace.nDivQRays = kDivQRays;  // every other TraceConfig field: default
  return s;
}

enum class Kind { DivQ, Flux, Radiometer, Update };

/// One arrival of the open-loop stream.
struct Planned {
  Kind kind = Kind::DivQ;
  std::string tenant;
  CellRange cells;
  std::vector<std::pair<IntVector, IntVector>> faces;
  core::RadiometerSpec spec;
};

/// The seeded request mix: bench_service's probe-heavy shares (25% divQ
/// x-slabs, 25% four-face wall-flux probes, 50% radiometer cones), plus
/// an updateProperties at kUpdateShare of the arrivals. Probes and
/// radiometers use the library's ray counts (FluxQuery::nRays,
/// RadiometerSpec::nRays). The sequence depends only on the seed, never
/// on timing, so every run of a seed asks the same questions.
class QueryStream {
 public:
  explicit QueryStream(std::uint64_t seed) : m_rng(seed ^ 0x51F15EEDull) {}

  Planned next() {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::uniform_int_distribution<int> cell(0, kFineEdge - 1);
    Planned p;
    p.tenant = "tenant" + std::to_string(m_rng() % kTenants);
    const double k = u(m_rng);
    if (k < kUpdateShare) {
      p.kind = Kind::Update;
    } else if (k < kUpdateShare + 0.25 * (1 - kUpdateShare)) {
      p.kind = Kind::DivQ;
      const int x = cell(m_rng);
      p.cells = CellRange(IntVector(x, 0, 0),
                          IntVector(x + 1, kFineEdge, kFineEdge));
    } else if (k < kUpdateShare + 0.5 * (1 - kUpdateShare)) {
      p.kind = Kind::Flux;
      const int axis = static_cast<int>(m_rng() % 3);
      const bool high = m_rng() % 2 == 1;
      for (int f = 0; f < 4; ++f) {
        int c[3] = {cell(m_rng), cell(m_rng), cell(m_rng)};
        int n[3] = {0, 0, 0};
        c[axis] = high ? kFineEdge - 1 : 0;
        n[axis] = high ? 1 : -1;
        p.faces.emplace_back(IntVector(c[0], c[1], c[2]),
                             IntVector(n[0], n[1], n[2]));
      }
    } else {
      p.kind = Kind::Radiometer;
      p.spec.position =
          Vector(0.1 + 0.8 * u(m_rng), 0.1 + 0.8 * u(m_rng), 0.1 + 0.8 * u(m_rng));
      Vector d(u(m_rng) - 0.5, u(m_rng) - 0.5, u(m_rng) - 0.5);
      if (d.dot(d) < 1e-6) d = Vector(0.0, 0.0, 1.0);
      p.spec.viewDirection = d.normalized();
      p.spec.halfAngleRadians = 0.2;
    }
    return p;
  }

 private:
  std::mt19937_64 m_rng;
};

/// A request in flight: exactly one of the three futures is valid.
struct InFlight {
  std::uint64_t index = 0;
  double dueSec = 0;  // absolute, steady clock
  bool sampled = false;
  Planned plan;
  std::future<Outcome<DivQResult>> divq;
  std::future<Outcome<FluxResult>> flux;
  std::future<Outcome<RadiometerResult>> radiometer;
};

/// A sampled response kept for the one-shot comparison.
struct Sample {
  Planned plan;
  Generation generation = 0;
  std::vector<double> values;
};

/// What one open-loop window produced.
struct Window {
  RungResult rung;
  double sendSeconds = 0;
  double startSec = 0;     ///< steady-clock time the window opened
  double lastDoneSec = 0;  ///< steady-clock time of the last completion
  std::vector<double> internalMs, lateMs;
  std::uint64_t completedOk = 0;
  std::uint64_t updates = 0, updatesFailed = 0;
};

/// Sleep until shortly before \p tSec on the steady clock, then spin: a
/// sleeping generator wakes up to milliseconds late on a busy host, and
/// that lateness would be charged to the request.
void waitUntil(double tSec) {
  constexpr double kSpinSec = 300e-6;
  const double sleepTo = tSec - kSpinSec;
  if (nowSec() < sleepTo)
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(sleepTo))));
  while (nowSec() < tSec) {
  }
}

/// Owns the service, the scene and the record of which problem each scene
/// generation served.
class ServiceRig {
 public:
  explicit ServiceRig(std::uint64_t seed)
      : m_seed(seed), m_grid(makeScene()), m_stream(seed) {
    ServiceConfig cfg;
    cfg.workers = kWorkers;
    m_svc = std::make_unique<Service>(cfg);
    const HotSpot spot = hotSpotFor(seed, 0);
    m_handle = m_svc->registerScene(m_grid, sceneSetup(spot));
    m_problemOf[m_handle.generation] = spot;
  }

  Service& service() { return *m_svc; }
  const grid::Grid& grid() const { return *m_grid; }
  const std::map<Generation, HotSpot>& spots() const { return m_problemOf; }
  std::vector<Sample>& samples() { return m_samples; }

  /// A blocking divQ query (set-up's first query, accuracy probe).
  Outcome<DivQResult> solveNow(const CellRange& cells) {
    return m_svc->submitDivQ({"probe", m_handle.id, 0, cells}).get();
  }

  /// Run one window of \p seconds; returns once every request sent in it
  /// has completed. Open loop (\p closedInFlight == 0): Poisson arrivals
  /// at \p qps. Closed loop: a new request goes out whenever fewer than
  /// \p closedInFlight are in flight (the service's capacity).
  Window run(double qps, double seconds, bool keepSamples,
             std::size_t closedInFlight = 0) {
    Window w;
    w.rung.offeredQps = qps;
    const std::vector<double> due =
        poissonDueTimes(mix64(m_seed ^ (m_windows++ * 0x1234567ull)), qps, seconds);
    std::condition_variable doneCv;

    std::mutex mu;
    std::condition_variable cv;
    std::deque<InFlight> queue;  // guarded by mu
    bool sendingDone = false;    // guarded by mu
    std::atomic<std::uint64_t> completed{0};

    // The collector waits on futures in send order and stamps completion
    // when each becomes ready; the service drains in arrival order, so
    // the stamp trails the true completion by at most a batch.
    std::thread collector([&] {
      for (;;) {
        InFlight f;
        {
          std::unique_lock<std::mutex> lk(mu);
          cv.wait(lk, [&] { return sendingDone || !queue.empty(); });
          if (queue.empty()) return;
          f = std::move(queue.front());
          queue.pop_front();
        }
        bool ok = false;
        double internal = 0;
        Sample s;
        if (f.divq.valid()) {
          auto o = f.divq.get();
          ok = o.ok();
          internal = o.value.latencyMs;
          s.generation = o.value.generation;
          s.values = std::move(o.value.divQ);
        } else if (f.flux.valid()) {
          auto o = f.flux.get();
          ok = o.ok();
          internal = o.value.latencyMs;
          s.generation = o.value.generation;
          s.values = std::move(o.value.fluxes);
        } else {
          auto o = f.radiometer.get();
          ok = o.ok();
          internal = o.value.latencyMs;
          s.generation = o.value.generation;
          const auto& r = o.value.reading;
          s.values = {r.meanIntensity, r.solidAngle, r.flux};
        }
        const double done = nowSec();
        {
          std::lock_guard<std::mutex> lk(mu);
          completed.fetch_add(1, std::memory_order_relaxed);
        }
        doneCv.notify_one();
        if (TraceRecorder::global().enabled()) {
          auto& rec = TraceRecorder::global();
          const std::int64_t dur = static_cast<std::int64_t>((done - f.dueSec) * 1e9);
          rec.recordComplete(kSpanCat, "service.request", rec.nowNs() - dur, dur);
        }
        std::lock_guard<std::mutex> lk(m_resultsMu);
        w.lastDoneSec = done;
        if (ok) {
          ++w.completedOk;
          w.rung.latencyMs.push_back(latencyFromDue(f.dueSec, done) * 1e3);
          w.internalMs.push_back(internal);
          if (f.sampled && m_samples.size() < kMaxSamples) {
            s.plan = std::move(f.plan);
            m_samples.push_back(std::move(s));
          }
        } else {
          ++w.rung.failed;
        }
      }
    });

    const double start = nowSec() + 0.002;
    w.startSec = start;
    for (std::size_t i = 0;; ++i) {
      double dueAbs = 0;
      if (closedInFlight == 0) {
        if (i >= due.size()) break;
        dueAbs = start + due[i];
        waitUntil(dueAbs);
      } else {
        if (nowSec() - start >= seconds) break;
        std::unique_lock<std::mutex> lk(mu);
        doneCv.wait(lk, [&] {
          return w.rung.attempted - completed.load(std::memory_order_relaxed) <
                 closedInFlight;
        });
        dueAbs = nowSec();
      }
      const double sent = nowSec();
      w.lateMs.push_back(lateness(dueAbs, sent) * 1e3);
      Planned p = m_stream.next();
      if (p.kind == Kind::Update) {
        const HotSpot spot = hotSpotFor(m_seed, ++m_updates);
        Outcome<SceneHandle> h;
        {
          TraceSpan span(kSpanCat, "service.update");
          h = m_svc->updateProperties(m_handle.id, hotBurnsChriston(spot));
        }
        ++w.updates;
        if (h.ok())
          m_problemOf[h.value.generation] = spot;
        else
          ++w.updatesFailed;
        continue;
      }
      InFlight f;
      f.index = m_queries++;
      f.dueSec = dueAbs;
      f.sampled = keepSamples && mix64(m_seed * 31 + f.index) % kSampleEvery == 0;
      {
        TraceSpan span(kSpanCat, "service.submit");
        switch (p.kind) {
          case Kind::DivQ:
            f.divq = m_svc->submitDivQ({p.tenant, m_handle.id, 0, p.cells});
            break;
          case Kind::Flux:
            f.flux =
                m_svc->submitBoundaryFlux({p.tenant, m_handle.id, 0, p.faces});
            break;
          default:
            f.radiometer =
                m_svc->submitRadiometer({p.tenant, m_handle.id, 0, p.spec});
            break;
        }
      }
      f.plan = std::move(p);
      ++w.rung.attempted;
      {
        std::lock_guard<std::mutex> lk(mu);
        queue.push_back(std::move(f));
      }
      cv.notify_one();
    }
    w.sendSeconds = std::max(1e-9, nowSec() - start);
    w.rung.backlogAtEnd =
        w.rung.attempted - completed.load(std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(mu);
      sendingDone = true;
    }
    cv.notify_one();
    collector.join();
    return w;
  }

 private:
  std::uint64_t m_seed;
  std::shared_ptr<const grid::Grid> m_grid;
  QueryStream m_stream;
  std::unique_ptr<Service> m_svc;
  SceneHandle m_handle;
  std::map<Generation, HotSpot> m_problemOf;  // generation -> its field
  std::uint64_t m_windows = 0, m_queries = 0;
  int m_updates = 0;
  std::mutex m_resultsMu;
  std::vector<Sample> m_samples;  // guarded by m_resultsMu while running
};

/// Re-solve every sampled response one-shot; returns the mismatches.
std::size_t verifySamples(ServiceRig& rig) {
  std::size_t bad = 0;
  for (const Sample& s : rig.samples()) {
    const auto it = rig.spots().find(s.generation);
    if (it == rig.spots().end()) {
      ++bad;
      continue;
    }
    const core::RmcrtSetup setup = sceneSetup(it->second);
    std::vector<double> want;
    switch (s.plan.kind) {
      case Kind::DivQ:
        want = Service::solveDivQOneShot(rig.grid(), setup, s.plan.cells).divQ;
        break;
      case Kind::Flux:
        want = Service::solveFluxOneShot(rig.grid(), setup, s.plan.faces,
                                         FluxQuery{}.nRays).fluxes;
        break;
      default: {
        const auto r =
            Service::solveRadiometerOneShot(rig.grid(), setup, s.plan.spec).reading;
        want = {r.meanIntensity, r.solidAngle, r.flux};
      }
    }
    if (want.size() != s.values.size() ||
        std::memcmp(want.data(), s.values.data(),
                    want.size() * sizeof(double)) != 0)
      ++bad;
  }
  return bad;
}

/// One window made of back-to-back parts (the last part's backlog).
Window merged(const std::vector<Window>& parts) {
  Window m;
  const auto append = [](std::vector<double>& to, const std::vector<double>& v) {
    to.insert(to.end(), v.begin(), v.end());
  };
  for (const Window& w : parts) {
    m.rung.offeredQps = w.rung.offeredQps;
    append(m.rung.latencyMs, w.rung.latencyMs);
    m.rung.attempted += w.rung.attempted;
    m.rung.failed += w.rung.failed;
    m.rung.backlogAtEnd = w.rung.backlogAtEnd;
    m.sendSeconds += w.sendSeconds;
    append(m.internalMs, w.internalMs);
    append(m.lateMs, w.lateMs);
    m.updates += w.updates;
    m.completedOk += w.completedOk;
    m.updatesFailed += w.updatesFailed;
  }
  return m;
}

std::vector<double> withFailures(const RungResult& r) {
  std::vector<double> v = r.latencyMs;
  v.insert(v.end(), r.failed, std::numeric_limits<double>::infinity());
  return v;
}

}  // namespace

Report runServiceWorkload(const Options& opt) {
  Report rep;
  std::cout << "shape scene=" << kFineEdge << "^3/" << kFineEdge / 4
            << "^3 workers=" << kWorkers << " tenants=" << kTenants
            << " divq_rays=" << kDivQRays
            << " flux_rays=" << FluxQuery{}.nRays
            << " radiometer_rays=" << core::RadiometerSpec{}.nRays
            << " clients=" << kLatencyClients << "," << kCapacityClients
            << " open_loop_qps=" << kNominalQps << "\n";

  // Set-up: service construction, registerScene and the first query.
  constexpr int kSetups = 50;
  const CellRange firstSlab(IntVector(kFineEdge / 2, 0, 0),
                            IntVector(kFineEdge / 2 + 1, kFineEdge, kFineEdge));
  std::vector<double> setupSec;
  std::unique_ptr<ServiceRig> rig;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();
    const double t0 = nowSec();
    rig = std::make_unique<ServiceRig>(opt.seed);
    const bool ok = rig->solveNow(firstSlab).ok();
    setupSec.push_back(nowSec() - t0);
    ++rep.attempted;
    if (!ok) ++rep.failed;
  }

  // Accuracy, outside the timed windows: the three centerlines queried
  // through the service on the registered (seed-determined) scene,
  // against the high-ray reference.
  std::vector<double> lines;
  for (const CellRange& line : centerlines(rig->grid().fineLevel())) {
    const Outcome<DivQResult> o = rig->solveNow(line);
    ++rep.attempted;
    if (!o.ok()) ++rep.failed;
    lines.insert(lines.end(), o.value.divQ.begin(), o.value.divQ.end());
  }
  const double err = relL2(
      lines, referenceCenterlines(rig->grid(),
                                  hotBurnsChriston(rig->spots().begin()->second)));

  auto& reg = MetricsRegistry::global();
  Window measured;  // the closed loops (untraced) or the traced open loop
  Window latencyLoop;
  std::vector<double> rates, partTails;
  TailPick tail;
  if (!opt.trace) {
    // Two closed loops, alternating in kWindows parts each so that both
    // see the same host: every client sends its next request when its
    // previous one completes. Latency comes from the kLatencyClients loop;
    // the service's capacity is the median of the saturated loop's
    // per-part completion rates.
    const double part = opt.seconds / (2 * kWindows);
    std::vector<Window> latencyParts, all;
    for (int i = 0; i < kWindows; ++i) {
      latencyParts.push_back(rig->run(0, part, true, kLatencyClients));
      tail = tailPercentile(withFailures(latencyParts.back().rung), 10, 99);
      std::cout << "latency part " << i << ": "
                << latencyParts.back().rung.attempted << " requests, tail p"
                << tail.percentile << " with " << tail.beyond << " beyond\n";
      partTails.push_back(tail.valid ? tail.value : std::nan(""));
      const Window w = rig->run(0, part, true, kCapacityClients);
      rates.push_back(w.completedOk / std::max(1e-9, w.lastDoneSec - w.startSec));
      all.push_back(latencyParts.back());
      all.push_back(w);
    }
    latencyLoop = merged(latencyParts);
    measured = merged(all);
  } else {
    // Open loop at the nominal rate, untraced then traced, then the
    // max-rate ladder.
    const double openSec = (1 - kLadderShare) * opt.seconds / 2;
    const Window nominal = rig->run(kNominalQps, openSec, true);
    rep.attempted += nominal.rung.attempted + nominal.updates;
    rep.failed += nominal.rung.failed + nominal.updatesFailed;
    const ServiceStats s0 = rig->service().stats();
    const std::uint64_t seg0 = reg.counter("tracer.segments").value();
    const std::uint64_t rays0 = reg.counter("tracer.rays").value();
    mem::MmapArena::resetStats();
    TraceRecorder& rec = TraceRecorder::global();
    rec.clear();
    rec.setEnabled(true);
    measured = rig->run(kNominalQps, openSec, true);
    rec.setEnabled(false);
    const ServiceStats s1 = rig->service().stats();
    const auto spanMs = [&](const char* name) {
      std::vector<double> v;
      for (const TraceEvent& e : rec.snapshotEvents())
        if (std::strcmp(e.cat, kSpanCat) == 0 && std::strcmp(e.name, name) == 0)
          v.push_back(e.durNs * 1e-6);
      return median(v);
    };
    const double batches = static_cast<double>(s1.batches - s0.batches);
    const double segments =
        static_cast<double>(reg.counter("tracer.segments").value() - seg0);
    rep.add("core.segments", segments, "count");
    rep.add("core.rays",
            static_cast<double>(reg.counter("tracer.rays").value() - rays0), "count");
    rep.add("core.mseg_per_s", segments / measured.sendSeconds * 1e-6, "Mseg/s");
    rep.add("gpu.level_db_copies",
            static_cast<double>(rig->service().warehouse().numLevelVarCopies()), "count");
    const mem::ArenaStats a = mem::MmapArena::stats();
    rep.add("mem.arena_peak_mb", a.peakBytesMapped / (1024.0 * 1024.0), "MB");
    rep.add("mem.arena_map_calls",
            static_cast<double>(a.totalMapCalls) /
                std::max<std::size_t>(1, measured.rung.attempted),
            "count");
    const std::vector<double> openLat = withFailures(nominal.rung);
    tail = tailPercentile(openLat, 10, 99);
    rep.add("service.open_loop_p50_ms", median(openLat), "ms");
    rep.add("service.open_loop_tail_ms", tail.valid ? tail.value : std::nan(""), "ms");
    rep.add("service.submit_ms", spanMs("service.submit"), "ms");
    rep.add("service.internal_latency_ms", median(measured.internalMs), "ms");
    rep.add("service.batch_tiles_mean",
            batches > 0 ? (s1.tileJobs - s0.tileJobs) / batches : 0.0, "count");
    rep.add("service.batches", batches, "count");
    rep.add("service.coarse_uploads",
            static_cast<double>(s1.coarseUploads - s0.coarseUploads), "count");
    rep.add("service.generation_evictions",
            static_cast<double>(s1.generationEvictions - s0.generationEvictions),
            "count");
    rep.add("service.update_ms", spanMs("service.update"), "ms");
    rep.add("service.shed_queue_full",
            static_cast<double>(s1.admission.shedQueueFull - s0.admission.shedQueueFull),
            "count");
    rep.add("service.shed_tenant_backlog",
            static_cast<double>(s1.admission.shedTenant - s0.admission.shedTenant),
            "count");
    rep.add("service.generator_late_ms",
            tailPercentile(nominal.lateMs, 10, 99).value, "ms");
    rep.add("trace.overhead_ratio",
            median(withFailures(measured.rung)) / median(openLat), "ratio");
    std::cout << "open loop " << kNominalQps << " qps (untraced half): "
              << openLat.size() << " requests, tail p" << tail.percentile
              << " with " << tail.beyond << " beyond\n";

    // The max-rate ladder, untraced: climb offered rates from
    // kLadderStartQps until a rung misses the limits or the ladder's
    // budget is spent.
    double maxRate = 0;
    const double ladderStart = nowSec();
    for (double qps : rateLadder(kLadderStartQps, 1e5, kLadderStep)) {
      if (nowSec() - ladderStart > kLadderShare * opt.seconds) break;
      const Window w = rig->run(qps, kRungSeconds, false);
      const bool pass = rungPasses(w.rung);
      std::cout << "rung " << qps << " qps: p99 " << rungP99Ms(w.rung)
                << " ms, failed " << w.rung.failed << "/" << w.rung.attempted
                << ", backlog " << w.rung.backlogAtEnd
                << (pass ? " pass" : " fail") << "\n";
      if (!pass) break;
      maxRate = qps;
    }
    rep.add("service.max_rate_qps", maxRate, "1/s");
  }
  rep.attempted += measured.rung.attempted + measured.updates;
  rep.failed += measured.rung.failed + measured.updatesFailed;
  const double rssMb = peakRssMb();

  // Correctness outside the timed windows: sampled responses must equal
  // the one-shot solve of their generation's scene bitwise.
  const std::size_t mismatched = verifySamples(*rig);
  std::cout << "verify " << rig->samples().size()
            << " sampled responses against Service::solve*OneShot: "
            << mismatched << " differ (bitwise)\n";
  rep.failed += mismatched;

  if (!opt.trace) {
    // The tail is the median of the parts' tails, so one stalled second
    // of the host moves it no more than any other part.
    const std::vector<double> lat = withFailures(latencyLoop.rung);
    std::cout << "closed loop, " << kLatencyClients << " clients: "
              << lat.size() << " requests, tail: median of " << kWindows
              << " parts' tails; capacity: median of " << kWindows
              << " parts with " << kCapacityClients << " clients\n";
    rep.add("latency_ms_p50", median(lat), "ms");
    rep.add("latency_ms_tail", median(partTails), "ms");
    rep.add("throughput_per_s", median(rates), "1/s");
    rep.add("divq_rel_l2", err, "ratio");
    rep.add("setup_s", median(setupSec), "s");
    rep.add("peak_rss_mb", rssMb, "MB");
  }
  return rep;
}

}  // namespace perfbench
