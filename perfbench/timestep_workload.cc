/// \file timestep_workload.cc
/// The bc2l_* workloads: the paper's two-level radiation timestep on the
/// simulated-GPU pipeline (RmcrtComponent::registerTwoLevelGpuPipeline),
/// two simulated ranks in one process, one device worker per rank. Each
/// step hands the pipeline a new hot-spot field; the benchmark times
/// Scheduler::executeTimestep from outside, and in the traced run wraps
/// every registered task action in its own span.

#include <condition_variable>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "bench_stats.h"
#include "comm/communicator.h"
#include "core/rmcrt_component.h"
#include "gpu/gpu_data_warehouse.h"
#include "gpu/gpu_device.h"
#include "grid/load_balancer.h"
#include "mem/mmap_arena.h"
#include "perfbench.h"
#include "runtime/scheduler.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace_recorder.h"

namespace perfbench {
namespace {

using namespace rmcrt;
using core::RmcrtComponent;
using core::RmcrtLabels;

struct Shape {
  int fineEdge = 64;
  int patchEdge = 16;
  int rays = 16;
  int ranks = 2;
};

Shape shapeFor(const std::string& workload) {
  Shape s;
  if (workload == "bc2l_comm") {
    s.patchEdge = 8;  // 512 fine patches: local communication dominates
    s.rays = 1;
  }
  return s;
}

/// Persistent per-rank threads. run(fn) executes fn(rank) on every rank
/// thread concurrently and returns when all have finished. Persistent so
/// that each rank keeps one trace-recorder row across steps.
class RankCrew {
 public:
  explicit RankCrew(int ranks) : m_pending(0) {
    for (int r = 0; r < ranks; ++r) m_threads.emplace_back([this, r] { loop(r); });
  }
  ~RankCrew() {
    {
      std::lock_guard<std::mutex> lk(m_mu);
      m_stop = true;
    }
    m_cv.notify_all();
    for (auto& t : m_threads) t.join();
  }
  RankCrew(const RankCrew&) = delete;
  RankCrew& operator=(const RankCrew&) = delete;

  void run(const std::function<void(int)>& fn) {
    std::unique_lock<std::mutex> lk(m_mu);
    m_fn = &fn;
    m_pending = static_cast<int>(m_threads.size());
    ++m_generation;
    m_cv.notify_all();
    m_done.wait(lk, [this] { return m_pending == 0; });
    m_fn = nullptr;
  }

 private:
  void loop(int rank) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(int)>* fn = nullptr;
      {
        std::unique_lock<std::mutex> lk(m_mu);
        m_cv.wait(lk, [&] { return m_stop || m_generation != seen; });
        if (m_stop) return;
        seen = m_generation;
        fn = m_fn;
      }
      (*fn)(rank);
      std::lock_guard<std::mutex> lk(m_mu);
      if (--m_pending == 0) m_done.notify_all();
    }
  }

  std::mutex m_mu;
  std::condition_variable m_cv;
  std::condition_variable m_done;
  const std::function<void(int)>* m_fn = nullptr;  // guarded by m_mu
  std::uint64_t m_generation = 0;                  // guarded by m_mu
  int m_pending;                                   // guarded by m_mu
  bool m_stop = false;                             // guarded by m_mu
  std::vector<std::thread> m_threads;
};

/// One simulated cluster: grid, ranks, devices and schedulers. Member
/// order makes destruction release schedulers before the warehouses,
/// devices and communicator they reference.
struct Cluster {
  std::shared_ptr<grid::Grid> grid;
  std::shared_ptr<grid::LoadBalancer> lb;
  std::unique_ptr<comm::Communicator> world;
  std::vector<std::unique_ptr<gpu::GpuDevice>> devices;
  std::vector<std::unique_ptr<gpu::GpuDataWarehouse>> gdws;
  std::vector<std::unique_ptr<runtime::Scheduler>> scheds;
};

std::unique_ptr<Cluster> makeCluster(const Shape& s) {
  auto c = std::make_unique<Cluster>();
  c->grid = grid::Grid::makeTwoLevel(Vector(0.0), Vector(1.0),
                                     IntVector(s.fineEdge), IntVector(4),
                                     IntVector(s.patchEdge), IntVector(8));
  c->lb = std::make_shared<grid::LoadBalancer>(*c->grid, s.ranks,
                                               grid::LbStrategy::Morton);
  c->world = std::make_unique<comm::Communicator>(s.ranks);
  gpu::GpuDevice::Config dev;
  dev.workerSlots = 1;
  for (int r = 0; r < s.ranks; ++r) {
    c->devices.push_back(std::make_unique<gpu::GpuDevice>(dev));
    c->gdws.push_back(std::make_unique<gpu::GpuDataWarehouse>(*c->devices.back()));
    c->scheds.push_back(
        std::make_unique<runtime::Scheduler>(c->grid, c->lb, *c->world, r));
  }
  return c;
}

core::RmcrtSetup setupFor(const Shape& s, const HotSpot& spot) {
  core::RmcrtSetup setup;
  setup.problem = hotBurnsChriston(spot);
  setup.trace.nDivQRays = s.rays;  // every other TraceConfig field: default
  return setup;
}

const char* taskSpanName(const std::string& task) {
  if (task == "RMCRT::initProperties") return "task.init";
  if (task == "RMCRT::coarsenProperties") return "task.coarsen";
  if (task == "RMCRT::rayTraceGPU") return "task.trace";
  return "task.other";
}

/// Re-add every registered task with its action inside a benchmark span.
void wrapTasksInSpans(runtime::Scheduler& sched) {
  const std::vector<runtime::Task> tasks = sched.tasks();
  sched.clearTasks();
  for (const runtime::Task& t : tasks) {
    const char* span = taskSpanName(t.name());
    runtime::Task w(t.name(), t.level(),
                    [inner = t.action(), span](const runtime::TaskContext& ctx) {
                      TraceSpan s(kSpanCat, span);
                      inner(ctx);
                    });
    for (const auto& r : t.requiresList()) w.addRequires(r);
    for (const auto& c : t.computesList()) w.addComputes(c);
    sched.addTask(std::move(w));
  }
}

/// Counters of one rank over one step.
struct RankStep {
  runtime::SchedulerStats sched;
  std::uint64_t acks = 0;
  std::uint64_t retransmits = 0;
  gpu::DeviceStats dev;
  std::size_t levelDbCopies = 0;
};

struct StepRecord {
  double wallSec = 0;
  bool ok = true;
  std::uint64_t segments = 0, rays = 0;
  std::vector<RankStep> ranks;
  std::vector<TraceEvent> spans;  // benchmark spans (traced steps only)
};

/// Drives one cluster through radiation steps.
class StepRunner {
 public:
  StepRunner(const Shape& s, std::uint64_t seed)
      : m_shape(s), m_seed(seed), m_cluster(makeCluster(s)) {}

  const Cluster& cluster() const { return *m_cluster; }
  void setTraced(bool on) { m_traced = on; }

  StepRecord step(int index) {
    Cluster& c = *m_cluster;
    m_spot = hotSpotFor(m_seed, index);
    const core::RmcrtSetup setup = setupFor(m_shape, m_spot);
    const int n = m_shape.ranks;
    std::vector<std::uint64_t> acks0(n), retx0(n);
    for (int r = 0; r < n; ++r) {
      auto& s = *c.scheds[r];
      if (m_steps > 0) s.advanceDataWarehouses();
      // The coarse properties change every step: drop the level database
      // copy so the first trace task of the step uploads the new one.
      c.gdws[r]->invalidateLevel(0);
      s.clearTasks();
      RmcrtComponent::registerTwoLevelGpuPipeline(s, setup, *c.gdws[r]);
      if (m_traced) wrapTasksInSpans(s);
      s.resetStats();
      c.devices[r]->resetStats();
      acks0[r] = s.channel() ? s.channel()->stats().acksSent : 0;
      retx0[r] = s.channel() ? s.channel()->stats().retransmits : 0;
    }
    auto& reg = MetricsRegistry::global();
    const std::uint64_t seg0 = reg.counter("tracer.segments").value();
    const std::uint64_t rays0 = reg.counter("tracer.rays").value();

    StepRecord rec;
    std::vector<char> failed(n, 0);
    const double t0 = nowSec();
    m_crew.run([&](int r) {
      try {
        TraceSpan span(kSpanCat, "step");
        c.scheds[r]->executeTimestep();
      } catch (const std::exception& e) {
        std::cerr << "rank " << r << " step " << index << ": " << e.what()
                  << "\n";
        failed[r] = 1;
      }
    });
    rec.wallSec = nowSec() - t0;
    ++m_steps;

    for (int r = 0; r < n; ++r) {
      rec.ok = rec.ok && !failed[r];
      RankStep rs;
      const auto& s = *c.scheds[r];
      rs.sched = s.stats();
      if (s.channel()) {
        rs.acks = s.channel()->stats().acksSent - acks0[r];
        rs.retransmits = s.channel()->stats().retransmits - retx0[r];
      }
      rs.dev = c.devices[r]->stats();
      rs.levelDbCopies = c.gdws[r]->numLevelVarCopies();
      rec.ranks.push_back(rs);
    }
    rec.segments = reg.counter("tracer.segments").value() - seg0;
    rec.rays = reg.counter("tracer.rays").value() - rays0;
    return rec;
  }

  /// Fine-level divQ of the last step, gathered from the owning ranks.
  grid::CCVariable<double> gatherDivQ() const {
    const Cluster& c = *m_cluster;
    const grid::Level& fine = c.grid->fineLevel();
    grid::CCVariable<double> out(fine.cells(), 0.0);
    for (const grid::Patch& p : fine.patches()) {
      const auto& v = c.scheds[c.lb->rankOf(p.id())]->newDW().get<double>(
          RmcrtLabels::divQ, p.id());
      out.copyRegion(v, p.cells());
    }
    return out;
  }

  const HotSpot& lastSpot() const { return m_spot; }

 private:
  Shape m_shape;
  std::uint64_t m_seed;
  bool m_traced = false;
  int m_steps = 0;
  HotSpot m_spot;
  std::unique_ptr<Cluster> m_cluster;
  RankCrew m_crew{m_shape.ranks};
};

template <typename F>
double medianOver(const std::vector<StepRecord>& steps, F f) {
  std::vector<double> v;
  for (const auto& s : steps) v.push_back(f(s));
  return median(v);
}

/// Per step, the maximum over ranks of \p f.
template <typename F>
double medianMaxOverRanks(const std::vector<StepRecord>& steps, F f) {
  return medianOver(steps, [&](const StepRecord& s) {
    double m = 0;
    for (const auto& r : s.ranks) m = std::max(m, static_cast<double>(f(r)));
    return m;
  });
}

/// Self time of the benchmark spans of one step, per (rank, span name).
std::map<std::pair<int, std::string>, double> spanSelfSeconds(
    const StepRecord& s) {
  std::vector<Span> spans;
  for (const auto& e : s.spans)
    spans.push_back(Span{e.tid, e.tsNs, e.durNs});
  const std::vector<std::int64_t> self = selfTimesNs(spans);
  std::map<std::pair<int, std::string>, double> out;
  for (std::size_t i = 0; i < s.spans.size(); ++i)
    out[{s.spans[i].pid, s.spans[i].name}] += self[i] * 1e-9;
  return out;
}

double medianSpanSelf(const std::vector<StepRecord>& steps,
                      const std::string& name, int ranks) {
  return medianOver(steps, [&](const StepRecord& s) {
    const auto self = spanSelfSeconds(s);
    double m = 0;
    for (int r = 0; r < ranks; ++r) {
      const auto it = self.find({r, name});
      if (it != self.end()) m = std::max(m, it->second);
    }
    return m;
  });
}

/// Sum over ranks of the trace-task self time of one step.
double traceSelfSumSeconds(const StepRecord& s) {
  double sum = 0;
  for (const auto& [key, sec] : spanSelfSeconds(s))
    if (key.second == "task.trace") sum += sec;
  return sum;
}

void addPerLayer(Report& rep, const std::vector<StepRecord>& traced,
                 double untracedMedian, int ranks) {
  using R = RankStep;
  const double mib = 1.0 / (1024.0 * 1024.0);
  rep.add("runtime.local_comm_s",
          medianMaxOverRanks(traced, [](const R& r) { return r.sched.localCommSeconds; }), "s");
  rep.add("runtime.wait_s",
          medianMaxOverRanks(traced, [](const R& r) { return r.sched.waitSeconds; }), "s");
  rep.add("runtime.tasks_executed",
          medianMaxOverRanks(traced, [](const R& r) { return r.sched.tasksExecuted; }), "count");
  rep.add("runtime.task.init_s", medianSpanSelf(traced, "task.init", ranks), "s");
  rep.add("runtime.task.coarsen_s", medianSpanSelf(traced, "task.coarsen", ranks), "s");
  rep.add("runtime.task.trace_s", medianSpanSelf(traced, "task.trace", ranks), "s");
  rep.add("runtime.step_self_s", medianSpanSelf(traced, "step", ranks), "s");
  rep.add("comm.messages",
          medianMaxOverRanks(traced, [](const R& r) { return r.sched.messagesSent; }), "count");
  rep.add("comm.bytes",
          medianMaxOverRanks(traced, [](const R& r) { return r.sched.bytesSent; }), "B");
  rep.add("comm.retransmits",
          medianMaxOverRanks(traced, [](const R& r) { return r.retransmits; }), "count");
  rep.add("comm.acks", medianMaxOverRanks(traced, [](const R& r) { return r.acks; }), "count");
  rep.add("gpu.h2d_bytes",
          medianMaxOverRanks(traced, [](const R& r) { return r.dev.h2dBytes; }), "B");
  rep.add("gpu.h2d_transfers",
          medianMaxOverRanks(traced, [](const R& r) { return r.dev.h2dTransfers; }), "count");
  rep.add("gpu.d2h_bytes",
          medianMaxOverRanks(traced, [](const R& r) { return r.dev.d2hBytes; }), "B");
  rep.add("gpu.kernels",
          medianMaxOverRanks(traced, [](const R& r) { return r.dev.kernelsLaunched; }), "count");
  rep.add("gpu.level_db_copies",
          medianMaxOverRanks(traced, [](const R& r) { return r.levelDbCopies; }), "count");
  rep.add("gpu.peak_device_mb",
          medianMaxOverRanks(traced, [&](const R& r) { return r.dev.peakBytesInUse * mib; }), "MB");
  rep.add("gpu.cpu_fallbacks",
          medianMaxOverRanks(traced, [](const R& r) { return r.dev.cpuFallbacks; }), "count");
  rep.add("gpu.alloc_failures",
          medianMaxOverRanks(traced, [](const R& r) { return r.dev.allocFailures; }), "count");
  rep.add("core.segments", medianOver(traced, [](const StepRecord& s) {
            return static_cast<double>(s.segments); }), "count");
  rep.add("core.rays", medianOver(traced, [](const StepRecord& s) {
            return static_cast<double>(s.rays); }), "count");
  rep.add("core.mseg_per_s", medianOver(traced, [](const StepRecord& s) {
            const double t = traceSelfSumSeconds(s);
            return t > 0 ? s.segments / t * 1e-6 : 0.0; }), "Mseg/s");
  const double tracedMedian =
      medianOver(traced, [](const StepRecord& s) { return s.wallSec; });
  rep.add("trace.overhead_ratio", tracedMedian / untracedMedian, "ratio");
}

}  // namespace

Report runTimestepWorkload(const Options& opt) {
  const Shape shape = shapeFor(opt.workload);
  Report rep;
  std::cout << "shape fine=" << shape.fineEdge << "^3 coarse="
            << shape.fineEdge / 4 << "^3 patch=" << shape.patchEdge
            << "^3 rays/cell=" << shape.rays << " ranks=" << shape.ranks
            << " device_workers/rank=1\n";

  // Set-up: construction, registration and the warm-up step, several
  // times; the last cluster is the one measured.
  constexpr int kSetups = 3;
  std::vector<double> setupSec;
  std::unique_ptr<StepRunner> runner;
  for (int i = 0; i < kSetups; ++i) {
    runner.reset();
    const double t0 = nowSec();
    runner = std::make_unique<StepRunner>(shape, opt.seed);
    const StepRecord warm = runner->step(0);
    setupSec.push_back(nowSec() - t0);
    ++rep.attempted;
    if (!warm.ok) ++rep.failed;
  }

  // Measure. A traced run spends its first half untraced (the base of the
  // overhead ratio) and its second half with spans on. The first measured
  // step's output is kept (its gather is not timed): its field depends
  // only on the seed, so the accuracy metric does too.
  std::vector<StepRecord> plain, traced;
  const double untracedBudget = opt.trace ? opt.seconds / 2 : opt.seconds;
  int index = 1;
  std::optional<grid::CCVariable<double>> firstOut;
  HotSpot firstSpot;
  double untimed = 0;
  const double start = nowSec();
  // At least kMinSteps, so that on any host the tail (ten steps beyond
  // it) is at or above p75.
  constexpr std::size_t kMinSteps = 40;
  while (nowSec() - start < untracedBudget ||
         plain.size() < (opt.trace ? 1 : kMinSteps)) {
    plain.push_back(runner->step(index++));
    if (!firstOut) {
      const double g0 = nowSec();
      firstOut.emplace(runner->gatherDivQ());
      firstSpot = runner->lastSpot();
      untimed += nowSec() - g0;
    }
  }
  const double plainWall = nowSec() - start - untimed;
  if (opt.trace) {
    TraceRecorder& rec = TraceRecorder::global();
    rec.clear();
    rec.setEnabled(true);
    runner->setTraced(true);
    mem::MmapArena::resetStats();
    const double t1 = nowSec();
    while (nowSec() - t1 < opt.seconds - untracedBudget || traced.empty()) {
      StepRecord s = runner->step(index++);
      for (const TraceEvent& e : rec.snapshotEvents())
        if (std::strcmp(e.cat, kSpanCat) == 0) s.spans.push_back(e);
      rec.clear();
      traced.push_back(std::move(s));
    }
    rec.setEnabled(false);
  }
  const double rssMb = peakRssMb();

  std::uint64_t thrown = 0;
  for (const auto& s : plain) thrown += !s.ok;
  for (const auto& s : traced) thrown += !s.ok;
  rep.attempted += plain.size() + traced.size();
  rep.failed += thrown;

  // Correctness, outside the timed region: the first and the final
  // measured step's fine divQ must equal the serial two-level solve of the
  // same problem bitwise (library defaults keep the scalar march, whose
  // contract is bitwise).
  const grid::Grid& grid = *runner->cluster().grid;
  ThreadPool pool(std::max(1u, std::min(4u, std::thread::hardware_concurrency())));
  const auto verify = [&](int step, const HotSpot& spot,
                          const grid::CCVariable<double>& got) {
    core::RmcrtSetup serial = setupFor(shape, spot);
    serial.pool = &pool;
    const grid::CCVariable<double> want =
        RmcrtComponent::solveSerialTwoLevel(grid, serial);
    std::size_t bad = 0;
    for (const auto& c : grid.fineLevel().cells())
      if (std::memcmp(&got[c], &want[c], sizeof(double)) != 0) ++bad;
    std::cout << "verify step " << step << ": " << bad << " of "
              << grid.fineLevel().cells().volume()
              << " fine cells differ from solveSerialTwoLevel (bitwise)\n";
    if (bad > 0) ++rep.failed;
  };
  verify(1, firstSpot, *firstOut);
  if (index - 1 > 1) verify(index - 1, runner->lastSpot(), runner->gatherDivQ());

  std::vector<double> wallMs;
  for (const auto& s : plain) wallMs.push_back(s.wallSec * 1e3);
  const double stepMedianSec = median(wallMs) / 1e3;
  if (!opt.trace) {
    std::vector<double> lines;
    for (const CellRange& line : centerlines(grid.fineLevel()))
      for (const auto& c : line) lines.push_back((*firstOut)[c]);
    const double err =
        relL2(lines, referenceCenterlines(grid, hotBurnsChriston(firstSpot)));
    const TailPick tail = tailPercentile(wallMs);
    std::cout << "steps " << plain.size() << " (median of " << wallMs.size()
              << "), tail p" << tail.percentile << " with " << tail.beyond
              << " of " << tail.samples << " samples beyond\n";
    rep.add("latency_ms_p50", median(wallMs), "ms");
    rep.add("latency_ms_tail", tail.valid ? tail.value : std::nan(""), "ms");
    rep.add("throughput_per_s", plain.size() / plainWall, "1/s");
    rep.add("divq_rel_l2", err, "ratio");
    rep.add("setup_s", median(setupSec), "s");
    rep.add("peak_rss_mb", rssMb, "MB");
  } else {
    addPerLayer(rep, traced, stepMedianSec, shape.ranks);
    const mem::ArenaStats a = mem::MmapArena::stats();
    rep.add("mem.arena_peak_mb", a.peakBytesMapped / (1024.0 * 1024.0), "MB");
    rep.add("mem.arena_map_calls",
            static_cast<double>(a.totalMapCalls) / traced.size(), "count");
  }
  return rep;
}

}  // namespace perfbench
