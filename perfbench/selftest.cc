/// \file selftest.cc
/// The benchmark's own tests: open-loop due times and lateness
/// accounting, the "at least ten samples beyond" tail rule, the max-rate
/// ladder rule on synthetic latencies, span self time and metric-name
/// validation. Exit code 0 when every check holds.

#include <cmath>
#include <iostream>

#include "bench_stats.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::cerr << __FILE__ << ":" << __LINE__ << ": CHECK(" #cond ")" \
                << " failed\n";                                        \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

using namespace perfbench;

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void testTailRule() {
  // 10 or fewer samples: no percentile has ten beyond it.
  CHECK(!tailPercentile(iota(10)).valid);
  // 11 samples: the smallest value, with exactly ten beyond.
  TailPick t = tailPercentile(iota(11));
  CHECK(t.valid && t.value == 1 && t.beyond == 10 && t.samples == 11);
  // 30 samples: the 20th smallest (p66.7), ten beyond.
  t = tailPercentile(iota(30));
  CHECK(t.value == 20 && t.beyond == 10);
  CHECK(std::abs(t.percentile - 200.0 / 3.0) < 1e-9);
  // 2000 samples capped at p99: rank 1980, twenty beyond.
  t = tailPercentile(iota(2000), 10, 99);
  CHECK(t.value == 1980 && t.beyond == 20 && t.percentile == 99.0);
  // Order of input does not matter.
  std::vector<double> rev = iota(30);
  std::reverse(rev.begin(), rev.end());
  CHECK(tailPercentile(rev).value == 20);
}

void testMedian() {
  CHECK(median({3, 1, 2}) == 2);
  CHECK(median({4, 1, 3, 2}) == 2.5);
  CHECK(std::isnan(median({})));
}

void testOpenLoop() {
  const auto a = poissonDueTimes(7, 400, 5);
  const auto b = poissonDueTimes(7, 400, 5);
  const auto c = poissonDueTimes(8, 400, 5);
  CHECK(a == b);  // same seed, same schedule
  CHECK(a != c);
  CHECK(std::is_sorted(a.begin(), a.end()));
  CHECK(!a.empty() && a.front() >= 0 && a.back() < 5);
  // Poisson count over 5 s at 400/s: mean 2000, sd ~45.
  CHECK(a.size() > 1800 && a.size() < 2200);
  // A request sent 3 ms late and answered 2 ms after sending is 5 ms
  // late from its due time; the generator's lateness is the 3 ms.
  CHECK(std::abs(latencyFromDue(1.000, 1.005) - 0.005) < 1e-12);
  CHECK(std::abs(lateness(1.000, 1.003) - 0.003) < 1e-12);
  CHECK(lateness(1.000, 0.999) == 0.0);  // early sends are not late
}

RungResult rung(double qps, int n, double latMs, std::size_t failed = 0,
                std::size_t backlog = 0) {
  RungResult r;
  r.offeredQps = qps;
  r.latencyMs.assign(static_cast<std::size_t>(n), latMs);
  r.attempted = static_cast<std::size_t>(n) + failed;
  r.failed = failed;
  r.backlogAtEnd = backlog;
  return r;
}

void testLadderRule() {
  CHECK(rungPasses(rung(400, 1000, 5)));
  CHECK(!rungPasses(rung(400, 1000, 25)));  // p99 over 20 ms
  // 2% of requests slow: p99 lands on a slow one.
  RungResult slow = rung(400, 1000, 5);
  for (int i = 0; i < 20; ++i) slow.latencyMs[i] = 50;
  CHECK(!rungPasses(slow));
  // 0.5% slow: p99 is still fast.
  RungResult fine = rung(400, 1000, 5);
  for (int i = 0; i < 5; ++i) fine.latencyMs[i] = 50;
  CHECK(rungPasses(fine));
  // Failures count against the share limit and as missed latencies.
  CHECK(rungPasses(rung(400, 995, 5, 5)));     // 0.5% failed
  CHECK(!rungPasses(rung(400, 970, 5, 30)));   // 3% failed
  // Backlog: 400 qps * 20 ms = 8 in flight allowed.
  CHECK(rungPasses(rung(400, 1000, 5, 0, 8)));
  CHECK(!rungPasses(rung(400, 1000, 5, 0, 9)));
  CHECK(rungPasses(rung(100, 1000, 5, 0, 4)));  // floor of 4
  CHECK(!rungPasses(rung(100, 0, 5)));          // nothing attempted
  const auto rates = rateLadder(400, 1000, 1.15);
  CHECK(rates.size() == 7 && rates.front() == 400);
  CHECK(rates.back() <= 1000 && rates.back() * 1.15 > 1000);
}

void testSelfTime() {
  // Thread 0: parent [0,100) with children [10,30) and [50,60);
  // thread 1: a span overlapping in time but on another thread.
  const std::vector<Span> spans = {
      {0, 0, 100}, {0, 10, 20}, {0, 50, 10}, {1, 5, 90}, {0, 200, 5}};
  const auto self = selfTimesNs(spans);
  CHECK(self[0] == 70);
  CHECK(self[1] == 20 && self[2] == 10);
  CHECK(self[3] == 90);
  CHECK(self[4] == 5);
  // Nested three deep: only direct children are subtracted.
  const auto deep = selfTimesNs({{0, 0, 100}, {0, 10, 50}, {0, 20, 10}});
  CHECK(deep[0] == 50 && deep[1] == 40 && deep[2] == 10);
}

void testMetricNames() {
  CHECK(validMetricName("latency_ms_p50"));
  CHECK(validMetricName("runtime.task.trace_s"));
  CHECK(validMetricName("gpu.h2d-bytes"));
  CHECK(validMetricName("9lives"));
  CHECK(!validMetricName(""));
  CHECK(!validMetricName(".hidden"));
  CHECK(!validMetricName("_x"));
  CHECK(!validMetricName("has space"));
  CHECK(!validMetricName("slash/name"));
  CHECK(!validMetricName("quote\"name"));
  CHECK(!validMetricName(std::string(65, 'a')));
  CHECK(validMetricName(std::string(64, 'a')));
}

}  // namespace

int main() {
  testTailRule();
  testMedian();
  testOpenLoop();
  testLadderRule();
  testSelfTime();
  testMetricNames();
  if (g_failures == 0) std::cout << "perfbench selftest: all checks passed\n";
  return g_failures == 0 ? 0 : 1;
}
