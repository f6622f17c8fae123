#pragma once

/// \file bench_stats.h
/// Pure helpers of the end-to-end benchmark: seed hashing, order
/// statistics, the "highest percentile with at least ten samples beyond
/// it" tail rule, the open-loop Poisson arrival schedule and its lateness
/// accounting, the max-rate ladder rule, span self time and metric-name
/// validation.
/// Header-only and free of rmcrt dependencies so selftest.cc can check
/// every rule on synthetic data.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: a well-mixed 64-bit hash of \p z, for deriving inputs
/// from the workload seed.
inline std::uint64_t mix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Median of \p v (mean of the middle pair for even sizes); NaN if empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The tail the benchmark reports: the highest percentile that still has
/// at least \p minBeyond samples strictly above it in rank, capped at
/// \p capPercentile. Nearest-rank: the value is the k-th smallest sample
/// with k = n - minBeyond (or the cap's rank when lower), so exactly
/// n - k samples lie beyond it.
struct TailPick {
  bool valid = false;      ///< false when n <= minBeyond
  double percentile = 0;   ///< 100 * k / n
  double value = 0;
  std::size_t samples = 0;  ///< n
  std::size_t beyond = 0;   ///< n - k
};

inline TailPick tailPercentile(std::vector<double> v,
                               std::size_t minBeyond = 10,
                               double capPercentile = 100.0) {
  TailPick t;
  t.samples = v.size();
  if (v.size() <= minBeyond) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  std::size_t k = n - minBeyond;
  const auto capRank =
      static_cast<std::size_t>(std::ceil(capPercentile / 100.0 * n - 1e-9));
  k = std::max<std::size_t>(1, std::min(k, capRank));
  t.valid = true;
  t.percentile = 100.0 * static_cast<double>(k) / static_cast<double>(n);
  t.value = v[k - 1];
  t.beyond = n - k;
  return t;
}

/// Open-loop arrival schedule: Poisson arrivals at \p ratePerSec over
/// [0, durationSec), as due offsets in seconds from the window start.
/// Depends only on (seed, rate, duration).
inline std::vector<double> poissonDueTimes(std::uint64_t seed,
                                           double ratePerSec,
                                           double durationSec) {
  std::vector<double> due;
  if (ratePerSec <= 0 || durationSec <= 0) return due;
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(ratePerSec);
  for (double t = gap(rng); t < durationSec; t += gap(rng)) due.push_back(t);
  return due;
}

/// Latency of one open-loop request, timed from its due time: a
/// generator that sends late charges the lateness to the request, so a
/// stall shows up in every request it delays.
inline double latencyFromDue(double dueSec, double completedSec) {
  return completedSec - dueSec;
}

/// How late the generator ran: per request, sent - due (never negative —
/// an early send is a zero-late send).
inline double lateness(double dueSec, double sentSec) {
  return std::max(0.0, sentSec - dueSec);
}

/// One rung of the max-rate ladder: what a fixed offered rate produced.
struct RungResult {
  double offeredQps = 0;
  std::vector<double> latencyMs;  ///< completed requests, from due time
  std::size_t attempted = 0;
  std::size_t failed = 0;        ///< rejected, errored or mismatched
  std::size_t backlogAtEnd = 0;  ///< in flight when the send window ended
};

/// The ladder's limits: p99 within 20 ms, at most 1% of requests failed,
/// and a backlog when sending stops of at most what 20 ms of arrivals
/// leaves in flight (a queue that keeps up), but never less than 4.
inline constexpr double kLadderP99LimitMs = 20.0;
inline constexpr double kLadderMaxFailedShare = 0.01;
inline constexpr double kLadderBacklogMs = 20.0;
inline constexpr double kLadderMinBacklog = 4.0;

/// p99 of a rung (nearest rank); a failed request counts as missing the
/// limit, so it enters as +infinity.
inline double rungP99Ms(const RungResult& r) {
  std::vector<double> v = r.latencyMs;
  v.insert(v.end(), r.failed, std::numeric_limits<double>::infinity());
  if (v.empty()) return std::numeric_limits<double>::infinity();
  std::sort(v.begin(), v.end());
  const auto k = static_cast<std::size_t>(std::ceil(0.99 * v.size() - 1e-9));
  return v[std::max<std::size_t>(1, k) - 1];
}

inline bool rungPasses(const RungResult& r) {
  if (r.attempted == 0) return false;
  const double failedShare =
      static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  const double backlogLimit =
      std::max(kLadderMinBacklog, r.offeredQps * kLadderBacklogMs / 1000.0);
  return failedShare <= kLadderMaxFailedShare &&
         static_cast<double>(r.backlogAtEnd) <= backlogLimit &&
         rungP99Ms(r) <= kLadderP99LimitMs;
}

/// Geometric ladder of offered rates from \p lo up to \p hi (inclusive
/// when hit), each rung \p factor times the previous.
inline std::vector<double> rateLadder(double lo, double hi, double factor) {
  std::vector<double> out;
  if (lo <= 0 || factor <= 1.0) return out;
  for (double r = lo; r <= hi * (1 + 1e-9); r *= factor) out.push_back(r);
  return out;
}

/// A closed interval on one thread's timeline.
struct Span {
  std::uint32_t tid = 0;
  std::int64_t startNs = 0;
  std::int64_t durNs = 0;
};

/// Self time of every span: its duration minus the part of it that its
/// direct children (spans on the same thread nested inside it) cover.
/// Returned in input order.
inline std::vector<std::int64_t> selfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Span& x = spans[a];
    const Span& y = spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.startNs != y.startNs) return x.startNs < y.startNs;
    return x.durNs > y.durNs;  // parent before a child that starts with it
  });
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].durNs;
  std::vector<std::size_t> stack;
  for (std::size_t idx : order) {
    const Span& s = spans[idx];
    while (!stack.empty()) {
      const Span& top = spans[stack.back()];
      if (top.tid == s.tid && s.startNs >= top.startNs &&
          s.startNs + s.durNs <= top.startNs + top.durNs)
        break;
      stack.pop_back();
    }
    if (!stack.empty()) self[stack.back()] -= s.durNs;
    stack.push_back(idx);
  }
  return self;
}

/// Metric names: 1..64 characters of [A-Za-z0-9_.-], starting with a
/// letter or digit.
inline bool validMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

}  // namespace perfbench
