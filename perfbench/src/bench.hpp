// Entry points of the three workloads and what they share.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_math.hpp"
#include "result.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed window
  bool trace = false;     ///< per-layer run instead of the end-to-end run
  std::string run_dir;    ///< scratch directory for stores, logs, traces
  std::string serve_bin;  ///< sparsetrain_serve executable
  std::string route_bin;  ///< sparsetrain_route executable
  unsigned threads = 4;   ///< generator threads / connections / workers
};

/// serve_hot (`mixed` = false) and serve_mixed through router + shards.
Result run_serve(const RunConfig& cfg, bool mixed);

/// exact_sim: whole-program exact simulation in one in-process session.
Result run_exact(const RunConfig& cfg);

/// Writes one "provenance: {...}" line to stdout: seed, nproc, build
/// type and the SIMD mode of every process under test.
void print_provenance(const RunConfig& cfg, const std::string& simd_modes);

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Timed calls' results are folded into this, so the optimiser cannot
/// drop the calls.
inline volatile std::size_t g_sink = 0;

/// Wall seconds of one call of `fn`.
template <typename Fn>
double time_seconds(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

/// Median per-call microseconds of `fn(item)` over `items`, timed in
/// whole passes over the list until `min_seconds` have elapsed (at
/// least three passes), so clock overhead stays out of sub-µs calls.
template <typename Item, typename Fn>
double per_call_us(const std::vector<Item>& items, double min_seconds,
                   Fn&& fn) {
  if (items.empty()) return 0.0;
  std::vector<double> passes;
  const auto start = Clock::now();
  while (passes.size() < 3 || seconds_since(start) < min_seconds) {
    const auto t0 = Clock::now();
    for (const Item& item : items) fn(item);
    passes.push_back(seconds_since(t0) * 1e6 /
                     static_cast<double>(items.size()));
  }
  return median(std::move(passes));
}

}  // namespace perfbench
