// perfbench: the repository's benchmark program.
//
//   perfbench --workload serve_hot|serve_mixed|exact_sim --seed N
//             --seconds S --trace 0|1 [--root DIR]
//
// --trace 0 runs the end-to-end measurement and prints every end-to-end
// metric; --trace 1 runs the per-layer measurement and prints every
// per-layer metric (0 where a metric does not apply to the workload).
// Scratch files (stores, daemon logs, span logs) live under
// DIR/.bench_build/runs/<pid> and are removed at exit. The last line of
// stdout is one JSON object {"correct", "attempted", "failed",
// "metrics"}; the exit code is 0 only when every answer checked out.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "metrics_catalogue.hpp"
#include "proc.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void print_provenance(const RunConfig& cfg, const std::string& simd_modes) {
  std::printf(
      "provenance: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %u, \"threads\": %u, \"build_type\": "
      "\"%s\", \"simd\": \"%s\"}\n",
      cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
      cfg.seconds, cfg.trace ? 1 : 0, hardware_threads(), cfg.threads,
      PERFBENCH_BUILD_TYPE, simd_modes.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_hot|serve_mixed|exact_sim "
               "--seed N --seconds S --trace 0|1 [--root DIR]\n");
}

/// Keeps the result's metric set exactly the catalogue's list for this
/// kind of run: unknown names are a bug here, missing ones read 0.
void conform(perfbench::Result& res, bool trace) {
  const auto& list =
      trace ? perfbench::per_layer_metrics() : perfbench::end_to_end_metrics();
  std::set<std::string> known;
  for (const auto& m : list) known.insert(m.name);
  for (const auto& [name, m] : res.metrics) {
    if (known.count(name) == 0) {
      throw std::logic_error("metric '" + name + "' is not catalogued");
    }
  }
  for (const auto& m : list) {
    if (res.metrics.count(m.name) == 0) res.set(m.name, 0.0, m.unit);
    if (res.metrics[m.name].unit != m.unit) {
      throw std::logic_error("metric '" + m.name + "' has unit '" +
                             res.metrics[m.name].unit + "', catalogued '" +
                             m.unit + "'");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string root = ".";
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        cfg.workload = value;
      } else if (flag == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (flag == "--trace") {
        cfg.trace = std::stoi(value) != 0;
        have_trace = true;
      } else if (flag == "--root") {
        root = value;
      } else {
        usage();
        return 2;
      }
    } catch (const std::exception&) {
      usage();
      return 2;
    }
  }
  if (cfg.workload.empty() || !have_trace || !(cfg.seconds > 0.0)) {
    usage();
    return 2;
  }
  cfg.threads = std::min(4u, perfbench::hardware_threads());
  cfg.serve_bin = PERFBENCH_SERVE_BIN;
  cfg.route_bin = PERFBENCH_ROUTE_BIN;
  namespace fs = std::filesystem;
  cfg.run_dir = (fs::absolute(root) / ".bench_build" / "runs" /
                 std::to_string(getpid()))
                    .string();

  int rc = 0;
  try {
    fs::remove_all(cfg.run_dir);
    fs::create_directories(cfg.run_dir);
    perfbench::settle_disk(cfg.run_dir);
    perfbench::Result res;
    if (cfg.workload == "serve_hot" || cfg.workload == "serve_mixed") {
      res = perfbench::run_serve(cfg, cfg.workload == "serve_mixed");
    } else if (cfg.workload == "exact_sim") {
      res = perfbench::run_exact(cfg);
    } else {
      usage();
      throw std::runtime_error("unknown workload '" + cfg.workload + "'");
    }
    conform(res, cfg.trace);
    constexpr std::size_t kShownErrors = 20;
    for (std::size_t i = 0; i < res.errors.size() && i < kShownErrors; ++i) {
      std::fprintf(stderr, "answer check: %s\n", res.errors[i].c_str());
    }
    if (res.errors.size() > kShownErrors) {
      std::fprintf(stderr, "answer check: %zu more\n",
                   res.errors.size() - kShownErrors);
    }
    res.print(stdout);
    rc = res.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    rc = 2;
  }
  std::error_code ec;
  fs::remove_all(cfg.run_dir, ec);
  perfbench::settle_disk(root);
  return rc;
}
