// exact_sim: rounds of whole-program exact simulation in one in-process
// core::Session with no store and `threads` workers. A round simulates
// AlexNet/ImageNet (large GTW-heavy stages: tile parallelism) and then
// ResNet-18/CIFAR (many 512-task stages: the stage graph), both pruned
// at p = 0.9.
//
// End-to-end run: set up (session, both programs compiled, one warm-up
// round) three times and keep the last session, run rounds for the timed
// window, then check every round's cycles against a workers = 1 run of
// the same programs.
//
// Per-layer run: the session records engine stage profiles into a
// metrics registry, and the row-op kernels are timed single-threaded on
// AlexNet/ImageNet conv2 operands through ExactEngine's public calls.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "proc.hpp"
#include "core/session.hpp"
#include "dataflow/conv_decompose.hpp"
#include "dataflow/row_ops.hpp"
#include "obs/metrics.hpp"
#include "sim/exact_engine.hpp"
#include "tensor/tensor.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "workload/layer_config.hpp"
#include "workload/sparsity_profile.hpp"

namespace perfbench {

namespace {

namespace st = sparsetrain;
using st::core::Session;

constexpr std::size_t kSetups = 3;
constexpr std::size_t kMinRounds = 3;
constexpr double kPruneRate = 0.9;
constexpr double kKernelSeconds = 0.2;
const char* const kStages[] = {"forward", "gta", "gtw", "fc"};

struct Program {
  std::string key;  ///< metric-name form
  st::workload::NetworkConfig net;
  st::workload::SparsityProfile profile;
};

std::vector<Program> programs() {
  std::vector<Program> out;
  for (auto [key, net] :
       {std::pair{"alexnet_imagenet", st::workload::alexnet_imagenet()},
        std::pair{"resnet18_cifar", st::workload::resnet18_cifar()}}) {
    auto profile = st::workload::SparsityProfile::pruned(net, kPruneRate);
    out.push_back({key, std::move(net), std::move(profile)});
  }
  return out;
}

Session::JobOptions exact_job(std::size_t workers) {
  Session::JobOptions o;
  o.sim.engine = st::isa::EngineKind::Exact;
  o.sim.exact.workers = workers;  // 0 = the session's own pool
  return o;
}

std::uint64_t simulate(Session& s, const Program& p, std::size_t workers) {
  return s
      .evaluate(p.net, p.profile, {Session::kSparseBackend},
                exact_job(workers))
      .runs.front()
      .report.total_cycles;
}

/// Single-thread row-op kernels on AlexNet/ImageNet conv2 operands.
void kernel_metrics(std::uint64_t seed, Result& res) {
  const st::workload::LayerConfig& l =
      st::workload::find_layer("AlexNet/ImageNet", "conv2");
  const st::dataflow::ConvGeometry geo = st::dataflow::layer_geometry(l);
  st::Rng rng(st::mix64(seed, st::fnv1a("conv2")));
  st::Tensor input(st::Shape{1, l.in_channels, l.in_h, l.in_w});
  input.fill_sparse_normal(rng, 0.35);
  st::Tensor grad(st::Shape{1, l.out_channels, l.out_h(), l.out_w()});
  grad.fill_sparse_normal(rng, 0.10);
  st::Tensor mask(input.shape());
  mask.fill_sparse_normal(rng, 0.5);
  for (float& v : mask.flat()) {
    if (v != 0.0f) v = 1.0f;
  }

  const st::sim::ExactEngine engine(st::core::SessionConfig{}.sparse_arch);
  const auto in_rows = engine.compress(input);
  const auto go_rows = engine.compress(grad);
  const std::vector<int> once = {0};
  const auto mrows_s = [&](const char* metric, const auto& run) {
    const double row_ops = static_cast<double>(run().row_ops);
    const double us = per_call_us(once, kKernelSeconds, [&](int) { run(); });
    res.set(metric, row_ops / us, "Mrow/s");  // rows per µs = Mrows/s
  };
  mrows_s("kernel.src_mrows_s", [&] {
    return engine.run_forward(in_rows, input.shape(), geo);
  });
  mrows_s("kernel.msrc_mrows_s", [&] {
    return engine.run_gta(go_rows, grad.shape(), input.shape(), &mask, geo);
  });
  mrows_s("kernel.osrc_mrows_s", [&] {
    return engine.run_gtw(go_rows, grad.shape(), in_rows, input.shape(),
                          geo);
  });
  std::size_t sink = 0;
  res.set("kernel.compress_s",
          per_call_us(once, kKernelSeconds,
                      [&](int) { sink += engine.compress(input).rows(); }) *
              1e-6,
          "s");
  g_sink = sink;
}

}  // namespace

Result run_exact(const RunConfig& cfg) {
  Result res;
  const std::vector<Program> progs = programs();
  st::obs::Registry registry;  // outlives every session below

  std::unique_ptr<Session> session;
  std::vector<double> setups;
  for (std::size_t i = 0; i < kSetups; ++i) {
    session.reset();
    setups.push_back(time_seconds([&] {
      st::core::SessionConfig sc;
      sc.workers = cfg.threads;
      sc.seed = cfg.seed;
      sc.metrics = cfg.trace ? &registry : nullptr;
      sc.profile_engine = cfg.trace;
      session = std::make_unique<Session>(sc);
      st::compiler::CompileOptions copts;
      copts.engine = st::isa::EngineKind::Exact;
      for (const Program& p : progs) {
        session->program_cache().get(p.net, p.profile, copts);
      }
      // Warm-up round: first-touch of the engine's pooled arenas.
      for (const Program& p : progs) simulate(*session, p, 0);
    }));
  }
  print_provenance(cfg, std::string("bench=") + st::dataflow::simd_mode());
  for (const char* stage : kStages) {  // profile the timed rounds only
    const st::obs::Labels labels = {{"stage", stage}};
    registry.histogram("engine_stage_seconds", labels).reset();
    registry.counter("engine_stage_row_ops_total", labels).reset();
    registry.counter("engine_stage_tiles_total", labels).reset();
  }

  const double window = cfg.trace ? cfg.seconds * 0.6 : cfg.seconds;
  std::vector<double> round_s;
  std::vector<std::vector<double>> program_s(progs.size());
  std::vector<std::vector<std::uint64_t>> cycles(progs.size());
  const auto start = Clock::now();
  while (round_s.size() < kMinRounds || seconds_since(start) < window) {
    const auto t0 = Clock::now();
    for (std::size_t p = 0; p < progs.size(); ++p) {
      const auto tp = Clock::now();
      cycles[p].push_back(simulate(*session, progs[p], 0));
      program_s[p].push_back(seconds_since(tp));
    }
    round_s.push_back(seconds_since(t0));
  }
  std::fprintf(stderr, "exact: %zu rounds in %.3f s\n", round_s.size(),
               seconds_since(start));
  const double rss = peak_rss_mb(0);

  // Answer check: every round against one serial run of each program.
  {
    st::core::SessionConfig sc;
    sc.workers = 1;
    sc.seed = cfg.seed;
    Session serial(sc);
    for (std::size_t p = 0; p < progs.size(); ++p) {
      const std::uint64_t want = simulate(serial, progs[p], 1);
      for (const std::uint64_t got : cycles[p]) {
        res.tally.record(got == want);
        if (got != want) {
          res.error(progs[p].key + ": " + std::to_string(got) +
                    " cycles with the pool, " + std::to_string(want) +
                    " serially");
        }
      }
    }
  }

  double total_round_s = 0.0;
  for (const double r : round_s) total_round_s += r;
  if (!cfg.trace) {
    const double max_round = *std::max_element(round_s.begin(), round_s.end());
    res.set("rps", static_cast<double>(round_s.size()) / total_round_s,
            "req/s");
    res.set("p50_ms", median(round_s) * 1e3, "ms");
    res.set("p99_ms", max_round * 1e3, "ms");
    res.set("sim_s", median(round_s), "s");
    res.set("setup_s", median(setups), "s");
    res.set("rss_mb", rss, "MiB");
    return res;
  }

  const double rounds = static_cast<double>(round_s.size());
  double stage_total = 0.0;
  for (const char* stage : kStages) {
    const st::obs::Labels labels = {{"stage", stage}};
    const double secs =
        registry.histogram("engine_stage_seconds", labels).sum_seconds();
    stage_total += secs;
    const std::string key = std::string("exact.") + stage;
    res.set(key + "_s", secs / rounds, "s");
    res.set(key + "_row_ops",
            static_cast<double>(
                registry.counter("engine_stage_row_ops_total", labels)
                    .value()) /
                rounds,
            "count");
    res.set(key + "_tiles",
            static_cast<double>(
                registry.counter("engine_stage_tiles_total", labels).value()) /
                rounds,
            "count");
  }
  res.set("exact.parallel_eff",
          stage_total / (total_round_s * static_cast<double>(cfg.threads)),
          "ratio");
  for (std::size_t p = 0; p < progs.size(); ++p) {
    res.set("exact." + progs[p].key + "_s", median(program_s[p]), "s");
  }
  kernel_metrics(cfg.seed, res);
  res.set("fail_ratio", res.tally.fail_ratio(), "ratio");
  return res;
}

}  // namespace perfbench
