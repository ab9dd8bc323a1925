// Every metric the benchmark reports, with its unit. BENCHMARK.json lists
// the same names (tests/test_bench_math.cpp checks that they agree);
// README.md says which layer each belongs to and what it should move.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
};

inline const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> list = {
      {"rps", "req/s"},   {"p50_ms", "ms"},  {"p99_ms", "ms"},
      {"sim_s", "s"},     {"setup_s", "s"},  {"rss_mb", "MiB"},
  };
  return list;
}

inline const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> list = [] {
    std::vector<MetricDef> l;
    const auto pct = [&](const std::string& base) {
      l.push_back({base + ".p50", "ms"});
      l.push_back({base + ".p99", "ms"});
    };
    // serve.router
    pct("router.self_ms");
    pct("router.forward_ms");
    pct("router.replicate_ms");
    l.push_back({"router.replications_per_ok", "ratio"});
    l.push_back({"router.computed_share", "ratio"});
    l.push_back({"router.failovers", "count"});
    l.push_back({"router.direct_rps_ratio", "ratio"});
    // serve.transport
    pct("transport.hop_ms");
    pct("client.hop_ms");
    // core.session fingerprint, serve.protocol, serve.report_io
    for (const char* net : {"tiny", "alexnet_cifar", "resnet18_cifar",
                            "alexnet_imagenet", "resnet18_imagenet",
                            "vgg16_imagenet"}) {
      l.push_back({std::string("session.fingerprint_us.") + net, "us"});
    }
    for (const char* fn : {"protocol.parse_us", "protocol.format_us",
                           "protocol.hex_encode_us", "protocol.hex_decode_us",
                           "report_io.serialize_us"}) {
      l.push_back({fn, "us"});
    }
    // serve.server
    pct("server.queue_ms");
    pct("server.self_ms");
    pct("server.put_ms");
    l.push_back({"server.coalesced_ratio", "ratio"});
    // serve.store
    pct("store.lookup_ms");
    pct("store.publish_ms");
    l.push_back({"store.hit_ratio", "ratio"});
    l.push_back({"store.evictions", "count"});
    // compiler.program_cache, sim.accelerator
    pct("session.compile_ms");
    pct("session.simulate_ms");
    l.push_back({"program_cache.hit_ratio", "ratio"});
    // sim.exact_engine, sim.exact_network
    for (const char* stage : {"forward", "gta", "gtw", "fc"}) {
      const std::string key = std::string("exact.") + stage;
      l.push_back({key + "_s", "s"});
      l.push_back({key + "_row_ops", "count"});
      l.push_back({key + "_tiles", "count"});
    }
    l.push_back({"exact.parallel_eff", "ratio"});
    l.push_back({"exact.alexnet_imagenet_s", "s"});
    l.push_back({"exact.resnet18_cifar_s", "s"});
    // dataflow.row_ops, tensor.compressed_rows
    l.push_back({"kernel.src_mrows_s", "Mrow/s"});
    l.push_back({"kernel.msrc_mrows_s", "Mrow/s"});
    l.push_back({"kernel.osrc_mrows_s", "Mrow/s"});
    l.push_back({"kernel.compress_s", "s"});
    // Latency budget of a traced routed eval (mean self time per layer).
    for (const char* b :
         {"budget.client_hop_ms", "budget.router_self_ms",
          "budget.transport_hop_ms", "budget.server_self_ms",
          "budget.queue_ms", "budget.store_lookup_ms", "budget.compile_ms",
          "budget.simulate_ms", "budget.store_publish_ms"}) {
      l.push_back({b, "ms"});
    }
    // Replication, from the serve workloads' --replicas 1 loop.
    l.push_back({"budget.replicate_ms", "ms"});
    l.push_back({"latency.replicated_mean_ms", "ms"});
    // obs
    l.push_back({"latency.traced_mean_ms", "ms"});
    l.push_back({"unattributed_ms", "ms"});
    l.push_back({"obs.trace_overhead", "ratio"});
    l.push_back({"obs.hist_mismatch", "count"});
    l.push_back({"obs.orphan_spans", "count"});
    l.push_back({"fail_ratio", "ratio"});
    return l;
  }();
  return list;
}

}  // namespace perfbench
