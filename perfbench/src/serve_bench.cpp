// serve_hot and serve_mixed: a closed loop of NDJSON eval requests over
// loopback TCP into sparsetrain_route, which fronts two sparsetrain_serve
// shards.
//
// The timed loops run through a replica-less router (--replicas 0). With
// replicas the router puts every ok answer, store hits included, to the
// replica: a tmp-write + fsync per request, which ties every latency to
// the fsync time of whatever disk the run lands on (it moved p50 3x
// between runs of the same code on a shared host).
//
// End-to-end run: set up (spawn, readiness, warm the hot keys) three
// times and keep the last topology, drive the loop for the timed window
// with tracing off, then check every answer in-process.
//
// Per-layer run: an untraced loop (the trace-overhead baseline), a loop
// sent straight to each request's owning shard, then the daemons restart
// with tracing on and the loop runs again with trace ids minted here. The
// benchmark's request spans are joined with the daemons' span logs by
// trace id; the daemons' "metrics" snapshots give the counts; public
// serving functions are timed on the run's own lines and payloads. A last
// traced loop through a --replicas 1 router gives the replication
// metrics.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "proc.hpp"
#include "core/session.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/report_io.hpp"
#include "serve/ring.hpp"
#include "serve/server.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace sv = sparsetrain::serve;
using sparsetrain::Rng;
using sparsetrain::fnv1a;
using sparsetrain::mix64;

// The hot key set: statistical evals from the smallest network to the
// largest, on both paper backends, so fingerprint and payload costs span
// the zoo's range.
const char* const kHotNets[] = {"tiny",           "AlexNet/CIFAR",
                                "ResNet-18/CIFAR", "AlexNet/ImageNet",
                                "ResNet-18/ImageNet", "VGG-16/ImageNet"};
const char* const kBackends[] = {"sparsetrain", "eyeriss-dense"};
// serve_mixed's cold evals: small and mid networks on the sparse backend
// (the dense backend ignores the pruning rate, so its key never changes).
// A cold eval costs a shard about 1 ms (tiny), 5 ms (ResNet-18/CIFAR)
// and 10 ms (AlexNet/CIFAR) on a 4-core host; VGG-16/CIFAR (30 ms) is
// left out because its convoys made the run-to-run spread too wide.
const char* const kColdNets[] = {"tiny", "AlexNet/CIFAR", "ResNet-18/CIFAR"};
// Lines every daemon must answer with status "error".
const char* const kMalformed[] = {
    "not json",
    "{\"type\": \"eval\", \"workload\": ",
    "{\"type\": \"frobnicate\", \"id\": \"m\"}",
    "{\"type\": \"eval\", \"id\": \"m\", \"workload\": \"NoSuch/Net\"}",
    "{\"type\": \"eval\", \"id\": \"m\", \"workload\": \"tiny\", "
    "\"scenario\": \"imaginary\"}",
    "{\"type\": \"eval\", \"id\": \"m\", \"workload\": \"tiny\", "
    "\"backend\": \"no-such-backend\"}",
};
// serve_mixed deals each connection's requests from a shuffled deck of
// 60: 6 cold evals (2 per cold network), 1 malformed line, 53 hot.
// Every run thus carries the same shares (10% cold, 1.7% malformed) and
// the seed changes only their order, keys and pruning rates. The router
// has one request in flight per shard, so hot reads queue behind cold
// evals; at 20% cold the queued reads reached the median and p50 fell
// in the gap between the two latency modes, where it jumped run to run.
constexpr std::size_t kColdPerNet = 2;
constexpr std::size_t kDeckMalformed = 1;
constexpr std::size_t kDeck = 60;
// Shard store cap on serve_mixed. A shard holds at most all 12 hot
// records (owner + replica), about 90 KB; cold records are 1–11 KB. 256 KiB
// leaves room for a few dozen cold records, far more than arrive between
// two reads of one hot key, so LRU keeps the hot set while eviction runs
// on nearly every cold write from the loop's first second on.
constexpr std::uint64_t kMixedStoreBytes = 256u << 10;
constexpr std::size_t kSetups = 3;
constexpr std::size_t kVnodes = 64;  // ring points per shard, router's too
// In-process hot rounds behind sim_s: at least this many, for at least
// this long.
constexpr std::size_t kSimRounds = 7;
constexpr double kSimSeconds = 2.0;
// A timed loop is summarised over slices of kSlice requests (see
// Windowed): a p99 with ten samples beyond it needs a thousand. The
// end-to-end loop runs on past its window until it has kMinSlices.
constexpr std::size_t kSlice = 1100;
constexpr std::size_t kMinSlices = 5;
constexpr double kMicroSeconds = 0.05;

using Answer = std::pair<std::uint64_t, std::uint64_t>;  // fingerprint, cycles

/// Metric-name form of a zoo network: "VGG-16/ImageNet" → "vgg16_imagenet".
std::string metric_key(const std::string& net) {
  std::string out;
  for (const char c : net) {
    if (c == '/') {
      out += '_';
    } else if (std::isalnum(static_cast<unsigned char>(c))) {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  return out;
}

struct Mix {
  bool mixed = false;
  std::vector<sv::Request> hot;  ///< as the daemons parse them
};

Mix make_mix(std::uint64_t seed, bool mixed) {
  Mix mix;
  mix.mixed = mixed;
  Rng rng(mix64(seed, fnv1a("hot-keys")));
  for (const char* net : kHotNets) {
    for (const char* backend : kBackends) {
      sv::Request r;
      r.type = "eval";
      r.workload = net;
      r.backend = backend;
      r.p = std::round((0.5 + 0.45 * rng.uniform()) * 1e4) / 1e4;
      mix.hot.push_back(sv::parse_request(sv::format_request(r)));
    }
  }
  return mix;
}

enum class Kind { Hot, Cold, Malformed };

struct Item {
  Kind kind = Kind::Hot;
  std::size_t hot = 0;  ///< Kind::Hot: index into Mix::hot
  sv::Request req;      ///< Hot / Cold
  std::string raw;      ///< Malformed
};

/// One connection's request stream, a pure function of (seed, conn).
class Generator {
 public:
  Generator(const Mix& mix, std::uint64_t seed, unsigned conn)
      : mix_(mix), rng_(mix64(seed, 0x100 + conn)) {
    if (!mix.mixed) return;
    for (std::size_t net = 0; net < std::size(kColdNets); ++net) {
      deck_.insert(deck_.end(), kColdPerNet, static_cast<int>(net));
    }
    deck_.insert(deck_.end(), kDeckMalformed, kMalformedSlot);
    deck_.resize(kDeck, kHotSlot);
    pos_ = deck_.size();
  }

  Item next() {
    int slot = kHotSlot;
    if (!deck_.empty()) {
      if (pos_ == deck_.size()) {
        for (std::size_t i = deck_.size() - 1; i > 0; --i) {
          std::swap(deck_[i], deck_[rng_.uniform_index(i + 1)]);
        }
        pos_ = 0;
      }
      slot = deck_[pos_++];
    }
    Item it;
    if (slot == kMalformedSlot) {
      it.kind = Kind::Malformed;
      it.raw = kMalformed[rng_.uniform_index(std::size(kMalformed))];
    } else if (slot != kHotSlot) {
      it.kind = Kind::Cold;
      it.req.type = "eval";
      it.req.workload = kColdNets[slot];
      it.req.backend = kBackends[0];
      // A fresh pruning rate: a fingerprint no earlier request had.
      it.req.p = std::round((0.3 + 0.6 * rng_.uniform()) * 1e7) / 1e7;
    } else {
      it.hot = rng_.uniform_index(mix_.hot.size());
      it.req = mix_.hot[it.hot];
    }
    return it;
  }

 private:
  static constexpr int kHotSlot = -1;
  static constexpr int kMalformedSlot = -2;

  const Mix& mix_;
  Rng rng_;
  std::vector<int> deck_;  ///< serve_mixed only: cold net index or a slot
  std::size_t pos_ = 0;
};

sparsetrain::core::SessionConfig reference_config(unsigned workers) {
  sparsetrain::core::SessionConfig sc;
  sc.workers = workers;
  sc.seed = 1;  // the shards' --seed
  sc.batch = 1;
  return sc;
}

/// The router's placement key of an eval request: its store fingerprint,
/// as Router::placement_key computes it.
std::uint64_t placement_key(const sparsetrain::core::Session& s,
                            const sv::Request& r) {
  const auto net = sv::request_network(r);
  return s.run_fingerprint(net, sv::request_profile(net, r), r.backend,
                           sv::request_job_options(r));
}

std::vector<std::uint64_t> hot_keys(const Mix& mix) {
  const sparsetrain::core::Session s(reference_config(1));
  std::vector<std::uint64_t> keys;
  for (const sv::Request& r : mix.hot) keys.push_back(placement_key(s, r));
  return keys;
}

/// Where each request goes: the one endpoint (the router), or, with a
/// ring, straight to the shard owning the request's key (malformed lines
/// go to the first shard, which answers them itself).
struct Targets {
  std::vector<std::string> endpoints;
  const sv::Ring* ring = nullptr;
  const std::vector<std::uint64_t>* hot_keys = nullptr;  ///< with a ring
};

struct LoopStats {
  std::vector<Sample> samples;  ///< every attempt; failures are +inf ms
  Tally tally;
  std::uint64_t ok = 0;        ///< ok eval answers
  std::uint64_t answered = 0;  ///< response lines received
  double seconds = 0.0;
  /// Observed (fingerprint, cycles) → count, per hot key.
  std::vector<std::map<Answer, std::uint64_t>> hot_seen;
  /// Cold request lines as sent, with the answer they got.
  std::vector<std::pair<std::string, Answer>> cold_seen;
  std::vector<SpanRecord> spans;       ///< bench.request spans (traced)
  std::vector<std::string> responses;  ///< sample of raw eval answers
  std::vector<std::string> lines;      ///< sample of eval request lines

  void merge(LoopStats&& o) {
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    tally.merge(o.tally);
    ok += o.ok;
    answered += o.answered;
    seconds = std::max(seconds, o.seconds);
    hot_seen.resize(std::max(hot_seen.size(), o.hot_seen.size()));
    for (std::size_t i = 0; i < o.hot_seen.size(); ++i) {
      for (const auto& [a, n] : o.hot_seen[i]) hot_seen[i][a] += n;
    }
    for (auto& c : o.cold_seen) cold_seen.push_back(std::move(c));
    for (auto& s : o.spans) spans.push_back(std::move(s));
    for (auto& r : o.responses) responses.push_back(std::move(r));
    for (auto& l : o.lines) lines.push_back(std::move(l));
  }
};

std::int64_t unix_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Runs `fn` once, on the connection thread that sends request `after`.
struct Probe {
  std::size_t after = 0;
  std::function<void()> fn;
};

/// Closed loop: `conns` connections, each sending its next request only
/// after the previous answer arrived, until `seconds` have passed — and,
/// when fewer than `min_requests` were sent by then, on until they were
/// (at most three windows), so a p99 can have ten samples beyond it.
LoopStats run_loop(const Mix& mix, const Targets& targets, double seconds,
                   bool traced, std::uint64_t seed, unsigned conns,
                   std::size_t min_requests = 0,
                   const Probe* probe = nullptr) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<LoopStats> per(conns);
  std::vector<std::thread> threads;
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  const auto deadline = start + window;
  const auto hard_deadline = start + 3 * window;
  std::atomic<std::size_t> sent{0};
  const auto more = [&] {
    const auto now = Clock::now();
    return now < deadline ||
           (sent.load(std::memory_order_relaxed) < min_requests &&
            now < hard_deadline);
  };
  for (unsigned c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      LoopStats& st = per[c];
      st.hot_seen.resize(mix.hot.size());
      Generator gen(mix, seed, c);
      Rng ids(mix64(seed, 0x200 + c));
      std::vector<std::unique_ptr<sv::Client>> clients(
          targets.endpoints.size());
      // Direct mode places cold requests as the router would, per request.
      std::unique_ptr<const sparsetrain::core::Session> keys;
      if (targets.ring != nullptr) {
        keys = std::make_unique<const sparsetrain::core::Session>(
            reference_config(1));
      }
      std::uint64_t n = 0;
      std::this_thread::sleep_until(start);
      while (more()) {
        const std::size_t nth = sent.fetch_add(1) + 1;
        if (probe != nullptr && nth == probe->after) probe->fn();
        Item it = gen.next();
        std::size_t t = 0;
        if (keys != nullptr && it.kind != Kind::Malformed) {
          t = targets.ring->owner(it.kind == Kind::Hot
                                      ? (*targets.hot_keys)[it.hot]
                                      : placement_key(*keys, it.req));
        }
        std::string line;
        SpanRecord span;
        if (it.kind == Kind::Malformed) {
          line = it.raw;
        } else {
          it.req.id = "c" + std::to_string(c) + "." + std::to_string(n++);
          if (traced) {
            span.trace = ids() | 1;
            span.id = ids() | 1;
            span.name = "bench.request";
            it.req.trace = span.trace;
            it.req.parent_span = span.id;
          }
          line = sv::format_request(it.req);
        }
        span.start_us = unix_us();
        const auto t0 = Clock::now();
        std::string raw;
        bool delivered = true;
        try {
          if (!clients[t]) {
            clients[t] = std::make_unique<sv::Client>(targets.endpoints[t]);
          }
          raw = clients[t]->request_raw(line);
        } catch (const std::exception&) {
          delivered = false;
          clients[t].reset();
        }
        const double ms = seconds_since(t0) * 1e3;
        if (!delivered) {
          st.tally.record(false);
          st.samples.push_back({seconds_since(start), kInf, false});
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        ++st.answered;
        bool good = false;
        try {
          const sv::Response resp = sv::parse_response(raw);
          if (it.kind == Kind::Malformed) {
            good = resp.status == "error";
          } else {
            good = resp.status == "ok" && resp.id == it.req.id &&
                   resp.fingerprint != 0 && resp.cycles != 0;
            if (good) {
              ++st.ok;
              const Answer a{resp.fingerprint, resp.cycles};
              if (it.kind == Kind::Hot) {
                ++st.hot_seen[it.hot][a];
              } else {
                it.req.trace = 0;
                it.req.parent_span = 0;
                st.cold_seen.emplace_back(sv::format_request(it.req), a);
              }
            }
          }
        } catch (const std::exception&) {
          good = false;
        }
        st.tally.record(good);
        st.samples.push_back({seconds_since(start), good ? ms : kInf,
                              good && it.kind != Kind::Malformed});
        if (traced && it.kind != Kind::Malformed) {
          span.dur_us = static_cast<std::int64_t>(ms * 1e3);
          st.spans.push_back(span);
        }
        if (it.kind != Kind::Malformed && st.responses.size() < 32) {
          st.responses.push_back(raw);
          st.lines.push_back(line);
        }
      }
      st.seconds = seconds_since(start);
    });
  }
  for (auto& t : threads) t.join();
  LoopStats all;
  for (auto& p : per) all.merge(std::move(p));
  return all;
}

/// Router + two shards, respawnable (stores survive a restart).
class Topology {
 public:
  Topology(const RunConfig& cfg, bool mixed,
           std::vector<std::uint64_t> hot_keys)
      : cfg_(cfg), mixed_(mixed), hot_keys_(std::move(hot_keys)) {}
  ~Topology() { stop(); }

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  std::vector<std::string> shards;
  std::string router;
  std::string simd;  ///< "router=…,shard0=…,shard1=…" from status
  std::vector<std::string> trace_files;

  void wipe_stores() {
    for (int i = 0; i < 2; ++i) fs::remove_all(store_dir(i));
  }

  void start(bool traced, int replicas = 0) {
    stop();
    shards = balanced_endpoints();
    trace_files.clear();
    for (int i = 0; i < 2; ++i) {
      const std::string& ep = shards[i];
      std::vector<std::string> argv = {
          cfg_.serve_bin, "--listen", ep, "--store", store_dir(i),
          "--workers", "2", "--request-workers", "4", "--max-queue", "256",
          "--seed", "1", "--batch", "1"};
      if (mixed_) {
        argv.insert(argv.end(), {"--max-store-bytes",
                                 std::to_string(kMixedStoreBytes)});
      }
      if (traced) add_trace(argv, "shard" + std::to_string(i), true);
      procs_.push_back(std::make_unique<Child>(
          argv, cfg_.run_dir + "/shard" + std::to_string(i) + ".log"));
    }
    router = "127.0.0.1:" + std::to_string(free_tcp_port());
    std::vector<std::string> argv = {
        cfg_.route_bin, "--listen", router, "--shards",
        shards[0] + "," + shards[1], "--replicas", std::to_string(replicas),
        "--vnodes", std::to_string(kVnodes)};
    if (traced) add_trace(argv, "router", false);
    procs_.push_back(
        std::make_unique<Child>(argv, cfg_.run_dir + "/router.log"));
    simd = "router=" + wait_ready(router, *procs_.back());
    for (int i = 0; i < 2; ++i) {
      simd += ",shard" + std::to_string(i) + "=" +
              wait_ready(shards[i], *procs_[i]);
    }
  }

  void stop() {
    for (auto& p : procs_) p->stop();
    procs_.clear();
  }

  /// Largest VmHWM among the live processes under test.
  double peak_rss_mb() const {
    double mb = 0.0;
    for (const auto& p : procs_) {
      mb = std::max(mb, perfbench::peak_rss_mb(p->pid()));
    }
    return mb;
  }

 private:
  /// Two free endpoints whose ring gives each shard half the hot keys
  /// and 47–53% of the key space (where the cold keys land). Placement
  /// hashes the endpoint strings, so ephemeral ports alone would hand one
  /// shard anywhere from none to all of the 12 hot keys, and each run's
  /// load split (behind the router's one request in flight per shard)
  /// would differ; the ports are drawn again until the split is even.
  std::vector<std::string> balanced_endpoints() const {
    constexpr int kProbes = 4096;
    for (int attempt = 0; attempt < 1000; ++attempt) {
      std::vector<std::string> eps;
      for (int i = 0; i < 2; ++i) {
        eps.push_back("127.0.0.1:" + std::to_string(free_tcp_port()));
      }
      if (eps[0] == eps[1]) continue;
      const sv::Ring ring(eps, sv::RingOptions{kVnodes});
      std::size_t first = 0;
      for (const std::uint64_t k : hot_keys_) first += ring.owner(k) == 0;
      if (2 * first != hot_keys_.size()) continue;
      Rng probe(0x5eed);
      int space = 0;
      for (int i = 0; i < kProbes; ++i) space += ring.owner(probe()) == 0;
      if (std::abs(2 * space - kProbes) <= kProbes * 6 / 100) return eps;
    }
    throw std::runtime_error("no port pair splits the hot keys evenly");
  }

  std::string store_dir(int i) const {
    return cfg_.run_dir + "/store" + std::to_string(i);
  }

  void add_trace(std::vector<std::string>& argv, const std::string& name,
                 bool shard) {
    const std::string path = cfg_.run_dir + "/trace-" + name + ".jsonl";
    fs::remove(path);
    argv.insert(argv.end(),
                {"--trace", path, "--trace-sample-rate", "1.0"});
    if (shard) argv.push_back("--profile-engine");
    trace_files.push_back(path);
  }

  /// Polls `status` until the daemon answers; returns its SIMD mode.
  static std::string wait_ready(const std::string& ep, Child& proc) {
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (Clock::now() < deadline) {
      if (!proc.running()) {
        throw std::runtime_error("daemon at " + ep + " exited; see " +
                                 proc.log_path());
      }
      try {
        sv::Client client(ep);
        const std::string raw = client.request_raw(
            "{\"type\": \"status\", \"id\": \"ready\"}");
        const sv::JsonValue doc = sv::parse_json(raw);
        if (doc.get_string("status", "") == "ok") {
          const sv::JsonValue* payload = doc.find("payload");
          return payload != nullptr ? payload->get_string("simd", "?") : "?";
        }
      } catch (const std::exception&) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    throw std::runtime_error("daemon at " + ep + " never became ready");
  }

  const RunConfig& cfg_;
  bool mixed_;
  std::vector<std::uint64_t> hot_keys_;  ///< placement keys of the hot set
  std::vector<std::unique_ptr<Child>> procs_;
};

/// Sends every hot key through the router once (its owner computes and
/// stores it), so the timed loop's hot requests are store hits.
void warm(const std::string& router, const Mix& mix) {
  sv::Client client(router);
  for (const sv::Request& r : mix.hot) {
    const sv::Response resp = client.request(sv::format_request(r));
    if (resp.status != "ok") {
      throw std::runtime_error("warm-up eval of " + r.workload + " on " +
                               r.backend + " answered " + resp.status +
                               ": " + resp.error);
    }
  }
}


/// One in-process round over the hot keys: a fresh store-less session
/// compiles and simulates every key. Returns wall seconds; fills the
/// reference answers and reports when asked.
double hot_round(const Mix& mix, unsigned workers, std::vector<Answer>* ref,
                 std::vector<sparsetrain::sim::SimReport>* reports) {
  using sparsetrain::core::Session;
  const auto t0 = Clock::now();
  Session s(reference_config(workers));
  std::vector<Session::JobHandle> jobs;
  for (const sv::Request& r : mix.hot) {
    const auto net = sv::request_network(r);
    jobs.push_back(s.submit(net, sv::request_profile(net, r), {r.backend},
                            sv::request_job_options(r)));
  }
  for (const auto& j : jobs) s.wait(j);
  const double secs = seconds_since(t0);
  for (std::size_t i = 0; i < mix.hot.size() && ref != nullptr; ++i) {
    const auto& run = s.wait(jobs[i]).runs.front();
    ref->emplace_back(placement_key(s, mix.hot[i]), run.report.total_cycles);
    if (reports != nullptr) reports->push_back(run.report);
  }
  return secs;
}

/// Compares every ok answer with an in-process evaluation of the same
/// request; each wrong answer is a late failure of its request.
void check_answers(const LoopStats& s, const std::vector<Answer>& hot_ref,
                   unsigned workers, Result& res) {
  for (std::size_t i = 0; i < s.hot_seen.size(); ++i) {
    for (const auto& [a, n] : s.hot_seen[i]) {
      if (a == hot_ref[i]) continue;
      res.tally.fail_late(n);
      res.error("hot key " + std::to_string(i) + ": " + std::to_string(n) +
                " answer(s) disagree with the in-process evaluation");
    }
  }
  if (s.cold_seen.empty()) return;
  using sparsetrain::core::Session;
  Session ref(reference_config(workers));
  std::vector<Session::JobHandle> jobs;
  std::vector<std::uint64_t> fps;
  for (const auto& seen : s.cold_seen) {
    const sv::Request r = sv::parse_request(seen.first);
    const auto net = sv::request_network(r);
    fps.push_back(placement_key(ref, r));
    jobs.push_back(ref.submit(net, sv::request_profile(net, r), {r.backend},
                              sv::request_job_options(r)));
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Answer want{fps[i],
                      ref.wait(jobs[i]).runs.front().report.total_cycles};
    if (s.cold_seen[i].second != want) {
      res.tally.fail_late();
      res.error("cold request disagrees with the in-process evaluation: " +
                s.cold_seen[i].first);
    }
  }
}

std::uint64_t parse_hex(const std::string& s) {
  return s.empty() ? 0 : std::stoull(s, nullptr, 16);
}

void read_spans(const std::string& path, std::vector<SpanRecord>& out) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const sv::JsonValue doc = sv::parse_json(line);
    SpanRecord s;
    s.trace = parse_hex(doc.get_string("trace", ""));
    s.id = parse_hex(doc.get_string("span", ""));
    s.parent = parse_hex(doc.get_string("parent", ""));
    s.name = doc.get_string("name", "");
    s.start_us = static_cast<std::int64_t>(doc.get_number("start_us", 0));
    s.dur_us = static_cast<std::int64_t>(doc.get_number("dur_us", 0));
    out.push_back(std::move(s));
  }
}

// Blocking-path layers of a routed eval, by the span names that carry
// their self time. Replication (router.replicate, daemon.put) has no
// layer here: the traced loop's router keeps no replicas, and
// replication_metrics() reports it from a loop whose router does.
struct BudgetLayer {
  const char* metric;
  std::vector<const char*> spans;
};
const std::vector<BudgetLayer>& budget_layers() {
  static const std::vector<BudgetLayer> layers = {
      {"budget.client_hop_ms", {"bench.request"}},
      {"budget.router_self_ms", {"router.request"}},
      {"budget.transport_hop_ms", {"router.forward", "router.failover"}},
      {"budget.server_self_ms", {"daemon.request"}},
      {"budget.queue_ms", {"daemon.queue"}},
      {"budget.store_lookup_ms", {"store.lookup"}},
      {"budget.compile_ms", {"compile"}},
      {"budget.simulate_ms", {"simulate"}},
      {"budget.store_publish_ms", {"store.publish"}},
  };
  return layers;
}

/// Spans of one traced loop, by name, under the benchmark's requests.
struct SpanStats {
  std::map<std::string, std::vector<double>> dur_ms;
  std::map<std::string, std::vector<double>> self_ms;
  std::map<std::string, double> self_total_ms;
  std::vector<double> latency_ms;  ///< bench.request durations
  std::size_t spans = 0;
  std::size_t orphans = 0;

  /// Summed self time of `names` per request.
  double mean_self_ms(const std::vector<const char*>& names) {
    double total = 0.0;
    for (const char* name : names) total += self_total_ms[name];
    const double n = static_cast<double>(latency_ms.size());
    return total / std::max(1.0, n);
  }
};

/// Joins the benchmark's request spans with the daemons' logs.
SpanStats collect_spans(std::vector<SpanRecord> spans,
                        const std::vector<std::string>& logs) {
  for (const std::string& path : logs) read_spans(path, spans);
  const SpanTree tree = analyse_spans(spans);
  SpanStats st;
  st.spans = spans.size();
  st.orphans = tree.orphans;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::size_t r = tree.root[i];
    if (r == SpanTree::npos || spans[r].name != "bench.request") continue;
    const double d = static_cast<double>(spans[i].dur_us) / 1e3;
    const double s = static_cast<double>(tree.self_us[i]) / 1e3;
    st.dur_ms[spans[i].name].push_back(d);
    st.self_ms[spans[i].name].push_back(s);
    st.self_total_ms[spans[i].name] += s;
    if (r == i) st.latency_ms.push_back(d);
  }
  return st;
}

void set_pct(Result& res, const std::string& metric,
             const std::vector<double>& v) {
  res.set(metric + ".p50", quantile(v, 0.50), "ms");
  res.set(metric + ".p99", quantile(v, 0.99), "ms");
}

/// The span metrics of the traced loop: per-layer p50/p99 and the mean
/// budget.
void trace_metrics(std::vector<SpanRecord> spans,
                   const std::vector<std::string>& logs, Result& res) {
  SpanStats st = collect_spans(std::move(spans), logs);
  auto& dur_ms = st.dur_ms;
  auto& self_ms = st.self_ms;
  const auto pct = [&](const std::string& metric,
                       const std::vector<double>& v) {
    set_pct(res, metric, v);
  };
  pct("client.hop_ms", self_ms["bench.request"]);
  pct("router.self_ms", self_ms["router.request"]);
  pct("router.forward_ms", dur_ms["router.forward"]);
  pct("transport.hop_ms", self_ms["router.forward"]);
  pct("server.queue_ms", dur_ms["daemon.queue"]);
  pct("server.self_ms", self_ms["daemon.request"]);
  pct("store.lookup_ms", dur_ms["store.lookup"]);
  pct("store.publish_ms", dur_ms["store.publish"]);
  pct("session.compile_ms", dur_ms["compile"]);
  pct("session.simulate_ms", dur_ms["simulate"]);

  double attributed = 0.0;
  for (const BudgetLayer& layer : budget_layers()) {
    const double ms = st.mean_self_ms(layer.spans);
    res.set(layer.metric, ms, "ms");
    attributed += ms;
  }
  const double traced_mean = mean(st.latency_ms);
  res.set("latency.traced_mean_ms", traced_mean, "ms");
  res.set("unattributed_ms", traced_mean - attributed, "ms");
  res.set("obs.orphan_spans", static_cast<double>(st.orphans), "count");
  std::fprintf(stderr,
               "trace: %zu traced requests, %zu spans, %zu orphans, mean "
               "%.4f ms, unattributed %.4f ms\n",
               st.latency_ms.size(), st.spans, st.orphans, traced_mean,
               traced_mean - attributed);
}

/// The "metrics" snapshot of one daemon (sparsetrain.metrics/v1).
sv::JsonValue scrape(const std::string& ep) {
  sv::Client client(ep);
  const sv::JsonValue doc = sv::parse_json(
      client.request_raw("{\"type\": \"metrics\", \"id\": \"scrape\"}"));
  const sv::JsonValue* payload = doc.find("payload");
  if (payload == nullptr) throw std::runtime_error("metrics: no payload");
  return *payload;
}

/// Sum of one instrument family over the snapshots: counters and gauges
/// by "value", histograms by "count"; `want` filters on labels.
double family_sum(
    const std::vector<sv::JsonValue>& docs, const std::string& name,
    const std::vector<std::pair<std::string, std::vector<std::string>>>&
        want = {}) {
  double sum = 0.0;
  for (const sv::JsonValue& doc : docs) {
    for (const sv::JsonValue& m : doc.find("metrics")->as_array()) {
      if (m.get_string("name", "") != name) continue;
      const sv::JsonValue* labels = m.find("labels");
      bool match = true;
      for (const auto& [key, values] : want) {
        const std::string v = labels->get_string(key, "");
        match = match && std::find(values.begin(), values.end(), v) !=
                             values.end();
      }
      if (!match) continue;
      sum += m.get_string("kind", "") == "histogram"
                 ? m.get_number("count", 0)
                 : m.get_number("value", 0);
    }
  }
  return sum;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Counts from the daemons' metrics snapshots, taken after the traced
/// loop (`answers`: lines the benchmark received from the router then).
void scrape_metrics(const Topology& topo, std::uint64_t answers,
                    Result& res) {
  const std::vector<sv::JsonValue> router = {scrape(topo.router)};
  std::vector<sv::JsonValue> shards;
  for (const std::string& ep : topo.shards) shards.push_back(scrape(ep));

  const double routed = family_sum(router, "router_request_seconds",
                                   {{"type", {"eval", "parse"}}});
  const double completed = family_sum(shards, "server_evals_completed_total");
  const double computed = family_sum(shards, "server_evals_total",
                                     {{"source", {"computed"}}});
  const double coalesced = family_sum(shards, "server_evals_total",
                                      {{"source", {"coalesced"}}});
  const double hits = family_sum(shards, "store_hits_total");
  const double misses = family_sum(shards, "store_misses_total");
  const double pc_hits = family_sum(shards, "program_cache_hits_total");
  const double pc_misses = family_sum(shards, "program_cache_misses_total");

  const double mismatch = routed - static_cast<double>(answers);
  res.set("obs.hist_mismatch", mismatch, "count");
  if (mismatch != 0.0) {
    res.error("router request histograms count " + std::to_string(routed) +
              " requests, the loop received " + std::to_string(answers) +
              " answers");
  }
  res.set("router.computed_share", ratio(computed, completed), "ratio");
  res.set("router.failovers", family_sum(router, "router_failovers_total"),
          "count");
  res.set("server.coalesced_ratio", ratio(coalesced, completed), "ratio");
  res.set("store.hit_ratio", ratio(hits, hits + misses), "ratio");
  res.set("store.evictions", family_sum(shards, "store_evictions_total"),
          "count");
  res.set("program_cache.hit_ratio", ratio(pc_hits, pc_hits + pc_misses),
          "ratio");
}

/// Replication through a --replicas 1 router, from its traced loop:
/// scrapes the router, stops the topology (which flushes the span logs),
/// then reads the replicate and put spans.
void replication_metrics(Topology& topo, std::vector<SpanRecord> spans,
                         Result& res) {
  const std::vector<sv::JsonValue> router = {scrape(topo.router)};
  const double ok = family_sum(router, "router_request_seconds",
                               {{"type", {"eval"}}, {"status", {"ok"}}});
  const double replications =
      family_sum(router, "router_shard_replications_total");
  res.set("router.replications_per_ok", ratio(replications, ok), "ratio");
  topo.stop();

  SpanStats st = collect_spans(std::move(spans), topo.trace_files);
  set_pct(res, "router.replicate_ms", st.dur_ms["router.replicate"]);
  set_pct(res, "server.put_ms", st.dur_ms["daemon.put"]);
  res.set("budget.replicate_ms",
          st.mean_self_ms({"router.replicate", "daemon.put"}), "ms");
  res.set("latency.replicated_mean_ms", mean(st.latency_ms), "ms");
}

/// Public serving functions timed on the run's own lines and payloads.
void micro_metrics(const Mix& mix, const LoopStats& s, Result& res) {
  using sparsetrain::core::Session;
  std::size_t sink = 0;

  Session session(reference_config(1));
  for (const char* net_name : kHotNets) {
    const sv::Request* req = nullptr;
    for (const sv::Request& r : mix.hot) {
      if (r.workload == net_name && r.backend == kBackends[0]) req = &r;
    }
    const auto net = sv::request_network(*req);
    const auto profile = sv::request_profile(net, *req);
    const auto opts = sv::request_job_options(*req);
    const std::vector<int> once = {0};
    res.set("session.fingerprint_us." + metric_key(net_name),
            per_call_us(once, kMicroSeconds,
                        [&](int) {
                          sink += session.run_fingerprint(net, profile,
                                                          req->backend, opts);
                        }),
            "us");
  }

  res.set("protocol.parse_us",
          per_call_us(s.lines, kMicroSeconds,
                      [&](const std::string& l) {
                        sink += sv::parse_request(l).id.size();
                      }),
          "us");
  std::vector<sv::Response> responses;
  for (const std::string& raw : s.responses) {
    responses.push_back(sv::parse_response(raw));
  }
  res.set("protocol.format_us",
          per_call_us(responses, kMicroSeconds,
                      [&](const sv::Response& r) {
                        sink += sv::format_response(r).size();
                      }),
          "us");

  std::vector<sparsetrain::sim::SimReport> reports;
  {
    std::vector<Answer> unused;
    hot_round(mix, 1, &unused, &reports);
  }
  std::vector<std::string> payloads;
  for (const auto& r : reports) payloads.push_back(sv::serialize_report(r));
  std::vector<std::string> hex;
  for (const auto& p : payloads) hex.push_back(sv::hex_encode(p));
  res.set("report_io.serialize_us",
          per_call_us(reports, kMicroSeconds,
                      [&](const sparsetrain::sim::SimReport& r) {
                        sink += sv::serialize_report(r).size();
                      }),
          "us");
  res.set("protocol.hex_encode_us",
          per_call_us(payloads, kMicroSeconds,
                      [&](const std::string& p) {
                        sink += sv::hex_encode(p).size();
                      }),
          "us");
  res.set("protocol.hex_decode_us",
          per_call_us(hex, kMicroSeconds,
                      [&](const std::string& h) {
                        sink += sv::hex_decode(h).size();
                      }),
          "us");
  g_sink = sink;
}

/// Summarises one timed loop over slices of kSlice requests and logs it. `res`
/// non-null makes a slice whose p99 has fewer than ten samples beyond it
/// an error (the end-to-end loop, whose p99_ms is reported).
Windowed log_loop(const LoopStats& s, const char* phase, Result* res) {
  const Windowed w = windowed(s.samples, s.samples.size() / kSlice);
  std::fprintf(stderr,
               "%s: %llu requests, %llu ok, %.3f s, %zu slices, p99 has >= "
               "%zu samples beyond in each\n",
               phase, static_cast<unsigned long long>(s.tally.attempted),
               static_cast<unsigned long long>(s.ok), s.seconds, w.windows,
               w.min_beyond);
  if (res != nullptr && w.min_beyond < 10) {
    res->error(std::string(phase) + ": fewer than 10 samples beyond p99");
  }
  return w;
}

}  // namespace

Result run_serve(const RunConfig& cfg, bool mixed) {
  Result res;
  const Mix mix = make_mix(cfg.seed, mixed);
  const std::vector<std::uint64_t> keys = hot_keys(mix);
  Topology topo(cfg, mixed, keys);

  // Set-up and every timed loop run on one CPU, daemons included; the
  // answer checks afterwards get all of them back. Spread over the CPUs,
  // each request hands off between idle CPUs several times, and on a
  // shared virtual machine waking an idle CPU costs whatever the host's
  // load makes it: the same code's p50 moved 2-3x between runs a few
  // minutes apart. On one CPU the handoffs are context switches and the
  // loop follows the CPU's speed, as exact_sim does.
  std::optional<OneCpu> pin(std::in_place);
  std::vector<double> setups;
  for (std::size_t i = 0; i < kSetups; ++i) {
    topo.stop();
    topo.wipe_stores();
    setups.push_back(time_seconds([&] {
      topo.start(/*traced=*/false);
      warm(topo.router, mix);
    }));
  }
  const Targets via_router{{topo.router}};
  std::vector<Answer> hot_ref;
  std::vector<double> rounds;
  const auto rounds_start = Clock::now();
  while (rounds.size() < kSimRounds ||
         seconds_since(rounds_start) < kSimSeconds) {
    rounds.push_back(hot_round(mix, cfg.threads,
                               rounds.empty() ? &hot_ref : nullptr, nullptr));
  }

  settle_disk(cfg.run_dir);
  if (!cfg.trace) {
    // Peak RSS after a fixed number of requests: the shards cache every
    // cold eval's program, so a peak taken at the end of a timed window
    // would follow the run's throughput.
    double rss = 0.0;
    const Probe rss_probe{kMinSlices * kSlice,
                          [&] { rss = topo.peak_rss_mb(); }};
    LoopStats s =
        run_loop(mix, via_router, cfg.seconds, false, mix64(cfg.seed, 1),
                 cfg.threads, kMinSlices * kSlice, &rss_probe);
    res.set("rss_mb", rss > 0.0 ? rss : topo.peak_rss_mb(), "MiB");
    topo.stop();
    const Windowed w = log_loop(s, "loop", &res);
    res.set("rps", w.rps, "req/s");
    res.set("p50_ms", w.p50_ms, "ms");
    res.set("p99_ms", w.p99_ms, "ms");
    res.set("sim_s", median(rounds), "s");
    res.set("setup_s", median(setups), "s");
    res.tally.merge(s.tally);
    pin.reset();
    print_provenance(cfg, topo.simd);
    check_answers(s, hot_ref, cfg.threads, res);
    return res;
  }

  // Per-layer run. Untraced loop first: the baseline for trace overhead.
  constexpr double kUntracedShare = 0.3;
  constexpr double kDirectShare = 0.2;
  constexpr double kReplicatedShare = 0.15;
  LoopStats base = run_loop(mix, via_router, cfg.seconds * kUntracedShare,
                            false, mix64(cfg.seed, 1), cfg.threads);
  const double base_rps = log_loop(base, "untraced", nullptr).rps;

  // Same mix, straight to each key's owner on the router's own ring.
  const sv::Ring ring(topo.shards, sv::RingOptions{kVnodes});
  LoopStats direct =
      run_loop(mix, Targets{topo.shards, &ring, &keys},
               cfg.seconds * kDirectShare, false, mix64(cfg.seed, 2),
               cfg.threads);
  const double direct_ratio =
      base_rps / log_loop(direct, "direct", nullptr).rps;
  base.merge(std::move(direct));

  topo.start(/*traced=*/true);  // same stores, tracing and profiling on
  LoopStats traced =
      run_loop(mix, Targets{{topo.router}},
               cfg.seconds *
                   (1.0 - kUntracedShare - kDirectShare - kReplicatedShare),
               true, mix64(cfg.seed, 3), cfg.threads);
  const double traced_rps = log_loop(traced, "traced", nullptr).rps;
  scrape_metrics(topo, traced.answered, res);
  topo.stop();

  res.set("router.direct_rps_ratio", direct_ratio, "ratio");
  res.set("obs.trace_overhead", 1.0 - traced_rps / base_rps, "ratio");
  trace_metrics(traced.spans, topo.trace_files, res);

  // The same loop once more, traced, through a router that replicates.
  topo.start(/*traced=*/true, /*replicas=*/1);
  LoopStats replicated =
      run_loop(mix, Targets{{topo.router}}, cfg.seconds * kReplicatedShare,
               true, mix64(cfg.seed, 4), cfg.threads);
  log_loop(replicated, "replicated", nullptr);
  replication_metrics(topo, replicated.spans, res);
  pin.reset();
  print_provenance(cfg, topo.simd);
  micro_metrics(mix, traced, res);

  base.merge(std::move(traced));
  base.merge(std::move(replicated));
  res.tally.merge(base.tally);
  check_answers(base, hot_ref, cfg.threads, res);
  res.set("fail_ratio", res.tally.fail_ratio(), "ratio");
  return res;
}

}  // namespace perfbench
