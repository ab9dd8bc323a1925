// The benchmark's own arithmetic: the quantile and tail-support rule,
// span self time, fail_ratio counting, and the metric catalogue against
// BENCHMARK.json.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_math.hpp"
#include "metrics_catalogue.hpp"
#include "serve/json.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Quantile, InterpolatesLinearlyBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(one_to(101), 0.99), 100.0);
  EXPECT_DOUBLE_EQ(median({7}), 7.0);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(quantile({1, 2}, 7.0), 2.0);  // q clamped
  EXPECT_DOUBLE_EQ(mean({1, 2, 6}), 3.0);
}

TEST(Tail, NeedsTenSamplesBeyondTheQuantile) {
  // 1000 samples: p99 = 990.01, so 991..1000 lie beyond it.
  const Tail big = tail(one_to(1000), 0.99);
  EXPECT_DOUBLE_EQ(big.value, 990.01);
  EXPECT_EQ(big.beyond, 10u);
  EXPECT_TRUE(big.supported);
  // 900 samples: p99 = 891.01, only 892..900 (nine) beyond.
  const Tail small = tail(one_to(900), 0.99);
  EXPECT_EQ(small.beyond, 9u);
  EXPECT_FALSE(small.supported);
  // Ties at the top are not "beyond": a flat sample supports no tail.
  const Tail flat = tail(std::vector<double>(5000, 1.0), 0.99);
  EXPECT_EQ(flat.beyond, 0u);
  EXPECT_FALSE(flat.supported);
  EXPECT_FALSE(tail({}, 0.99, 0).supported);
}

TEST(Tail, FailuresAtInfinityAreTheTail) {
  // Failed requests enter the sample as +inf: ten of them are the ten
  // samples beyond p99, and an eleventh makes the p99 itself +inf.
  std::vector<double> ms(1090, 1.0);
  ms.insert(ms.end(), 10, HUGE_VAL);
  const Tail t = tail(ms, 0.99);
  EXPECT_DOUBLE_EQ(t.value, 1.0);
  EXPECT_EQ(t.beyond, 10u);
  ms[0] = HUGE_VAL;
  EXPECT_TRUE(std::isinf(quantile(ms, 0.99)));
  EXPECT_TRUE(std::isinf(median(std::vector<double>(3, HUGE_VAL))));
}

TEST(Windowed, MedianOverSlicesResistsAStall) {
  // Three slices of 100 requests, 1 ms apart; the middle slice stalls.
  std::vector<Sample> s;
  double t = 0.0;
  for (int i = 0; i < 300; ++i) {
    const bool stall = i >= 100 && i < 200;
    t += stall ? 0.010 : 0.001;
    s.push_back({t, stall ? 10.0 : 1.0 + (i % 100) * 0.01, true});
  }
  const Windowed w = windowed(s, 3);
  EXPECT_EQ(w.windows, 3u);
  EXPECT_NEAR(w.rps, 1000.0, 1e-6);
  EXPECT_NEAR(w.p50_ms, 1.495, 1e-9);
  EXPECT_NEAR(w.p99_ms, 1.9801, 1e-9);
  EXPECT_EQ(w.min_beyond, 0u);  // 100 per slice cannot support a p99
  // Pooled, the stall would own the tail.
  std::vector<double> pooled;
  for (const Sample& x : s) pooled.push_back(x.ms);
  EXPECT_DOUBLE_EQ(quantile(pooled, 0.99), 10.0);
}

TEST(Windowed, SlicesKeepEveryRequestAndCountOnlyOkAnswers) {
  std::vector<Sample> s;
  for (int i = 1; i <= 2200; ++i) {
    const bool failed = i % 110 == 0;  // 10 failures per slice of 1100
    s.push_back({i * 0.001, failed ? HUGE_VAL : 1.0, !failed});
  }
  const Windowed w = windowed(s, 2);
  EXPECT_EQ(w.windows, 2u);
  EXPECT_NEAR(w.rps, 1090.0 / 1.1, 1e-6);
  EXPECT_DOUBLE_EQ(w.p99_ms, 1.0);
  EXPECT_EQ(w.min_beyond, 10u);  // the failures are each slice's tail
  EXPECT_EQ(windowed({s.begin(), s.begin() + 3}, 5).windows, 3u);
  EXPECT_EQ(windowed({}, 5).windows, 0u);
}

TEST(Tally, CountsFailuresAgainstAttempts) {
  Tally t;
  EXPECT_DOUBLE_EQ(t.fail_ratio(), 0.0);
  t.record(true);
  t.record(true);
  t.record(false);
  t.record(true);
  EXPECT_EQ(t.attempted, 4u);
  EXPECT_EQ(t.failed, 1u);
  EXPECT_DOUBLE_EQ(t.fail_ratio(), 0.25);
  t.fail_late(1);  // an answered request later found wrong
  EXPECT_EQ(t.attempted, 4u);
  EXPECT_DOUBLE_EQ(t.fail_ratio(), 0.5);
  Tally other;
  other.record(true);
  other.record(false);
  t.merge(other);
  EXPECT_EQ(t.attempted, 6u);
  EXPECT_EQ(t.failed, 3u);
}

SpanRecord span(std::uint64_t id, std::uint64_t parent, std::int64_t start,
                std::int64_t end, std::uint64_t trace = 1) {
  return SpanRecord{trace, id, parent, "s" + std::to_string(id), start,
                    end - start};
}

TEST(SelfTime, NestedChildrenAreSubtractedLevelByLevel) {
  const std::vector<SpanRecord> s = {span(1, 0, 0, 100), span(2, 1, 10, 30),
                                     span(3, 2, 15, 20)};
  const SpanTree t = analyse_spans(s);
  EXPECT_EQ(t.self_us, (std::vector<std::int64_t>{80, 15, 5}));
  EXPECT_EQ(t.root, (std::vector<std::size_t>{0, 0, 0}));
  EXPECT_EQ(t.orphans, 0u);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  const std::vector<SpanRecord> s = {span(1, 0, 0, 100), span(2, 1, 10, 50),
                                     span(3, 1, 40, 70)};
  EXPECT_EQ(analyse_spans(s).self_us[0], 40);
}

TEST(SelfTime, ChildOutsideTheParentIsClipped) {
  const std::vector<SpanRecord> s = {span(1, 0, 0, 100), span(2, 1, 90, 120),
                                     span(3, 1, -20, 5)};
  const SpanTree t = analyse_spans(s);
  EXPECT_EQ(t.self_us[0], 85);
  EXPECT_EQ(t.self_us[1], 30);
}

TEST(SelfTime, ContainedSiblingIsChargedOnlyToItself) {
  // A forward hop that stays open while its sibling replication runs:
  // request 0–100, forward 5–95 (daemon 10–40), replicate 50–90 (put
  // 55–85). The self times still add up to the request's duration.
  const std::vector<SpanRecord> s = {
      span(1, 0, 0, 100), span(2, 1, 5, 95),  span(3, 2, 10, 40),
      span(4, 1, 50, 90), span(5, 4, 55, 85)};
  const SpanTree t = analyse_spans(s);
  EXPECT_EQ(t.self_us, (std::vector<std::int64_t>{10, 20, 30, 10, 30}));
  std::int64_t sum = 0;
  for (const std::int64_t v : t.self_us) sum += v;
  EXPECT_EQ(sum, 100);
}

TEST(SelfTime, IdenticalTwinsShareTheirTimeOnce) {
  const std::vector<SpanRecord> s = {span(1, 0, 0, 100), span(2, 1, 10, 20),
                                     span(3, 1, 10, 20)};
  const SpanTree t = analyse_spans(s);
  EXPECT_EQ(t.self_us[1] + t.self_us[2], 10);
}

TEST(SelfTime, OrphansAreCountedAndBelongToNoRoot) {
  const std::vector<SpanRecord> s = {span(1, 0, 0, 100), span(2, 1, 10, 20),
                                     span(3, 99, 30, 60), span(4, 3, 35, 45)};
  const SpanTree t = analyse_spans(s);
  EXPECT_EQ(t.orphans, 1u);
  EXPECT_EQ(t.root[2], SpanTree::npos);
  EXPECT_EQ(t.root[3], SpanTree::npos);
  EXPECT_EQ(t.self_us[0], 90);  // the orphan is not the root's child
  EXPECT_EQ(t.self_us[2], 20);
}

TEST(SelfTime, SpanIdsAreScopedToTheirTrace) {
  // Trace 2 reuses span id 1; its child must not attach to trace 1.
  const std::vector<SpanRecord> s = {span(1, 0, 0, 100, 1),
                                     span(7, 1, 10, 20, 2)};
  const SpanTree t = analyse_spans(s);
  EXPECT_EQ(t.self_us[0], 100);
  EXPECT_EQ(t.orphans, 1u);
}

std::set<std::pair<std::string, std::string>> as_set(
    const std::vector<MetricDef>& list) {
  std::set<std::pair<std::string, std::string>> out;
  for (const MetricDef& m : list) out.insert({m.name, m.unit});
  EXPECT_EQ(out.size(), list.size()) << "duplicate metric names";
  return out;
}

std::set<std::pair<std::string, std::string>> declared(
    const sparsetrain::serve::JsonValue& doc, const char* key) {
  std::set<std::pair<std::string, std::string>> out;
  for (const auto& m : doc.find(key)->as_array()) {
    out.insert({m.get_string("name", ""), m.get_string("unit", "")});
  }
  return out;
}

TEST(Catalogue, MatchesBenchmarkJson) {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = sparsetrain::serve::parse_json(text.str());
  EXPECT_EQ(declared(doc, "end_to_end"), as_set(end_to_end_metrics()));
  EXPECT_EQ(declared(doc, "per_layer"), as_set(per_layer_metrics()));
}

}  // namespace
}  // namespace perfbench
