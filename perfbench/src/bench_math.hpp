// The benchmark's own arithmetic: quantiles with the tail-support rule,
// request outcome accounting, and span self time. Kept free of any
// sparsetrain dependency so tests/test_bench_math.cpp can pin it alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Linearly interpolated quantile (numpy's default, Hyndman–Fan type 7)
/// of `samples`; q is clamped to [0, 1]. An empty sample answers 0.
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
double mean(const std::vector<double>& samples);

/// A tail quantile together with the evidence behind it: a q-quantile
/// is reportable only when at least `min_beyond` samples lie strictly
/// above it, otherwise the sample is too small to say anything about
/// that tail.
struct Tail {
  double value = 0.0;
  std::size_t beyond = 0;  ///< samples strictly greater than `value`
  bool supported = false;  ///< beyond >= min_beyond
};
Tail tail(const std::vector<double>& samples, double q,
          std::size_t min_beyond = 10);

/// One request of a closed loop: when its answer arrived (seconds since
/// the loop started), its latency (+inf when it failed), and whether it
/// was an ok answer.
struct Sample {
  double done_s = 0.0;
  double ms = 0.0;
  bool ok = false;
};

/// A loop cut into `windows` consecutive slices of equal request count
/// (in completion order), each figure the median over the slices. A
/// stall of a few seconds on a shared host then moves one or two slices,
/// not the figure.
struct Windowed {
  double rps = 0.0;  ///< ok answers per second of slice
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t windows = 0;     ///< slices used (1 for a tiny sample)
  std::size_t min_beyond = 0;  ///< fewest samples beyond any slice's p99
};
Windowed windowed(std::vector<Sample> samples, std::size_t windows);

/// Attempted / failed bookkeeping. Every request the benchmark sends is
/// attempted; it fails on a transport error, a rejected or timed-out
/// answer, or a wrong answer (found live or by the later answer check).
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// A request already counted as attempted turned out wrong.
  void fail_late(std::uint64_t n = 1) { failed += n; }
  void merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
  double fail_ratio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// One finished span, as the daemons log it and as the benchmark keeps
/// its own: identity within a trace, parent (0 = root), name, and its
/// interval in microseconds.
struct SpanRecord {
  std::uint64_t trace = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  std::int64_t start_us = 0;
  std::int64_t dur_us = 0;
};

/// Span tree facts, index-aligned with the input span list.
struct SpanTree {
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  /// Duration minus the union of the intervals the span hands off:
  /// its children's, and those of any sibling (same parent) that lies
  /// wholly inside it — a span that opened and closed while its sibling
  /// was open ran on the sibling's time, so the sibling is not charged
  /// for it twice. Each interval is clipped to the span's own, and
  /// overlapping ones count once. Never negative. With this rule the
  /// self times of a cleanly nested tree sum to the root's duration.
  std::vector<std::int64_t> self_us;
  /// Index of the span's tree root: a span with parent 0, found by
  /// walking parent links within the trace. npos when the walk reaches
  /// a parent id that is not in the span set (an orphan subtree).
  std::vector<std::size_t> root;
  std::size_t orphans = 0;  ///< spans whose own parent is missing
};
SpanTree analyse_spans(const std::vector<SpanRecord>& spans);

}  // namespace perfbench
