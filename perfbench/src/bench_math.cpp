#include "bench_math.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <utility>

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  const double a = samples[lo];
  const double b = samples[hi];
  if (frac == 0.0 || a == b) return a;  // exact, and +inf stays +inf
  return a + (b - a) * frac;
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

Tail tail(const std::vector<double>& samples, double q,
          std::size_t min_beyond) {
  Tail t;
  t.value = quantile(samples, q);
  t.beyond = static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [&](double v) { return v > t.value; }));
  t.supported = !samples.empty() && t.beyond >= min_beyond;
  return t;
}

Windowed windowed(std::vector<Sample> samples, std::size_t windows) {
  Windowed w;
  if (samples.empty()) return w;
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.done_s < b.done_s;
            });
  w.windows = std::clamp<std::size_t>(windows, 1, samples.size());
  w.min_beyond = samples.size();
  std::vector<double> rps;
  std::vector<double> p50;
  std::vector<double> p99;
  double begin = 0.0;
  for (std::size_t k = 0; k < w.windows; ++k) {
    const std::size_t lo = samples.size() * k / w.windows;
    const std::size_t hi = samples.size() * (k + 1) / w.windows;
    std::vector<double> ms;
    std::size_t ok = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      ms.push_back(samples[i].ms);
      if (samples[i].ok) ++ok;
    }
    const double end = samples[hi - 1].done_s;
    rps.push_back(end > begin ? static_cast<double>(ok) / (end - begin) : 0.0);
    begin = end;
    const Tail t = tail(ms, 0.99);
    w.min_beyond = std::min(w.min_beyond, t.beyond);
    p50.push_back(quantile(ms, 0.50));
    p99.push_back(t.value);
  }
  w.rps = median(std::move(rps));
  w.p50_ms = median(std::move(p50));
  w.p99_ms = median(std::move(p99));
  return w;
}

SpanTree analyse_spans(const std::vector<SpanRecord>& spans) {
  const std::size_t n = spans.size();
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> by_id;
  for (std::size_t i = 0; i < n; ++i) {
    by_id.emplace(std::make_pair(spans[i].trace, spans[i].id), i);
  }

  SpanTree tree;
  tree.self_us.resize(n);
  tree.root.assign(n, SpanTree::npos);
  std::vector<std::size_t> parent(n, SpanTree::npos);
  std::vector<std::vector<std::size_t>> children(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (spans[i].parent == 0) continue;
    const auto it = by_id.find({spans[i].trace, spans[i].parent});
    if (it == by_id.end() || it->second == i) {
      ++tree.orphans;
      continue;
    }
    parent[i] = it->second;
    children[it->second].push_back(i);
  }

  const auto end_of = [&](std::size_t i) {
    return spans[i].start_us + spans[i].dur_us;
  };
  // j lies inside i: contained, with identical intervals broken by index
  // so that exactly one of two twins is charged for the shared time.
  const auto inside = [&](std::size_t j, std::size_t i) {
    if (spans[j].start_us < spans[i].start_us || end_of(j) > end_of(i)) {
      return false;
    }
    const bool same = spans[j].start_us == spans[i].start_us &&
                      end_of(j) == end_of(i);
    return !same || j > i;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t begin = spans[i].start_us;
    const std::int64_t end = end_of(i);
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    const auto hand_off = [&](std::size_t c) {
      const std::int64_t cb = std::max(begin, spans[c].start_us);
      const std::int64_t ce = std::min(end, end_of(c));
      if (ce > cb) iv.emplace_back(cb, ce);
    };
    for (const std::size_t c : children[i]) hand_off(c);
    if (parent[i] != SpanTree::npos) {
      for (const std::size_t sib : children[parent[i]]) {
        if (sib != i && inside(sib, i)) hand_off(sib);
      }
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_b = 0;
    std::int64_t run_e = 0;
    bool open = false;
    for (const auto& [b, e] : iv) {
      if (open && b <= run_e) {
        run_e = std::max(run_e, e);
        continue;
      }
      if (open) covered += run_e - run_b;
      run_b = b;
      run_e = e;
      open = true;
    }
    if (open) covered += run_e - run_b;
    tree.self_us[i] = std::max<std::int64_t>(0, spans[i].dur_us - covered);
  }

  // Roots: walk parent links; a chain that ends at a span with a nonzero
  // parent id that was not found belongs to no root. The step cap guards
  // against parent cycles in a corrupt log.
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t cur = i;
    for (std::size_t steps = 0; steps <= n; ++steps) {
      if (parent[cur] == SpanTree::npos) {
        if (spans[cur].parent == 0) tree.root[i] = cur;
        break;
      }
      cur = parent[cur];
    }
  }
  return tree;
}

}  // namespace perfbench
