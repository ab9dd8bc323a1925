// What one benchmark run reports: named metrics with units, the request
// tally, and whether every answer checked out. print() writes the single
// JSON line that ends the run's standard output.
#pragma once

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_math.hpp"

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::map<std::string, Metric> metrics;
  Tally tally;
  /// Answer-check failures (wrong numbers, missing answers); any entry
  /// makes the run incorrect.
  std::vector<std::string> errors;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{std::isfinite(value) ? value : 0.0, unit};
  }
  void error(std::string what) { errors.push_back(std::move(what)); }
  bool correct() const { return errors.empty() && tally.failed == 0; }

  void print(std::FILE* out) const {
    std::fprintf(out,
                 "{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                 "%llu, \"metrics\": {",
                 correct() ? "true" : "false",
                 static_cast<unsigned long long>(tally.attempted),
                 static_cast<unsigned long long>(tally.failed));
    bool first = true;
    for (const auto& [name, m] : metrics) {
      std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
      first = false;
    }
    std::fprintf(out, "}}\n");
    std::fflush(out);
  }
};

}  // namespace perfbench
