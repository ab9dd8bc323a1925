// Profiling seam for the exact engine.
//
// The sim layer must not depend on obs (the engine is usable without
// the serving tier), so the engine only sees this abstract interface.
// obs::EngineProfiler implements it on top of the metrics registry.
//
// The hook is called once per engine stage (forward, gta, gtw, fc)
// after the stage's tasks complete — never inside the per-task loop —
// so the zero-allocation, byte-identical hot path is untouched. When
// ExactOptions::profiler is null (the default) the engine takes no
// timestamps at all.
#pragma once

#include <cstdint>

namespace sparsetrain::sim {

class ExactProfiler {
 public:
  virtual ~ExactProfiler() = default;

  /// One engine stage finished. `seconds` is wall time for the whole
  /// stage run: its per-stage tables (forward's cost table, GTA's dO
  /// bitsets, FC's operand compression), all tasks and tiles, and GTW's
  /// MAC fold. `tiles` is the number of parallel tiles actually used (1
  /// for the serial path, 0 for an empty stage).
  virtual void record_stage(const char* stage, double seconds,
                            std::uint64_t tasks, std::uint64_t row_ops,
                            std::uint64_t tiles) noexcept = 0;
};

}  // namespace sparsetrain::sim
