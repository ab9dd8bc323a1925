#include "sim/exact_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <numeric>

#include "sim/profile_hook.hpp"
#include "util/require.hpp"

namespace sparsetrain::sim {

namespace {

/// The contiguous ky range of output row oy whose input rows
/// iy = oy·S + ky − P exist (are not padding), plus the iy of the first
/// valid ky. iy is monotone in ky, so validity is one interval — the
/// per-(channel, tap) padding test of the stage kernels collapses to a
/// per-task range computation.
struct KyRange {
  std::size_t lo;   ///< first valid ky
  std::size_t hi;   ///< one past the last valid ky (hi ≤ lo: none)
  std::size_t iy0;  ///< input row of ky == lo (iy of ky k is iy0 + k − lo)
};

KyRange valid_ky_range(std::size_t oy, const dataflow::ConvGeometry& geo,
                       std::size_t in_h) {
  const std::int64_t base = static_cast<std::int64_t>(oy * geo.stride) -
                            static_cast<std::int64_t>(geo.padding);
  const std::int64_t lo = base < 0 ? -base : 0;
  std::int64_t hi = static_cast<std::int64_t>(in_h) - base;
  if (hi > static_cast<std::int64_t>(geo.kernel))
    hi = static_cast<std::int64_t>(geo.kernel);
  if (hi < lo) hi = lo;
  return KyRange{static_cast<std::size_t>(lo), static_cast<std::size_t>(hi),
                 static_cast<std::size_t>(base + lo)};
}

isa::RowBlock block_from(const dataflow::ConvGeometry& geo,
                         std::size_t in_len, std::size_t out_len,
                         isa::RowOpKind kind) {
  isa::RowBlock b;
  b.kind = kind;
  b.in_len = in_len;
  b.out_len = out_len;
  b.kernel = static_cast<std::uint32_t>(geo.kernel);
  b.stride = static_cast<std::uint32_t>(geo.stride);
  b.padding = static_cast<std::uint32_t>(geo.padding);
  return b;
}

/// Per-worker-thread scratch. Capacities grow to the stage's steady state
/// within the first few tasks, after which evaluating a task performs no
/// heap allocation at all (the zero-alloc contract of the hot path).
struct TaskScratch {
  std::vector<std::uint32_t> mask_prefix;  ///< masked GTA: prefix popcount
  std::vector<std::uint64_t> mask_planes;  ///< GTA: window-count planes
  std::vector<std::uint32_t> gta_oy;  ///< ky → source oy (kNoRow: padding)
};

constexpr std::uint32_t kNoRow = ~std::uint32_t{0};

TaskScratch& task_scratch() {
  thread_local TaskScratch scratch;
  return scratch;
}

/// Flat indexed d-ary min-heap over the PE groups' loads, keyed by
/// (load, group id) — the identical order std::priority_queue<pair,
/// greater<>> gave the old merge, so task→group assignment (and thus
/// every makespan) is byte-identical to the PR-3 engine. Only the root
/// ever changes (assign = add to the least-loaded group, sift down), and
/// the final makespan is a direct scan of the load array instead of
/// destructively popping a heap.
class GroupHeap {
 public:
  GroupHeap(std::size_t* loads, std::uint32_t* heap, std::size_t n)
      : loads_(loads), heap_(heap), n_(n) {}

  /// Assigns a task of `cycles` to the least-loaded group.
  void assign(std::size_t cycles) {
    loads_[heap_[0]] += cycles;
    sift_down_root();
  }

  std::size_t max_load() const {
    std::size_t m = 0;
    for (std::size_t g = 0; g < n_; ++g) m = std::max(m, loads_[g]);
    return m;
  }

 private:
  static constexpr std::size_t kArity = 4;

  bool before(std::uint32_t a, std::uint32_t b) const {
    return loads_[a] != loads_[b] ? loads_[a] < loads_[b] : a < b;
  }

  void sift_down_root() {
    std::size_t i = 0;
    const std::uint32_t moved = heap_[0];
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n_) break;
      const std::size_t last = std::min(first + kArity, n_);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], moved)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = moved;
  }

  std::size_t* loads_;
  std::uint32_t* heap_;
  std::size_t n_;
};

/// Shared coordination state of one tiled stage. Heap-held behind a
/// shared_ptr: helper tasks that reach the pool after the stage finished
/// must still fail their tile claim safely. Helpers touch the kernel and
/// arena (whose lifetimes end with run_tasks' frame) only after a
/// successful claim, and the merging caller cannot return before every
/// claimed tile's ready flag rose — so those references are always alive
/// when dereferenced.
struct TileRun {
  explicit TileRun(std::size_t tiles) : ready(tiles, 0) {}
  std::atomic<std::size_t> next{0};  ///< tile claim counter
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::uint8_t> ready;   ///< guarded by mu
  std::exception_ptr error;          ///< first tile error (guarded by mu)

  void mark_ready(std::size_t t) {
    {
      std::lock_guard lock(mu);
      ready[t] = 1;
    }
    cv.notify_all();
  }

  void record_error() {
    std::lock_guard lock(mu);
    if (!error) error = std::current_exception();
  }
};

}  // namespace

double ExactStageResult::utilization(std::size_t total_pes) const {
  if (cycles == 0 || total_pes == 0) return 0.0;
  return static_cast<double>(activity.busy_cycles) /
         (static_cast<double>(cycles) * static_cast<double>(total_pes));
}

/// Wall time of one whole stage run — its per-stage tables, its tasks and
/// any closing fold — reported to the profiler once, when the stage
/// finishes. The profiler is the only source of timing in the engine:
/// with none attached no clock is read anywhere on the stage path.
class ExactEngine::StageClock {
 public:
  StageClock(ExactProfiler* profiler, const char* stage)
      : profiler_(profiler), stage_(stage) {
    if (profiler_ != nullptr) start_ = std::chrono::steady_clock::now();
  }

  /// Parallel tiles the stage's tasks used (1 serial, 0 empty).
  void set_tiles(std::uint64_t tiles) { tiles_ = tiles; }

  void finish(const ExactStageResult& result) const {
    if (profiler_ == nullptr) return;
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start_)
                               .count();
    profiler_->record_stage(stage_, seconds, result.tasks, result.row_ops,
                            tiles_);
  }

 private:
  ExactProfiler* profiler_;
  const char* stage_;
  std::chrono::steady_clock::time_point start_{};
  std::uint64_t tiles_ = 0;
};

ExactEngine::ExactEngine(ArchConfig cfg, ExactOptions opts)
    : cfg_(std::move(cfg)), opts_(opts), pe_(cfg_.timing) {
  ST_REQUIRE(cfg_.sparse, "the exact engine models the sparse architecture");
  ST_REQUIRE(cfg_.pe_groups > 0 && cfg_.pes_per_group > 0,
             "architecture needs PEs");
  if (opts_.shared_pool == nullptr && opts_.workers != 1) {
    pool_ = std::make_unique<util::ThreadPool>(opts_.workers);
  }
}

ExactEngine::~ExactEngine() = default;

ExactEngine::ArenaLease::~ArenaLease() {
  if (engine != nullptr && arena != nullptr) {
    engine->release_arena(std::move(arena));
  }
}

ExactEngine::ArenaLease ExactEngine::acquire_arena() const {
  std::unique_lock lock(arenas_mu_);
  if (!free_arenas_.empty()) {
    auto arena = std::move(free_arenas_.back());
    free_arenas_.pop_back();
    return ArenaLease(this, std::move(arena));
  }
  lock.unlock();
  return ArenaLease(this, std::make_unique<StageArena>());
}

void ExactEngine::release_arena(std::unique_ptr<StageArena> arena) const {
  std::lock_guard lock(arenas_mu_);
  free_arenas_.push_back(std::move(arena));
}

ExactEngine::RowSet ExactEngine::compress(const Tensor& t) const {
  return compress_tensor(t, worker_pool());
}

std::size_t ExactEngine::tile_for(std::size_t task_count,
                                  std::size_t est_ops_per_task) const {
  if (opts_.tile_tasks != 0) return opts_.tile_tasks;
  // Aim for a roughly constant amount of work per tile: GTW tasks often
  // schedule only a handful of row ops (sparse dO rows skip whole
  // slices) and pack thousands of tasks per tile, while op-heavy forward
  // tasks split finely. Then cap so the stage still spreads over the
  // pool with slack for load balance. Tile size affects wall-clock only,
  // never results (the merge consumes tasks in index order regardless).
  constexpr std::size_t kTileRowOps = 2048;
  constexpr std::size_t kMaxTile = 4096;
  std::size_t tile =
      kTileRowOps / std::max<std::size_t>(1, est_ops_per_task);
  tile = std::clamp<std::size_t>(tile, 1, kMaxTile);
  const util::ThreadPool* pool = worker_pool();
  const std::size_t threads =
      (pool != nullptr ? pool->worker_count() : 0) + 1;
  const std::size_t balance_cap =
      std::max<std::size_t>(1, task_count / (4 * threads));
  return std::max<std::size_t>(1, std::min(tile, balance_cap));
}

template <typename Kernel>
ExactStageResult ExactEngine::run_tasks(std::size_t task_count,
                                        std::size_t est_ops_per_task,
                                        const Kernel& kernel,
                                        StageClock& clock) const {
  ExactStageResult result;
  result.tasks = task_count;

  ArenaLease lease = acquire_arena();
  StageArena& arena = *lease.arena;

  // Group scheduler state. heap[i] = i is a valid (load, id) min-heap
  // when every load is zero, because parent indices are smaller ids.
  arena.loads.assign(cfg_.pe_groups, 0);
  arena.heap.resize(cfg_.pe_groups);
  for (std::size_t g = 0; g < cfg_.pe_groups; ++g) {
    arena.heap[g] = static_cast<std::uint32_t>(g);
  }
  GroupHeap sched(arena.loads.data(), arena.heap.data(), cfg_.pe_groups);

  if (task_count == 0) return result;

  util::ThreadPool* pool = worker_pool();
  const std::size_t tile = tile_for(task_count, est_ops_per_task);
  const std::size_t tiles = (task_count + tile - 1) / tile;

  TileTotals totals;
  if (pool == nullptr || tiles <= 1) {
    // Serial: evaluation and merge fuse into one streaming loop — each
    // task's cycle count goes straight into the scheduler, no per-task
    // storage at all.
    PeGroupReducer red(cfg_.pes_per_group, kernel.lanes);
    for (std::size_t i = 0; i < task_count; ++i) {
      sched.assign(kernel(i, red));
    }
    totals = TileTotals{red.row_ops(), red.busy(), red.macs(), red.reg()};
  } else {
    arena.cycles.resize(task_count);
    arena.tile_totals.assign(tiles, TileTotals{});

    auto run = std::make_shared<TileRun>(tiles);
    auto eval_tile = [&](std::size_t t) {
      try {
        const std::size_t first = t * tile;
        const std::size_t last = std::min(first + tile, task_count);
        PeGroupReducer red(cfg_.pes_per_group, kernel.lanes);
        for (std::size_t i = first; i < last; ++i) {
          arena.cycles[i] = kernel(i, red);
        }
        arena.tile_totals[t] =
            TileTotals{red.row_ops(), red.busy(), red.macs(), red.reg()};
      } catch (...) {
        run->record_error();
      }
      run->mark_ready(t);
    };

    // Helpers claim tiles from the shared counter; the caller claims too
    // while the tile it must merge next is not ready, so progress never
    // depends on the pool's queue draining (nested stages are safe).
    const std::size_t helpers =
        std::min(pool->worker_count(), tiles - 1);
    for (std::size_t h = 0; h < helpers; ++h) {
      try {
        pool->submit([run, &eval_tile] {
          for (;;) {
            const std::size_t t =
                run->next.fetch_add(1, std::memory_order_relaxed);
            if (t >= run->ready.size()) return;
            eval_tile(t);
          }
        });
      } catch (...) {
        run->record_error();
        break;
      }
    }

    // Merge tiles strictly in tile order (= task order), overlapping the
    // merge of tile t with the evaluation of later tiles.
    std::size_t merged = 0;
    while (merged < tiles) {
      bool is_ready;
      {
        std::lock_guard lock(run->mu);
        is_ready = run->ready[merged] != 0;
      }
      if (!is_ready) {
        const std::size_t t =
            run->next.fetch_add(1, std::memory_order_relaxed);
        if (t < tiles) {
          eval_tile(t);
          continue;
        }
        std::unique_lock lock(run->mu);
        run->cv.wait(lock, [&] { return run->ready[merged] != 0; });
      }
      const std::size_t first = merged * tile;
      const std::size_t last = std::min(first + tile, task_count);
      for (std::size_t i = first; i < last; ++i) {
        sched.assign(arena.cycles[i]);
      }
      const TileTotals& tt = arena.tile_totals[merged];
      totals.row_ops += tt.row_ops;
      totals.busy += tt.busy;
      totals.macs += tt.macs;
      totals.reg += tt.reg;
      ++merged;
    }

    std::exception_ptr error;
    {
      std::lock_guard lock(run->mu);
      error = run->error;
    }
    if (error) std::rethrow_exception(error);
  }

  result.row_ops = totals.row_ops;
  result.activity.busy_cycles = totals.busy;
  result.activity.macs = totals.macs;
  result.activity.reg_accesses = totals.reg;
  result.cycles = sched.max_load();
  clock.set_tiles(pool == nullptr || tiles <= 1 ? 1 : tiles);
  return result;
}

namespace {

/// Forward stage kernel: one task per output row (n, f, oy), C·K SRC ops.
///
/// The SRC cost of an op is a pure function of (input row, block) — it
/// does not depend on the task's output channel f at all, so evaluating
/// it inline would recompute each input row's cost F times per oy (and
/// K more times across overlapping oy windows). run_forward instead
/// precomputes one PeCost per physical input row (`row_costs`, N·C·IH
/// entries) and the kernel folds table entries. The reducer consumes the
/// identical PeCost sequence in the identical order, so every simulated
/// field is byte-identical to the inline evaluation.
struct ForwardKernel {
  static constexpr const char* kStage = "forward";
  const PeCost* row_costs;
  const dataflow::ConvGeometry& geo;
  Shape in_shape;
  Shape out_shape;
  std::size_t lanes;

  std::size_t operator()(std::size_t index, PeGroupReducer& red) const {
    const std::size_t oy = index % out_shape.h;
    const std::size_t n = index / (out_shape.h * geo.out_channels);
    // iy = oy·S + ky − P is monotone in ky, so the valid taps form one
    // contiguous ky range — resolve it once per task instead of testing
    // every (c, ky) pair. Iteration order (c-major, ky ascending) and
    // thus the reducer's fold are unchanged.
    const auto [ky_lo, ky_hi, iy0] = valid_ky_range(oy, geo, in_shape.h);
    const std::size_t taps = ky_hi - ky_lo;
    red.begin_task();
    for (std::size_t c = 0; c < geo.in_channels; ++c) {
      const PeCost* cost = row_costs + (n * in_shape.c + c) * in_shape.h + iy0;
      for (std::size_t t = 0; t < taps; ++t) {
        red.add(cost[t]);
      }
    }
    return red.end_task();
  }
};

/// GTA stage kernel: one task per dI row (n, c, iy), F·K MSRC ops
/// scattering into it.
///
/// An op's MACs are, per dO nonzero p, the allowed outputs in p's window
/// of the task's mask row — a window geometry that depends only on the
/// task. So each task lowers its mask prefix once into window-count
/// planes over p (dataflow::msrc_count_planes), and every op ANDs its
/// dO row's bitset (`go_bits`, packed once per stage by run_gta) with
/// them: a few popcounts per op, identical counts. Unmasked stages run
/// the same path from the shared all-pass prefix (prefix[i] = i).
struct GtaKernel {
  static constexpr const char* kStage = "gta";
  const std::uint64_t* go_bits;  ///< dO row r at go_bits + r · words
  std::size_t words;             ///< bit_words(out.w)
  const dataflow::ConvGeometry& geo;
  Shape out;
  Shape in_shape;
  isa::RowBlock b;
  const PeExact& pe;
  const std::uint32_t* all_pass_prefix;  ///< unmasked: prefix[i] = i
  const Tensor* prev_mask;
  std::size_t wl;  ///< stage-constant weight-load cycles (hoisted)
  std::size_t lanes;

  std::size_t operator()(std::size_t index, PeGroupReducer& red) const {
    const std::size_t iy = index % in_shape.h;
    const std::size_t c = (index / in_shape.h) % geo.in_channels;
    const std::size_t n = index / (in_shape.h * geo.in_channels);
    TaskScratch& scratch = task_scratch();
    const std::uint32_t* prefix = all_pass_prefix;
    if (prev_mask != nullptr) {
      const std::span<const float> dense = prev_mask->row(n, c, iy);
      std::vector<std::uint32_t>& pre = scratch.mask_prefix;
      pre.resize(dense.size() + 1);
      std::uint32_t acc = 0;
      for (std::size_t x = 0; x < dense.size(); ++x) {
        pre[x] = acc;
        acc += dense[x] != 0.0f ? 1u : 0u;
      }
      pre[dense.size()] = acc;
      prefix = pre.data();
    }
    std::vector<std::uint64_t>& planes = scratch.mask_planes;
    planes.resize(words * dataflow::msrc_plane_count(b.kernel));
    dataflow::msrc_count_planes(prefix, in_shape.w,
                                {b.kernel, b.stride, b.padding}, out.w,
                                planes.data());
    // oy·S + ky − P = iy → every (oy, ky) pair writing this row. The
    // mapping depends only on iy, so resolve it once per task instead of
    // once per (f, ky).
    std::vector<std::uint32_t>& oy_of = scratch.gta_oy;
    oy_of.assign(geo.kernel, kNoRow);
    for (std::size_t ky = 0; ky < geo.kernel; ++ky) {
      const std::int64_t num = static_cast<std::int64_t>(iy) +
                               static_cast<std::int64_t>(geo.padding) -
                               static_cast<std::int64_t>(ky);
      if (num < 0 || num % static_cast<std::int64_t>(geo.stride) != 0)
        continue;
      const auto oy = static_cast<std::size_t>(
          num / static_cast<std::int64_t>(geo.stride));
      if (oy >= out.h) continue;
      oy_of[ky] = static_cast<std::uint32_t>(oy);
    }
    red.begin_task();
    for (std::size_t f = 0; f < geo.out_channels; ++f) {
      for (std::size_t ky = 0; ky < geo.kernel; ++ky) {
        if (oy_of[ky] == kNoRow) continue;
        const std::size_t r = (n * out.c + f) * out.h + oy_of[ky];
        red.add(pe.run_msrc(go_bits + r * words, planes.data(), b, wl));
      }
    }
    return red.end_task();
  }
};

/// GTW stage kernel: one task per (n, f, c) kernel slice, OH·K OSRC ops
/// (zero dO rows schedule nothing).
///
/// An op's cycles and ingested elements depend only on the dO row's chunk
/// count and the I row's nonzero count (PeExact::osrc_cost), so every op
/// is O(1). Its MACs feed nothing but the stage total, which run_gtw
/// folds once after the tasks (gtw_stage_macs).
struct GtwKernel {
  static constexpr const char* kStage = "gtw";
  const CompressedRows& go_rows;
  const CompressedRows& in_rows;
  const dataflow::ConvGeometry& geo;
  Shape out;
  Shape in;
  isa::RowBlock b;
  const PeExact& pe;
  std::size_t wl;  ///< stage-constant weight-load cycles (hoisted)
  std::size_t lanes;

  std::size_t operator()(std::size_t index, PeGroupReducer& red) const {
    const std::size_t c = index % geo.in_channels;
    const std::size_t f = (index / geo.in_channels) % geo.out_channels;
    const std::size_t n = index / (geo.in_channels * geo.out_channels);
    const std::size_t go_base = (n * out.c + f) * out.h;
    const std::size_t in_base = (n * in.c + c) * in.h;
    red.begin_task();
    for (std::size_t oy = 0; oy < out.h; ++oy) {
      const SparseRowView go = go_rows.row(go_base + oy);
      if (go.empty()) continue;  // zero dO row: nothing scheduled
      // The dO chunk count depends only on this oy's row — reuse it for
      // every kernel tap the row pairs with.
      const std::size_t chunks = PeExact::osrc_chunks(go, b);
      // Valid taps are one contiguous ky range (see valid_ky_range); the
      // op order per oy — ky ascending — is the same as the per-tap test.
      const auto [ky_lo, ky_hi, iy0] = valid_ky_range(oy, geo, in.h);
      const std::size_t r0 = in_base + iy0;
      for (std::size_t r = r0; r < r0 + (ky_hi - ky_lo); ++r) {
        red.add(pe.osrc_cost(in_rows.row(r).nnz(), chunks, wl));
      }
    }
    return red.end_task();
  }
};

/// The MAC total of a GTW stage, folded once instead of per OSRC op. Op
/// (n, f, c, oy, iy) pairs dO row (n, f, oy) with I row (n, c, iy) and
/// performs, per dO nonzero ox, one MAC per I nonzero in ox's window
/// [ox·S − P, ox·S − P + K) clamped to [0, in.w). Summed over f and c,
///
///   MACs = Σ_n Σ_oy Σ_{iy ∈ rows(oy)} Σ_ox D_n[oy][ox] · W_n[iy][ox]
///
/// where D_n[oy][ox] counts the output channels with dO ≠ 0 at (oy, ox),
/// W_n[iy][ox] counts the I nonzeros of row iy, over all input channels,
/// in ox's window, and rows(oy) is valid_ky_range's interval. Each sample
/// costs O(nnz) scatters plus a few passes over OH·OW and IH·IW tables,
/// whatever the channel counts; the three tables are pooled arena
/// buffers, so the fold allocates nothing in steady state. The u32
/// running sums may wrap on huge layers, but every difference read off
/// them is one op group's count (at most K·K·C), so unsigned arithmetic
/// keeps it exact.
std::size_t gtw_stage_macs(const CompressedRows& go_rows, const Shape& out,
                           const CompressedRows& in_rows, const Shape& in,
                           const dataflow::ConvGeometry& geo,
                           std::vector<std::uint32_t>& go_count,
                           std::vector<std::uint32_t>& in_count,
                           std::vector<std::uint32_t>& window) {
  const std::size_t ow = out.w;
  const std::size_t iw1 = in.w + 1;  // in_count rows are prefix rows
  const auto S = static_cast<std::int64_t>(geo.stride);
  const auto P = static_cast<std::int64_t>(geo.padding);
  const auto K = static_cast<std::int64_t>(geo.kernel);
  const auto len = static_cast<std::int64_t>(in.w);
  std::size_t macs = 0;
  for (std::size_t n = 0; n < out.n; ++n) {
    // D_n: output channels with a nonzero dO at each (oy, ox).
    go_count.assign(out.h * ow, 0);
    for (std::size_t f = 0; f < geo.out_channels; ++f) {
      const std::size_t r0 = (n * out.c + f) * out.h;
      for (std::size_t oy = 0; oy < out.h; ++oy) {
        std::uint32_t* row = go_count.data() + oy * ow;
        for (const std::uint32_t ox : go_rows.row(r0 + oy).offsets) ++row[ox];
      }
    }
    // Per input row iy, the channel-summed nonzero count before each x
    // (one mark past each nonzero, then a running sum).
    in_count.assign(in.h * iw1, 0);
    for (std::size_t c = 0; c < geo.in_channels; ++c) {
      const std::size_t r0 = (n * in.c + c) * in.h;
      for (std::size_t iy = 0; iy < in.h; ++iy) {
        std::uint32_t* row = in_count.data() + iy * iw1;
        for (const std::uint32_t x : in_rows.row(r0 + iy).offsets) {
          ++row[x + 1];
        }
      }
    }
    // window[iy][ox] = Σ_{iy' < iy} W_n[iy'][ox], so a ky interval's sum
    // is one difference of two rows.
    window.resize((in.h + 1) * ow);
    std::fill_n(window.begin(), ow, 0u);
    for (std::size_t iy = 0; iy < in.h; ++iy) {
      std::uint32_t* pre = in_count.data() + iy * iw1;
      for (std::size_t x = 1; x < iw1; ++x) pre[x] += pre[x - 1];
      const std::uint32_t* below = window.data() + iy * ow;
      std::uint32_t* above = window.data() + (iy + 1) * ow;
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const std::int64_t win_lo = static_cast<std::int64_t>(ox) * S - P;
        const std::int64_t lo = std::clamp<std::int64_t>(win_lo, 0, len);
        const std::int64_t hi = std::clamp<std::int64_t>(win_lo + K, 0, len);
        above[ox] = below[ox] + pre[hi] - pre[lo];
      }
    }
    for (std::size_t oy = 0; oy < out.h; ++oy) {
      const auto [ky_lo, ky_hi, iy0] = valid_ky_range(oy, geo, in.h);
      if (ky_hi == ky_lo) continue;
      const std::uint32_t* d = go_count.data() + oy * ow;
      const std::uint32_t* first = window.data() + iy0 * ow;
      const std::uint32_t* last = window.data() + (iy0 + ky_hi - ky_lo) * ow;
      for (std::size_t ox = 0; ox < ow; ++ox) {
        macs += std::size_t{d[ox]} * (last[ox] - first[ox]);
      }
    }
  }
  return macs;
}

/// FC stage kernel: one task per (sample, lane group); every task streams
/// the sample's compressed vector once into `lanes` accumulators (no
/// kernel preload — weight columns arrive from the buffer per ingested
/// element).
struct FcKernel {
  static constexpr const char* kStage = "fc";
  const CompressedRows& rows;
  std::size_t groups_per_sample;
  std::size_t drain;
  std::size_t lanes;

  std::size_t operator()(std::size_t index, PeGroupReducer& red) const {
    const std::size_t n = index / groups_per_sample;
    const SparseRowView vec = rows.row(n);
    PeCost op;
    op.ingested = vec.nnz();
    op.macs = vec.nnz() * lanes;
    op.cycles = vec.nnz() + drain;
    red.begin_task();
    red.add(op);
    return red.end_task();
  }
};

}  // namespace

ExactStageResult ExactEngine::run_forward(
    const Tensor& input, const dataflow::ConvGeometry& geo) const {
  return run_forward(compress(input), input.shape(), geo);
}

ExactStageResult ExactEngine::run_forward(
    const RowSet& rows, const Shape& in_shape,
    const dataflow::ConvGeometry& geo) const {
  const Shape out_shape = dataflow::conv_output_shape(geo, in_shape);
  const isa::RowBlock b =
      block_from(geo, in_shape.w, out_shape.w, isa::RowOpKind::SRC);

  // Fill the per-input-row cost table the kernel folds (see
  // ForwardKernel). The lease outlives run_tasks (which takes its own
  // arena), so worker threads read a stable table; both arenas return to
  // the pool afterwards and steady-state stages stay allocation-free.
  StageClock clock(opts_.profiler, ForwardKernel::kStage);
  ArenaLease lease = acquire_arena();
  std::vector<PeCost>& costs = lease.arena->src_costs;
  costs.resize(rows.rows());
  const std::size_t wl = pe_.weight_load(b);
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    costs[r] = pe_.run_src(rows.row(r), b, wl);
  }

  const std::size_t task_count =
      in_shape.n * geo.out_channels * out_shape.h;
  const ForwardKernel kernel{costs.data(), geo, in_shape, out_shape,
                             geo.kernel};
  const ExactStageResult result =
      run_tasks(task_count, geo.in_channels * geo.kernel, kernel, clock);
  clock.finish(result);
  return result;
}

ExactStageResult ExactEngine::run_gta(const Tensor& grad_output,
                                      const Shape& input_shape,
                                      const Tensor* prev_mask,
                                      const dataflow::ConvGeometry& geo) const {
  return run_gta(compress(grad_output), grad_output.shape(), input_shape,
                 prev_mask, geo);
}

ExactStageResult ExactEngine::run_gta(const RowSet& go_rows,
                                      const Shape& out, const Shape& input_shape,
                                      const Tensor* prev_mask,
                                      const dataflow::ConvGeometry& geo) const {
  const isa::RowBlock b =
      block_from(geo, out.w, input_shape.w, isa::RowOpKind::MSRC);

  // Pack every dO row into its nonzero bitset and lay out the all-pass
  // prefix (prefix[i] = i) that unmasked tasks read in place (see
  // GtaKernel). As with forward's cost table, the lease outlives
  // run_tasks and the pooled buffers keep steady-state stages
  // allocation-free.
  ST_REQUIRE(go_rows.rows() == 0 || go_rows.row_length() == out.w,
             "GTA dO rows must have length out.w");
  StageClock clock(opts_.profiler, GtaKernel::kStage);
  ArenaLease lease = acquire_arena();
  StageArena& arena = *lease.arena;
  const std::size_t words = dataflow::bit_words(out.w);
  arena.go_bits.resize(go_rows.rows() * words);
  for (std::size_t r = 0; r < go_rows.rows(); ++r) {
    dataflow::pack_row_bits(go_rows.row(r), arena.go_bits.data() + r * words);
  }
  arena.all_pass_prefix.resize(input_shape.w + 1);
  std::iota(arena.all_pass_prefix.begin(), arena.all_pass_prefix.end(),
            std::uint32_t{0});

  const std::size_t task_count =
      out.n * geo.in_channels * input_shape.h;
  const GtaKernel kernel{arena.go_bits.data(),
                         words,
                         geo,
                         out,
                         input_shape,
                         b,
                         pe_,
                         arena.all_pass_prefix.data(),
                         prev_mask,
                         pe_.weight_load(b),
                         geo.kernel};
  const ExactStageResult result =
      run_tasks(task_count, geo.out_channels * geo.kernel, kernel, clock);
  clock.finish(result);
  return result;
}

ExactStageResult ExactEngine::run_gtw(const Tensor& grad_output,
                                      const Tensor& input,
                                      const dataflow::ConvGeometry& geo) const {
  return run_gtw(compress(grad_output), grad_output.shape(),
                 compress(input), input.shape(), geo);
}

ExactStageResult ExactEngine::run_gtw(const RowSet& go_rows,
                                      const Shape& out, const RowSet& in_rows,
                                      const Shape& in,
                                      const dataflow::ConvGeometry& geo) const {
  isa::RowBlock b = block_from(geo, out.w, geo.kernel, isa::RowOpKind::OSRC);
  b.second_len = in.w;

  const std::size_t task_count =
      out.n * geo.out_channels * geo.in_channels;
  // GTW tasks skip every zero dO row outright, so the realistic op count
  // per task is the nonempty-row fraction of the nominal OH·K (sparse
  // gradients make this a small handful — big tiles, few claims).
  const std::size_t est_ops = std::max<std::size_t>(
      1, go_rows.rows() == 0
             ? 1
             : go_rows.nonempty_rows() * out.h * geo.kernel /
                   go_rows.rows());

  ST_REQUIRE(in_rows.rows() == 0 || in_rows.row_length() == in.w,
             "GTW input rows must have length in.w");
  ST_REQUIRE(go_rows.rows() == 0 || go_rows.row_length() == out.w,
             "GTW dO rows must have length out.w");
  StageClock clock(opts_.profiler, GtwKernel::kStage);
  const GtwKernel kernel{go_rows, in_rows, geo, out, in,
                         b,       pe_,     pe_.weight_load(b), geo.kernel};
  ExactStageResult result = run_tasks(task_count, est_ops, kernel, clock);

  // The kernel left every op's MACs at 0; fold the stage total once (see
  // gtw_stage_macs). The lease is taken after run_tasks returned its own
  // arena, so a serial engine's two stages reuse one pooled arena.
  ArenaLease lease = acquire_arena();
  StageArena& arena = *lease.arena;
  result.activity.macs = gtw_stage_macs(go_rows, out, in_rows, in, geo,
                                        arena.gtw_go_count,
                                        arena.gtw_in_count, arena.gtw_window);
  clock.finish(result);
  return result;
}

ExactStageResult ExactEngine::run_fc(const Tensor& operands,
                                     std::size_t groups_per_sample,
                                     std::size_t lanes) const {
  const Shape& s = operands.shape();
  ST_REQUIRE(s.c == 1 && s.h == 1,
             "FC operands must be {N, 1, 1, L} (one vector per sample)");
  ST_REQUIRE(groups_per_sample > 0 && lanes > 0,
             "FC stage needs lane groups");

  StageClock clock(opts_.profiler, FcKernel::kStage);
  const RowSet rows = compress(operands);

  const std::size_t task_count = s.n * groups_per_sample;
  const FcKernel kernel{rows, groups_per_sample, cfg_.timing.pipeline_drain,
                        lanes};
  const ExactStageResult result = run_tasks(task_count, 1, kernel, clock);
  clock.finish(result);
  return result;
}

}  // namespace sparsetrain::sim
