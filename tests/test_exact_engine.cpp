// Exact-engine tests, including the cross-validation of the statistical
// accelerator model against exact tensor-driven cycle counts — the test
// that grounds every Fig. 8/9 number this repository produces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "compiler/compiler.hpp"
#include "sim/accelerator.hpp"
#include "sim/exact_engine.hpp"
#include "util/rng.hpp"
#include "workload/layer_config.hpp"
#include "workload/sparsity_profile.hpp"

namespace sparsetrain::sim {
namespace {

dataflow::ConvGeometry geo_3x3(std::size_t c, std::size_t f) {
  dataflow::ConvGeometry geo;
  geo.in_channels = c;
  geo.out_channels = f;
  return geo;
}

/// A GTA geometry whose dO and dI rows span several u64 words: in.w 270,
/// stride 2, so out.w = 135 (> 128) for both (K 3, P 1) and (K 5, P 2).
dataflow::ConvGeometry wide_strided_geo(std::size_t kernel,
                                        std::size_t padding) {
  auto g = geo_3x3(3, 4);
  g.kernel = kernel;
  g.stride = 2;
  g.padding = padding;
  return g;
}

constexpr std::size_t kWideW = 270;

/// The GTA stage folded naively: every task's MSRC ops costed one by one
/// through the BitMask reference PeExact::run_msrc, folded by
/// PeGroupReducer, and each task assigned to the least-loaded group
/// (lowest id on ties).
ExactStageResult naive_gta(const ArchConfig& cfg, const Tensor& grad,
                           const Shape& in_shape, const Tensor* mask,
                           const dataflow::ConvGeometry& geo) {
  const Shape out = grad.shape();
  isa::RowBlock b;
  b.kind = isa::RowOpKind::MSRC;
  b.in_len = out.w;
  b.out_len = in_shape.w;
  b.kernel = static_cast<std::uint32_t>(geo.kernel);
  b.stride = static_cast<std::uint32_t>(geo.stride);
  b.padding = static_cast<std::uint32_t>(geo.padding);
  const PeExact pe(cfg.timing);
  PeGroupReducer red(cfg.pes_per_group, geo.kernel);
  std::vector<std::size_t> loads(cfg.pe_groups, 0);
  ExactStageResult r;
  for (std::size_t n = 0; n < out.n; ++n) {
    for (std::size_t c = 0; c < geo.in_channels; ++c) {
      for (std::size_t iy = 0; iy < in_shape.h; ++iy) {
        const BitMask m =
            mask != nullptr
                ? bitmask_from_dense(mask->row(n, c, iy))
                : bitmask_all(static_cast<std::uint32_t>(in_shape.w));
        red.begin_task();
        for (std::size_t f = 0; f < geo.out_channels; ++f) {
          for (std::size_t ky = 0; ky < geo.kernel; ++ky) {
            const std::int64_t num =
                static_cast<std::int64_t>(iy + geo.padding) -
                static_cast<std::int64_t>(ky);
            if (num < 0 || num % static_cast<std::int64_t>(geo.stride) != 0)
              continue;
            const auto oy = static_cast<std::size_t>(num) / geo.stride;
            if (oy >= out.h) continue;
            red.add(pe.run_msrc(compress_row(grad.row(n, f, oy)), m, b));
          }
        }
        const std::size_t cycles = red.end_task();
        *std::min_element(loads.begin(), loads.end()) += cycles;
        ++r.tasks;
      }
    }
  }
  r.cycles = *std::max_element(loads.begin(), loads.end());
  r.row_ops = red.row_ops();
  r.activity.busy_cycles = red.busy();
  r.activity.macs = red.macs();
  r.activity.reg_accesses = red.reg();
  return r;
}

/// The GTW stage folded naively: every task's OSRC ops costed one by one
/// through the two-pointer sweep reference PeExact::run_osrc (MACs
/// included), folded by PeGroupReducer, and each task assigned to the
/// least-loaded group (lowest id on ties). Zero dO rows schedule nothing.
ExactStageResult naive_gtw(const ArchConfig& cfg, const Tensor& grad,
                           const Tensor& input,
                           const dataflow::ConvGeometry& geo) {
  const Shape out = grad.shape();
  const Shape in = input.shape();
  isa::RowBlock b;
  b.kind = isa::RowOpKind::OSRC;
  b.in_len = out.w;
  b.out_len = geo.kernel;
  b.second_len = in.w;
  b.kernel = static_cast<std::uint32_t>(geo.kernel);
  b.stride = static_cast<std::uint32_t>(geo.stride);
  b.padding = static_cast<std::uint32_t>(geo.padding);
  const PeExact pe(cfg.timing);
  PeGroupReducer red(cfg.pes_per_group, geo.kernel);
  std::vector<std::size_t> loads(cfg.pe_groups, 0);
  ExactStageResult r;
  for (std::size_t n = 0; n < out.n; ++n) {
    for (std::size_t f = 0; f < geo.out_channels; ++f) {
      for (std::size_t c = 0; c < geo.in_channels; ++c) {
        red.begin_task();
        for (std::size_t oy = 0; oy < out.h; ++oy) {
          const SparseRow go = compress_row(grad.row(n, f, oy));
          if (go.empty()) continue;
          for (std::size_t ky = 0; ky < geo.kernel; ++ky) {
            const std::int64_t iy =
                static_cast<std::int64_t>(oy * geo.stride + ky) -
                static_cast<std::int64_t>(geo.padding);
            if (iy < 0 || iy >= static_cast<std::int64_t>(in.h)) continue;
            red.add(pe.run_osrc(
                compress_row(input.row(n, c, static_cast<std::size_t>(iy))),
                go, b));
          }
        }
        const std::size_t cycles = red.end_task();
        *std::min_element(loads.begin(), loads.end()) += cycles;
        ++r.tasks;
      }
    }
  }
  r.cycles = *std::max_element(loads.begin(), loads.end());
  r.row_ops = red.row_ops();
  r.activity.busy_cycles = red.busy();
  r.activity.macs = red.macs();
  r.activity.reg_accesses = red.reg();
  return r;
}

void expect_identical(const ExactStageResult& a, const ExactStageResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.row_ops, b.row_ops);
  EXPECT_EQ(a.tasks, b.tasks);
  EXPECT_EQ(a.activity.busy_cycles, b.activity.busy_cycles);
  EXPECT_EQ(a.activity.macs, b.activity.macs);
  EXPECT_EQ(a.activity.reg_accesses, b.activity.reg_accesses);
}

TEST(ExactEngine, RequiresSparseMode) {
  ArchConfig cfg;
  cfg.sparse = false;
  EXPECT_THROW(ExactEngine{cfg}, ContractError);
}

TEST(ExactEngine, ForwardCountsMatchHandComputation) {
  // 1 group, 1 PE per group → makespan = sum of all op cycles.
  ArchConfig cfg;
  cfg.pe_groups = 1;
  cfg.pes_per_group = 1;
  ExactEngine engine(cfg);

  Tensor input(Shape{1, 1, 3, 4});
  // Row nnz: 2, 0, 1.
  input.at(0, 0, 0, 0) = 1.0f;
  input.at(0, 0, 0, 2) = 2.0f;
  input.at(0, 0, 2, 3) = 3.0f;

  const auto r = engine.run_forward(input, geo_3x3(1, 1));
  // Tasks: 3 output rows; row ops with valid iy: oy0→ky1,2; oy1→ky0,1,2;
  // oy2→ky0,1 ⇒ 7 ops. Cycles per op: wload(2) + nnz + drain(2).
  EXPECT_EQ(r.tasks, 3u);
  EXPECT_EQ(r.row_ops, 7u);
  // nnz per input row: row0=2 (used by ops with iy=0: oy0/ky1? iy=oy+ky-1)
  // ops touching iy0: (oy0,ky1),(oy1,ky0) → 2 ops × 2 nnz
  // iy1 (nnz 0): (oy0,ky2),(oy1,ky1),(oy2,ky0) → 3 ops × 0
  // iy2 (nnz 1): (oy1,ky2),(oy2,ky1) → 2 ops × 1 nnz
  const std::size_t expected_busy = 7 * 4 + 2 * 2 + 2 * 1;
  EXPECT_EQ(r.activity.busy_cycles, expected_busy);
  EXPECT_EQ(r.cycles, expected_busy);  // single PE: serial
}

TEST(ExactEngine, ZeroGradRowsScheduleNoGtwOps) {
  ArchConfig cfg;
  cfg.pe_groups = 2;
  ExactEngine engine(cfg);
  Rng rng(7);
  Tensor input(Shape{1, 2, 6, 6});
  input.fill_sparse_normal(rng, 0.5);
  Tensor grad(Shape{1, 2, 6, 6});  // all zero
  const auto r = engine.run_gtw(grad, input, geo_3x3(2, 2));
  EXPECT_EQ(r.row_ops, 0u);
  EXPECT_EQ(r.activity.macs, 0u);
}

TEST(ExactEngine, MaskReducesGtaWork) {
  ArchConfig cfg;
  ExactEngine engine(cfg);
  Rng rng(8);
  const Shape in_shape{1, 2, 8, 8};
  Tensor grad(Shape{1, 2, 8, 8});
  grad.fill_sparse_normal(rng, 0.5);
  Tensor mask(in_shape);
  mask.fill_sparse_normal(rng, 0.3);
  for (float& v : mask.flat())
    if (v != 0.0f) v = 1.0f;

  const auto full = engine.run_gta(grad, in_shape, nullptr, geo_3x3(2, 2));
  const auto masked = engine.run_gta(grad, in_shape, &mask, geo_3x3(2, 2));
  EXPECT_LT(masked.activity.macs, full.activity.macs);
  EXPECT_LE(masked.activity.busy_cycles, full.activity.busy_cycles);
}

TEST(ExactEngine, GtaOnMultiWordRowsMatchesNaiveBitMaskFold) {
  // Rows wider than 128 positions: the dO bitsets and window-count
  // planes span three words, and stride 2 with padding 1–2 clamps
  // windows at both row ends.
  ArchConfig cfg;
  cfg.pe_groups = 5;
  const ExactEngine engine(cfg);
  for (const auto& [kernel, padding] :
       {std::pair<std::size_t, std::size_t>{3, 1}, {5, 2}}) {
    const auto geo = wide_strided_geo(kernel, padding);
    SCOPED_TRACE("K=" + std::to_string(kernel) +
                 " P=" + std::to_string(padding));
    Rng rng(51 + kernel);
    const Shape in_shape{1, geo.in_channels, 6, kWideW};
    const Shape out_shape = dataflow::conv_output_shape(geo, in_shape);
    ASSERT_GT(out_shape.w, 128u);
    Tensor grad(out_shape);
    grad.fill_sparse_normal(rng, 0.4);
    Tensor mask(in_shape);
    mask.fill_sparse_normal(rng, 0.45);
    for (float& v : mask.flat())
      if (v != 0.0f) v = 1.0f;

    const auto masked = engine.run_gta(grad, in_shape, &mask, geo);
    const auto all_pass = engine.run_gta(grad, in_shape, nullptr, geo);
    EXPECT_LT(masked.activity.macs, all_pass.activity.macs);
    expect_identical(masked, naive_gta(cfg, grad, in_shape, &mask, geo));
    expect_identical(all_pass, naive_gta(cfg, grad, in_shape, nullptr, geo));
  }
}

TEST(ExactEngine, GtwMatchesNaiveSweepFold) {
  // The GTW stage costs ops from nonzero counts and folds its MACs once
  // per stage; both must equal the per-op sweep fold exactly. Inputs:
  // batches of 2–3, K from 1 to 11, stride beyond K, P == K, padding
  // beyond K, K = 64 with P = 32, rows of 1024+ positions, one-wide and
  // zero-wide rows,
  // densities 0–1, and in every draw whole I and dO rows zeroed.
  ArchConfig cfg;
  cfg.pe_groups = 5;
  const ExactEngine serial(cfg);
  ExactOptions opts;
  opts.workers = 3;
  const ExactEngine parallel(cfg, opts);
  struct Case {
    std::size_t n, c, f, k, s, p, h, w;
    double in_density, go_density;
  };
  const Case cases[] = {
      {2, 3, 4, 3, 1, 1, 9, 9, 0.4, 0.3},     // the common 3×3 layer
      {2, 2, 3, 3, 5, 1, 17, 23, 0.5, 0.5},   // stride beyond K
      {2, 2, 2, 3, 1, 3, 12, 10, 0.4, 0.4},   // P == K
      {3, 2, 2, 5, 2, 5, 11, 13, 0.6, 0.3},   // P == K, strided
      {2, 2, 2, 7, 1, 9, 5, 20, 0.5, 0.5},    // padding beyond K
      {2, 2, 2, 64, 1, 32, 3, 100, 0.3, 0.2},  // K = 64, P = 32
      {2, 2, 2, 1, 4, 0, 8, 15, 0.5, 0.5},    // K = 1, stride 4
      {2, 2, 2, 11, 3, 11, 14, 30, 0.4, 0.3},  // K = 11, P == K, strided
      {2, 2, 2, 3, 1, 1, 3, 1030, 0.2, 0.1},  // wide rows
      {2, 2, 3, 5, 3, 2, 4, 1100, 0.5, 0.4},  // wide, strided
      {2, 2, 2, 3, 1, 0, 4, 3, 0.7, 0.7},     // one-wide dO rows
      {2, 3, 2, 3, 1, 1, 6, 8, 0.0, 0.5},     // all-zero I
      {2, 3, 2, 3, 1, 1, 6, 8, 0.5, 0.0},     // all-zero dO
      {2, 3, 2, 3, 2, 1, 7, 9, 1.0, 1.0},     // dense
  };
  std::uint64_t seed = 71;
  for (const Case& k : cases) {
    auto geo = geo_3x3(k.c, k.f);
    geo.kernel = k.k;
    geo.stride = k.s;
    geo.padding = k.p;
    SCOPED_TRACE(::testing::Message()
                 << "K=" << k.k << " S=" << k.s << " P=" << k.p
                 << " in=" << k.h << "x" << k.w << " d=" << k.in_density
                 << "/" << k.go_density);
    Rng rng(++seed);
    Tensor input(Shape{k.n, k.c, k.h, k.w});
    input.fill_sparse_normal(rng, k.in_density);
    Tensor grad(dataflow::conv_output_shape(geo, input.shape()));
    grad.fill_sparse_normal(rng, k.go_density);
    // Whole zero rows on both sides: I rows a task pairs with nothing,
    // and dO rows that schedule no op at all.
    for (std::size_t n = 0; n < k.n; ++n) {
      for (std::size_t c = 0; c < k.c; ++c) {
        for (std::size_t y = (n + c) % 3; y < k.h; y += 3) {
          for (float& v : input.row(n, c, y)) v = 0.0f;
        }
      }
      for (std::size_t f = 0; f < k.f; ++f) {
        for (std::size_t y = (n + f) % 4; y < grad.shape().h; y += 4) {
          for (float& v : grad.row(n, f, y)) v = 0.0f;
        }
      }
    }
    const ExactStageResult want = naive_gtw(cfg, grad, input, geo);
    if (k.in_density > 0.0 && k.go_density > 0.0) {
      EXPECT_GT(want.activity.macs, 0u);
    }
    expect_identical(serial.run_gtw(grad, input, geo), want);
    expect_identical(parallel.run_gtw(grad, input, geo), want);
  }

  // Zero-wide rows on either side (Tensor rows cannot be zero-wide, so
  // the row sets are built directly). A zero-wide dO schedules nothing;
  // a zero-wide I row streams no nonzero, so every op costs what it
  // costs against an all-zero I row of any width, with no MACs.
  const auto geo = geo_3x3(2, 3);
  Rng rng(97);
  Tensor input(Shape{2, 2, 5, 6});
  input.fill_sparse_normal(rng, 0.5);
  Tensor grad(Shape{2, 3, 5, 6});
  grad.fill_sparse_normal(rng, 0.5);
  const auto zero_wide = [](const Shape& s) {
    CompressedRows rows;
    const std::vector<std::uint32_t> counts(s.n * s.c * s.h, 0);
    rows.start(0, counts);
    return rows;
  };
  const Shape no_cols_go{2, 3, 5, 0};
  const Shape no_cols_in{2, 2, 5, 0};
  const auto zero_go = serial.run_gtw(zero_wide(no_cols_go), no_cols_go,
                                      serial.compress(input), input.shape(),
                                      geo);
  EXPECT_EQ(zero_go.row_ops, 0u);
  expect_identical(zero_go,
                   naive_gtw(cfg, Tensor(grad.shape()), input, geo));
  const auto zero_in =
      serial.run_gtw(serial.compress(grad), grad.shape(),
                     zero_wide(no_cols_in), no_cols_in, geo);
  EXPECT_GT(zero_in.row_ops, 0u);
  EXPECT_EQ(zero_in.activity.macs, 0u);
  expect_identical(zero_in,
                   naive_gtw(cfg, grad, Tensor(input.shape()), geo));
}

TEST(ExactEngine, MoreGroupsShortenMakespan) {
  Rng rng(9);
  Tensor input(Shape{1, 4, 12, 12});
  input.fill_sparse_normal(rng, 0.5);
  ArchConfig small;
  small.pe_groups = 2;
  ArchConfig large;
  large.pe_groups = 16;
  const auto rs = ExactEngine(small).run_forward(input, geo_3x3(4, 8));
  const auto rl = ExactEngine(large).run_forward(input, geo_3x3(4, 8));
  EXPECT_GT(rs.cycles, rl.cycles);
  // Same total work either way.
  EXPECT_EQ(rs.activity.busy_cycles, rl.activity.busy_cycles);
  EXPECT_EQ(rs.activity.macs, rl.activity.macs);
}

// Regression for the empty-stage edge cases: a stage with zero scheduled
// row ops must report utilization 0, never NaN or a division by zero.
TEST(ExactEngine, EmptyStageUtilizationIsZeroNotNaN) {
  const ExactStageResult empty;
  EXPECT_EQ(empty.utilization(168), 0.0);
  EXPECT_EQ(empty.utilization(0), 0.0);

  ArchConfig cfg;
  ExactEngine engine(cfg);
  Rng rng(12);
  Tensor input(Shape{1, 2, 6, 6});
  input.fill_sparse_normal(rng, 0.5);
  Tensor zero_grad(Shape{1, 2, 6, 6});  // all zero → no GTW row ops
  const auto r = engine.run_gtw(zero_grad, input, geo_3x3(2, 2));
  EXPECT_EQ(r.row_ops, 0u);
  EXPECT_EQ(r.cycles, 0u);
  const double u = r.utilization(cfg.pe_groups * cfg.pes_per_group);
  EXPECT_FALSE(std::isnan(u));
  EXPECT_EQ(u, 0.0);

  // Busy stages still report sane utilization against any PE count.
  const auto f = engine.run_forward(input, geo_3x3(2, 2));
  EXPECT_GT(f.cycles, 0u);
  EXPECT_EQ(f.utilization(0), 0.0);
  EXPECT_GT(f.utilization(1), 0.0);
}

// The parallel tiling contract: results are byte-identical to the serial
// path for any worker count and any tile size, on all three stages.
void expect_identical_for_any_workers_and_tile(
    const dataflow::ConvGeometry& geo, const Shape& in_shape,
    std::uint64_t seed) {
  Rng rng(seed);
  Tensor input(in_shape);
  input.fill_sparse_normal(rng, 0.4);
  const Shape out_shape = dataflow::conv_output_shape(geo, input.shape());
  Tensor grad(out_shape);
  grad.fill_sparse_normal(rng, 0.3);
  Tensor mask(input.shape());
  mask.fill_sparse_normal(rng, 0.5);
  for (float& v : mask.flat())
    if (v != 0.0f) v = 1.0f;

  ArchConfig cfg;
  const ExactEngine serial(cfg);  // workers = 1: no pool at all
  const auto fwd = serial.run_forward(input, geo);
  const auto gta = serial.run_gta(grad, input.shape(), &mask, geo);
  const auto gtw = serial.run_gtw(grad, input, geo);
  EXPECT_GT(fwd.cycles, 0u);
  EXPECT_GT(gta.cycles, 0u);
  EXPECT_GT(gtw.cycles, 0u);

  for (const std::size_t workers :
       {std::size_t{2}, std::size_t{7}, std::size_t{8}}) {
    // tile 0 = adaptive sizing; 1000000 = one tile for the whole stage.
    for (const std::size_t tile :
         {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{64},
          std::size_t{1000000}}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " tile=" + std::to_string(tile));
      ExactOptions opts;
      opts.workers = workers;
      opts.tile_tasks = tile;
      const ExactEngine parallel(cfg, opts);
      expect_identical(parallel.run_forward(input, geo), fwd);
      expect_identical(parallel.run_gta(grad, input.shape(), &mask, geo),
                       gta);
      expect_identical(parallel.run_gtw(grad, input, geo), gtw);
    }
  }
}

TEST(ExactEngineParallel, IdenticalForAnyWorkersAndTileSize) {
  auto geo = geo_3x3(6, 12);
  geo.stride = 2;
  expect_identical_for_any_workers_and_tile(geo, Shape{2, 6, 24, 24}, 21);
}

TEST(ExactEngineParallel, IdenticalForAnyWorkersAndTileSizeOnWideRows) {
  const auto geo = wide_strided_geo(5, 2);
  expect_identical_for_any_workers_and_tile(
      geo, Shape{2, geo.in_channels, 8, kWideW}, 22);
}

// Acceptance: a full-size AlexNet CONV layer (conv2 at ImageNet scale,
// 96→256 channels over 27×27, 5×5 kernel — the workload zoo geometry)
// simulates exactly with 4 workers, byte-identical to the serial path.
TEST(ExactEngineParallel, FullSizeAlexNetConvLayerMatchesSerial) {
  const workload::LayerConfig& l =
      workload::find_layer("AlexNet/ImageNet", "conv2");
  const dataflow::ConvGeometry geo = dataflow::layer_geometry(l);

  Rng rng(31);
  Tensor input(Shape{1, l.in_channels, l.in_h, l.in_w});
  input.fill_sparse_normal(rng, 0.35);
  Tensor grad(Shape{1, l.out_channels, l.out_h(), l.out_w()});
  grad.fill_sparse_normal(rng, 0.1);

  ArchConfig cfg;
  ExactOptions quad;
  quad.workers = 4;
  const ExactEngine serial(cfg);
  const ExactEngine parallel(cfg, quad);

  const auto fwd_s = serial.run_forward(input, geo);
  const auto fwd_p = parallel.run_forward(input, geo);
  EXPECT_GT(fwd_s.cycles, 0u);
  EXPECT_EQ(fwd_s.tasks,
            static_cast<std::size_t>(l.out_channels) * l.out_h());
  expect_identical(fwd_p, fwd_s);

  expect_identical(parallel.run_gtw(grad, input, geo),
                   serial.run_gtw(grad, input, geo));
}

// The cross-validation: statistical engine vs exact engine on matched
// workloads. The statistical model samples binomial nonzero counts from
// the measured densities, so stage cycles must agree within a few percent.
class StatVsExact : public ::testing::TestWithParam<double> {};

TEST_P(StatVsExact, ForwardCyclesAgree) {
  const double density = GetParam();
  Rng rng(42);
  const std::size_t C = 8, F = 16, H = 20, W = 20;
  Tensor input(Shape{1, C, H, W});
  input.fill_sparse_normal(rng, density);

  // Exact.
  ArchConfig cfg;
  const auto exact = ExactEngine(cfg).run_forward(input, [&] {
    dataflow::ConvGeometry g;
    g.in_channels = C;
    g.out_channels = F;
    return g;
  }());

  // Statistical: a one-layer workload with the measured density.
  workload::NetworkConfig net;
  net.name = "probe";
  workload::LayerConfig l;
  l.name = "conv";
  l.in_channels = C;
  l.in_h = H;
  l.in_w = W;
  l.out_channels = F;
  l.first_layer = true;
  net.layers = {l};
  std::vector<workload::LayerDensities> densities(1);
  densities[0].input_acts = input.density();
  const workload::SparsityProfile profile("measured", densities);
  compiler::CompileOptions opts;
  opts.gta = false;
  opts.gtw = false;
  const auto prog = compiler::compile(net, profile, opts);
  const auto stat = Accelerator(cfg).run(prog, net, profile);

  EXPECT_NEAR(static_cast<double>(stat.total_cycles),
              static_cast<double>(exact.cycles),
              0.08 * static_cast<double>(exact.cycles))
      << "density " << density;
  EXPECT_NEAR(static_cast<double>(stat.activity.macs),
              static_cast<double>(exact.activity.macs),
              0.10 * static_cast<double>(exact.activity.macs) + 100.0);
}

INSTANTIATE_TEST_SUITE_P(Densities, StatVsExact,
                         ::testing::Values(0.15, 0.35, 0.6, 0.9),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "d" + std::to_string(static_cast<int>(
                                            info.param * 100));
                         });

TEST(StatVsExactGtw, CyclesAgreeOnSparseSparse) {
  Rng rng(43);
  const std::size_t C = 6, F = 8, H = 16, W = 16;
  Tensor input(Shape{1, C, H, W});
  input.fill_sparse_normal(rng, 0.5);
  Tensor grad(Shape{1, F, H, W});
  grad.fill_sparse_normal(rng, 0.3);

  ArchConfig cfg;
  dataflow::ConvGeometry g;
  g.in_channels = C;
  g.out_channels = F;
  const auto exact = ExactEngine(cfg).run_gtw(grad, input, g);

  workload::NetworkConfig net;
  net.name = "probe";
  workload::LayerConfig l;
  l.name = "conv";
  l.in_channels = C;
  l.in_h = H;
  l.in_w = W;
  l.out_channels = F;
  l.first_layer = true;
  net.layers = {l};
  std::vector<workload::LayerDensities> densities(1);
  densities[0].input_acts = input.density();
  densities[0].output_grads = grad.density();
  const workload::SparsityProfile profile("measured", densities);
  compiler::CompileOptions opts;
  opts.forward = false;
  opts.gta = false;
  const auto prog = compiler::compile(net, profile, opts);
  const auto stat = Accelerator(cfg).run(prog, net, profile);

  // GTW's chunked cost is harder to approximate; 20% band.
  EXPECT_NEAR(static_cast<double>(stat.total_cycles),
              static_cast<double>(exact.cycles),
              0.20 * static_cast<double>(exact.cycles));
}

}  // namespace
}  // namespace sparsetrain::sim
