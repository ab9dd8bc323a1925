// Edge-case coverage for the row-op work counters, the MSRC
// window-count-plane fast path, and the BitMask window primitives.
//
// Two layers of defense:
//   1. Naive-reference checks — the per-tap loop nobody optimized is the
//      ground truth for the O(1) congruence / popcount-window formulas,
//      and the BitMask counter is the ground truth for the plane fast
//      path. Exhaustive over every small geometry,
//      then randomized rows, plus wide shapes: K = 64 with P = 32,
//      padding beyond the kernel, out_len 0, and rows up to 1024 long.
//   2. Boundary cases called out by inspection: windows ending exactly
//      on 64-bit word boundaries, lo == hi, clamped-to-empty windows,
//      out_len smaller than the kernel overhang.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dataflow/row_ops.hpp"
#include "sim/pe_model.hpp"
#include "tensor/bit_mask.hpp"
#include "util/rng.hpp"

namespace sparsetrain::dataflow {
namespace {

/// Naive per-tap SRC work: literally walk every (nonzero, tap) pair and
/// test whether it maps to a valid output. The formula under test
/// replaces this with O(1) congruence arithmetic per nonzero.
RowOpWork src_work_naive(SparseRowView input, const RowGeometry& geo,
                         std::size_t out_len) {
  RowOpWork w;
  for (std::size_t i = 0; i < input.nnz(); ++i) {
    std::size_t macs_here = 0;
    for (std::uint32_t k = 0; k < geo.kernel; ++k) {
      // ox·S + k − P = pos  →  ox = (pos + P − k) / S
      const std::int64_t num = static_cast<std::int64_t>(input.offsets[i]) +
                               static_cast<std::int64_t>(geo.padding) -
                               static_cast<std::int64_t>(k);
      if (num < 0 || num % geo.stride != 0) continue;
      if (num / geo.stride >= static_cast<std::int64_t>(out_len)) continue;
      ++macs_here;
    }
    if (macs_here > 0) {
      ++w.active_inputs;
      w.macs += macs_here;
    } else {
      ++w.skipped_inputs;
    }
  }
  return w;
}

/// Naive MSRC work: per (nonzero, tap), map to the output index and ask
/// the mask bit by bit.
RowOpWork msrc_work_naive(SparseRowView input, const BitMask& mask,
                          const RowGeometry& geo, std::size_t out_len) {
  RowOpWork w;
  for (std::size_t i = 0; i < input.nnz(); ++i) {
    std::size_t macs_here = 0;
    for (std::uint32_t k = 0; k < geo.kernel; ++k) {
      const std::int64_t ix = static_cast<std::int64_t>(input.offsets[i]) *
                                  static_cast<std::int64_t>(geo.stride) +
                              static_cast<std::int64_t>(k) -
                              static_cast<std::int64_t>(geo.padding);
      if (ix < 0 || ix >= static_cast<std::int64_t>(out_len)) continue;
      if (!mask.allows(static_cast<std::uint32_t>(ix))) continue;
      ++macs_here;
    }
    if (macs_here > 0) {
      ++w.active_inputs;
      w.macs += macs_here;
    } else {
      ++w.skipped_inputs;
    }
  }
  return w;
}

/// Bit-loop reference for BitMask::count_in.
std::size_t count_in_naive(const BitMask& m, std::uint32_t lo,
                           std::uint32_t hi) {
  std::size_t n = 0;
  for (std::uint32_t p = lo; p < hi && p < m.length(); ++p) {
    n += m.allows(p) ? 1 : 0;
  }
  return n;
}

SparseRow random_row(Rng& rng, std::uint32_t length, double density) {
  SparseRow row;
  row.length = length;
  for (std::uint32_t p = 0; p < length; ++p) {
    if (!rng.bernoulli(density)) continue;
    row.offsets.push_back(p);
    // Nonzero float with full mantissa entropy so bit-equality is a real
    // assertion (value 0 would be an invalid stored zero).
    float v = static_cast<float>(rng.uniform(-2.0, 2.0));
    if (v == 0.0f) v = 1.0f;
    row.values.push_back(v);
  }
  return row;
}

bool works_equal(const RowOpWork& a, const RowOpWork& b) {
  return a.macs == b.macs && a.active_inputs == b.active_inputs &&
         a.skipped_inputs == b.skipped_inputs;
}

/// Calls check(geo, row, out_len) over shapes the small random draws
/// miss: a 64-wide kernel with P = 32, padding beyond the kernel, stride
/// beyond the kernel, out_len 0 and rows up to 1024 long, at every
/// density from empty to full.
template <typename Check>
void for_each_wide_shape(Rng& rng, Check&& check) {
  const RowGeometry geos[] = {{3, 1, 1}, {8, 1, 0}, {5, 2, 2}, {3, 5, 1},
                              {7, 1, 9}, {64, 1, 32}, {1, 1, 0}};
  for (const RowGeometry& geo : geos) {
    for (const double d : {0.0, 0.1, 0.5, 0.9, 1.0}) {
      for (const std::uint32_t length : {1u, 7u, 64u, 65u, 200u, 1024u}) {
        const SparseRow row = random_row(rng, length, d);
        for (const std::size_t out_len :
             {std::size_t{0}, std::size_t{1}, std::size_t{63},
              std::size_t{64}, std::size_t{128}, std::size_t{length}}) {
          SCOPED_TRACE(::testing::Message()
                       << "K=" << geo.kernel << " S=" << geo.stride
                       << " P=" << geo.padding << " len=" << length
                       << " out_len=" << out_len << " d=" << d);
          check(geo, row, out_len);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

// ------------------------------------------------------------------
// 1. Checks against the naive references.

TEST(SrcWork, ExhaustiveSmallGeometries) {
  // Every (K ≤ 8, S ≤ 4, P ≤ 8, out_len ≤ 16) geometry with every
  // single-nonzero offset ≤ 64: the strided congruence path, the
  // stride-1 clamp path, and out_len small enough that the left clamp
  // (base > base_min) engages while the right clamp still matters.
  std::size_t cases = 0;
  for (std::uint32_t K = 1; K <= 8; ++K) {
    for (std::uint32_t S = 1; S <= 4; ++S) {
      for (std::uint32_t P = 0; P <= 8; ++P) {
        for (std::size_t out_len = 0; out_len <= 16; ++out_len) {
          for (std::uint32_t off = 0; off <= 64; ++off) {
            const RowGeometry geo{K, S, P};
            SparseRow row;
            row.length = off + 1;
            row.offsets = {off};
            row.values = {1.0f};
            const RowOpWork got = src_work(row, geo, out_len);
            const RowOpWork ref = src_work_naive(row, geo, out_len);
            ASSERT_TRUE(works_equal(got, ref))
                << "K=" << K << " S=" << S << " P=" << P
                << " out_len=" << out_len << " off=" << off << " macs "
                << got.macs << " vs " << ref.macs;
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_GT(cases, 100000u);
}

TEST(SrcWork, MultiNonzeroRowsMatchNaive) {
  Rng rng(0x5eedU);
  for (int iter = 0; iter < 500; ++iter) {
    const auto K = static_cast<std::uint32_t>(1 + rng.uniform_index(8));
    const auto S = static_cast<std::uint32_t>(1 + rng.uniform_index(4));
    const auto P = static_cast<std::uint32_t>(rng.uniform_index(9));
    const auto len = static_cast<std::uint32_t>(1 + rng.uniform_index(80));
    const std::size_t out_len = rng.uniform_index(20);
    const SparseRow row = random_row(rng, len, rng.uniform());
    const RowGeometry geo{K, S, P};
    const RowOpWork ref = src_work_naive(row, geo, out_len);
    EXPECT_TRUE(works_equal(src_work(row, geo, out_len), ref));
  }
  for_each_wide_shape(rng, [](const RowGeometry& geo, const SparseRow& row,
                              std::size_t out_len) {
    ASSERT_TRUE(works_equal(src_work(row, geo, out_len),
                            src_work_naive(row, geo, out_len)));
  });
}

TEST(BitMaskCountIn, WordBoundaryWindows) {
  Rng rng(0xb175U);
  // Lengths straddling one, two and three words, including exact
  // multiples of 64 (where a clamped window can start at length()).
  for (const std::uint32_t length :
       {1u, 63u, 64u, 65u, 127u, 128u, 129u, 200u}) {
    std::vector<float> dense(length);
    for (auto& v : dense) v = rng.bernoulli(0.5) ? 1.0f : 0.0f;
    const BitMask m = bitmask_from_dense(dense);
    for (std::uint32_t lo = 0; lo <= length; ++lo) {
      for (std::uint32_t hi = lo; hi <= length + 3; ++hi) {
        ASSERT_EQ(m.count_in(lo, hi), count_in_naive(m, lo, hi))
            << "length=" << length << " lo=" << lo << " hi=" << hi;
      }
    }
    // lo == hi and lo == length are empty by contract.
    EXPECT_EQ(m.count_in(length, length), 0u);
    EXPECT_EQ(m.count_in(0, 0), 0u);
  }
}

TEST(BitMaskCountIn, WindowsEndingOnWordBoundaries) {
  const BitMask m = bitmask_all(256);
  for (const std::uint32_t hi : {64u, 128u, 192u, 256u}) {
    for (const std::uint32_t back : {1u, 63u, 64u, 65u}) {
      if (back > hi) continue;
      EXPECT_EQ(m.count_in(hi - back, hi), back)
          << "hi=" << hi << " back=" << back;
    }
  }
  EXPECT_EQ(m.count_in(0, 300), 256u);  // hi beyond length clamps
}

TEST(MsrcWork, ClampAgreesWithRowConvMacCount) {
  // The claim the counter makes — macs == multiplies msrc_row_conv would
  // perform — checked by counting actual writes of the reference conv,
  // across windows hanging off both ends (win_lo < 0, win_hi > out_len).
  Rng rng(0x300dU);
  for (int iter = 0; iter < 300; ++iter) {
    const auto K = static_cast<std::uint32_t>(1 + rng.uniform_index(8));
    const auto S = static_cast<std::uint32_t>(1 + rng.uniform_index(4));
    const auto P = static_cast<std::uint32_t>(rng.uniform_index(12));
    const auto len = static_cast<std::uint32_t>(1 + rng.uniform_index(40));
    const std::size_t out_len = rng.uniform_index(30);
    const RowGeometry geo{K, S, P};
    const SparseRow row = random_row(rng, len, 0.6);

    std::vector<float> mask_dense(out_len);
    for (auto& v : mask_dense) v = rng.bernoulli(0.5) ? 1.0f : 0.0f;
    const BitMask mask = bitmask_from_dense(mask_dense);

    const RowOpWork got = msrc_work(row, mask, geo, out_len);
    const RowOpWork ref = msrc_work_naive(row, mask, geo, out_len);
    ASSERT_TRUE(works_equal(got, ref))
        << "K=" << K << " S=" << S << " P=" << P << " out_len=" << out_len;
  }
  for_each_wide_shape(rng, [&](const RowGeometry& geo, const SparseRow& row,
                               std::size_t out_len) {
    std::vector<float> mask_dense(out_len);
    for (auto& v : mask_dense) v = rng.bernoulli(0.5) ? 1.0f : 0.0f;
    const BitMask mask = bitmask_from_dense(mask_dense);
    ASSERT_TRUE(works_equal(msrc_work(row, mask, geo, out_len),
                            msrc_work_naive(row, mask, geo, out_len)));
  });
}

bool costs_equal(const sim::PeCost& a, const sim::PeCost& b) {
  return a.cycles == b.cycles && a.macs == b.macs && a.ingested == b.ingested;
}

/// One draw of the plane-counter check: a random mask row of `out_len`
/// outputs and a dO row width, then dO rows of every density counted by
/// the plane path and the BitMask counter, as RowOpWork and as PeCost.
void check_planes_against_bitmask(Rng& rng, const RowGeometry& geo,
                                  std::uint32_t out_len) {
  const double densities[] = {0.0, 0.1, 0.5, 0.9, 1.0};
  // Half the draws take the GTA geometry's dO width, half an unrelated one.
  const std::int64_t conv_len = (static_cast<std::int64_t>(out_len) +
                                 2 * geo.padding - geo.kernel) /
                                    geo.stride +
                                1;
  const auto in_len = static_cast<std::uint32_t>(
      rng.bernoulli(0.5) && conv_len > 0 ? conv_len
                                         : 1 + rng.uniform_index(230));
  std::vector<float> dense(out_len);
  const double mask_density = densities[rng.uniform_index(5)];
  for (auto& v : dense) v = rng.bernoulli(mask_density) ? 1.0f : 0.0f;
  const BitMask mask = bitmask_from_dense(dense);
  std::vector<std::uint32_t> prefix(out_len + 1, 0);
  for (std::uint32_t i = 0; i < out_len; ++i) {
    prefix[i + 1] = prefix[i] + (mask.allows(i) ? 1u : 0u);
  }
  std::vector<std::uint64_t> planes(bit_words(in_len) *
                                    msrc_plane_count(geo.kernel));
  msrc_count_planes(prefix.data(), out_len, geo, in_len, planes.data());

  isa::RowBlock b;
  b.kind = isa::RowOpKind::MSRC;
  b.in_len = in_len;
  b.out_len = out_len;
  b.kernel = geo.kernel;
  b.stride = geo.stride;
  b.padding = geo.padding;
  const sim::PeExact pe;
  const std::size_t wl = pe.weight_load(b);
  for (const double go_density : densities) {
    SCOPED_TRACE(::testing::Message()
                 << "K=" << geo.kernel << " S=" << geo.stride
                 << " P=" << geo.padding << " out_len=" << out_len
                 << " in_len=" << in_len << " mask=" << mask_density
                 << " dO=" << go_density);
    const SparseRow row = random_row(rng, in_len, go_density);
    std::vector<std::uint64_t> bits(bit_words(in_len));
    pack_row_bits(row, bits.data());
    const RowOpWork ref = msrc_work(row, mask, geo, out_len);
    ASSERT_TRUE(works_equal(
        msrc_work(bits.data(), planes.data(), bits.size(), geo.kernel), ref));

    sim::PeCost want;
    want.cycles = wl + ref.active_inputs + sim::PeTiming{}.pipeline_drain;
    want.macs = ref.macs;
    want.ingested = ref.active_inputs;
    const sim::PeCost got = pe.run_msrc(bits.data(), planes.data(), b, wl);
    ASSERT_TRUE(costs_equal(got, want));
    ASSERT_TRUE(costs_equal(got, pe.run_msrc(row, mask, b)));
  }
}

TEST(MsrcWork, PlanesMatchBitMask) {
  // The GTA stage's plane counter must count exactly what the BitMask
  // counter counts — as a work counter and as a PeCost — for empty,
  // all-pass and partial masks, empty to dense dO rows, and rows on both
  // sides of the u64 word boundaries.
  Rng rng(0x9e3fU);
  for (const std::uint32_t K : {1u, 2u, 3u, 5u, 7u, 11u}) {
    for (std::uint32_t S = 1; S <= 4; ++S) {
      for (std::uint32_t P = 0; P <= K; ++P) {
        for (const std::uint32_t out_len :
             {1u, 27u, 63u, 64u, 65u, 129u, 224u}) {
          for (int draw = 0; draw < 3; ++draw) {
            check_planes_against_bitmask(rng, RowGeometry{K, S, P}, out_len);
            if (HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------------
// 2. Targeted boundary cases.

TEST(SrcWork, RightClampWithTinyOutput) {
  // out_len = 1, P = 4, K = 8: base_min = 0, so the left clamp
  // klo = base − base_min engages for every offset — the case where
  // base_min < padding and the window is clipped from both sides.
  const RowGeometry geo{8, 1, 4};
  for (std::uint32_t off = 0; off <= 16; ++off) {
    SparseRow row;
    row.length = off + 1;
    row.offsets = {off};
    row.values = {1.0f};
    const RowOpWork ref = src_work_naive(row, geo, 1);
    EXPECT_TRUE(works_equal(src_work(row, geo, 1), ref)) << "off=" << off;
  }
}

TEST(MsrcWork, FullyClampedWindowAtWordBoundaryLength) {
  // out_len = 128 (exactly two words): windows clamped to the last word
  // make count_in read a guard word, and a nonzero whose window starts
  // at or beyond out_len must count as skipped.
  const RowGeometry geo{3, 1, 0};
  const BitMask mask = bitmask_all(128);
  SparseRow row;
  row.length = 200;
  row.offsets = {125, 126, 127, 128, 130, 199};
  row.values = {1, 1, 1, 1, 1, 1};
  const RowOpWork got = msrc_work(row, mask, geo, 128);
  const RowOpWork ref = msrc_work_naive(row, mask, geo, 128);
  EXPECT_TRUE(works_equal(got, ref));
  EXPECT_EQ(got.macs, 3u + 2u + 1u);  // windows at 125/126/127 survive
  EXPECT_EQ(got.skipped_inputs, 3u);  // 128, 130, 199 fully clamped
}

TEST(RowOps, ZeroLengthAndEmptyOperands) {
  const RowGeometry geo{3, 1, 1};
  SparseRow empty;
  empty.length = 8;
  const BitMask none = bitmask_all(0);
  EXPECT_EQ(src_work(empty, geo, 8).macs, 0u);
  EXPECT_EQ(msrc_work(empty, none, geo, 0).macs, 0u);
  EXPECT_EQ(osrc_work(empty, empty, geo).macs, 0u);

  SparseRow one;
  one.length = 1;
  one.offsets = {0};
  one.values = {2.0f};
  // out_len = 0: every input is skipped, nothing is active.
  const RowOpWork w = src_work(one, geo, 0);
  EXPECT_EQ(w.macs, 0u);
  EXPECT_EQ(w.active_inputs, 0u);
  EXPECT_EQ(w.skipped_inputs, 1u);
  const BitMask zero_mask = bitmask_all(0);
  const RowOpWork mw = msrc_work(one, zero_mask, geo, 0);
  EXPECT_EQ(mw.macs, 0u);
  EXPECT_EQ(mw.skipped_inputs, 1u);
}

TEST(RowOps, BuildReportsItsKernelPath) {
  // Not a count assertion — a visibility check: the mode string names
  // the ISA the library was compiled for, so bench JSON and the daemons'
  // `status` attribute their timings to the right codegen.
#ifdef __AVX2__
  EXPECT_STREQ(simd_mode(), "avx2");
#else
  EXPECT_STREQ(simd_mode(), "scalar");
#endif
#if defined(__x86_64__) || defined(__i386__)
  // The build adds -mavx2 whenever the configuring host runs AVX2, and
  // the tests run where they were configured.
  if (__builtin_cpu_supports("avx2")) EXPECT_STREQ(simd_mode(), "avx2");
#endif
}

}  // namespace
}  // namespace sparsetrain::dataflow
