// The three 1-D row convolution primitives of the SparseTrain dataflow
// (paper §IV-B, Fig. 6). All 2-D convolutions in the three training stages
// decompose into these:
//
//   SRC  (Forward): one sparse activation row × one dense K-length kernel
//        row, accumulated into one dense output row.
//   MSRC (GTA): one sparse dO row scattered through a rotated kernel row
//        into a dI row, skipping positions the forward ReLU mask zeroes.
//        Its references query a BitMask per dO nonzero; the engine's
//        counter ANDs a bit-packed dO row with per-task window-count
//        planes, a few popcounts per 64 positions.
//   OSRC (GTW): two sparse rows (I and dO) correlated into a K-length dW
//        row that lives in a scratchpad for the whole row pair. Its
//        functional reference and row-pair counter sweep both rows with
//        two pointers. The engine counts no OSRC op: an op's cycles are
//        a function of the two rows' nonzero counts, and the GTW stage
//        folds its MAC total once per sample (see exact_engine.cpp).
//
// These are the *functional references*: bit-exact semantics used both to
// validate the dense layer implementations and as the ground truth for the
// cycle simulator's work counting. Operands are SparseRowView spans (an
// owning SparseRow converts implicitly), masks are word-packed BitMasks;
// the work counters below are the exact engine's inner loop and use O(1)
// window arithmetic per nonzero instead of per-tap searches. Each counter
// has one portable body; tests/test_row_ops_simd.cpp checks it against a
// naive per-tap reference.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>

#include "tensor/bit_mask.hpp"
#include "tensor/sparse_row.hpp"
#include "util/require.hpp"

namespace sparsetrain::dataflow {

/// The ISA the library was compiled for ("avx2" when the build added
/// -mavx2, else "scalar") — a compile-time label recorded by
/// bench_exact_throughput's JSON and the daemons' `status` so timings are
/// attributable. It never changes a simulated count.
constexpr const char* simd_mode() {
#ifdef __AVX2__
  return "avx2";
#else
  return "scalar";
#endif
}

/// Geometry shared by the row ops: kernel size K, stride S, left padding P.
struct RowGeometry {
  std::uint32_t kernel = 3;
  std::uint32_t stride = 1;
  std::uint32_t padding = 1;
};

/// SRC — Forward-step row convolution.
/// out[ox] += Σ_k kernel[k] · in[ox·S + k − P], for ox in [0, out.size()).
/// `input` is the compressed activation row; `kernel` must have length K.
/// Implementation iterates input nonzeros only (the PE's zero skipping).
void src_row_conv(SparseRowView input, std::span<const float> kernel,
                  const RowGeometry& geo, std::span<float> out);

/// MSRC — GTA-step row convolution with output masking.
/// out[p·S + k − P] += Σ in[p] · kernel[k], but positions not allowed by
/// `mask` are skipped entirely (their value is forced to zero by the
/// following ReLU, so computing them is wasted work). `mask.length()` must
/// equal out.size(). Pass an all-pass mask to disable skipping.
void msrc_row_conv(SparseRowView input, std::span<const float> kernel,
                   const BitMask& mask, const RowGeometry& geo,
                   std::span<float> out);

/// Compatibility overload for the sorted-offset mask representation
/// (converts per call — reference/test paths only, never the hot loop).
void msrc_row_conv(SparseRowView input, std::span<const float> kernel,
                   const MaskRow& mask, const RowGeometry& geo,
                   std::span<float> out);

/// OSRC — GTW-step row correlation.
/// dw[k] += Σ_ox dO[ox] · I[ox·S + k − P] for k in [0, K).
/// Both operands are sparse; `dw` must have length K.
void osrc_row_conv(SparseRowView input_acts, SparseRowView grad_out,
                   const RowGeometry& geo, std::span<float> dw);

/// Work counters used by the cycle model: how many multiply-accumulates a
/// row op actually performs given the operand sparsity, and how many input
/// elements contribute at least one MAC (the PE ingests one such element
/// per cycle).
struct RowOpWork {
  std::size_t macs = 0;            ///< useful multiplies
  std::size_t active_inputs = 0;   ///< nonzeros that produced >= 1 MAC
  std::size_t skipped_inputs = 0;  ///< nonzeros skipped via mask look-ahead
};

// The three work counters below are the exact engine's innermost loop —
// they run once per row op, tens of millions of times per stage — so they
// are defined inline here: the per-op bodies are a handful of arithmetic
// instructions, and a cross-TU call per op would cost more than the work.

/// Work of an SRC op (mask-free). O(1) per input nonzero: the valid taps
/// of position p form the arithmetic progression k ≡ (p+P) mod S inside a
/// window, so their count needs no tap loop — and no division when S = 1.
inline RowOpWork src_work(SparseRowView input, const RowGeometry& geo,
                          std::size_t out_len) {
  RowOpWork w;
  if (out_len == 0) {
    w.skipped_inputs = input.nnz();
    return w;
  }
  const std::int64_t S = geo.stride;
  const std::int64_t kmax = static_cast<std::int64_t>(geo.kernel) - 1;
  const std::int64_t base_min =
      S * (static_cast<std::int64_t>(out_len) - 1);  // klo > 0 above this
  if (S == 1) {
    // Unit stride: every k in [klo, khi] is a tap — the loop body is pure
    // branch-free clamp arithmetic.
    for (std::size_t i = 0; i < input.nnz(); ++i) {
      const std::int64_t base = static_cast<std::int64_t>(input.offsets[i]) +
                                static_cast<std::int64_t>(geo.padding);
      const std::int64_t khi = std::min(kmax, base);
      const std::int64_t klo = std::max<std::int64_t>(0, base - base_min);
      const std::int64_t taps = std::max<std::int64_t>(0, khi - klo + 1);
      w.macs += static_cast<std::size_t>(taps);
      w.active_inputs += taps > 0 ? 1 : 0;
    }
    w.skipped_inputs = input.nnz() - w.active_inputs;
    return w;
  }
  for (std::size_t i = 0; i < input.nnz(); ++i) {
    const std::int64_t base = static_cast<std::int64_t>(input.offsets[i]) +
                              static_cast<std::int64_t>(geo.padding);
    const std::int64_t khi = std::min(kmax, base);
    const std::int64_t klo = std::max<std::int64_t>(0, base - base_min);
    std::size_t macs_here = 0;
    if (khi >= klo) {
      // First k ≥ klo congruent to base mod S (base ≥ klo ≥ 0, so the
      // remainder needs the usual non-negative adjustment).
      const std::int64_t r = base % S;
      const std::int64_t k0 = klo + (((r - klo) % S) + S) % S;
      if (k0 <= khi) macs_here = static_cast<std::size_t>((khi - k0) / S + 1);
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

/// Work of an MSRC op against a BitMask: per-input-window mask
/// intersection. The window of a nonzero is K consecutive output
/// positions, so its allowed count is one BitMask::count_in.
inline RowOpWork msrc_work(SparseRowView input, const BitMask& mask,
                           const RowGeometry& geo, std::size_t out_len) {
  ST_REQUIRE(mask.length() == out_len, "MSRC mask length != output length");
  RowOpWork w;
  for (std::size_t i = 0; i < input.nnz(); ++i) {
    // The K output positions of nonzero p are the consecutive window
    // [p·S − P, p·S − P + K); its surviving count is one popcount query.
    const std::int64_t win_lo = static_cast<std::int64_t>(input.offsets[i]) *
                                    static_cast<std::int64_t>(geo.stride) -
                                static_cast<std::int64_t>(geo.padding);
    const std::int64_t win_hi = win_lo + static_cast<std::int64_t>(geo.kernel);
    std::size_t macs_here = 0;
    if (win_hi > 0) {
      const auto lo =
          static_cast<std::uint32_t>(std::max<std::int64_t>(0, win_lo));
      const auto hi = static_cast<std::uint32_t>(
          std::min<std::int64_t>(static_cast<std::int64_t>(out_len), win_hi));
      macs_here = mask.count_in(lo, hi);
    }
    if (macs_here > 0) {
      ++w.active_inputs;
      w.macs += macs_here;
    } else {
      // Whole window masked/out-of-range: the PE's look-ahead skips this
      // input without spending a cycle on it.
      ++w.skipped_inputs;
    }
  }
  return w;
}

/// Compatibility overload (converts the mask per call).
RowOpWork msrc_work(SparseRowView input, const MaskRow& mask,
                    const RowGeometry& geo, std::size_t out_len);

/// u64 words of a bit row covering `bits` positions.
constexpr std::size_t bit_words(std::size_t bits) { return (bits + 63) / 64; }

/// Packs a sparse row's nonzero positions into a bitset of
/// bit_words(row.length) words: bit p of word p / 64 is set iff offset p
/// is stored. The GTA stage packs every dO row once per stage.
inline void pack_row_bits(SparseRowView row, std::uint64_t* bits) {
  std::fill_n(bits, bit_words(row.length), std::uint64_t{0});
  for (const std::uint32_t p : row.offsets) {
    bits[p >> 6] |= std::uint64_t{1} << (p & 63);
  }
}

/// Planes per word of an MSRC window-count table: "count > 0" plus one
/// plane per bit of a window count, which is at most K.
constexpr std::size_t msrc_plane_count(std::uint32_t kernel) {
  return 1 + static_cast<std::size_t>(std::bit_width(kernel));
}

/// Lowers an MSRC mask into window-count planes over the input (dO)
/// positions p ∈ [0, in_len). count(p) is the number of allowed outputs
/// in p's window [p·S − P, p·S − P + K) clamped to [0, out_len), read
/// from `mask_prefix` (out_len + 1 entries, entry i = allowed outputs
/// before position i). The table is word-major: for word w, planes[w·n]
/// is A ("count > 0") and planes[w·n + 1 + b] is B_b (bit b of count),
/// with n = msrc_plane_count(K) and bit_words(in_len) words per plane.
/// The window geometry of a GTA task depends only on the task, so the
/// stage builds one table per task and every op of the task reads it.
inline void msrc_count_planes(const std::uint32_t* mask_prefix,
                              std::size_t out_len, const RowGeometry& geo,
                              std::size_t in_len, std::uint64_t* planes) {
  const std::size_t n = msrc_plane_count(geo.kernel);
  std::fill_n(planes, bit_words(in_len) * n, std::uint64_t{0});
  const std::int64_t S = geo.stride;
  const std::int64_t P = geo.padding;
  const std::int64_t K = geo.kernel;
  const auto len = static_cast<std::int64_t>(out_len);
  for (std::size_t p = 0; p < in_len; ++p) {
    const std::int64_t win_lo = static_cast<std::int64_t>(p) * S - P;
    const std::int64_t lo = std::clamp<std::int64_t>(win_lo, 0, len);
    const std::int64_t hi = std::clamp<std::int64_t>(win_lo + K, 0, len);
    const std::uint64_t count = mask_prefix[hi] - mask_prefix[lo];
    std::uint64_t* word = planes + (p >> 6) * n;
    const unsigned bit = p & 63;
    word[0] |= std::uint64_t{count != 0} << bit;
    for (std::size_t b = 1; b < n; ++b) {
      word[b] |= ((count >> (b - 1)) & 1) << bit;
    }
  }
}

/// Work of an MSRC op against window-count planes (msrc_count_planes) —
/// the engine's entry point. `input_bits` is the dO row packed by
/// pack_row_bits, `words` = bit_words(row length). An op's MACs are the
/// window counts summed over the row's nonzeros, so per word the active
/// inputs are popcount(D & A) and the MACs Σ_b popcount(D & B_b) << b: a
/// few AND+POPCNT steps per 64 positions, whatever the row's density.
/// Counts are identical to the BitMask overloads for the mask the planes
/// were built from (the equivalence suite pins this).
inline RowOpWork msrc_work(const std::uint64_t* input_bits,
                           const std::uint64_t* planes, std::size_t words,
                           std::uint32_t kernel) {
  const std::size_t n = msrc_plane_count(kernel);
  RowOpWork w;
  std::size_t nnz = 0;
  for (std::size_t i = 0; i < words; ++i, planes += n) {
    const std::uint64_t d = input_bits[i];
    nnz += static_cast<std::size_t>(std::popcount(d));
    w.active_inputs += static_cast<std::size_t>(std::popcount(d & planes[0]));
    for (std::size_t b = 1; b < n; ++b) {
      w.macs += static_cast<std::size_t>(std::popcount(d & planes[b]))
                << (b - 1);
    }
  }
  w.skipped_inputs = nnz - w.active_inputs;
  return w;
}

/// The OSRC window sweep behind osrc_row_conv and the row-pair
/// osrc_work: the matching I positions of dO nonzero j are the K-wide
/// window [ox·S − P, ox·S − P + K) over I's sorted offsets. Window bounds
/// grow monotonically with ox, so two pointers sweep I once across all dO
/// nonzeros — O(nnz_dO + nnz_I) instead of nnz_dO · K · log(nnz_I).
/// Calls visit(j, win_lo, lo, hi) per dO nonzero with I's members of the
/// window at offsets[lo, hi). The exact engine's GTW stage runs no sweep:
/// an op's cycles need only the two rows' nonzero counts, and the stage
/// sums its MACs once from per-sample window counts.
template <typename Visit>
inline void osrc_window_sweep(SparseRowView input_acts, SparseRowView grad_out,
                              const RowGeometry& geo, Visit&& visit) {
  std::size_t lo = 0, hi = 0;
  const std::size_t nnz_i = input_acts.nnz();
  for (std::size_t j = 0; j < grad_out.nnz(); ++j) {
    const std::int64_t win_lo = static_cast<std::int64_t>(grad_out.offsets[j]) *
                                    static_cast<std::int64_t>(geo.stride) -
                                static_cast<std::int64_t>(geo.padding);
    const std::int64_t win_hi = win_lo + static_cast<std::int64_t>(geo.kernel);
    while (lo < nnz_i &&
           static_cast<std::int64_t>(input_acts.offsets[lo]) < win_lo)
      ++lo;
    if (hi < lo) hi = lo;
    while (hi < nnz_i &&
           static_cast<std::int64_t>(input_acts.offsets[hi]) < win_hi)
      ++hi;
    visit(j, win_lo, lo, hi);
  }
}

/// Work of an OSRC op over two compressed rows: pairs of nonzeros whose
/// offset difference lands in the K-length scratchpad (one window sweep,
/// counts only).
inline RowOpWork osrc_work(SparseRowView input_acts, SparseRowView grad_out,
                           const RowGeometry& geo) {
  RowOpWork w;
  osrc_window_sweep(input_acts, grad_out, geo,
                    [&](std::size_t, std::int64_t, std::size_t lo,
                        std::size_t hi) {
                      if (hi > lo) {
                        ++w.active_inputs;
                        w.macs += hi - lo;
                      } else {
                        ++w.skipped_inputs;
                      }
                    });
  return w;
}

}  // namespace sparsetrain::dataflow
