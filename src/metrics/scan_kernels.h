// Runtime-dispatched batched error-plane scan kernels — the SIMD inner loop
// of the WMED sweep (see README.md in this directory).
//
// One kernel call scores one full sim_program pass: all eight 64-assignment
// blocks at once.  For every result plane p it forms the bit-plane difference
// exact - candidate with a vectorized borrow-propagate subtract, conditionally
// negates the 64+8 signed differences, and folds the absolute values into
// eight per-block int64 totals via weighted popcounts — exact integer
// arithmetic throughout, so every backend returns bit-identical totals.
//
// The kernel body is written once against simd::vu64x8<level> (a template in
// support/simd.h) and instantiated per backend in its own translation unit
// compiled with the matching -m flags (scan_kernels.cpp / _avx2.cpp /
// _avx512.cpp), so a *generic* release build carries all kernels and picks
// the strongest one the running CPU supports at evaluator construction time.
// Dispatch rules: an `automatic` request honours the AXC_SIMD environment
// variable (scalar|avx2|avx512|auto) and otherwise takes the best available
// level; an explicit request is clamped down to what is compiled in AND
// executable here, never up.
#pragma once

#include <cstdint>

#include "support/simd.h"

namespace axc::metrics {

/// Upper bound on result planes a kernel handles (result_bits + 2 headroom
/// for 32-bit results — matches the evaluator's signed-diff layout).
inline constexpr unsigned kMaxScanPlanes = 34;

/// One batched pass: exact_planes holds `planes` lane-major rows of eight
/// words (the pass's eight blocks), out_rows[p] points at candidate output
/// plane p's eight-word lane row (p < result_bits), and totals[0..7] receive
/// the per-block summed |exact - candidate| in exact int64 arithmetic.
using scan_batch_fn = void (*)(const std::uint64_t* exact_planes,
                               const std::uint64_t* const* out_rows,
                               unsigned planes, unsigned result_bits,
                               bool result_signed, std::int64_t* totals);

/// Whether a kernel for `l` is compiled into this binary AND the running
/// CPU can execute it.  scalar is always available.
[[nodiscard]] bool scan_level_available(simd::level l);

/// Strongest available level (what `automatic` resolves to absent AXC_SIMD).
[[nodiscard]] simd::level best_scan_level();

/// Resolves a request to a dispatchable level: automatic -> AXC_SIMD
/// override if set and valid, else best_scan_level(); explicit levels are
/// clamped down to the strongest available level not above the request.
[[nodiscard]] simd::level resolve_scan_level(simd::level requested);

/// The kernel for a *resolved* level (falls back to scalar if handed an
/// unavailable one, so callers can never dispatch into an illegal ISA).
[[nodiscard]] scan_batch_fn scan_kernel(simd::level resolved);

namespace detail {

/// Backend entry points; each returns nullptr when its TU was compiled
/// without the backend's ISA flags (non-x86 targets, old compilers).
[[nodiscard]] scan_batch_fn scan_kernel_scalar();
[[nodiscard]] scan_batch_fn scan_kernel_avx2();
[[nodiscard]] scan_batch_fn scan_kernel_avx512();

/// The generic kernel body, instantiated by each backend TU.  V is a
/// simd::vu64x8 specialization.
template <typename V>
void scan_block_batch(const std::uint64_t* exact_planes,
                      const std::uint64_t* const* out_rows, unsigned planes,
                      unsigned result_bits, bool result_signed,
                      std::int64_t* totals) {
  // diff = exact - candidate per plane, batched borrow-propagate over all
  // eight blocks (512 assignments) at once.  Planes above result_bits read
  // the candidate's sign extension (its top plane when signed, zero
  // otherwise), mirroring the per-lane scalar path exactly.
  V diff[kMaxScanPlanes];
  V borrow = V::zero();
  const V cext =
      result_signed ? V::load(out_rows[result_bits - 1]) : V::zero();
  for (unsigned p = 0; p < planes; ++p) {
    const V e = V::load(exact_planes + p * 8);
    const V c = p < result_bits ? V::load(out_rows[p]) : cext;
    const V x = e ^ c;
    diff[p] = x ^ borrow;
    borrow = V::andnot(e, c) | V::andnot(x, borrow);
  }

  // |diff|: two's-complement negate of the assignments whose sign plane is
  // set, folded into per-block totals via weighted popcounts.  Counts stay
  // far below 2^63 (planes <= kMaxScanPlanes, 64 assignments/plane), so the
  // unsigned lane accumulator reinterprets losslessly as int64.
  const V sign = diff[planes - 1];
  V carry = sign;
  V acc = V::zero();
  for (unsigned p = 0; p < planes; ++p) {
    const V x = diff[p] ^ sign;
    const V ap = x ^ carry;
    carry = x & carry;
    acc = acc + ap.popcount().shl(p);
  }
  acc.store(reinterpret_cast<std::uint64_t*>(totals));
}

}  // namespace detail

}  // namespace axc::metrics
