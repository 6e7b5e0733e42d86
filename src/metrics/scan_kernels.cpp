// Scalar backend + the runtime dispatch tables.  This TU is compiled with
// the project's generic flags, so the scalar kernel runs anywhere (its
// plain loops still autovectorize to the baseline ISA, e.g. SSE2 or NEON).
#include "metrics/scan_kernels.h"

namespace axc::metrics {

namespace detail {

namespace {

void scan_batch_scalar(const std::uint64_t* exact_planes,
                       const std::uint64_t* const* out_rows, unsigned planes,
                       unsigned result_bits, bool result_signed,
                       std::int64_t* totals) {
  scan_block_batch<simd::vu64x8<simd::level::scalar>>(
      exact_planes, out_rows, planes, result_bits, result_signed, totals);
}

}  // namespace

scan_batch_fn scan_kernel_scalar() { return &scan_batch_scalar; }

}  // namespace detail

bool scan_level_available(simd::level l) {
  switch (l) {
    case simd::level::automatic:
      return true;
    case simd::level::scalar:
      return detail::scan_kernel_scalar() != nullptr;
    case simd::level::avx2:
      return detail::scan_kernel_avx2() != nullptr &&
             simd::cpu_supports(simd::level::avx2);
    case simd::level::avx512:
      return detail::scan_kernel_avx512() != nullptr &&
             simd::cpu_supports(simd::level::avx512);
  }
  return false;
}

simd::level best_scan_level() {
  if (scan_level_available(simd::level::avx512)) return simd::level::avx512;
  if (scan_level_available(simd::level::avx2)) return simd::level::avx2;
  return simd::level::scalar;
}

simd::level resolve_scan_level(simd::level requested) {
  return simd::resolve_level(requested, scan_level_available);
}

scan_batch_fn scan_kernel(simd::level resolved) {
  scan_batch_fn kernel = nullptr;
  switch (resolved) {
    case simd::level::avx512:
      kernel = detail::scan_kernel_avx512();
      break;
    case simd::level::avx2:
      kernel = detail::scan_kernel_avx2();
      break;
    default:
      break;
  }
  return kernel != nullptr ? kernel : detail::scan_kernel_scalar();
}

}  // namespace axc::metrics
