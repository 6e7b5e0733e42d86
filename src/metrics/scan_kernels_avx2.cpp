// AVX2 backend.  CMake compiles this TU with -mavx2 when the compiler
// accepts it; otherwise (non-x86 targets) the guard below leaves only the
// null entry point, and dispatch falls back to the scalar kernel.
#include "metrics/scan_kernels.h"

namespace axc::metrics::detail {

#if defined(__AVX2__)

namespace {

void scan_batch_avx2(const std::uint64_t* exact_planes,
                     const std::uint64_t* const* out_rows, unsigned planes,
                     unsigned result_bits, bool result_signed,
                     std::int64_t* totals) {
  scan_block_batch<simd::vu64x8<simd::level::avx2>>(
      exact_planes, out_rows, planes, result_bits, result_signed, totals);
}

}  // namespace

scan_batch_fn scan_kernel_avx2() { return &scan_batch_avx2; }

#else

scan_batch_fn scan_kernel_avx2() { return nullptr; }

#endif

}  // namespace axc::metrics::detail
