// AVX-512 step-executor and pack backends: one signal row is exactly one
// 512-bit register, so each gate is a load/op/store triple (negated ops
// fuse to VPTERNLOG), and the flags -> active-index pack collapses to
// compress-store chunks of sixteen.  Gated on the same feature set as the
// VPOPCNTDQ scan kernel (simd::level::avx512 means AVX-512F + VPOPCNTDQ
// everywhere) so a forced level selects one coherent backend for the whole
// sweep.
#include "circuit/sim_step_kernels.h"

#include <bit>

namespace axc::circuit::detail {

#if defined(__AVX512F__) && defined(__AVX512VPOPCNTDQ__)

namespace {

void run_steps_indexed_avx512(const sim_step* table,
                              const std::uint32_t* indices, std::size_t count,
                              std::uint64_t* slots) {
  run_steps_indexed<simd::vu64x8<simd::level::avx512>>(table, indices, count,
                                                       slots);
}

std::size_t pack_avx512(const std::uint8_t* flags, std::size_t count,
                        std::uint32_t* out) {
  std::size_t n = 0;
  std::size_t t = 0;
  const __m512i iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                         11, 12, 13, 14, 15);
  for (; t + 16 <= count; t += 16) {
    const __m512i f = _mm512_cvtepu8_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(flags + t)));
    const __mmask16 m =
        _mm512_cmpneq_epi32_mask(f, _mm512_setzero_si512());
    const __m512i idx =
        _mm512_add_epi32(iota, _mm512_set1_epi32(static_cast<int>(t)));
    _mm512_mask_compressstoreu_epi32(out + n, m, idx);
    n += std::popcount(static_cast<unsigned>(m));
  }
  for (; t < count; ++t) {
    out[n] = static_cast<std::uint32_t>(t);
    n += flags[t] != 0;
  }
  return n;
}

}  // namespace

sim_steps_indexed_fn sim_steps_indexed_kernel_avx512() {
  return &run_steps_indexed_avx512;
}
sim_pack_fn sim_pack_kernel_avx512() { return &pack_avx512; }

#else

sim_steps_indexed_fn sim_steps_indexed_kernel_avx512() { return nullptr; }
sim_pack_fn sim_pack_kernel_avx512() { return nullptr; }

#endif

}  // namespace axc::circuit::detail
