// AVX2 step-executor backend (two 256-bit ops per gate row).  Compiled with
// -mavx2 when the compiler accepts it; null entry points otherwise.  AVX2
// has no compress-store, so the pack kernel stays scalar at this level.
#include "circuit/sim_step_kernels.h"

namespace axc::circuit::detail {

#if defined(__AVX2__)

namespace {

void run_steps_indexed_avx2(const sim_step* table,
                            const std::uint32_t* indices, std::size_t count,
                            std::uint64_t* slots) {
  run_steps_indexed<simd::vu64x8<simd::level::avx2>>(table, indices, count,
                                                     slots);
}

}  // namespace

sim_steps_indexed_fn sim_steps_indexed_kernel_avx2() {
  return &run_steps_indexed_avx2;
}

#else

sim_steps_indexed_fn sim_steps_indexed_kernel_avx2() { return nullptr; }

#endif

}  // namespace axc::circuit::detail
