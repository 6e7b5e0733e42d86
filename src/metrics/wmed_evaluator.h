// Fused simulate-and-score evaluator: the CGP inner loop.
//
// Evaluating WMED through a result table allocates and fills a 2^(2w)
// table per candidate.  This evaluator instead folds the weighted error
// accumulation into an exhaustive bit-parallel sweep and supports early
// abort: once the partial sum exceeds the caller's bound the candidate is
// already infeasible (the accumulated error only grows), so the remaining
// blocks are skipped.  The search passes the tightest bound under which a
// mutant could still replace its parent (core/wmed_approximator.cpp).  On
// the 8-bit multiplier sweep of perfbench (sweep_mult8 variant 0: 28 jobs,
// 224k mutants) 27% of mutants are phenotype-identical and never swept,
// 15% have a larger area than their feasible parent and skip the sweep
// (before that screen they carried 35% of all passes, 5.4k of them full
// feasible sweeps), and 21% match the parent's area and are swept only up
// to its error (933k passes before, 687k after).  Passes fell from 2.55 M
// to 1.45 M.
//
// The evaluator is generic over the component class: any spec satisfying
// metrics::component_spec (multipliers, adders, ...) runs the same
// operand-major bit-plane sweep — the table-based adder path is thereby
// retired from the search loop (tables remain the parity reference).
//
// Every operand width (3 and up) runs one sweep, built around four ideas:
//
//  1. *Operand-major enumeration.*  Operand B's low bits occupy the 64
//     in-word assignment slots, so operand A — the operand the distribution
//     D weights — is constant within each 64-assignment block.  The block's
//     error contribution then collapses to weight[a] * sum_t |err_t|, and
//     sum_t |err_t| is computed entirely in bit-plane arithmetic (bitwise
//     borrow-propagate subtract, conditional negate, popcount per plane):
//     no per-assignment gather/transpose at all.  Below width 6 a block
//     holds all of B, each value repeated 2^(6-w) times, and the block
//     total is shifted right by 6 - w — the weights are never divided, so
//     subnormal masses keep every bit.
//  2. *Cone-restricted wide-lane simulation* via circuit::sim_program,
//     skipping inactive CGP gates and evaluating 8 blocks per pass.
//  3. *Batched, runtime-dispatched scoring.*  One scan_batch kernel call
//     scores a whole pass — the bit-plane subtract/negate/popcount runs
//     vectorized across all eight lanes (scalar / AVX2 / AVX-512 backends
//     behind one dispatch, see metrics/scan_kernels.h), reading candidate
//     output planes in place from the sim program's slot rows.  The
//     early-abort check thereby moves to per-pass granularity, but the
//     per-block int64 error totals and the running weighted accumulator are
//     applied in the exact per-block order of the pre-batch code, so both
//     completed values and aborted partial values stay bit-identical to it
//     (and order-independent on completion).
//  4. *Distribution-ordered sweep over precompiled planes.*  Blocks are
//     visited in descending D(a) mass, so on infeasible mutants the
//     early-abort bound trips after the fewest possible passes.  Everything
//     the sweep consumes per pass — the operand input planes fed to the
//     simulator and the exact result planes the kernel subtracts — is laid
//     out in this visit order once in shared_state, so an evaluation does
//     zero per-pass index math or input broadcasting.
//
// Besides evaluate(netlist), evaluate_program() runs the same sweep over an
// externally compiled/patched sim_program — the genotype-native
// incremental search path (cgp::cone_program), which never materializes a
// netlist per mutant.
//
// The immutable inputs of the sweep (weights, exact and input bit planes,
// block visit order) are split
// into a ref-counted shared_state so a design-space sweep builds them once per
// (spec, distribution) and shares them across every run's evaluators (see
// core::search_session); the two-argument constructor keeps the old
// build-your-own behaviour.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "circuit/netlist.h"
#include "circuit/simulator.h"
#include "dist/pmf.h"
#include "metrics/adder_metrics.h"
#include "metrics/component_spec.h"
#include "metrics/mult_spec.h"
#include "metrics/scan_kernels.h"
#include "support/simd.h"

namespace axc::metrics {

template <component_spec Spec>
class basic_wmed_evaluator {
 public:
  static constexpr std::size_t lanes = circuit::sim_program::lanes;

  /// Everything the sweep needs that is a pure function of
  /// (spec, distribution): the per-operand weights, the precompiled bit
  /// planes and the distribution-ordered block visit order.  Building this
  /// dominates evaluator construction (it enumerates all 2^(2w) operand
  /// pairs), yet a design-space sweep uses the same
  /// (spec, distribution) for every run — so a session builds it once via
  /// make_shared_state() and every evaluator (one per job) attaches to the
  /// same immutable copy.
  struct shared_state {
    Spec spec{};
    /// weight[a] = D(a) / (2^w * output_scale) so WMED = sum weight[a]*|err|.
    std::vector<double> weight;

    std::size_t planes{0};       ///< result_bits + 2: signed diff headroom
    /// Block index = (a << block_shift) | (B >> 6): max(w - 6, 0).
    unsigned block_shift{0};
    /// Right shift of each block total: the 2^(6-w) repeats of every B
    /// below width 6, 0 from width 6 on.
    unsigned total_shift{0};
    /// 2^(w + block_shift), one operand A per block.
    std::size_t block_count{0};
    std::size_t pass_count{0};   ///< block_count / lanes (lanes divides it)
    /// Sweep order: blocks of heavy-mass operands first.
    std::vector<std::uint32_t> block_order;
    /// Exact result bit planes, sign-extended to `planes` planes, laid out
    /// in sweep order for the batched kernel: word
    /// [(pass * planes + p) * lanes + l] is plane p of block
    /// block_order[pass * lanes + l].
    std::vector<std::uint64_t> exact_planes;
    /// Primary-input planes in sweep order, in exactly the lane-major layout
    /// sim_program::run consumes: word [(pass * 2w + i) * lanes + l] is
    /// input i of block block_order[pass * lanes + l].  Precompiling this
    /// retires the per-pass operand bit-broadcast fill (O(2w * lanes) scalar
    /// stores per pass, previously redone on every evaluation).
    std::vector<std::uint64_t> input_planes;
  };

  /// Builds the immutable tables once; share the result across evaluators.
  static std::shared_ptr<const shared_state> make_shared_state(
      const Spec& spec, const dist::pmf& d);

  /// Convenience: builds a private shared_state (the pre-session behaviour).
  /// `simd` picks the scan kernel backend (see metrics/scan_kernels.h);
  /// automatic resolves to the strongest available, and every level is
  /// bit-identical — forcing one is for parity tests and benchmarks.
  basic_wmed_evaluator(const Spec& spec, const dist::pmf& d,
                       simd::level simd = simd::level::automatic);
  /// Attaches to an existing cache; only per-candidate scratch is allocated.
  explicit basic_wmed_evaluator(std::shared_ptr<const shared_state> shared,
                                simd::level simd = simd::level::automatic);

  /// WMED of the candidate in [0, 1].  If the running sum exceeds
  /// `abort_above` the sweep stops and the partial value (>= abort_above,
  /// <= true WMED) is returned — sufficient to classify infeasibility.
  double evaluate(const circuit::netlist& nl,
                  double abort_above = std::numeric_limits<double>::infinity());

  /// The same sweep over an already-compiled (or incrementally patched)
  /// program with 2w inputs and result_bits() outputs.  Bit-identical to
  /// evaluate() on the netlist the program models.  The program simulates
  /// at its own level (callers set it to simd_level() once, when binding).
  double evaluate_program(
      circuit::sim_program& program,
      double abort_above = std::numeric_limits<double>::infinity());

  [[nodiscard]] const Spec& spec() const { return shared_->spec; }
  /// The attached immutable tables (for cache-reuse assertions/sharing).
  [[nodiscard]] const std::shared_ptr<const shared_state>& shared() const {
    return shared_;
  }
  /// The resolved scan kernel backend this evaluator dispatches to.
  [[nodiscard]] simd::level simd_level() const { return simd_level_; }

 private:
  static constexpr std::size_t kLanes = lanes;

  /// The operand-major bit-plane sweep shared by evaluate() and
  /// evaluate_program().
  double sweep(circuit::sim_program& program, double abort_above);
  /// Fixed-order weighted reduction of err_sums_ (the exact
  /// order-independent WMED of a completed sweep).
  [[nodiscard]] double weighted_total() const;

  std::shared_ptr<const shared_state> shared_;
  simd::level simd_level_{simd::level::scalar};
  scan_batch_fn kernel_{nullptr};
  /// Exact per-operand-A absolute error totals (int64, order-independent).
  std::vector<std::int64_t> err_sums_;
  circuit::sim_program program_;
  /// Candidate output plane rows inside the program's slot buffer (filled
  /// once per sweep via sim_program::output_rows).
  std::vector<const std::uint64_t*> out_rows_;
};

extern template class basic_wmed_evaluator<mult_spec>;
extern template class basic_wmed_evaluator<adder_spec>;

/// The paper's primary workload: w x w multipliers.
using wmed_evaluator = basic_wmed_evaluator<mult_spec>;
/// The second component class: w + w adders on the same sweep.
using adder_wmed_evaluator = basic_wmed_evaluator<adder_spec>;

}  // namespace axc::metrics
