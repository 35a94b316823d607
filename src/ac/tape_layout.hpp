// Cache-shaped tape re-layout — the compile-time scheduling/allocation pass
// behind the batched engines' O(max-live) SoA buffers.
//
// The batched sweeps (ac/batch_eval.hpp, ac/batch_lowprec.hpp) give every
// tape node its own SoA row, so the per-block working set is
// O(num_nodes) * W slots.  Small circuits stay L2-resident and the fanin-2
// kernels run compute-bound; big compiler-emitted circuits (synthetic_ve36:
// 97k nodes, ~6 MiB of rows at W = 8) spill to DRAM and every kernel
// becomes a gather.  But almost every intermediate value is consumed a
// couple of ops after it is produced and then never read again — the live
// frontier of a VE/NB-compiled circuit is tiny compared to the circuit.
//
// A TapeLayout is computed once per tape (CircuitTape::compile attaches one
// eagerly) and rewrites the *memory shape* of the sweep without changing a
// single arithmetic result:
//
//  * op reordering (DFS-priority list scheduling): the operator schedule is
//    re-emitted in an order that still respects every data dependency but
//    follows a depth-first priority from the root, so operands are consumed
//    soon after they are produced (short reuse distance).  A bounded
//    same-kind preference window additionally merges interleaved SUM/PROD
//    ops of equal depth into longer homogeneous fanin-2 runs — the shape
//    the SIMD kernel schedule executes without per-op dispatch — while the
//    window bound keeps the liveness cost of that greed small;
//
//  * liveness analysis + linear-scan slot allocation: every leaf keeps a
//    pinned slot (leaves are initialised before the sweep, so they are all
//    live at once), while operator results are assigned recycled slots the
//    moment their last consumer has executed (most-recently-freed first, so
//    a reused slot is still cache-hot).  The value buffer shrinks from
//    num_nodes rows to num_slots() = num_leaves + max-live-ops rows — for
//    synthetic_ve36 that is the difference between DRAM and L2 residency.
//
// Bit-identity is by construction: the same ops compute the same operand
// values in a dependency-respecting order (sticky ArithFlags are ORs, so
// their fold order is immaterial), only the rows they live in are renamed.
// An op's output slot is never the slot of one of its own operands (a value
// dying at op p is recycled only from p+1 on), which preserves the
// no-aliasing contract the __restrict kernels rely on.
//
// Consumers thread the slot remap through KernelSchedule::compile(tape,
// layout) — which emits out/lhs/rhs and the generic fallback arrays in slot
// space — and through the engines' leaf scatter / indicator zeroing / root
// gather paths.  Options::relayout (default on) selects the pass;
// relayout-off keeps the O(nodes) identity layout as the parity
// reference.  See docs/evaluation.md.
#pragma once

#include <cstdint>
#include <vector>

#include "ac/tape.hpp"
#include "util/array_store.hpp"

namespace problp::ac {

/// Inspectable report of what the pass did to one tape — the win is
/// measured, not asserted (docs/evaluation.md shows the memory shape and
/// throughput on ALARM and ve36).
struct TapeLayoutStats {
  std::size_t num_nodes = 0;   ///< tape nodes (leaves + operators)
  std::size_t num_leaves = 0;  ///< pinned leaf slots (parameters + indicators)
  std::size_t num_ops = 0;     ///< scheduled operators
  /// Peak simultaneously-live values = SoA rows after the pass
  /// (num_leaves + the operator pool's high-water mark).
  std::size_t max_live = 0;
  std::size_t num_slots = 0;    ///< == max_live: rows the batched buffers allocate
  std::size_t slots_saved = 0;  ///< num_nodes - num_slots
  /// Mean operand reuse distance in schedule positions over op->op edges,
  /// after re-ordering and in the original arena order.
  double mean_reuse_distance = 0.0;
  double mean_reuse_distance_original = 0.0;
  /// Homogeneous fanin-2 run-length histogram of the re-ordered schedule:
  /// bucket k counts runs of length in [2^k, 2^(k+1)).
  std::vector<std::size_t> fanin2_run_hist;
  std::size_t num_fanin2_runs = 0;           ///< runs after re-ordering
  std::size_t num_fanin2_runs_original = 0;  ///< runs in arena order
};

class TapeLayout {
 public:
  /// Schedules and slot-allocates `tape`.  O((nodes + edges) log nodes);
  /// the result is immutable and shared by every evaluator of the tape.
  static TapeLayout compile(const CircuitTape& tape);

  /// Rehydrates a layout from already-computed arrays — the zero-copy
  /// artifact seam (runtime/artifact.hpp): the stores may be views into a
  /// mapped file, which the caller keeps alive for the layout's lifetime.
  /// Only cheap shape invariants are re-checked; the arrays are trusted to
  /// be a compile() result (the artifact layer checksums them).
  static TapeLayout adopt(util::ArrayStore<NodeId> op_order,
                          util::ArrayStore<std::int32_t> slot_of, TapeLayoutStats stats);

  /// The re-ordered operator schedule: node ids, a dependency-respecting
  /// permutation of tape.op_ids().
  const util::ArrayStore<NodeId>& op_order() const { return op_order_; }

  /// Node id -> SoA row (slot).  Total function over the tape's nodes;
  /// leaves map to [0, num_leaves) in id order, operators share the
  /// recycled pool above it.
  const util::ArrayStore<std::int32_t>& slot_of() const { return slot_of_; }

  /// Rows a batched value buffer needs under this layout (== max-live).
  std::size_t num_slots() const { return stats_.num_slots; }

  const TapeLayoutStats& stats() const { return stats_; }

 private:
  TapeLayout() = default;

  util::ArrayStore<NodeId> op_order_;
  util::ArrayStore<std::int32_t> slot_of_;
  TapeLayoutStats stats_;
};

}  // namespace problp::ac
