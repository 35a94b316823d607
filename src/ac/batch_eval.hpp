// Batched multi-query evaluation over a CircuitTape.
//
// Observed-error sweeps, bound-validation experiments and serving workloads
// evaluate one circuit under hundreds of evidence sets.  The per-query
// interpreter pays its full overhead (allocation, dispatch, pointer chasing)
// once per query; the BatchEvaluator instead sweeps the tape once per
// *block* of queries over a structure-of-arrays value buffer:
//
//   buffer[row * W + j] = value of a node's slot under the j-th block query
//
// so each operator's fold runs over W contiguous doubles, and the schedule
// is traversed once per block instead of once per query.  By default the
// buffer holds the tape layout's num_slots() rows (Options::relayout: op
// reordering + liveness-based slot reuse, ac/tape_layout.hpp) rather than
// one row per node, so big circuits keep their live frontier — not the
// whole circuit — in cache.  Blocks are auto-sized so the working set
// (rows * W doubles) stays cache-resident (see Options::block); buffers are
// 64-byte-aligned, owned by the evaluator and reused across calls (zero
// allocation in steady state).
//
// Two sweep backends execute each block:
//
//  * the **kernel-schedule backend** (default): the tape is segmented once
//    into homogeneous fanin-2 runs plus a generic fallback
//    (ac/kernel_schedule.hpp) and executed by width-specialised kernels
//    picked per the runtime ISA — AVX-512 / AVX2 / NEON / scalar — at
//    evaluator construction (ac/simd_sweep.hpp; PROBLP_SIMD overrides);
//  * the **generic CSR fold** (Options::force_generic): the original
//    baseline-ISA sweep, kept as the parity reference the tests compare
//    the kernel schedule against.
//
// Both run the same per-query op order in IEEE double, so results are
// bit-identical to each other and to ac::evaluate on the source circuit.
//
// An optional thread partition splits the batch dimension across worker
// threads, each with its own buffer; results land in a shared output vector
// at disjoint indices.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "ac/kernel_schedule.hpp"
#include "ac/simd_sweep.hpp"
#include "ac/tape.hpp"

namespace problp::ac {

/// Shared batch-partition driver: runs fn(begin, end, worker) over
/// block-aligned contiguous chunks of [0, count) on up to num_threads
/// workers (chunks are block-aligned so no SoA block straddles two
/// workers; a batch below one block per worker runs inline as worker 0).
/// Exceptions thrown by fn on a worker thread are captured and rethrown
/// on the caller — a malformed assignment surfaces as a catchable error,
/// never std::terminate.  Used by both the exact and the low-precision
/// batched engines so the partition math exists exactly once.
void parallel_blocks(std::size_t count, std::size_t block, int num_threads,
                     const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

/// Working-set target of the batched engines (a typical per-core L2):
/// auto_block_size keeps one SoA value buffer inside it, and the
/// low-precision engines elect the precomposed leaf image only while buffer
/// + image still fit it together.
inline constexpr std::size_t kCacheTargetBytes = 1024 * 1024;

/// auto_block_size's target under the slot-reuse relayout.  The compacted
/// buffer shares the cache with the schedule's per-op index arrays (three
/// i32 streams the identity layout also walks, but whose footprint the
/// relayout does NOT shrink), so wide blocks that amortise the index stream
/// beat strict buffer residency: measured on synthetic_ve36 the exact sweep
/// peaks at block 32 (2.1x the identity row), which the 1 MiB target would
/// round down past.
inline constexpr std::size_t kRelayoutCacheTargetBytes = 2 * 1024 * 1024;

/// Cache-aware SoA block width for a value buffer of `num_rows` rows whose
/// slots are `elem_bytes` wide: the largest lane count keeping the buffer
/// (num_rows * block * elem_bytes) within the cache target, rounded to a
/// multiple of the widest SIMD width (8 doubles) and clamped to
/// [min_block, 64] — so small circuits amortise the tape traversal over
/// wide blocks while big circuits (synthetic_ve36-sized) stop thrashing the
/// cache.  Callers pass the *post-layout* row count (max-live slots under
/// Options::relayout, node count otherwise) and `relayout` for the engaged
/// layout, which switches the target to kRelayoutCacheTargetBytes and the
/// floor to 32: with the buffer compacted ~10x, blocks wide enough to
/// amortise the schedule's index streams win over strict residency.
/// `min_block` raises the floor further for datapaths whose kernels need
/// fuller vectors (the u32 narrow engine passes 16 — at 8 lanes its
/// half-filled vectors lose to the wide path).
std::size_t auto_block_size(std::size_t num_rows, std::size_t elem_bytes,
                            bool relayout = false, std::size_t min_block = 8);

class BatchEvaluator {
 public:
  struct Options {
    /// Worker threads over the batch dimension.  1 = evaluate inline;
    /// 0 = one thread per hardware core.
    int num_threads = 1;
    /// Queries per block (the SoA width W).  0 = cache-aware auto-size via
    /// auto_block_size(); explicit values are honoured as given.
    std::size_t block = 0;
    /// Force the generic CSR fold instead of the specialised kernel
    /// schedule — the parity reference.
    bool force_generic = false;
    /// Cache-shaped tape re-layout (ac/tape_layout.hpp): execute the
    /// re-ordered operator schedule over a value buffer of max-live slots
    /// instead of one row per node.  Bit-identical results either way; off
    /// is the O(nodes) parity reference.  Applies to the kernel
    /// schedule backend only (force_generic always runs the identity
    /// layout).
    bool relayout = true;
    /// Low-precision engines only: keep the wide (u128) raw-word datapath
    /// even for fixed formats narrow enough for the lane-parallel u32 path
    /// (lowprec::FixedFormat::fits_narrow_word()) — the schedule-level
    /// parity reference for the narrow kernels.  Ignored by the exact
    /// engine; force_generic implies it.
    bool force_wide_raw = false;
    /// Kernel ISA level.  nullopt = auto: the PROBLP_SIMD environment
    /// override if set, else the best level this build and CPU support.
    /// An explicitly requested level that is unsupported throws at
    /// construction.
    std::optional<simd::Level> simd;
  };

  explicit BatchEvaluator(const CircuitTape& tape) : BatchEvaluator(tape, Options()) {}
  BatchEvaluator(const CircuitTape& tape, Options options);

  /// Root value per assignment, in input order.  The reference stays valid
  /// until the next evaluate call.
  const std::vector<double>& evaluate(const std::vector<PartialAssignment>& batch);

  /// As above for a raw span (avoids forcing callers into one container).
  const std::vector<double>& evaluate(const PartialAssignment* batch, std::size_t count);

  const CircuitTape& tape() const { return *tape_; }
  const Options& options() const { return options_; }
  /// The dispatched kernel ISA (meaningful whenever !force_generic).
  simd::Level simd_level() const { return level_; }
  /// Rows of the per-block SoA value buffer: the layout's num_slots() when
  /// the relayout is engaged, num_nodes otherwise.
  std::size_t num_rows() const { return rows_; }
  /// Whether this evaluator runs the slot-reuse layout (relayout requested
  /// AND the kernel-schedule backend selected).
  bool relayout_engaged() const { return row_of_ != nullptr; }

  /// Whether full blocks sharing one evidence template may re-initialise
  /// from a per-worker precomposed template image (one memcpy) instead of
  /// the leaf fill + evidence zeroing; elected at construction by the same
  /// cache-residency bar as the low-precision leaf image.
  bool uses_evidence_template() const { return use_template_image_; }

 private:
  struct Workspace {
    simd::AlignedBuffer<double> buffer;  ///< rows * W structure-of-arrays values
    std::vector<std::int32_t> observed;  ///< per-query resolved evidence scratch
    // Precomposed evidence-template image: the leaf-initialised, evidence-
    // zeroed buffer state of the last whole-block-uniform evidence template
    // this worker composed (operator rows ride along uninitialised — the
    // sweep overwrites them).  A following uniform block with the same
    // template restores it with one memcpy.
    std::vector<double> template_image;
    PartialAssignment template_key;  ///< template the image was composed for
    std::size_t template_w = 0;      ///< block width the image is shaped for
    bool template_valid = false;
  };

  /// Evaluates batch[begin, end) into roots_[begin, end) using `ws`.
  void evaluate_range(const PartialAssignment* batch, std::size_t begin, std::size_t end,
                      Workspace& ws);

  /// The generic CSR fold over one block (the force_generic backend).
  void generic_sweep(double* buf, std::size_t w) const;

  const CircuitTape* tape_;
  Options options_;
  simd::Level level_ = simd::Level::kScalar;
  /// Engaged unless force_generic; shares the tape's precompiled schedule
  /// on the relayout path.
  std::shared_ptr<const KernelSchedule> schedule_;
  simd::ExactSweepFn sweep_ = nullptr;      ///< null when force_generic
  const std::int32_t* row_of_ = nullptr;    ///< node id -> row; null = identity
  std::size_t rows_ = 0;                    ///< value-buffer rows per block
  std::size_t root_row_ = 0;                ///< row of the root under row_of_
  bool use_template_image_ = false;         ///< evidence-template image elected
  std::vector<Workspace> workspaces_;       ///< one per worker, reused across calls
  std::vector<double> roots_;
};

}  // namespace problp::ac
