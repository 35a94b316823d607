// TapeLayout unit tests: the liveness/linear-scan slot allocator on
// hand-built tapes with known live ranges, plus structural invariants of the
// re-ordered schedule on compiler-grade circuits.  Value-level parity of the
// relayout datapaths is covered by tape_test.cpp's parity matrices; here we
// check the layout itself — dependency order, slot interference, pinned
// leaves, reuse — by direct simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ac/circuit.hpp"
#include "ac/kernel_schedule.hpp"
#include "ac/tape.hpp"
#include "ac/tape_layout.hpp"
#include "ac/transform.hpp"
#include "bn/random_network.hpp"
#include "compile/ve_compiler.hpp"
#include "helpers.hpp"
#include "util/error.hpp"

namespace problp::ac {
namespace {

// Replays op_order over a simulated slot file: every operand must still be
// in its slot when consumed (no live value was overwritten), every child
// must be computed before its parent, and the root must survive to the end.
// This is the allocator's entire correctness contract, checked directly.
void expect_valid_layout(const CircuitTape& tape) {
  const TapeLayout& layout = tape.layout();
  const auto& slot_of = layout.slot_of();
  const auto& order = layout.op_order();
  ASSERT_EQ(slot_of.size(), tape.num_nodes());
  ASSERT_EQ(order.size(), tape.op_ids().size());
  ASSERT_EQ(layout.num_slots(), layout.stats().num_slots);
  ASSERT_LE(layout.num_slots(), tape.num_nodes());

  // op_order is a permutation of op_ids.
  {
    std::vector<NodeId> sorted_order(order.begin(), order.end());
    std::vector<NodeId> sorted_ops(tape.op_ids().begin(), tape.op_ids().end());
    std::sort(sorted_order.begin(), sorted_order.end());
    std::sort(sorted_ops.begin(), sorted_ops.end());
    EXPECT_EQ(sorted_order, sorted_ops);
  }

  // Leaves keep pinned slots [0, num_leaves) in id order.
  std::int32_t next_leaf_slot = 0;
  std::vector<bool> is_op(tape.num_nodes(), false);
  for (const NodeId id : tape.op_ids()) is_op[static_cast<std::size_t>(id)] = true;
  for (std::size_t i = 0; i < tape.num_nodes(); ++i) {
    if (!is_op[i]) {
      EXPECT_EQ(slot_of[i], next_leaf_slot++) << "leaf " << i;
    }
    ASSERT_GE(slot_of[i], 0);
    ASSERT_LT(static_cast<std::size_t>(slot_of[i]), layout.num_slots());
  }
  EXPECT_EQ(static_cast<std::size_t>(next_leaf_slot), layout.stats().num_leaves);

  // The simulation: slot s holds node `holder[s]` (or kInvalidNode).
  const auto& offsets = tape.child_offsets();
  const auto& children = tape.children();
  std::vector<NodeId> holder(layout.num_slots(), kInvalidNode);
  for (std::size_t i = 0; i < tape.num_nodes(); ++i) {
    if (!is_op[i]) holder[static_cast<std::size_t>(slot_of[i])] = static_cast<NodeId>(i);
  }
  std::vector<bool> computed(tape.num_nodes(), false);
  for (const NodeId id : order) {
    const std::size_t i = static_cast<std::size_t>(id);
    for (std::int32_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      const NodeId c = children[static_cast<std::size_t>(k)];
      if (is_op[static_cast<std::size_t>(c)]) {
        ASSERT_TRUE(computed[static_cast<std::size_t>(c)])
            << "op " << id << " consumed op " << c << " before it was computed";
      }
      ASSERT_EQ(holder[static_cast<std::size_t>(slot_of[static_cast<std::size_t>(c)])], c)
          << "operand " << c << " of op " << id << " was overwritten in its slot";
      // The output slot never aliases an operand slot (__restrict contract).
      ASSERT_NE(slot_of[i], slot_of[static_cast<std::size_t>(c)]);
    }
    holder[static_cast<std::size_t>(slot_of[i])] = id;
    computed[i] = true;
  }
  EXPECT_EQ(holder[static_cast<std::size_t>(slot_of[static_cast<std::size_t>(tape.root())])],
            tape.root())
      << "root overwritten before the output gather";

  // Stats coherence.
  const TapeLayoutStats& stats = layout.stats();
  EXPECT_EQ(stats.num_nodes, tape.num_nodes());
  EXPECT_EQ(stats.num_leaves + stats.num_ops, stats.num_nodes);
  EXPECT_EQ(stats.max_live, stats.num_slots);
  EXPECT_EQ(stats.slots_saved, stats.num_nodes - stats.num_slots);
  std::size_t hist_total = 0;
  for (const std::size_t b : stats.fanin2_run_hist) hist_total += b;
  EXPECT_EQ(hist_total, stats.num_fanin2_runs);
}

TEST(TapeLayout, LongChainRunsInTwoPoolSlots) {
  // c_k = c_{k-1} + b: at any schedule point only the previous result and
  // the current one are live, so the operator pool must stay at exactly two
  // slots no matter how long the chain — the textbook case for the
  // linear-scan recycler (the identity layout would burn one row per op).
  for (const int len : {2, 3, 17, 200}) {
    Circuit c({2});
    const NodeId a = c.add_indicator(0, 0);
    const NodeId b = c.add_indicator(0, 1);
    NodeId acc = c.add_sum({a, b});
    for (int k = 1; k < len; ++k) acc = c.add_sum({acc, b});
    c.set_root(acc);
    const CircuitTape tape = CircuitTape::compile(c);
    expect_valid_layout(tape);
    EXPECT_EQ(tape.layout().num_slots(), tape.layout().stats().num_leaves + 2)
        << "chain length " << len;
  }
}

TEST(TapeLayout, DiamondHoldsBothArmsLive) {
  // root = (a*b) + (a+b): both arms are live when the join executes, and the
  // join's output cannot reuse either arm's slot (freed one position after
  // their last use), so the pool is exactly three.
  Circuit c({2});
  const NodeId a = c.add_indicator(0, 0);
  const NodeId b = c.add_indicator(0, 1);
  const NodeId prod = c.add_prod({a, b});
  const NodeId sum = c.add_sum({a, b});
  c.set_root(c.add_sum({prod, sum}));
  const CircuitTape tape = CircuitTape::compile(c);
  expect_valid_layout(tape);
  EXPECT_EQ(tape.layout().num_slots(), tape.layout().stats().num_leaves + 3);
}

TEST(TapeLayout, MaxChainsRecycleLikeSums) {
  // MAX ops flow through the same allocator and the same fanin-2 classing;
  // a max-reduction chain reuses slots exactly like the sum chain, and the
  // layout-aware kernel schedule emits it as kMax2 runs.
  Circuit c({4});
  const NodeId i0 = c.add_indicator(0, 0);
  const NodeId i1 = c.add_indicator(0, 1);
  const NodeId i2 = c.add_indicator(0, 2);
  const NodeId i3 = c.add_indicator(0, 3);
  NodeId acc = c.add_max({i0, i1});
  acc = c.add_max({acc, i2});
  acc = c.add_max({acc, i3});
  for (int k = 0; k < 40; ++k) acc = c.add_max({acc, i0});
  c.set_root(acc);
  const CircuitTape tape = CircuitTape::compile(c);
  expect_valid_layout(tape);
  EXPECT_EQ(tape.layout().num_slots(), tape.layout().stats().num_leaves + 2);
  const KernelSchedule schedule = KernelSchedule::compile(tape, tape.layout());
  ASSERT_FALSE(schedule.segments().empty());
  for (const KernelSegment& seg : schedule.segments()) {
    EXPECT_EQ(seg.kind, KernelSegment::Kind::kMax2);
  }
  EXPECT_EQ(schedule.num_rows(), tape.layout().num_slots());
}

TEST(TapeLayout, EmptyChildOperatorsNeverReachTheLayout) {
  // The structural invariant the liveness pass leans on (every operator has
  // >= 1 children) is enforced upstream: the circuit builder rejects
  // empty-child operators outright, so no tape — and hence no layout — can
  // ever see one.
  Circuit c({2});
  EXPECT_THROW(c.add_sum({}), InvalidArgument);
  EXPECT_THROW(c.add_prod({}), InvalidArgument);
  EXPECT_THROW(c.add_max({}), InvalidArgument);
}

TEST(TapeLayout, UnreachableOpsStillScheduledAndAllocated) {
  // Ops the root never reaches still execute in the generic engines (their
  // sticky flags are observable), so the layout must schedule and slot them
  // too — with trailing DFS priorities, after the reachable circuit.
  Circuit c({2});
  const NodeId a = c.add_indicator(0, 0);
  const NodeId b = c.add_indicator(0, 1);
  const NodeId reachable = c.add_sum({a, b});
  c.add_prod({a, b});  // dead: no parent, not the root
  c.add_sum({a, a});   // dead
  c.set_root(reachable);
  const CircuitTape tape = CircuitTape::compile(c);
  expect_valid_layout(tape);
  EXPECT_EQ(tape.layout().op_order().size(), 3u);
}

TEST(TapeLayout, SimulatedInterferenceOnCompilerCircuits) {
  // The full contract on real shapes: random mixed-fanin circuits (and
  // their binarised forms), VE output, and a naive-Bayes compilation.
  Rng rng(61);
  std::vector<Circuit> circuits;
  for (int i = 0; i < 6; ++i) {
    test::RandomCircuitSpec spec;
    spec.num_operators = 30 + 20 * i;
    spec.max_fanin = 2 + (i % 4);
    circuits.push_back(test::make_random_circuit(spec, rng));
    circuits.push_back(binarize(circuits.back()).circuit);
  }
  {
    bn::RandomNetworkSpec spec;
    spec.num_variables = 8;
    circuits.push_back(compile::compile_network(bn::make_random_network(spec, rng)));
  }
  {
    bn::RandomNetworkSpec spec;
    spec.num_variables = 9;
    spec.max_parents = 3;
    spec.edge_probability = 0.3;
    circuits.push_back(compile::compile_network(bn::make_random_network(spec, rng)));
  }
  for (const Circuit& circuit : circuits) {
    expect_valid_layout(CircuitTape::compile(circuit));
  }

  // VE output has a small live frontier: the relayout must actually save
  // slots there, not merely not crash.
  const CircuitTape ve_tape = CircuitTape::compile(circuits.back());
  EXPECT_LT(ve_tape.layout().num_slots(), ve_tape.num_nodes() / 2);
  EXPECT_GT(ve_tape.layout().stats().slots_saved, 0u);
}

}  // namespace
}  // namespace problp::ac
