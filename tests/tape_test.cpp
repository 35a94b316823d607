// CircuitTape / BatchEvaluator parity and contract tests.
//
// The tape engine's correctness claim is *bit-identical* results to the
// per-query interpreter — same fold order, same arithmetic — so every parity
// check below uses exact equality on doubles, never tolerances.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "ac/analysis.hpp"
#include "ac/batch_eval.hpp"
#include "ac/batch_lowprec.hpp"
#include "ac/kernel_schedule.hpp"
#include "ac/low_precision_eval.hpp"
#include "ac/simd_sweep.hpp"
#include "ac/tape.hpp"
#include "ac/tape_layout.hpp"
#include "ac/transform.hpp"
#include "bn/random_network.hpp"
#include "compile/naive_bayes_compiler.hpp"
#include "compile/ve_compiler.hpp"
#include "helpers.hpp"

namespace problp::ac {
namespace {

// Interpreter vs single-query tape vs generic tape evaluator vs batched tape
// on every given assignment; all-node values and roots must match exactly.
void expect_parity(const Circuit& circuit, const std::vector<PartialAssignment>& assignments) {
  ASSERT_NE(circuit.root(), kInvalidNode);
  const CircuitTape tape = CircuitTape::compile(circuit);
  ASSERT_EQ(tape.num_nodes(), circuit.num_nodes());

  TapeEvaluator<ExactOps> generic(tape, ExactOps{});
  std::vector<double> tape_values;
  for (const auto& a : assignments) {
    const std::vector<double> interp = evaluate_all_double(circuit, a);
    tape.evaluate_all_double(a, tape_values);
    ASSERT_EQ(interp, tape_values);
    ASSERT_EQ(interp, generic.evaluate_all(a));
  }

  for (const int threads : {1, 3}) {
    for (const std::size_t block : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
      BatchEvaluator::Options opts;
      opts.num_threads = threads;
      opts.block = block;
      BatchEvaluator batch(tape, opts);
      const std::vector<double>& roots = batch.evaluate(assignments);
      ASSERT_EQ(roots.size(), assignments.size());
      for (std::size_t i = 0; i < assignments.size(); ++i) {
        ASSERT_EQ(roots[i], evaluate(circuit, assignments[i]))
            << "threads=" << threads << " block=" << block << " query=" << i;
      }
    }
  }
}

std::vector<PartialAssignment> random_assignments(const std::vector<int>& cards,
                                                  std::size_t count, double p_observe,
                                                  Rng& rng) {
  std::vector<PartialAssignment> out;
  for (std::size_t i = 0; i < count; ++i) {
    PartialAssignment a(cards.size());
    for (std::size_t v = 0; v < cards.size(); ++v) {
      if (rng.coin(p_observe)) a[v] = rng.uniform_int(0, cards[v] - 1);
    }
    out.push_back(std::move(a));
  }
  return out;
}

// A random probability row of `card` entries.
std::vector<double> random_row(int card, Rng& rng) {
  std::vector<double> row;
  double total = 0.0;
  for (int s = 0; s < card; ++s) {
    row.push_back(rng.uniform(0.05, 1.0));
    total += row.back();
  }
  for (double& v : row) v /= total;
  return row;
}

// A small Naive-Bayes-shaped network: class var 0 is the sole parent of
// every feature — the one structure both compilers accept.
bn::BayesianNetwork make_nb_network(int num_features, Rng& rng) {
  bn::BayesianNetwork network;
  const int class_card = rng.uniform_int(2, 3);
  const int class_var = network.add_variable("C", class_card);
  network.set_cpt(class_var, {}, random_row(class_card, rng));
  for (int f = 0; f < num_features; ++f) {
    const int card = rng.uniform_int(2, 4);
    const int var = network.add_variable("F" + std::to_string(f), card);
    std::vector<double> rows;
    for (int c = 0; c < class_card; ++c) {
      for (double v : random_row(card, rng)) rows.push_back(v);
    }
    network.set_cpt(var, {class_var}, rows);
  }
  network.validate();
  return network;
}

TEST(Tape, Parity50RandomCircuits) {
  // 30 syntactically arbitrary circuits + 20 VE-compiled random networks:
  // 50 distinct DAGs through interpreter, tape, generic tape and batch.
  Rng rng(7);
  for (int i = 0; i < 30; ++i) {
    test::RandomCircuitSpec spec;
    spec.num_variables = 2 + (i % 4);
    spec.num_operators = 10 + i;
    spec.max_fanin = 2 + (i % 3);
    const Circuit circuit = test::make_random_circuit(spec, rng);
    expect_parity(circuit, random_assignments(circuit.cardinalities(), 9, 0.5, rng));
  }
  for (int i = 0; i < 20; ++i) {
    bn::RandomNetworkSpec spec;
    spec.num_variables = 4 + (i % 4);
    const bn::BayesianNetwork network = bn::make_random_network(spec, rng);
    const Circuit circuit = compile::compile_network(network);
    expect_parity(circuit, random_assignments(circuit.cardinalities(), 9, 0.4, rng));
  }
}

TEST(Tape, ParityBothCompilersOnNaiveBayes) {
  // The same NB networks through both compilers; each circuit shape gets the
  // full parity treatment.
  Rng rng(11);
  for (int i = 0; i < 8; ++i) {
    const bn::BayesianNetwork network = make_nb_network(3 + (i % 3), rng);
    const Circuit nb = compile::compile_naive_bayes(network, 0);
    const Circuit ve = compile::compile_network(network);
    const auto assignments = random_assignments(nb.cardinalities(), 9, 0.5, rng);
    expect_parity(nb, assignments);
    expect_parity(ve, assignments);
  }
}

TEST(Tape, EmptyAndFullEvidence) {
  Rng rng(3);
  bn::RandomNetworkSpec spec;
  spec.num_variables = 5;
  const bn::BayesianNetwork network = bn::make_random_network(spec, rng);
  const Circuit circuit = compile::compile_network(network);
  const auto& cards = circuit.cardinalities();

  std::vector<PartialAssignment> assignments;
  assignments.push_back(PartialAssignment(cards.size()));  // empty evidence
  const auto full = test::all_full_assignments(cards);
  assignments.insert(assignments.end(), full.begin(), full.end());
  expect_parity(circuit, assignments);

  // Empty evidence sums the network polynomial to 1; full assignments to
  // their joint probabilities, which sum to 1 as well.
  const CircuitTape tape = CircuitTape::compile(circuit);
  BatchEvaluator batch(tape);
  const std::vector<double>& roots = batch.evaluate(assignments);
  EXPECT_NEAR(roots[0], 1.0, 1e-12);
  double total = 0.0;
  for (std::size_t i = 1; i < roots.size(); ++i) total += roots[i];
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Tape, MaxCircuitParity) {
  // MPE circuits: every SUM rewritten to MAX, batched root = max_x Pr(x, e).
  Rng rng(5);
  bn::RandomNetworkSpec spec;
  spec.num_variables = 4;
  const bn::BayesianNetwork network = bn::make_random_network(spec, rng);
  const Circuit mpe = to_max_circuit(compile::compile_network(network));
  expect_parity(mpe, random_assignments(mpe.cardinalities(), 16, 0.5, rng));

  // Against the brute-force oracle the comparison is numeric, not bitwise:
  // the oracle multiplies CPT entries in variable order, the circuit in
  // wiring order.
  const CircuitTape tape = CircuitTape::compile(mpe);
  std::vector<double> scratch;
  const bn::Evidence none = network.empty_evidence();
  EXPECT_NEAR(tape.evaluate(compile::to_assignment(none), scratch),
              test::brute_force_mpe(network, none), 1e-12);
}

TEST(Tape, LowPrecisionTapeParityIncludingFlags) {
  Rng rng(13);
  bn::RandomNetworkSpec spec;
  spec.num_variables = 5;
  const bn::BayesianNetwork network = bn::make_random_network(spec, rng);
  const BinarizeResult bin = binarize(compile::compile_network(network));
  const CircuitTape tape = CircuitTape::compile(bin.circuit);
  const auto assignments = random_assignments(bin.circuit.cardinalities(), 24, 0.5, rng);

  for (const auto mode : {lowprec::RoundingMode::kNearestEven, lowprec::RoundingMode::kTruncate}) {
    const lowprec::FixedFormat fx{2, 9};
    FixedTapeEvaluator fixed_eval(tape, fx, mode);
    const lowprec::FloatFormat fl{5, 7};
    FloatTapeEvaluator float_eval(tape, fl, mode);
    for (const auto& a : assignments) {
      const LowPrecisionResult fx_ref = evaluate_fixed(bin.circuit, a, fx, mode);
      const LowPrecisionResult fx_tape = fixed_eval.evaluate(a);
      EXPECT_EQ(fx_tape.value, fx_ref.value);
      EXPECT_EQ(fx_tape.flags.overflow, fx_ref.flags.overflow);
      EXPECT_EQ(fx_tape.flags.underflow, fx_ref.flags.underflow);
      EXPECT_EQ(fx_tape.flags.invalid_input, fx_ref.flags.invalid_input);

      const LowPrecisionResult fl_ref = evaluate_float(bin.circuit, a, fl, mode);
      const LowPrecisionResult fl_tape = float_eval.evaluate(a);
      EXPECT_EQ(fl_tape.value, fl_ref.value);
      EXPECT_EQ(fl_tape.flags.overflow, fl_ref.flags.overflow);
      EXPECT_EQ(fl_tape.flags.underflow, fl_ref.flags.underflow);
      EXPECT_EQ(fl_tape.flags.invalid_input, fl_ref.flags.invalid_input);
    }
  }
}

// Scoped PROBLP_SIMD override — the env hook the evaluators read at
// construction (the same hook CI and operators use).  Restores the prior
// value on exit so an externally forced level (PROBLP_SIMD=... ./tape_test)
// still governs the rest of the suite.
class ScopedSimdEnv {
 public:
  explicit ScopedSimdEnv(const char* value) {
    const char* prev = std::getenv("PROBLP_SIMD");
    if (prev != nullptr) previous_ = prev;
    setenv("PROBLP_SIMD", value, /*overwrite=*/1);
  }
  ~ScopedSimdEnv() {
    if (previous_.has_value()) {
      setenv("PROBLP_SIMD", previous_->c_str(), /*overwrite=*/1);
    } else {
      unsetenv("PROBLP_SIMD");
    }
  }

 private:
  std::optional<std::string> previous_;
};

TEST(Tape, BatchedLowPrecExhaustiveParity) {
  // The batched SoA raw-word engine's full parity matrix: fixed and float
  // formats (including overflow/underflow-raising ones) x rounding modes x
  // thread counts x batch sizes straddling the SoA block boundary — bitwise
  // on values AND per-query sticky flags against the per-query evaluators
  // (which are themselves bit-identical to the one-shot evaluate_*).
  Rng rng(23);
  bn::RandomNetworkSpec spec;
  spec.num_variables = 6;
  const bn::BayesianNetwork network = bn::make_random_network(spec, rng);
  const BinarizeResult bin = binarize(compile::compile_network(network));
  const CircuitTape tape = CircuitTape::compile(bin.circuit);
  const auto assignments = random_assignments(bin.circuit.cardinalities(), 512, 0.5, rng);
  const std::vector<std::size_t> batch_sizes = {1, 15, 16, 17, 512};

  const auto check_counts = [&](auto& batch_eval, const std::vector<LowPrecisionResult>& ref,
                                const char* what, const std::vector<std::size_t>& counts) {
    for (const std::size_t count : counts) {
      const std::vector<double>& roots = batch_eval.evaluate(assignments.data(), count);
      ASSERT_EQ(roots.size(), count);
      ASSERT_EQ(batch_eval.flags().size(), count);
      lowprec::ArithFlags want_merged;
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(roots[i], ref[i].value)
            << what << " threads=" << batch_eval.options().num_threads << " count=" << count
            << " query=" << i;
        const lowprec::ArithFlags& got = batch_eval.flags()[i];
        ASSERT_EQ(got.overflow, ref[i].flags.overflow) << what << " query=" << i;
        ASSERT_EQ(got.underflow, ref[i].flags.underflow) << what << " query=" << i;
        ASSERT_EQ(got.invalid_input, ref[i].flags.invalid_input) << what << " query=" << i;
        want_merged.merge(ref[i].flags);
      }
      const lowprec::ArithFlags merged = batch_eval.merged_flags();
      EXPECT_EQ(merged.overflow, want_merged.overflow);
      EXPECT_EQ(merged.underflow, want_merged.underflow);
      EXPECT_EQ(merged.invalid_input, want_merged.invalid_input);
    }
  };
  const auto check = [&](auto& batch_eval, const std::vector<LowPrecisionResult>& ref,
                         const char* what) {
    check_counts(batch_eval, ref, what, batch_sizes);
  };

  for (const auto mode :
       {lowprec::RoundingMode::kNearestEven, lowprec::RoundingMode::kTruncate}) {
    // {1, 4} is comfortable; {0, 3} cannot even hold the indicator 1 and
    // must overflow, so the flag half of the parity check is not vacuous.
    for (const lowprec::FixedFormat fmt :
         {lowprec::FixedFormat{2, 12}, lowprec::FixedFormat{1, 4}, lowprec::FixedFormat{0, 3}}) {
      FixedTapeEvaluator single(tape, fmt, mode);
      std::vector<LowPrecisionResult> ref;
      ref.reserve(assignments.size());
      for (const auto& a : assignments) ref.push_back(single.evaluate(a));
      if (fmt.integer_bits == 0) {
        ASSERT_TRUE(ref.front().flags.overflow);
      }
      for (const int threads : {1, 4}) {
        BatchEvaluator::Options opts;
        opts.num_threads = threads;
        FixedBatchEvaluator batch(tape, fmt, mode, opts);
        check(batch, ref, fmt.to_string().c_str());
      }
    }
    // {6, 8} is comfortable; {2, 2}'s one-binade range flushes small
    // products to zero (underflow) and saturates large sums (overflow).
    for (const lowprec::FloatFormat fmt :
         {lowprec::FloatFormat{6, 8}, lowprec::FloatFormat{3, 4}, lowprec::FloatFormat{2, 2}}) {
      FloatTapeEvaluator single(tape, fmt, mode);
      std::vector<LowPrecisionResult> ref;
      ref.reserve(assignments.size());
      for (const auto& a : assignments) ref.push_back(single.evaluate(a));
      for (const int threads : {1, 4}) {
        BatchEvaluator::Options opts;
        opts.num_threads = threads;
        FloatBatchEvaluator batch(tape, fmt, mode, opts);
        check(batch, ref, fmt.to_string().c_str());
      }
    }
  }

  // Narrow/wide boundary matrix: fixed widths straddling the narrow-word
  // eligibility cutoff (29/30 narrow, 31/32 wide), each at a comfortable
  // and an overflow-saturating integer width, x rounding modes x every
  // supported kernel ISA (via the PROBLP_SIMD env hook) x thread counts.
  // Three engines per cell — the default (lane-parallel u32 for narrow
  // formats), the forced-wide u128 schedule path and the u128 generic
  // fold — must all match the per-query evaluator bitwise, values and
  // per-query flags alike.
  const std::vector<std::size_t> boundary_counts = {1, 17, 512};
  for (const auto mode :
       {lowprec::RoundingMode::kNearestEven, lowprec::RoundingMode::kTruncate}) {
    for (const int total_bits : {29, 30, 31, 32}) {
      for (const lowprec::FixedFormat fmt : {lowprec::FixedFormat{2, total_bits - 2},
                                             lowprec::FixedFormat{0, total_bits}}) {
        FixedTapeEvaluator single(tape, fmt, mode);
        std::vector<LowPrecisionResult> ref;
        ref.reserve(assignments.size());
        for (const auto& a : assignments) ref.push_back(single.evaluate(a));
        if (fmt.integer_bits == 0) {
          // I = 0 cannot hold the indicator 1: the flag half of the parity
          // check saturates for real.
          ASSERT_TRUE(ref.front().flags.overflow);
        }
        const std::string what = fmt.to_string() +
                                 (mode == lowprec::RoundingMode::kTruncate ? " trunc" : "");
        for (const simd::Level level : simd::supported_levels()) {
          ScopedSimdEnv env(simd::level_name(level));
          for (const int threads : {1, 4}) {
            BatchEvaluator::Options opts;
            opts.num_threads = threads;

            FixedBatchEvaluator dflt(tape, fmt, mode, opts);
            EXPECT_EQ(dflt.narrow_datapath(), fmt.fits_narrow_word());
            EXPECT_EQ(dflt.simd_level(), level);
            check_counts(dflt, ref, (what + " default").c_str(), boundary_counts);

            BatchEvaluator::Options wide_opts = opts;
            wide_opts.force_wide_raw = true;
            FixedBatchEvaluator wide(tape, fmt, mode, wide_opts);
            EXPECT_FALSE(wide.narrow_datapath());
            check_counts(wide, ref, (what + " wide").c_str(), boundary_counts);

            BatchEvaluator::Options generic_opts = opts;
            generic_opts.force_generic = true;
            generic_opts.block = 16;
            FixedBatchEvaluator generic(tape, fmt, mode, generic_opts);
            EXPECT_FALSE(generic.narrow_datapath());
            check_counts(generic, ref, (what + " generic").c_str(), boundary_counts);
          }
        }
      }
    }
  }
}

TEST(Tape, BatchedFloatLaneBoundaryParity) {
  // The decomposed float datapath's boundary matrix: mantissas straddling
  // the u32-significand eligibility cutoff (27/28) and the u64 cutoff
  // (31/32), each at a comfortable and a one-binade-tight exponent width
  // (the tight one saturates sums and flushes products to zero, so the flag
  // half of the parity is not vacuous), x rounding modes x every supported
  // kernel ISA x thread counts.  Three engines per cell — the default
  // (decomposed lanes where eligible), the forced interleaved FloatRaw
  // schedule path and the generic fold — must all match the per-query
  // evaluator bitwise, values and per-query sticky flags alike.
  Rng rng(47);
  bn::RandomNetworkSpec spec;
  spec.num_variables = 6;
  const bn::BayesianNetwork network = bn::make_random_network(spec, rng);
  const BinarizeResult bin = binarize(compile::compile_network(network));
  const CircuitTape tape = CircuitTape::compile(bin.circuit);
  const auto assignments = random_assignments(bin.circuit.cardinalities(), 512, 0.5, rng);
  const std::vector<std::size_t> counts = {1, 17, 512};

  const auto check_counts = [&](auto& batch_eval, const std::vector<LowPrecisionResult>& ref,
                                const std::string& what) {
    for (const std::size_t count : counts) {
      const std::vector<double>& roots = batch_eval.evaluate(assignments.data(), count);
      ASSERT_EQ(roots.size(), count);
      ASSERT_EQ(batch_eval.flags().size(), count);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(roots[i], ref[i].value) << what << " query=" << i;
        const lowprec::ArithFlags& got = batch_eval.flags()[i];
        ASSERT_EQ(got.overflow, ref[i].flags.overflow) << what << " query=" << i;
        ASSERT_EQ(got.underflow, ref[i].flags.underflow) << what << " query=" << i;
        ASSERT_EQ(got.invalid_input, ref[i].flags.invalid_input) << what << " query=" << i;
      }
    }
  };

  for (const auto mode :
       {lowprec::RoundingMode::kNearestEven, lowprec::RoundingMode::kTruncate}) {
    for (const int mantissa : {27, 28, 31, 32}) {
      for (const int exponent : {6, 2}) {
        const lowprec::FloatFormat fmt{exponent, mantissa};
        FloatTapeEvaluator single(tape, fmt, mode);
        std::vector<LowPrecisionResult> ref;
        ref.reserve(assignments.size());
        for (const auto& a : assignments) ref.push_back(single.evaluate(a));
        if (exponent == 2) {
          // One binade of headroom: the reference sweep must actually raise
          // saturation / flush flags somewhere in the 512 queries.
          lowprec::ArithFlags seen;
          for (const auto& r : ref) seen.merge(r.flags);
          ASSERT_TRUE(seen.overflow || seen.underflow);
        }
        const int want_lanes = mantissa <= 27 ? 32 : (mantissa <= 31 ? 64 : 0);
        const std::string what =
            fmt.to_string() + (mode == lowprec::RoundingMode::kTruncate ? " trunc" : "");
        for (const simd::Level level : simd::supported_levels()) {
          ScopedSimdEnv env(simd::level_name(level));
          for (const int threads : {1, 4}) {
            BatchEvaluator::Options opts;
            opts.num_threads = threads;

            FloatBatchEvaluator dflt(tape, fmt, mode, opts);
            EXPECT_EQ(dflt.float_lane_bits(), want_lanes);
            EXPECT_EQ(dflt.simd_level(), level);
            check_counts(dflt, ref, what + " default");

            BatchEvaluator::Options wide_opts = opts;
            wide_opts.force_wide_raw = true;
            FloatBatchEvaluator wide(tape, fmt, mode, wide_opts);
            EXPECT_EQ(wide.float_lane_bits(), 0);
            check_counts(wide, ref, what + " wide");

            BatchEvaluator::Options generic_opts = opts;
            generic_opts.force_generic = true;
            generic_opts.block = 16;
            FloatBatchEvaluator generic(tape, fmt, mode, generic_opts);
            EXPECT_EQ(generic.float_lane_bits(), 0);
            check_counts(generic, ref, what + " generic");
          }
        }
      }
    }
  }
}

TEST(Tape, RangeAnalysisRunsOnTape) {
  // Max analysis == ExactOps sweep, min analysis == MinValueOps sweep, both
  // with all indicators at 1 — on the tape, node for node.
  Rng rng(17);
  test::RandomCircuitSpec spec;
  spec.num_operators = 40;
  const Circuit circuit = test::make_random_circuit(spec, rng);
  const CircuitTape tape = CircuitTape::compile(circuit);
  const PartialAssignment all_ones = all_indicators_one(circuit);

  TapeEvaluator<ExactOps> max_eval(tape, ExactOps{});
  EXPECT_EQ(max_eval.evaluate_all(all_ones), max_value_analysis(circuit));
  TapeEvaluator<MinValueOps> min_eval(tape, MinValueOps{});
  EXPECT_EQ(min_eval.evaluate_all(all_ones), min_value_analysis(circuit));
}

TEST(Tape, ContractViolationsRejected) {
  Circuit no_root({2});
  no_root.add_indicator(0, 0);
  EXPECT_THROW(CircuitTape::compile(no_root), InvalidArgument);

  // Operator nodes without children cannot be built in the first place.
  Circuit c({2});
  EXPECT_THROW(c.add_sum({}), InvalidArgument);
  EXPECT_THROW(c.add_prod({}), InvalidArgument);
  EXPECT_THROW(c.add_max({}), InvalidArgument);

  // Assignment arity and state range are validated per query, identically
  // by both engines (-1 is the internal "unobserved" sentinel and must not
  // be forgeable through a negative observed state).
  Circuit coin({2});
  coin.set_root(coin.add_sum({coin.add_indicator(0, 0), coin.add_indicator(0, 1)}));
  const CircuitTape tape = CircuitTape::compile(coin);
  std::vector<double> scratch;
  EXPECT_THROW(tape.evaluate(PartialAssignment(3), scratch), InvalidArgument);
  BatchEvaluator batch(tape);
  EXPECT_THROW(batch.evaluate({PartialAssignment(3)}), InvalidArgument);
  PartialAssignment negative(1);
  negative[0] = -2;
  PartialAssignment too_large(1);
  too_large[0] = 2;
  EXPECT_THROW(tape.evaluate(negative, scratch), InvalidArgument);
  EXPECT_THROW(tape.evaluate(too_large, scratch), InvalidArgument);
  EXPECT_THROW(evaluate(coin, negative), InvalidArgument);
  EXPECT_THROW(evaluate(coin, too_large), InvalidArgument);

  // A malformed assignment deep inside a *threaded* batch must surface as
  // the same catchable error (worker exceptions are rethrown on the
  // caller), never std::terminate — on both batched engines.
  BatchEvaluator::Options mt;
  mt.num_threads = 4;
  std::vector<PartialAssignment> poisoned(64, PartialAssignment(1));
  poisoned[37] = PartialAssignment(3);  // wrong arity
  BatchEvaluator exact_mt(tape, mt);
  EXPECT_THROW(exact_mt.evaluate(poisoned), InvalidArgument);
  FixedBatchEvaluator lowprec_mt(tape, lowprec::FixedFormat{1, 8},
                                 lowprec::RoundingMode::kNearestEven, mt);
  EXPECT_THROW(lowprec_mt.evaluate(poisoned), InvalidArgument);
}

TEST(KernelSchedule, SegmentsReplayTheOperatorScheduleExactly) {
  // Random circuits (mixed fanin), their binarised forms (pure fanin-2) and
  // VE output: concatenating the segments in order must visit every op of
  // the compiled-over schedule exactly once, with fanin-2 ops in the flat
  // out/lhs/rhs arrays and everything else in the self-contained generic-op
  // arrays — under both the identity layout (rows are node ids) and the
  // tape layout (rows renamed through slot_of, op order re-emitted).
  Rng rng(31);
  std::vector<Circuit> circuits;
  for (int i = 0; i < 6; ++i) {
    test::RandomCircuitSpec spec;
    spec.num_operators = 20 + 7 * i;
    spec.max_fanin = 2 + (i % 4);
    circuits.push_back(test::make_random_circuit(spec, rng));
    circuits.push_back(binarize(circuits.back()).circuit);
  }
  bn::RandomNetworkSpec nspec;
  nspec.num_variables = 6;
  circuits.push_back(compile::compile_network(bn::make_random_network(nspec, rng)));

  for (const Circuit& circuit : circuits) {
    const CircuitTape tape = CircuitTape::compile(circuit);
    const auto& offsets = tape.child_offsets();
    const auto& children = tape.children();

    const auto check = [&](const KernelSchedule& schedule, const auto& ops,
                           const std::int32_t* slot_of, std::size_t want_rows) {
      ASSERT_EQ(schedule.num_ops(), ops.size());
      ASSERT_EQ(schedule.num_fanin2_ops() + schedule.num_generic_ops(), schedule.num_ops());
      ASSERT_EQ(schedule.num_rows(), want_rows);
      const auto row = [&](NodeId id) {
        return slot_of == nullptr ? static_cast<std::int32_t>(id)
                                  : slot_of[static_cast<std::size_t>(id)];
      };
      std::size_t pos = 0;   // walk of `ops`
      std::size_t flat = 0;  // walk of out()/lhs()/rhs()
      std::size_t gen = 0;   // walk of the generic-op arrays
      for (const KernelSegment& seg : schedule.segments()) {
        ASSERT_LT(seg.begin, seg.end);
        if (seg.kind == KernelSegment::Kind::kGeneric) {
          ASSERT_EQ(seg.begin, gen);
          for (std::uint32_t g = seg.begin; g < seg.end; ++g, ++pos, ++gen) {
            const NodeId id = ops[pos];
            const std::size_t i = static_cast<std::size_t>(id);
            const std::int32_t cb = offsets[i];
            const std::int32_t ce = offsets[i + 1];
            EXPECT_NE(ce - cb, 2) << "fanin-2 op left in generic segment";
            EXPECT_EQ(schedule.gen_kinds()[g], tape.kinds()[i]);
            EXPECT_EQ(schedule.gen_out()[g], row(id));
            ASSERT_EQ(schedule.gen_offsets()[g + 1] - schedule.gen_offsets()[g], ce - cb);
            for (std::int32_t k = cb; k < ce; ++k) {
              EXPECT_EQ(schedule.gen_children()[static_cast<std::size_t>(
                            schedule.gen_offsets()[g] + (k - cb))],
                        row(children[static_cast<std::size_t>(k)]));
            }
          }
          continue;
        }
        ASSERT_EQ(seg.begin, flat);
        for (std::uint32_t k = seg.begin; k < seg.end; ++k, ++pos, ++flat) {
          const NodeId id = ops[pos];
          const std::size_t i = static_cast<std::size_t>(id);
          ASSERT_EQ(offsets[i + 1] - offsets[i], 2);
          EXPECT_EQ(schedule.out()[k], row(id));
          EXPECT_EQ(schedule.lhs()[k], row(children[static_cast<std::size_t>(offsets[i])]));
          EXPECT_EQ(schedule.rhs()[k],
                    row(children[static_cast<std::size_t>(offsets[i]) + 1]));
          const KernelSegment::Kind want = tape.kinds()[i] == NodeKind::kSum
                                               ? KernelSegment::Kind::kSum2
                                               : tape.kinds()[i] == NodeKind::kProd
                                                     ? KernelSegment::Kind::kProd2
                                                     : KernelSegment::Kind::kMax2;
          EXPECT_EQ(seg.kind, want);
        }
      }
      EXPECT_EQ(pos, ops.size());
      EXPECT_EQ(flat, schedule.num_fanin2_ops());
      EXPECT_EQ(gen, schedule.num_generic_ops());
    };

    check(KernelSchedule::compile(tape), tape.op_ids(), nullptr, tape.num_nodes());
    const TapeLayout& layout = tape.layout();
    check(KernelSchedule::compile(tape, layout), layout.op_order(), layout.slot_of().data(),
          layout.num_slots());
  }
}

TEST(Simd, DispatchLevelsAndEnvOverride) {
  // scalar always exists; the env hook selects exactly the named level and
  // rejects garbage or unsupported names loudly.
  const std::vector<simd::Level> levels = simd::supported_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), simd::Level::kScalar);
  for (const simd::Level level : levels) {
    ScopedSimdEnv env(simd::level_name(level));
    EXPECT_EQ(simd::dispatch_level(), level);
  }
  {
    ScopedSimdEnv env("auto");
    EXPECT_EQ(simd::dispatch_level(), levels.back());
  }
  {
    ScopedSimdEnv env("pentium");
    EXPECT_THROW(simd::dispatch_level(), InvalidArgument);
    EXPECT_THROW(BatchEvaluator(CircuitTape::compile([] {
                                  Circuit c({2});
                                  c.set_root(c.add_parameter(0.5));
                                  return c;
                                }())),
                 InvalidArgument);
  }
  for (const simd::Level level :
       {simd::Level::kNeon, simd::Level::kAvx2, simd::Level::kAvx512}) {
    if (simd::level_supported(level)) continue;
    ScopedSimdEnv env(simd::level_name(level));
    EXPECT_THROW(simd::dispatch_level(), InvalidArgument);
  }
}

TEST(Simd, AutoBlockSizeIsCacheAwareAndOverridable) {
  // Multiples of the widest SIMD width, shrinking with circuit size, both
  // engines; explicit block requests are honoured verbatim.
  EXPECT_EQ(auto_block_size(100, sizeof(double)), 64u);       // tiny circuit: cap
  EXPECT_EQ(auto_block_size(3312, sizeof(double)), 32u);      // ALARM-sized
  EXPECT_EQ(auto_block_size(97311, sizeof(double)), 8u);      // ve36-sized: floor
  EXPECT_GE(auto_block_size(3312, 16), 8u);                   // raw-word slots
  EXPECT_EQ(auto_block_size(3312, 16) % 8, 0u);
  // The relayout policy: doubled target, 32-lane floor (the compacted
  // buffer shares cache with the schedule's index streams), min_block
  // raises the floor further (the u32 narrow engine's 16).
  EXPECT_EQ(auto_block_size(100, sizeof(double), true), 64u);
  EXPECT_EQ(auto_block_size(9887, sizeof(double), true), 32u);   // ve36 post-layout
  EXPECT_EQ(auto_block_size(97311, sizeof(double), true), 32u);  // floor even when huge
  EXPECT_EQ(auto_block_size(97311, sizeof(std::uint32_t), false, 16), 16u);

  Rng rng(41);
  bn::RandomNetworkSpec spec;
  spec.num_variables = 5;
  const Circuit circuit = compile::compile_network(bn::make_random_network(spec, rng));
  const CircuitTape tape = CircuitTape::compile(circuit);
  // Auto-sizing keys on the *post-layout* row footprint: max-live slots
  // under the default relayout, the full node count when it is off.
  BatchEvaluator auto_sized(tape);
  EXPECT_TRUE(auto_sized.relayout_engaged());
  EXPECT_EQ(auto_sized.num_rows(), tape.layout().num_slots());
  EXPECT_EQ(auto_sized.options().block,
            auto_block_size(auto_sized.num_rows(), sizeof(double), /*relayout=*/true));
  BatchEvaluator::Options no_relayout;
  no_relayout.relayout = false;
  BatchEvaluator identity_sized(tape, no_relayout);
  EXPECT_FALSE(identity_sized.relayout_engaged());
  EXPECT_EQ(identity_sized.num_rows(), tape.num_nodes());
  EXPECT_EQ(identity_sized.options().block,
            auto_block_size(tape.num_nodes(), sizeof(double)));
  BatchEvaluator::Options explicit_block;
  explicit_block.block = 7;
  EXPECT_EQ(BatchEvaluator(tape, explicit_block).options().block, 7u);
  // Narrow fixed formats size their blocks for the 4-byte u32 slots of the
  // lane-parallel datapath (with its 16-lane vector-fill floor); wide ones
  // (and forced-wide) for the u128 slots.
  FixedBatchEvaluator lowprec_auto(tape, lowprec::FixedFormat{2, 10});
  EXPECT_TRUE(lowprec_auto.narrow_datapath());
  EXPECT_EQ(lowprec_auto.options().block,
            auto_block_size(lowprec_auto.num_rows(), sizeof(std::uint32_t),
                            /*relayout=*/true, /*min_block=*/16));
  FixedBatchEvaluator lowprec_wide_auto(tape, lowprec::FixedFormat{2, 40});
  EXPECT_FALSE(lowprec_wide_auto.narrow_datapath());
  EXPECT_EQ(lowprec_wide_auto.options().block,
            auto_block_size(lowprec_wide_auto.num_rows(), sizeof(u128), /*relayout=*/true));
}

TEST(Tape, LowPrecEvaluatorValidatesFormatAtConstruction) {
  // An unemulatable format must fail loudly when the evaluator is built —
  // even through the raw-ops constructor that used to rely on the
  // "operands <= 62 bits" comment in fx_mul_raw (whose u128 product would
  // otherwise silently wrap).
  Rng rng(43);
  bn::RandomNetworkSpec spec;
  spec.num_variables = 4;
  const Circuit circuit = compile::compile_network(bn::make_random_network(spec, rng));
  const CircuitTape tape = CircuitTape::compile(circuit);

  EXPECT_THROW(FixedBatchEvaluator(tape, lowprec::FixedFormat{2, 61}), InvalidArgument);
  EXPECT_THROW(LowPrecBatchEvaluator<FixedRawOps>(
                   tape, FixedRawOps{lowprec::FixedFormat{2, 61},
                                     lowprec::RoundingMode::kNearestEven}),
               InvalidArgument);
  EXPECT_THROW(LowPrecBatchEvaluator<FloatRawOps>(
                   tape, FloatRawOps{lowprec::FloatFormat{1, 4},
                                     lowprec::RoundingMode::kNearestEven}),
               InvalidArgument);
  // Unrepresentable float widths on either axis fail identically.
  EXPECT_THROW(FloatBatchEvaluator(tape, lowprec::FloatFormat{8, 61}), InvalidArgument);
  EXPECT_THROW(FloatBatchEvaluator(tape, lowprec::FloatFormat{29, 8}), InvalidArgument);
  // The widest emulatable formats still construct (and are wide-path).
  FixedBatchEvaluator widest(tape, lowprec::FixedFormat{2, 60});
  EXPECT_FALSE(widest.narrow_datapath());
  FloatBatchEvaluator widest_fl(tape, lowprec::FloatFormat{28, 60});
  EXPECT_EQ(widest_fl.float_lane_bits(), 0);
  // Lane-width election straddles both significand cutoffs.
  EXPECT_EQ(FloatBatchEvaluator(tape, lowprec::FloatFormat{8, 27}).float_lane_bits(), 32);
  EXPECT_EQ(FloatBatchEvaluator(tape, lowprec::FloatFormat{8, 28}).float_lane_bits(), 64);
  EXPECT_EQ(FloatBatchEvaluator(tape, lowprec::FloatFormat{8, 31}).float_lane_bits(), 64);
  EXPECT_EQ(FloatBatchEvaluator(tape, lowprec::FloatFormat{8, 32}).float_lane_bits(), 0);
}

TEST(Simd, ForcedLevelParityMatrixExactAndLowPrec) {
  // The full dispatch matrix: every supported kernel ISA forced via the
  // PROBLP_SIMD env hook x {exact, fixed lowprec, float lowprec} x batch
  // sizes straddling the SoA block boundary x thread counts — bitwise value
  // AND ArithFlags equality against the generic CSR sweep.  Two circuit
  // shapes: a binarised VE circuit (pure fanin-2 segments) and the raw
  // n-ary VE output (mixed fanin, exercising the generic fallback segment
  // interleaved with fanin-2 runs).
  Rng rng(29);
  bn::RandomNetworkSpec spec;
  spec.num_variables = 7;
  const bn::BayesianNetwork network = bn::make_random_network(spec, rng);
  const Circuit nary = compile::compile_network(network);
  const Circuit binary = binarize(nary).circuit;
  const std::vector<std::size_t> batch_sizes = {1, 7, 16, 17, 512};
  const lowprec::FixedFormat fx{2, 12};
  const lowprec::FloatFormat fl{4, 6};

  for (const Circuit* circuit : {&binary, &nary}) {
    const CircuitTape tape = CircuitTape::compile(*circuit);
    const auto assignments = random_assignments(circuit->cardinalities(), 512, 0.5, rng);

    // Generic-engine references, computed once per circuit.
    BatchEvaluator::Options generic;
    generic.force_generic = true;
    generic.block = 16;
    BatchEvaluator generic_exact(tape, generic);
    const std::vector<double> want_exact = generic_exact.evaluate(assignments);
    FixedBatchEvaluator generic_fx(tape, fx, lowprec::RoundingMode::kNearestEven, generic);
    const std::vector<double> want_fx = generic_fx.evaluate(assignments);
    const std::vector<lowprec::ArithFlags> want_fx_flags = generic_fx.flags();
    FloatBatchEvaluator generic_fl(tape, fl, lowprec::RoundingMode::kNearestEven, generic);
    const std::vector<double> want_fl = generic_fl.evaluate(assignments);
    const std::vector<lowprec::ArithFlags> want_fl_flags = generic_fl.flags();

    for (const simd::Level level : simd::supported_levels()) {
      ScopedSimdEnv env(simd::level_name(level));
      for (const int threads : {1, 4}) {
        for (const std::size_t count : batch_sizes) {
          BatchEvaluator::Options opts;
          opts.num_threads = threads;
          const std::string where = std::string(" level=") + simd::level_name(level) +
                                    " threads=" + std::to_string(threads) +
                                    " count=" + std::to_string(count) +
                                    (circuit == &binary ? " binary" : " nary");

          BatchEvaluator exact(tape, opts);
          EXPECT_EQ(exact.simd_level(), level);
          const std::vector<double>& exact_roots = exact.evaluate(assignments.data(), count);
          ASSERT_EQ(exact_roots.size(), count);
          for (std::size_t i = 0; i < count; ++i) {
            ASSERT_EQ(exact_roots[i], want_exact[i]) << "exact query " << i << where;
          }

          FixedBatchEvaluator fixed(tape, fx, lowprec::RoundingMode::kNearestEven, opts);
          const std::vector<double>& fx_roots = fixed.evaluate(assignments.data(), count);
          ASSERT_EQ(fx_roots.size(), count);
          for (std::size_t i = 0; i < count; ++i) {
            ASSERT_EQ(fx_roots[i], want_fx[i]) << "fixed query " << i << where;
            ASSERT_EQ(fixed.flags()[i].overflow, want_fx_flags[i].overflow) << where;
            ASSERT_EQ(fixed.flags()[i].underflow, want_fx_flags[i].underflow) << where;
            ASSERT_EQ(fixed.flags()[i].invalid_input, want_fx_flags[i].invalid_input) << where;
          }

          FloatBatchEvaluator flt(tape, fl, lowprec::RoundingMode::kNearestEven, opts);
          const std::vector<double>& fl_roots = flt.evaluate(assignments.data(), count);
          ASSERT_EQ(fl_roots.size(), count);
          for (std::size_t i = 0; i < count; ++i) {
            ASSERT_EQ(fl_roots[i], want_fl[i]) << "float query " << i << where;
            ASSERT_EQ(flt.flags()[i].overflow, want_fl_flags[i].overflow) << where;
            ASSERT_EQ(flt.flags()[i].underflow, want_fl_flags[i].underflow) << where;
            ASSERT_EQ(flt.flags()[i].invalid_input, want_fl_flags[i].invalid_input) << where;
          }
        }
      }
    }
  }
}

TEST(Simd, RelayoutParityMatrixAcrossCircuits) {
  // Layout invariance: the cache-shaped re-layout (re-ordered op schedule +
  // recycled slots) must be *bitwise* invisible in results.  Random mixed-
  // fanin circuits, VE output, an NB circuit and a large VE tape x {exact,
  // fixed lowprec, float lowprec} x relayout {off, on} x every supported
  // kernel ISA x threads {1, 4} x each input's batch sizes — values and
  // per-query sticky flags all compared against the relayout-off O(nodes)
  // reference.
  struct Input {
    CircuitTape tape;
    std::vector<std::size_t> batch_sizes;
  };
  Rng rng(59);
  std::vector<Input> inputs;
  {
    test::RandomCircuitSpec spec;
    spec.num_operators = 60;
    spec.max_fanin = 4;
    inputs.push_back({CircuitTape::compile(test::make_random_circuit(spec, rng)), {1, 17, 512}});
  }
  {
    bn::RandomNetworkSpec spec;
    spec.num_variables = 7;
    const Circuit circuit = compile::compile_network(bn::make_random_network(spec, rng));
    inputs.push_back({CircuitTape::compile(circuit), {1, 17, 512}});
  }
  {
    const Circuit circuit = compile::compile_naive_bayes(make_nb_network(4, rng), 0);
    inputs.push_back({CircuitTape::compile(circuit), {1, 17, 512}});
  }
  {
    // The synthetic VE recipe (seed 42, <= 3 parents, edge probability
    // 0.25) at 28 variables: ~14k operators, so the layout's same-kind
    // window, min(1024, num_ops / 8), runs at its cap — a schedule the
    // small inputs above never reach.  Short batches keep the matrix cheap.
    Rng ve_rng(42);
    bn::RandomNetworkSpec spec;
    spec.num_variables = 28;
    spec.max_parents = 3;
    spec.edge_probability = 0.25;
    const Circuit circuit = compile::compile_network(bn::make_random_network(spec, ve_rng));
    inputs.push_back({CircuitTape::compile(circuit), {1, 17, 64}});
    ASSERT_GE(inputs.back().tape.op_ids().size(), 8u * 1024);
  }

  const lowprec::FixedFormat fx{2, 12};
  const lowprec::FloatFormat fl{4, 6};

  for (const Input& input : inputs) {
    const CircuitTape& tape = input.tape;
    const auto assignments =
        random_assignments(tape.cardinalities(), input.batch_sizes.back(), 0.5, rng);

    // Relayout-off references (identity O(nodes) layout), once per circuit.
    BatchEvaluator::Options ref;
    ref.relayout = false;
    BatchEvaluator ref_exact(tape, ref);
    const std::vector<double> want_exact = ref_exact.evaluate(assignments);
    FixedBatchEvaluator ref_fx(tape, fx, lowprec::RoundingMode::kNearestEven, ref);
    const std::vector<double> want_fx = ref_fx.evaluate(assignments);
    const std::vector<lowprec::ArithFlags> want_fx_flags = ref_fx.flags();
    FloatBatchEvaluator ref_fl(tape, fl, lowprec::RoundingMode::kNearestEven, ref);
    const std::vector<double> want_fl = ref_fl.evaluate(assignments);
    const std::vector<lowprec::ArithFlags> want_fl_flags = ref_fl.flags();

    for (const simd::Level level : simd::supported_levels()) {
      ScopedSimdEnv env(simd::level_name(level));
      for (const bool relayout : {false, true}) {
        for (const int threads : {1, 4}) {
          for (const std::size_t count : input.batch_sizes) {
            BatchEvaluator::Options opts;
            opts.relayout = relayout;
            opts.num_threads = threads;
            const std::string where = std::string(" level=") + simd::level_name(level) +
                                      " relayout=" + (relayout ? "on" : "off") +
                                      " threads=" + std::to_string(threads) +
                                      " count=" + std::to_string(count);

            BatchEvaluator exact(tape, opts);
            EXPECT_EQ(exact.relayout_engaged(), relayout);
            if (relayout) {
              EXPECT_LE(exact.num_rows(), tape.num_nodes());
            }
            const std::vector<double>& roots = exact.evaluate(assignments.data(), count);
            ASSERT_EQ(roots.size(), count);
            for (std::size_t i = 0; i < count; ++i) {
              ASSERT_EQ(roots[i], want_exact[i]) << "exact query " << i << where;
            }

            FixedBatchEvaluator fixed(tape, fx, lowprec::RoundingMode::kNearestEven, opts);
            const std::vector<double>& fx_roots = fixed.evaluate(assignments.data(), count);
            ASSERT_EQ(fx_roots.size(), count);
            for (std::size_t i = 0; i < count; ++i) {
              ASSERT_EQ(fx_roots[i], want_fx[i]) << "fixed query " << i << where;
              ASSERT_EQ(fixed.flags()[i].overflow, want_fx_flags[i].overflow) << where;
              ASSERT_EQ(fixed.flags()[i].underflow, want_fx_flags[i].underflow) << where;
              ASSERT_EQ(fixed.flags()[i].invalid_input, want_fx_flags[i].invalid_input)
                  << where;
            }

            // The wide (u128) schedule path under the same layout matrix.
            BatchEvaluator::Options wide = opts;
            wide.force_wide_raw = true;
            FixedBatchEvaluator fixed_wide(tape, fx, lowprec::RoundingMode::kNearestEven,
                                           wide);
            EXPECT_FALSE(fixed_wide.narrow_datapath());
            const std::vector<double>& fxw_roots =
                fixed_wide.evaluate(assignments.data(), count);
            for (std::size_t i = 0; i < count; ++i) {
              ASSERT_EQ(fxw_roots[i], want_fx[i]) << "fixed-wide query " << i << where;
              ASSERT_EQ(fixed_wide.flags()[i].overflow, want_fx_flags[i].overflow) << where;
            }

            FloatBatchEvaluator flt(tape, fl, lowprec::RoundingMode::kNearestEven, opts);
            const std::vector<double>& fl_roots = flt.evaluate(assignments.data(), count);
            ASSERT_EQ(fl_roots.size(), count);
            for (std::size_t i = 0; i < count; ++i) {
              ASSERT_EQ(fl_roots[i], want_fl[i]) << "float query " << i << where;
              ASSERT_EQ(flt.flags()[i].overflow, want_fl_flags[i].overflow) << where;
              ASSERT_EQ(flt.flags()[i].underflow, want_fl_flags[i].underflow) << where;
              ASSERT_EQ(flt.flags()[i].invalid_input, want_fl_flags[i].invalid_input)
                  << where;
            }
          }
        }
      }
    }
  }
}

TEST(Simd, SharedEvidenceTemplateBatches) {
  // The shared-evidence hoist and the whole-block evidence-template fast
  // path: batches repeating one template across whole blocks (composing,
  // then memcpy-restoring, the per-worker template image — across evaluate
  // calls too), switching templates, and alternating within a block must
  // agree bitwise with the per-query references on every engine — the
  // cached resolution and the cached image may only ever be reused for an
  // identical assignment at an identical block width.
  Rng rng(37);
  bn::RandomNetworkSpec spec;
  spec.num_variables = 6;
  const Circuit circuit = compile::compile_network(bn::make_random_network(spec, rng));
  const CircuitTape tape = CircuitTape::compile(circuit);
  const auto distinct = random_assignments(circuit.cardinalities(), 4, 0.6, rng);

  // At block 8: three full uniform blocks of template 0 (compose once,
  // restore twice), a partial uniform tail, alternating blocks, then a full
  // uniform block of a *different* template (must invalidate, not reuse).
  std::vector<PartialAssignment> batch;
  for (int rep = 0; rep < 27; ++rep) batch.push_back(distinct[0]);
  for (int rep = 0; rep < 9; ++rep) {
    batch.push_back(distinct[1]);
    batch.push_back(distinct[2]);
  }
  batch.push_back(distinct[3]);
  for (int rep = 0; rep < 8; ++rep) batch.push_back(distinct[1]);

  for (const bool force_generic : {false, true}) {
    BatchEvaluator::Options opts;
    opts.force_generic = force_generic;
    opts.block = 8;
    BatchEvaluator batched(tape, opts);
    EXPECT_TRUE(batched.uses_evidence_template());
    for (int round = 0; round < 2; ++round) {
      const std::vector<double>& roots = batched.evaluate(batch);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_EQ(roots[i], evaluate(circuit, batch[i]))
            << "force_generic=" << force_generic << " round=" << round << " query=" << i;
      }
    }
  }

  // The low-precision engines share the same fast path on every datapath:
  // fixed narrow u32, float u32/u64 lanes and the wide interleaved float.
  const auto check_lowprec = [&](auto& batched, auto& single, const std::string& what) {
    for (int round = 0; round < 2; ++round) {
      const std::vector<double>& roots = batched.evaluate(batch);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const LowPrecisionResult want = single.evaluate(batch[i]);
        ASSERT_EQ(roots[i], want.value) << what << " round=" << round << " query=" << i;
        ASSERT_EQ(batched.flags()[i].overflow, want.flags.overflow) << what << " query=" << i;
        ASSERT_EQ(batched.flags()[i].underflow, want.flags.underflow)
            << what << " query=" << i;
      }
    }
  };
  for (const int threads : {1, 2}) {
    BatchEvaluator::Options opts;
    opts.block = 8;
    opts.num_threads = threads;
    const std::string where = " threads=" + std::to_string(threads);

    const lowprec::FixedFormat fx{2, 12};
    FixedTapeEvaluator fx_single(tape, fx);
    FixedBatchEvaluator fx_batched(tape, fx, lowprec::RoundingMode::kNearestEven, opts);
    EXPECT_TRUE(fx_batched.narrow_datapath());
    check_lowprec(fx_batched, fx_single, "fixed" + where);

    for (const lowprec::FloatFormat fl :
         {lowprec::FloatFormat{5, 7}, lowprec::FloatFormat{8, 30},
          lowprec::FloatFormat{8, 35}}) {
      FloatTapeEvaluator fl_single(tape, fl);
      FloatBatchEvaluator fl_batched(tape, fl, lowprec::RoundingMode::kNearestEven, opts);
      EXPECT_EQ(fl_batched.float_lane_bits(),
                fl.mantissa_bits <= 27 ? 32 : (fl.mantissa_bits <= 31 ? 64 : 0));
      check_lowprec(fl_batched, fl_single, fl.to_string() + where);
    }
  }
}

TEST(Tape, LeafRootAndSteadyStateReuse) {
  // A parameter-only circuit: the sweep has no operators, the root row comes
  // straight from the base pattern.
  Circuit c({2});
  c.set_root(c.add_parameter(0.25));
  const CircuitTape tape = CircuitTape::compile(c);
  std::vector<double> scratch;
  EXPECT_EQ(tape.evaluate(PartialAssignment(1), scratch), 0.25);

  BatchEvaluator batch(tape);
  const std::vector<PartialAssignment> queries(40, PartialAssignment(1));
  for (int round = 0; round < 3; ++round) {
    const std::vector<double>& roots = batch.evaluate(queries);
    for (double r : roots) EXPECT_EQ(r, 0.25);
  }
}

}  // namespace
}  // namespace problp::ac
