// The three workloads and the helpers they share.  Each workload generates
// its inputs from the seed before any timing starts, sets the program up
// several times (setup_s is the median), measures for the requested
// seconds, checks the outputs, and fills an Outcome.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "datasets/benchmark_suite.hpp"
#include "harness.hpp"
#include "runtime/compiled_model.hpp"
#include "runtime/session.hpp"
#include "util/rng.hpp"

namespace perfbench {

Outcome run_uiwads_serve(const RunOptions& options);
Outcome run_alarm_stream(const RunOptions& options);
Outcome run_design_flow(const RunOptions& options);

/// Runs `set_up` at least 5 times and until two seconds have passed (at
/// most 2000 times), returning each repetition's seconds; setup_s reports
/// their median, so quick set-ups get enough repetitions for a steady one,
/// spread over the same two seconds whatever their length.
/// `tear_down` runs untimed before every repetition and releases what the
/// previous one (or an earlier run) left: each set-up starts from nothing,
/// as a fresh deployment does.  Saving over an existing artifact would
/// otherwise time the filesystem's replace-by-rename flush.
template <class SetUp, class TearDown>
std::vector<double> repeat_setup(SetUp&& set_up, TearDown&& tear_down) {
  std::vector<double> seconds;
  const auto first = Clock::now();
  do {
    tear_down();
    const auto start = Clock::now();
    set_up();
    seconds.push_back(seconds_since(start));
  } while (seconds.size() < 5 || (seconds_since(first) < 2.0 && seconds.size() < 2000));
  return seconds;
}

/// Every workload learns its models with the seed of the paper's Table-2
/// benches, so every seed measures the same circuits in the same selected
/// formats; the seed of a run draws only the evidence.  With per-seed
/// models the selected formats, and with them the cost of a query, changed
/// from seed to seed.
constexpr std::uint64_t kModelSeed = 1;

/// `count` readings sampled from `bench.network` with `seed`, observing the
/// variables its own test evidence observes (the features; ALARM's leaves).
/// Sampled from the network, no reading has probability 0.
std::vector<problp::ac::PartialAssignment> sample_readings(const problp::datasets::Benchmark& bench,
                                                           int count, std::uint64_t seed);

/// Rounding mode the analysis assumed for `repr` on `model`.
problp::lowprec::RoundingMode analysis_rounding(const problp::runtime::CompiledModel& model,
                                                const problp::Representation& repr);

/// Analytic bound of the representation `report` selected.
double selected_bound(const problp::AnalysisReport& report);

/// Session options serving the analysis-selected format with fallback to exact.
problp::runtime::SessionOptions selected_with_fallback(
    const problp::runtime::CompiledModel& model, const problp::AnalysisReport& report);

/// Error of `served` against `exact` in the tolerance kind of the spec: the
/// absolute difference, or the difference relative to `exact`.
double spec_error(problp::errormodel::ToleranceKind kind, double served, double exact);

/// One served answer kept for the bitwise replay check: the query as sent
/// (marginal or conditional), the session configuration of the tier that
/// served it, and the answer.
struct ServedSample {
  problp::errormodel::QueryType query = problp::errormodel::QueryType::kMarginal;
  int query_var = -1;
  const problp::ac::PartialAssignment* evidence = nullptr;
  std::size_t config = 0;  ///< index into the configs given to check_replay
  double value = 0.0;
  std::vector<double> posterior;
};

/// Re-evaluates every sample on a stand-alone InferenceSession built with
/// the configuration that served it — the served format, with the same
/// escalation policy, so an escalated answer replays the same climb — and
/// records a failed check for any answer that is not bitwise equal.
void check_replay(const std::shared_ptr<const problp::runtime::CompiledModel>& model,
                  const std::vector<problp::runtime::SessionOptions>& configs,
                  const std::vector<ServedSample>& samples, Outcome& outcome);

/// Replays `sample` straight into the ac engines — interpreter, tape,
/// per-query low-precision tape evaluator, exact and low-precision batched
/// engines — in `repr` on one thread, and reports the ac.* rungs (per query
/// in us for single-query rungs, per batch of `sample` in ms for batched
/// ones).  Traced runs only.
void replay_ac_ladder(const problp::runtime::CompiledModel& model,
                      const problp::Representation& repr, problp::lowprec::RoundingMode rounding,
                      const std::vector<problp::ac::PartialAssignment>& sample, Tracer& tracer,
                      Outcome& outcome);

/// Per-layer set-up metrics from the set-up spans (runtime.compile/analyze/
/// save/load, datasets.build, compile.ve), averaged over the repetitions.
void report_setup_layers(const Tracer& tracer, std::size_t repetitions, Outcome& outcome);

/// Traced runs: reports self time per layer and the span count, and writes
/// the spans out.  No-op when tracing is off.
void finish_trace(const RunOptions& options, const Tracer& tracer, Outcome& outcome);

/// A seeded request order: 65536 indices drawn uniformly from [0, pool_size).
std::vector<std::uint32_t> seeded_order(problp::Rng& rng, std::size_t pool_size);

/// Path of a scratch artifact for this run.
std::string artifact_path(const RunOptions& options, const std::string& name);

}  // namespace perfbench
