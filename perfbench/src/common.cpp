#include <bit>
#include <cmath>
#include <cstdio>

#include "ac/batch_eval.hpp"
#include "ac/batch_lowprec.hpp"
#include "ac/low_precision_eval.hpp"
#include "bn/sampling.hpp"
#include "compile/ve_compiler.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace problp;

std::vector<ac::PartialAssignment> sample_readings(const datasets::Benchmark& bench, int count,
                                                   std::uint64_t seed) {
  std::vector<int> observed;
  for (int v = 0; v < bench.network.num_variables(); ++v) {
    for (const bn::Evidence& e : bench.test_evidence) {
      if (e[static_cast<std::size_t>(v)]) {
        observed.push_back(v);
        break;
      }
    }
  }
  Rng rng(seed);
  std::vector<ac::PartialAssignment> out;
  for (const bn::Assignment& a : bn::sample_dataset(bench.network, count, rng)) {
    out.push_back(compile::to_assignment(bn::evidence_from_assignment(bench.network, a, observed)));
  }
  return out;
}

lowprec::RoundingMode analysis_rounding(const runtime::CompiledModel& model,
                                        const Representation& repr) {
  return repr.kind == Representation::Kind::kFixed ? model.options().search.fixed_options.rounding
                                                   : model.options().search.float_rounding;
}

double selected_bound(const AnalysisReport& report) {
  return report.selected.kind == Representation::Kind::kFixed ? report.fixed_plan.predicted_bound
                                                              : report.float_plan.predicted_bound;
}

runtime::SessionOptions selected_with_fallback(const runtime::CompiledModel& model,
                                               const AnalysisReport& report) {
  require(report.any_feasible, "perfbench: the analysis selected no representation");
  runtime::SessionOptions options =
      runtime::SessionOptions::low_precision(report.selected,
                                             analysis_rounding(model, report.selected));
  options.fallback = runtime::FallbackPolicy::to_exact();
  options.batch.num_threads = 1;
  return options;
}

double spec_error(errormodel::ToleranceKind kind, double served, double exact) {
  const double diff = std::abs(served - exact);
  return kind == errormodel::ToleranceKind::kAbsolute ? diff : diff / exact;
}

void check_replay(const std::shared_ptr<const runtime::CompiledModel>& model,
                  const std::vector<runtime::SessionOptions>& configs,
                  const std::vector<ServedSample>& samples, Outcome& outcome) {
  std::vector<std::unique_ptr<runtime::InferenceSession>> sessions;
  for (const runtime::SessionOptions& config : configs) {
    runtime::SessionOptions single = config;
    single.batch.num_threads = 1;
    sessions.push_back(std::make_unique<runtime::InferenceSession>(model, single));
  }
  const auto same = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  std::size_t mismatches = 0;
  for (const ServedSample& s : samples) {
    runtime::InferenceSession& session = *sessions.at(s.config);
    if (s.query == errormodel::QueryType::kConditional) {
      const std::vector<double> posterior = session.conditional(s.query_var, *s.evidence);
      bool equal = posterior.size() == s.posterior.size();
      for (std::size_t k = 0; equal && k < posterior.size(); ++k) {
        equal = same(posterior[k], s.posterior[k]);
      }
      mismatches += equal ? 0 : 1;
    } else {
      mismatches += same(session.marginal(*s.evidence), s.value) ? 0 : 1;
    }
  }
  outcome.check(mismatches == 0,
                str_format("replay: %zu of %zu sampled answers differ from a stand-alone session",
                           mismatches, samples.size()));
  outcome.note("replayed_answers", std::to_string(samples.size()));
}

void replay_ac_ladder(const runtime::CompiledModel& model, const Representation& repr,
                      lowprec::RoundingMode rounding,
                      const std::vector<ac::PartialAssignment>& sample, Tracer& tracer,
                      Outcome& outcome) {
  const ac::Circuit& circuit = model.binary_circuit();
  const ac::CircuitTape& tape = model.tape();
  ac::BatchEvaluator::Options batch_options;
  batch_options.num_threads = 1;
  const auto per_query_us = [&](const char* span, auto&& one) {
    double checksum = 0.0;
    const auto start = Clock::now();
    for (const ac::PartialAssignment& a : sample) checksum += one(a);
    const auto end = Clock::now();
    tracer.record(span, start, end);
    if (!std::isfinite(checksum)) std::fprintf(stderr, "ac ladder: non-finite checksum\n");
    return us_between(start, end) / static_cast<double>(sample.size());
  };
  const auto per_batch_ms = [&](const char* span, auto& engine) {
    engine.evaluate(sample);  // warm-up: buffers and leaf images reach steady state
    std::vector<double> ms;
    for (int round = 0; round < 5; ++round) {
      const auto start = Clock::now();
      engine.evaluate(sample);
      const auto end = Clock::now();
      tracer.record(span, start, end);
      ms.push_back(ms_between(start, end));
    }
    return median(ms);
  };

  outcome.layer(
      "ac.interpreter_us",
      per_query_us("ac.interpreter", [&](const auto& a) { return ac::evaluate(circuit, a); }),
      "us");
  std::vector<double> values;
  outcome.layer("ac.tape_us",
                per_query_us("ac.tape", [&](const auto& a) { return tape.evaluate(a, values); }),
                "us");
  ac::BatchEvaluator exact(tape, batch_options);
  outcome.layer("ac.batch_exact_ms", per_batch_ms("ac.batch_exact", exact), "ms");
  if (repr.kind == Representation::Kind::kFixed) {
    ac::FixedTapeEvaluator single(tape, repr.fixed, rounding);
    outcome.layer("ac.single_lowprec_us",
                  per_query_us("ac.single_lowprec",
                               [&](const auto& a) { return single.evaluate(a).value; }),
                  "us");
    ac::FixedBatchEvaluator batch(tape, repr.fixed, rounding, batch_options);
    outcome.layer("ac.batch_lowprec_ms", per_batch_ms("ac.batch_lowprec", batch), "ms");
  } else {
    ac::FloatTapeEvaluator single(tape, repr.flt, rounding);
    outcome.layer("ac.single_lowprec_us",
                  per_query_us("ac.single_lowprec",
                               [&](const auto& a) { return single.evaluate(a).value; }),
                  "us");
    ac::FloatBatchEvaluator batch(tape, repr.flt, rounding, batch_options);
    outcome.layer("ac.batch_lowprec_ms", per_batch_ms("ac.batch_lowprec", batch), "ms");
  }
}

void report_setup_layers(const Tracer& tracer, std::size_t repetitions, Outcome& outcome) {
  for (const char* span : {"runtime.compile", "runtime.analyze", "runtime.save", "runtime.load",
                           "datasets.build", "compile.ve"}) {
    outcome.layer(std::string(span) + "_ms",
                  tracer.total_ms(span) / static_cast<double>(repetitions), "ms");
  }
}

void finish_trace(const RunOptions& options, const Tracer& tracer, Outcome& outcome) {
  if (!options.trace) return;
  for (const auto& [layer, ms] : tracer.self_ms_by_layer()) {
    outcome.layer("self_ms." + layer, ms, "ms");
  }
  outcome.layer("trace.spans", static_cast<double>(tracer.size()), "count");
  tracer.write(options.workdir + "/trace-" + options.workload + ".jsonl");
}

std::vector<std::uint32_t> seeded_order(Rng& rng, std::size_t pool_size) {
  std::vector<std::uint32_t> order(1 << 16);
  for (auto& i : order) {
    i = static_cast<std::uint32_t>(rng.uniform_int(0, static_cast<int>(pool_size) - 1));
  }
  return order;
}

std::string artifact_path(const RunOptions& options, const std::string& name) {
  return options.workdir + "/" + options.workload + "-" + name + ".plpm";
}

}  // namespace perfbench
