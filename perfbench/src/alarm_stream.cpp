// alarm_stream — an edge device answering one ALARM reading at a time.
//
// One thread runs a closed loop over InferenceSession single queries in the
// analysis-selected formats, alternating marginal (rel 0.01) and
// conditional (abs 0.01) queries, each with fallback to exact.  This is the
// per-query low-precision path; serve and the batched engines are not used.
#include <algorithm>
#include <filesystem>

#include "compile/ve_compiler.hpp"
#include "datasets/benchmark_suite.hpp"
#include "runtime/model_registry.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace problp;
using errormodel::QuerySpec;
using errormodel::QueryType;
using errormodel::ToleranceKind;

const QuerySpec kMarginalSpec{QueryType::kMarginal, ToleranceKind::kRelative, 0.01};
const QuerySpec kConditionalSpec{QueryType::kConditional, ToleranceKind::kAbsolute, 0.01};

struct Served {
  std::shared_ptr<const runtime::CompiledModel> model;
  AnalysisReport marginal_report;
  AnalysisReport conditional_report;
  std::unique_ptr<runtime::InferenceSession> marginal;
  std::unique_ptr<runtime::InferenceSession> conditional;
};

struct Phase {
  Tally tally;
  std::vector<double> latency_us;      ///< per reading (two answers)
  std::vector<double> window_qps;      ///< answers/s per tenth of the phase
  std::vector<double> marginal_us;     ///< per marginal answer, traced phase only
  std::vector<double> conditional_us;  ///< per conditional answer, traced phase only
  std::uint64_t escalated = 0;
  double err_over_bound = 0.0;
  std::vector<ServedSample> samples;
};

Served set_up(const RunOptions& options, const datasets::Benchmark& alarm, Tracer& tracer) {
  Served s;
  {
    Scoped span(tracer, "runtime.compile");
    s.model = runtime::CompiledModel::compile(alarm.circuit);
  }
  {
    Scoped span(tracer, "runtime.analyze");
    s.marginal_report = s.model->analyze(kMarginalSpec);
    s.conditional_report = s.model->analyze(kConditionalSpec);
  }
  const std::string path = artifact_path(options, "alarm");
  {
    Scoped span(tracer, "runtime.save");
    s.model->save(path);
  }
  runtime::ModelRegistry registry;
  {
    Scoped span(tracer, "runtime.load");
    s.model = registry.get(path);
  }
  Scoped span(tracer, "session.construct");
  s.marginal = std::make_unique<runtime::InferenceSession>(
      s.model, selected_with_fallback(*s.model, s.marginal_report));
  s.conditional = std::make_unique<runtime::InferenceSession>(
      s.model, selected_with_fallback(*s.model, s.conditional_report));
  // Warm-up: engines are lazy, so the first queries build them.
  const auto& evidence = alarm.test_evidence;
  for (std::size_t i = 0; i < 16 && i < evidence.size(); ++i) {
    const ac::PartialAssignment a = compile::to_assignment(evidence[i]);
    s.marginal->marginal(a);
    s.conditional->conditional(alarm.query_var, a);
  }
  return s;
}

}  // namespace

Outcome run_alarm_stream(const RunOptions& options) {
  Outcome out;
  Tracer tracer(options.trace);
  Tracer untraced(false);

  // ---- inputs (seeded, before any timing) ------------------------------------
  const datasets::Benchmark alarm = datasets::make_alarm_benchmark(kModelSeed, 64);
  const std::vector<ac::PartialAssignment> pool = sample_readings(alarm, 2048, options.seed);
  Rng rng(options.seed ^ 0xa1a2a3a4ULL);
  const std::vector<std::uint32_t> order = seeded_order(rng, pool.size());

  // ---- set-up, repeated ---------------------------------------------------------
  Served served;
  const std::vector<double> setup_s =
      repeat_setup([&] { served = set_up(options, alarm, tracer); },
                   [&] {
                     served = Served{};
                     std::filesystem::remove(artifact_path(options, "alarm"));
                   });
  const double marginal_bound = selected_bound(served.marginal_report);
  const double conditional_bound = selected_bound(served.conditional_report);

  // Exact references for the error check.
  std::vector<double> exact_marginal;
  std::vector<std::vector<double>> exact_posterior;
  {
    runtime::InferenceSession exact(served.model);
    exact_marginal = exact.marginal(pool);
    exact_posterior = exact.conditional(alarm.query_var, pool);
  }

  // ---- the closed loop ----------------------------------------------------------
  // Each reading is answered twice, marginal then conditional, so a latency
  // sample is one reading (two answers): per-answer times are bimodal (the
  // conditional query is several passes), and a median taken across the two
  // modes would sit in the gap between them.
  std::size_t cursor = 0;
  const auto phase = [&](double seconds, Tracer& t) {
    Phase p;
    const auto start = Clock::now();
    auto window_start = start;
    std::uint64_t window_answered = 0;
    while (seconds_since(start) < seconds) {
      if (seconds_since(window_start) >= seconds / 10) {
        const auto now = Clock::now();
        const std::uint64_t answered = p.tally.attempted - p.tally.failed;
        p.window_qps.push_back(static_cast<double>(answered - window_answered) /
                               std::chrono::duration<double>(now - window_start).count());
        window_start = now;
        window_answered = answered;
      }
      const std::uint64_t reading = cursor;
      const std::uint32_t idx = order[cursor++ % order.size()];
      const ac::PartialAssignment& evidence = pool[idx];
      p.tally.attempted += 2;
      const auto t0 = Clock::now();
      double value = 0.0;
      std::vector<double> posterior;
      Clock::time_point t1;
      try {
        value = served.marginal->marginal(evidence);
        t1 = Clock::now();
        posterior = served.conditional->conditional(alarm.query_var, evidence);
      } catch (const std::exception&) {
        p.tally.failed += 2;
        continue;
      }
      const auto t2 = Clock::now();
      p.latency_us.push_back(us_between(t0, t2));
      if (t.enabled()) {
        t.record("session.marginal", t0, t1, -1, reading);
        t.record("session.conditional", t1, t2, -1, reading);
        p.marginal_us.push_back(us_between(t0, t1));
        p.conditional_us.push_back(us_between(t1, t2));
      }
      const runtime::QueryProvenance& mprov = served.marginal->last_provenance().front();
      const runtime::QueryProvenance& cprov = served.conditional->last_provenance().front();
      p.escalated += (mprov.escalations > 0) + (cprov.escalations > 0);
      if (mprov.served_format && exact_marginal[idx] > 0.0) {
        p.err_over_bound = std::max(
            p.err_over_bound,
            spec_error(ToleranceKind::kRelative, value, exact_marginal[idx]) / marginal_bound);
      }
      const std::vector<double>& ref = exact_posterior[idx];
      out.check(ref.size() == posterior.size(),
                "alarm_stream: served and exact posteriors differ in definedness");
      for (std::size_t k = 0; cprov.served_format && k < std::min(ref.size(), posterior.size());
           ++k) {
        p.err_over_bound = std::max(
            p.err_over_bound,
            spec_error(ToleranceKind::kAbsolute, posterior[k], ref[k]) / conditional_bound);
      }
      if (reading % 37 == 0) {
        p.samples.push_back({QueryType::kMarginal, alarm.query_var, &evidence, 0, value, {}});
        p.samples.push_back(
            {QueryType::kConditional, alarm.query_var, &evidence, 1, 0.0, std::move(posterior)});
      }
    }
    return p;
  };

  Phase main = phase(options.trace ? options.seconds / 2.0 : options.seconds, untraced);
  Phase traced;
  if (options.trace) traced = phase(options.seconds / 2.0, tracer);

  // ---- checks ---------------------------------------------------------------------
  std::vector<ServedSample> samples = main.samples;
  samples.insert(samples.end(), traced.samples.begin(), traced.samples.end());
  check_replay(served.model,
               {selected_with_fallback(*served.model, served.marginal_report),
                selected_with_fallback(*served.model, served.conditional_report)},
               samples, out);
  const double err = std::max(main.err_over_bound, traced.err_over_bound);
  out.check(err <= 1.0, str_format("alarm_stream: observed error %.3g x the analytic bound", err));

  // ---- metrics --------------------------------------------------------------------
  out.tally = main.tally;
  out.tally.attempted += traced.tally.attempted;
  out.tally.failed += traced.tally.failed;
  const Summary lat = windowed(main.latency_us);
  const double qps = best_window_rate(main.window_qps);
  out.setup_time(setup_s);
  out.e2e("qps", qps, "1/s");
  out.e2e("p50_us", lat.p50, "us");
  out.e2e("p99_us", lat.tail, "us");
  out.e2e("ok_frac", main.tally.ok_frac(), "fraction");
  out.e2e("normal_tier_frac", 1.0, "fraction");
  out.note("err_over_bound", json_number(err));
  out.note_summary("reading_latency_us", lat);
  out.note("formats", "{\"marginal\":" + json_string(served.marginal_report.selected.to_string()) +
                          ",\"conditional\":" +
                          json_string(served.conditional_report.selected.to_string()) + "}");
  out.note("fail_frac", json_number(1.0 - main.tally.ok_frac()));
  out.note("degraded_frac", "0");

  if (options.trace) {
    // The two query kinds are summarised apart: a conditional answer is
    // several passes, so pooled answer times are bimodal.
    const Summary marginal = windowed(traced.marginal_us);
    const Summary conditional = windowed(traced.conditional_us);
    const Summary traced_lat = windowed(traced.latency_us);
    report_setup_layers(tracer, setup_s.size(), out);
    out.layer("session.single_us_p50.marginal", marginal.p50, "us");
    out.layer("session.single_us_p99.marginal", marginal.tail, "us");
    out.layer("session.single_us_p50.conditional", conditional.p50, "us");
    out.layer("session.single_us_p99.conditional", conditional.tail, "us");
    const double answered = static_cast<double>(traced.tally.attempted - traced.tally.failed);
    out.layer("session.escalated_frac",
              answered > 0 ? static_cast<double>(traced.escalated) / answered : 0.0, "fraction");
    out.layer("trace.qps_delta", best_window_rate(traced.window_qps) - qps, "1/s");
    out.layer("trace.p50_us_delta", traced_lat.p50 - lat.p50, "us");
    std::vector<ac::PartialAssignment> sample = pool;
    sample.resize(std::min<std::size_t>(256, pool.size()));
    replay_ac_ladder(*served.model, served.marginal_report.selected,
                     analysis_rounding(*served.model, served.marginal_report.selected), sample,
                     tracer, out);
  }
  finish_trace(options, tracer, out);
  return out;
}

}  // namespace perfbench
