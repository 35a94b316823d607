// design_flow — the framework itself: compile, analyse, generate hardware.
//
// One design pass runs, for each of HAR, UNIMIB, UIWADS, ALARM and a
// synthetic VE-compiled network of ~16k binary nodes: CompiledModel::compile,
// analyze for each Table-2 spec (marginal abs/rel 0.01, conditional abs
// 0.01, MPE rel 0.01), then generate_hardware for the marginal abs
// selection.  errormodel, energy and hw do the main work; the runtime
// engines and serve are not used.  A latency sample is one whole pass: the
// circuits differ in cost by two orders of magnitude, so a percentile over
// pooled per-circuit times would follow whichever circuit it lands on.
//
// Traced runs call the entry points generate_hardware composes
// (generate_netlist, emit_*_verilog, *_netlist_energy) so hw time splits by
// stage; the synthetic circuit's hw figures are reported on their own.
#include <algorithm>
#include <optional>

#include "bn/random_network.hpp"
#include "compile/ve_compiler.hpp"
#include "datasets/benchmark_suite.hpp"
#include "hw/generator.hpp"
#include "hw/simulator.hpp"
#include "hw/verilog.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace problp;
using errormodel::QuerySpec;
using errormodel::QueryType;
using errormodel::ToleranceKind;

const QuerySpec kHardwareSpec{QueryType::kMarginal, ToleranceKind::kAbsolute, 0.01};
const std::vector<QuerySpec> kSpecs = {
    kHardwareSpec,
    {QueryType::kMarginal, ToleranceKind::kRelative, 0.01},
    {QueryType::kConditional, ToleranceKind::kAbsolute, 0.01},
    {QueryType::kMpe, ToleranceKind::kRelative, 0.01}};
constexpr std::uint64_t kSyntheticSeed = 42;
constexpr std::size_t kSimulated = 8;  ///< evidence sets run through each generated netlist

struct Design {
  std::string name;  ///< short name used in metric names
  ac::Circuit circuit;
  std::vector<ac::PartialAssignment> evidence;  ///< for the hardware simulation check
};

/// The circuits are fixed (kModelSeed); the seed of the run draws only the
/// evidence of the hardware check.
std::vector<Design> build_designs(std::uint64_t seed, Tracer& tracer) {
  std::vector<Design> out;
  Rng pick(seed ^ 0x16161616ULL);
  {
    Scoped span(tracer, "datasets.build");
    const auto add = [&](const char* name, datasets::Benchmark b) {
      Design d{name, std::move(b.circuit), {}};
      const int rows = static_cast<int>(b.test_evidence.size());
      for (std::size_t i = 0; i < kSimulated; ++i) {
        const auto row = static_cast<std::size_t>(pick.uniform_int(0, rows - 1));
        d.evidence.push_back(compile::to_assignment(b.test_evidence[row]));
      }
      out.push_back(std::move(d));
    };
    add("har", datasets::make_har_benchmark(kModelSeed));
    add("unimib", datasets::make_unimib_benchmark(kModelSeed));
    add("uiwads", datasets::make_uiwads_benchmark(kModelSeed));
    add("alarm", datasets::make_alarm_benchmark(kModelSeed, 64));
  }
  Rng rng(kSyntheticSeed);
  bn::RandomNetworkSpec spec;
  spec.num_variables = 28;
  spec.max_parents = 3;
  spec.edge_probability = 0.25;
  const bn::BayesianNetwork network = [&] {
    Scoped span(tracer, "datasets.build");
    return bn::make_random_network(spec, rng);
  }();
  Design synth{"synth16k",
               [&] {
                 Scoped span(tracer, "compile.ve");
                 return compile::compile_network(network);
               }(),
               {}};
  for (std::size_t i = 0; i < kSimulated; ++i) {
    ac::PartialAssignment a(static_cast<std::size_t>(network.num_variables()));
    for (int v = 0; v < network.num_variables(); ++v) {
      if (pick.coin(0.4)) {
        a[static_cast<std::size_t>(v)] = pick.uniform_int(0, network.cardinality(v) - 1);
      }
    }
    synth.evidence.push_back(std::move(a));
  }
  out.push_back(std::move(synth));
  return out;
}

/// What one circuit's design produced.
struct Produced {
  std::shared_ptr<const runtime::CompiledModel> model;
  AnalysisReport report;  ///< the marginal abs report the hardware was generated for
  std::optional<HardwareReport> hardware;
  double hw_ms[3] = {0, 0, 0};  ///< netlist, Verilog, energy (traced runs only)
};

/// One circuit through the flow.  Untraced runs call generate_hardware;
/// traced runs call the entry points it composes, one span each.
Produced design(const Design& d, Tracer& tracer, int parent) {
  Produced p;
  {
    Scoped span(tracer, "runtime.compile", parent);
    p.model = runtime::CompiledModel::compile(d.circuit);
  }
  if (tracer.enabled()) {
    Scoped span(tracer, "errormodel.build", parent);
    for (QueryType q : {QueryType::kMarginal, QueryType::kMpe}) p.model->error_model(q);
  }
  {
    Scoped span(tracer, "runtime.analyze", parent);
    for (const QuerySpec& spec : kSpecs) {
      const AnalysisReport report = p.model->analyze(spec);
      if (&spec == &kSpecs.front()) p.report = report;
    }
  }
  require(p.report.any_feasible, "design_flow: no feasible representation for " + d.name);
  if (!tracer.enabled()) {
    p.hardware = p.model->generate_hardware(p.report);
    return p;
  }
  const ac::Circuit& binary = p.model->binary_circuit();
  const FrameworkOptions& fo = p.model->options();
  const Representation& sel = p.report.selected;
  const bool fixed = sel.kind == Representation::Kind::kFixed;
  const auto t0 = Clock::now();
  hw::Netlist netlist = hw::generate_netlist(binary);
  const hw::NetlistStats stats = netlist.stats();
  const auto t1 = Clock::now();
  hw::VerilogOptions vopts;
  vopts.rounding = analysis_rounding(*p.model, sel);
  std::string verilog = fixed ? hw::emit_fixed_verilog(netlist, sel.fixed, vopts)
                              : hw::emit_float_verilog(netlist, sel.flt, vopts);
  const auto t2 = Clock::now();
  const hw::NetlistEnergyBreakdown e =
      fixed ? hw::fixed_netlist_energy(netlist, sel.fixed, fo.netlist_energy)
            : hw::float_netlist_energy(netlist, sel.flt, fo.netlist_energy);
  const auto t3 = Clock::now();
  p.hardware = HardwareReport{std::move(netlist), stats, std::move(verilog),
                              energy::fj_to_nj(e.total_fj())};
  tracer.record("hw.netlist", t0, t1, parent);
  tracer.record("hw.verilog", t1, t2, parent);
  tracer.record("hw.energy", t2, t3, parent);
  p.hw_ms[0] = ms_between(t0, t1);
  p.hw_ms[1] = ms_between(t1, t2);
  p.hw_ms[2] = ms_between(t2, t3);
  return p;
}

std::size_t count(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

/// The emitted Verilog instantiates one module per operator and one flop
/// per operator output and alignment register, as NetlistStats counts them.
void check_verilog(const Design& d, const Produced& p, Outcome& out) {
  const hw::NetlistStats& s = p.hardware->stats;
  const std::size_t operators = s.adders + s.multipliers + s.maxes;
  out.check(!p.hardware->verilog.empty(), "design_flow: empty Verilog for " + d.name);
  out.check(count(p.hardware->verilog, "always @(posedge clk)") ==
                operators + s.alignment_registers,
            "design_flow: Verilog flop count differs from NetlistStats for " + d.name);
  out.check(count(p.hardware->verilog, "(.a(w") == operators,
            "design_flow: Verilog operator instances differ from NetlistStats for " + d.name);
}

/// Observed error / analytic bound of the generated datapath, simulated
/// cycle by cycle on the design's evidence against exact double.
double hardware_error(const Design& d, const Produced& p) {
  const Representation& sel = p.report.selected;
  const lowprec::RoundingMode mode = analysis_rounding(*p.model, sel);
  std::vector<double> hw_values;
  if (sel.kind == Representation::Kind::kFixed) {
    hw::FixedNetlistSimulator sim(p.hardware->netlist, sel.fixed, mode);
    hw_values = sim.evaluate_stream(d.evidence);
  } else {
    hw::FloatNetlistSimulator sim(p.hardware->netlist, sel.flt, mode);
    hw_values = sim.evaluate_stream(d.evidence);
  }
  runtime::InferenceSession exact(p.model);
  const std::vector<double>& ref = exact.marginal(d.evidence);
  double worst = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    worst = std::max(worst, spec_error(kHardwareSpec.kind, hw_values[i], ref[i]));
  }
  return worst / selected_bound(p.report);
}

}  // namespace

Outcome run_design_flow(const RunOptions& options) {
  Outcome out;
  Tracer tracer(options.trace);
  Tracer untraced(false);

  // ---- set-up, repeated: the four datasets and the synthetic network ----------
  std::vector<Design> designs;
  const std::vector<double> setup_s = repeat_setup(
      [&] { designs = build_designs(options.seed, tracer); }, [&] { designs.clear(); });

  // ---- design passes until the time is up ---------------------------------------
  struct Phase {
    double seconds = 0.0;
    Tally tally;
    std::vector<double> pass_us;
    std::vector<Produced> last;  ///< the final pass's products, per design
    double hw_ms[2][3] = {};     ///< [paper four, synthetic][netlist, Verilog, energy]
  };
  const auto phase = [&](double seconds, Tracer& t) {
    Phase p;
    const auto start = Clock::now();
    while (seconds_since(start) < seconds) {
      const auto pass_start = Clock::now();
      p.last.clear();
      for (const Design& d : designs) {
        ++p.tally.attempted;
        const int root = t.begin("runtime.design", -1, p.tally.attempted);
        try {
          p.last.push_back(design(d, t, root));
          for (int k = 0; k < 3; ++k) p.hw_ms[d.name == "synth16k"][k] += p.last.back().hw_ms[k];
        } catch (const std::exception& e) {
          ++p.tally.failed;
          out.check(false, std::string("design_flow: ") + e.what());
        }
        t.end(root);
      }
      p.pass_us.push_back(us_between(pass_start, Clock::now()));
    }
    p.seconds = seconds_since(start);
    return p;
  };

  Phase main = phase(options.trace ? options.seconds / 2.0 : options.seconds, untraced);
  Phase traced;
  if (options.trace) traced = phase(options.seconds / 2.0, tracer);

  // ---- checks ---------------------------------------------------------------------
  double err = 0.0;
  for (const Phase* p : {&main, &traced}) {
    if (p->last.size() != designs.size()) continue;
    for (std::size_t i = 0; i < designs.size(); ++i) {
      check_verilog(designs[i], p->last[i], out);
      err = std::max(err, hardware_error(designs[i], p->last[i]));
    }
  }
  out.check(err <= 1.0,
            str_format("design_flow: generated hardware error %.3g x the analytic bound", err));

  // ---- metrics --------------------------------------------------------------------
  out.tally = main.tally;
  out.tally.attempted += traced.tally.attempted;
  out.tally.failed += traced.tally.failed;
  const Summary lat = summarize(main.pass_us);
  const double qps = static_cast<double>(main.tally.attempted - main.tally.failed) / main.seconds;
  out.setup_time(setup_s);
  out.e2e("qps", qps, "1/s");
  out.e2e("p50_us", lat.p50, "us");
  out.e2e("p99_us", lat.tail, "us");
  out.e2e("ok_frac", main.tally.ok_frac(), "fraction");
  out.e2e("normal_tier_frac", 1.0, "fraction");
  out.note("err_over_bound", json_number(err));
  out.note_summary("pass_us", lat);
  out.note("design_s", json_number(lat.p50 * 1e-6));
  out.note("fail_frac", json_number(1.0 - main.tally.ok_frac()));
  std::string formats = "{";
  for (std::size_t i = 0; i < main.last.size(); ++i) {
    formats += (i == 0 ? "" : ",") + json_string(designs[i].name) + ":" +
               json_string(main.last[i].report.selected.to_string());
  }
  out.note("hardware_formats", formats + "}");

  if (options.trace) {
    // Set-up here is datasets.build and compile.ve; runtime.compile and
    // runtime.analyze run inside the design passes and are reported per pass.
    const double reps = static_cast<double>(setup_s.size());
    const double passes = static_cast<double>(traced.pass_us.size());
    out.layer("datasets.build_ms", tracer.total_ms("datasets.build") / reps, "ms");
    out.layer("compile.ve_ms", tracer.total_ms("compile.ve") / reps, "ms");
    out.layer("runtime.compile_ms", tracer.total_ms("runtime.compile") / passes, "ms");
    out.layer("runtime.analyze_ms", tracer.total_ms("runtime.analyze") / passes, "ms");
    out.layer("errormodel.build_ms", tracer.total_ms("errormodel.build") / passes, "ms");
    // hw stage times per pass: the paper's four circuits together, and the
    // synthetic circuit on its own.
    const char* stages[3] = {"hw.netlist_ms", "hw.verilog_ms", "hw.energy_ms"};
    for (int k = 0; k < 3; ++k) {
      out.layer(stages[k], traced.hw_ms[0][k] / passes, "ms");
      out.layer(std::string(stages[k]) + ".synth16k", traced.hw_ms[1][k] / passes, "ms");
    }
    for (std::size_t i = 0; i < traced.last.size(); ++i) {
      const Design& d = designs[i];
      const Produced& p = traced.last[i];
      const HardwareReport& hw = *p.hardware;
      out.layer("hw.cells." + d.name, static_cast<double>(hw.netlist.num_cells()), "count");
      out.layer("hw.verilog_bytes." + d.name, static_cast<double>(hw.verilog.size()), "bytes");
    }
    const double traced_ok = static_cast<double>(traced.tally.attempted - traced.tally.failed);
    out.layer("trace.qps_delta", traced_ok / traced.seconds - qps, "1/s");
    out.layer("trace.p50_us_delta", summarize(traced.pass_us).p50 - lat.p50, "us");
  }
  finish_trace(options, tracer, out);
  return out;
}

}  // namespace perfbench
