#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "ac/simd_sweep.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

/// 1-based nearest rank of quantile q among n samples (0 when n == 0).
std::size_t rank_of(double q, std::size_t n) {
  return static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
}

}  // namespace

double nearest_rank(const std::vector<double>& sorted, double q) {
  const std::size_t rank = std::max<std::size_t>(1, rank_of(q, sorted.size()));
  return sorted[std::min(rank, sorted.size()) - 1];
}

int tail_percentile(std::size_t n) {
  for (int p = 99; p >= 1; --p) {
    const std::size_t rank = rank_of(p / 100.0, n);
    if (rank >= 1 && n - rank >= 10) return p;
  }
  return 0;
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = nearest_rank(samples, 0.5);
  s.tail_pct = tail_percentile(samples.size());
  s.tail = s.tail_pct == 0 ? samples.back() : nearest_rank(samples, s.tail_pct / 100.0);
  return s;
}

Summary windowed(const std::vector<double>& samples, int windows) {
  const auto w = static_cast<std::size_t>(windows);
  if (w < 2 || samples.size() < 11 * w) return summarize(samples);
  Summary out;
  out.n = samples.size();
  out.tail_pct = 99;
  std::vector<double> p50, tail;
  for (std::size_t k = 0; k < w; ++k) {
    const auto first = samples.begin() + static_cast<long>(samples.size() * k / w);
    const auto last = samples.begin() + static_cast<long>(samples.size() * (k + 1) / w);
    const Summary s = summarize(std::vector<double>(first, last));
    out.tail_pct = std::min(out.tail_pct, s.tail_pct);
    p50.push_back(s.p50);
    tail.push_back(s.tail);
  }
  std::sort(p50.begin(), p50.end());
  std::sort(tail.begin(), tail.end());
  out.p50 = nearest_rank(p50, 0.1);
  out.tail = nearest_rank(tail, 0.1);
  return out;
}

double best_window_rate(std::vector<double> window_rates) {
  if (window_rates.empty()) return 0.0;
  std::sort(window_rates.begin(), window_rates.end());
  return nearest_rank(window_rates, 0.9);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// ---- tracing ----------------------------------------------------------------

int Tracer::record(const char* name, Clock::time_point start, Clock::time_point end, int parent,
                   std::uint64_t request) {
  if (!enabled_) return -1;
  spans_.push_back({name, start, end, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

int Tracer::begin(const char* name, int parent, std::uint64_t request) {
  const auto now = Clock::now();
  return record(name, now, now, parent, request);
}

void Tracer::end(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end = Clock::now();
}

double Tracer::total_ms(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) total += ms_between(s.start, s.end);
  }
  return total;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  // Children grouped by parent; a span's self time is its duration minus
  // the union of its children's intervals clipped to it.
  std::vector<std::vector<int>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const int parent = spans_[i].parent;
    if (parent >= 0) children[static_cast<std::size_t>(parent)].push_back(static_cast<int>(i));
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
    for (int c : children[i]) {
      const Span& k = spans_[static_cast<std::size_t>(c)];
      const auto a = std::max(k.start, s.start);
      const auto b = std::min(k.end, s.end);
      if (a < b) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    Clock::time_point reach = s.start;
    for (const auto& [a, b] : cover) {
      const auto from = std::max(a, reach);
      if (b > from) {
        covered += ms_between(from, b);
        reach = b;
      }
    }
    const char* dot = std::strchr(s.name, '.');
    const std::string layer = dot == nullptr ? s.name : std::string(s.name, dot);
    out[layer] += std::max(0.0, ms_between(s.start, s.end) - covered);
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  for (const Span& s : spans_) {
    os << "{\"name\":\"" << s.name << "\",\"start_us\":" << us_between(origin_, s.start)
       << ",\"end_us\":" << us_between(origin_, s.end) << ",\"parent\":" << s.parent
       << ",\"request\":" << s.request << "}\n";
  }
}

// ---- result -------------------------------------------------------------------

void Outcome::note_summary(const std::string& key, const Summary& s) {
  note(key, "{\"n\":" + std::to_string(s.n) + ",\"p50\":" + json_number(s.p50) +
                ",\"tail_pct\":" + std::to_string(s.tail_pct) + ",\"tail\":" +
                json_number(s.tail) + "}");
}

const std::vector<Metric>& per_layer_metrics() {
  static const std::vector<Metric> metrics = [] {
    std::vector<Metric> m;
    const auto add = [&](std::string name, const char* unit) {
      m.push_back({std::move(name), 0.0, unit});
    };
    for (const char* n : {"serve.submit_us_p50", "serve.submit_us_p99", "serve.queue_wait_us_p50",
                          "serve.queue_wait_us_p99", "serve.service_us_p50",
                          "serve.service_us_p99"}) {
      add(n, "us");
    }
    add("serve.batch_mean", "count");
    for (const char* n : {"serve.flush_size_frac", "serve.shed_frac", "serve.timeout_frac",
                          "serve.degraded_frac"}) {
      add(n, "fraction");
    }
    add("loadgen.lag_p99_us", "us");
    for (const char* n : {"runtime.compile_ms", "runtime.analyze_ms", "runtime.save_ms",
                          "runtime.load_ms"}) {
      add(n, "ms");
    }
    for (const char* q : {"marginal", "conditional"}) {
      add(std::string("session.single_us_p50.") + q, "us");
      add(std::string("session.single_us_p99.") + q, "us");
    }
    add("session.escalated_frac", "fraction");
    for (const char* n : {"ac.interpreter_us", "ac.tape_us", "ac.single_lowprec_us"}) add(n, "us");
    for (const char* n : {"ac.batch_exact_ms", "ac.batch_lowprec_ms", "errormodel.build_ms",
                          "hw.netlist_ms", "hw.verilog_ms", "hw.energy_ms",
                          "hw.netlist_ms.synth16k", "hw.verilog_ms.synth16k",
                          "hw.energy_ms.synth16k", "datasets.build_ms", "compile.ve_ms"}) {
      add(n, "ms");
    }
    for (const char* c : {"har", "unimib", "uiwads", "alarm", "synth16k"}) {
      add(std::string("hw.cells.") + c, "count");
      add(std::string("hw.verilog_bytes.") + c, "bytes");
    }
    for (const char* layer : {"datasets", "compile", "runtime", "errormodel", "hw", "session",
                              "ac", "serve", "loadgen"}) {
      add(std::string("self_ms.") + layer, "ms");
    }
    add("trace.qps_delta", "1/s");
    add("trace.p50_us_delta", "us");
    add("trace.spans", "count");
    return m;
  }();
  return metrics;
}

void fill_unused_layers(Outcome& outcome) {
  std::vector<Metric> ordered = per_layer_metrics();
  for (Metric& m : ordered) {
    for (const Metric& have : outcome.per_layer) {
      if (have.name == m.name) m.value = have.value;
    }
  }
  outcome.per_layer = std::move(ordered);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) != 0 &&
      regs[0] >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof regs);
    brand = brand.c_str();  // stop at the first NUL
    const auto first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}

}  // namespace

std::string host_json(const RunOptions& options) {
  const auto level = problp::ac::simd::dispatch_level();
  return "{\"cpu\":" + json_string(cpu_model()) +
         ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"simd\":" + json_string(problp::ac::simd::level_name(level)) +
         ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
         ",\"source_sha1\":" + json_string(options.source_sha1) +
         ",\"git_sha\":" + json_string(options.git_sha) +
         ",\"workload\":" + json_string(options.workload) +
         ",\"seed\":" + std::to_string(options.seed) +
         ",\"seconds\":" + json_number(options.seconds) + "}";
}

// ---- self-tests -------------------------------------------------------------

int self_test() {
  int failed = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-test failed: %s\n", what);
      ++failed;
    }
  };
  // The tail percentile keeps at least ten samples beyond it.
  expect(tail_percentile(1000) == 99, "1000 samples give p99");
  expect(tail_percentile(999) == 98, "999 samples give p98 (p99 has 9 beyond)");
  expect(tail_percentile(100) == 90, "100 samples give p90");
  expect(tail_percentile(20) == 50, "20 samples give p50");
  expect(tail_percentile(10) == 0, "10 samples give no percentile");
  for (std::size_t n = 11; n <= 3000; ++n) {
    const int p = tail_percentile(n);
    const std::size_t rank = rank_of(p / 100.0, n);
    const std::size_t next = rank_of((p + 1) / 100.0, n);
    if (p < 1 || n - rank < 10 || (p < 99 && n - next >= 10)) {
      expect(false, "tail percentile is the highest with ten samples beyond");
      break;
    }
  }
  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(i);
  std::vector<double> shuffled(ramp.rbegin(), ramp.rend());
  const Summary s = summarize(shuffled);
  expect(s.n == 1000 && s.p50 == 500.0 && s.tail_pct == 99 && s.tail == 990.0,
         "summary of 1..1000 is n=1000, p50=500, p99=990");
  const Summary few = summarize({3.0, 1.0, 2.0});
  expect(few.n == 3 && few.p50 == 2.0 && few.tail_pct == 0 && few.tail == 3.0,
         "too few samples report the maximum at percentile 0");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5 && median({5.0}) == 5.0, "median of a set");
  // Windows: a stall confined to one window leaves the result unchanged.
  std::vector<double> chunks;
  for (int k = 0; k < 10; ++k) {
    for (int i = 1; i <= 100; ++i) chunks.push_back(k == 3 ? 1000.0 * i : i);
  }
  const Summary win = windowed(chunks, 10);
  expect(win.n == 1000 && win.p50 == 50.0 && win.tail_pct == 90 && win.tail == 90.0,
         "windowed summary ignores one stalled window");
  std::vector<double> slowed = chunks;
  for (std::size_t i = 0; i < 1000; ++i) slowed[i] *= 2.0;
  const Summary all = windowed(slowed, 10);
  expect(all.p50 == 100.0 && all.tail == 180.0, "a slowdown in every window shows");
  std::vector<double> rates;
  for (int i = 20; i >= 1; --i) rates.push_back(i);
  expect(best_window_rate(rates) == 18.0 && best_window_rate({}) == 0.0,
         "best window rate is the upper decile");
  const Summary fallback = windowed(ramp, 100);
  expect(fallback.n == 1000 && fallback.p50 == 500.0 && fallback.tail_pct == 99,
         "windows too small for a tail fall back to one summary");
  // Failures count against the attempted total.
  Tally t;
  t.attempted = 200;
  t.failed = 50;
  expect(t.ok_frac() == 0.75, "ok_frac = (attempted - failed) / attempted");
  expect(Tally{}.ok_frac() == 0.0, "nothing attempted is not a success");
  // Per-layer names are unique, and every one is printed, measured or not.
  std::vector<std::string> names;
  for (const Metric& m : per_layer_metrics()) names.push_back(m.name);
  std::sort(names.begin(), names.end());
  expect(std::adjacent_find(names.begin(), names.end()) == names.end(), "unique metric names");
  Outcome o;
  o.layer("hw.cells.har", 7.0, "count");
  fill_unused_layers(o);
  expect(o.per_layer.size() == per_layer_metrics().size() && o.per_layer[0].value == 0.0,
         "every per-layer metric printed");
  bool kept = false;
  for (const Metric& m : o.per_layer) kept = kept || (m.name == "hw.cells.har" && m.value == 7.0);
  expect(kept, "a measured per-layer metric keeps its value");
  // Self time subtracts the union of child intervals.
  Tracer tr(true);
  const auto t0 = Clock::now();
  const auto at = [&](int us) { return t0 + std::chrono::microseconds(us); };
  const int root = tr.record("serve.request", at(0), at(100));
  tr.record("loadgen.lag", at(0), at(10), root);
  tr.record("serve.queue_wait", at(10), at(60), root);
  tr.record("serve.service", at(50), at(90), root);
  const auto self = tr.self_ms_by_layer();
  expect(std::abs(self.at("loadgen") - 0.010) < 1e-9, "leaf self time is its duration");
  expect(std::abs(self.at("serve") - (0.010 + 0.050 + 0.040)) < 1e-9,
         "overlapping children are covered once");
  return failed;
}

}  // namespace perfbench
