// uiwads_serve — the UIWADS activity classifier behind serve::Server.
//
// Requests are Pr(class | sensor evidence), served in the format the
// analysis selects for conditional abs 0.01 with fallback to exact, on 2
// worker shards.  Overload handling is armed: degrade_p99 (the degraded
// tier is the analysis selection at a looser tolerance), shed_depth, and a
// deadline on every request.  Engine work per request is tiny, so serve's
// submit, queue, batcher and completion path dominates.
//
// Two phases, each run as ten slices of half a second (at --seconds 10),
// alternating capacity, steady, capacity, ...:
//   capacity  one closed-loop client keeping a fixed window of requests in
//             flight; gives qps.
//   steady    one generator thread sending a seeded Poisson schedule (drawn
//             before timing) at a fixed rate of about 30% of capacity; each
//             request is timed from its due time, and the generator's lag
//             behind the schedule is reported.  Gives p50_us / p99_us.
// Counting the server's batcher and two workers, the workload runs four
// threads.
//
// Every steady request's completion fills in the same record (due, sent,
// submit, queue wait, service, done) whether or not the run is traced, and
// a traced run assembles its serve.* spans from those records after
// shutdown.  Tracing adds no work to either phase here, so a traced run
// measures the same phases once and reports no tracing overhead.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <thread>

#include "compile/ve_compiler.hpp"
#include "datasets/benchmark_suite.hpp"
#include "runtime/model_registry.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace problp;
using errormodel::QuerySpec;
using errormodel::QueryType;
using errormodel::ToleranceKind;

const QuerySpec kSpec{QueryType::kConditional, ToleranceKind::kAbsolute, 0.01};
const QuerySpec kDegradedSpec{QueryType::kConditional, ToleranceKind::kAbsolute, 0.1};
/// Offered rate of the steady phase, requests/s: about 30% of the capacity
/// phase's qps (360k-660k/s on a 4-vCPU AVX-512 virtual machine, depending
/// on the load other tenants put on the host), low enough that the tail
/// stays steady through those capacity dips.
constexpr double kSteadyRate = 150000.0;
constexpr int kWorkers = 2;
constexpr std::size_t kWindow = 256;  ///< capacity phase: requests in flight
/// Every request carries a deadline, far above any latency the server shows
/// while it keeps up (p99 is a few hundred microseconds), so it bounds a stuck
/// request rather than shaping the tail: a host stall of tens of
/// milliseconds must not turn answers into failures in one run and not in
/// the next.
constexpr auto kRequestTimeout = std::chrono::seconds(1);
constexpr std::uint64_t kReplayEvery = 997;  ///< every n-th steady request is replayed
constexpr std::uint64_t kSpanEvery = 64;  ///< traced runs: spans of every n-th steady request
/// The run alternates the two phases this many times; the steady latency
/// summary is windowed over as many windows.
constexpr int kRounds = 10;
constexpr int kCapacityWindows = 2;  ///< qps windows per capacity slice

serve::ServerOptions server_options(const runtime::CompiledModel& model,
                                    const AnalysisReport& report,
                                    const AnalysisReport& degraded) {
  serve::ServerOptions o;
  // The shed threshold lies above the number of requests one steady slice
  // sends (about 75k at --seconds 10), so shedding stays armed but no
  // stall within a slice can reach it; a capacity-phase client never has
  // more than kWindow requests queued.
  o.capacity = std::size_t{1} << 17;
  // At the steady rate a batch fills in about 0.2 ms, well inside the flush
  // deadline, so batches are cut by size and the deadline only bounds
  // stragglers: p50 does not sit on the edge between the two.
  o.batch_max = 32;
  o.flush_deadline = std::chrono::milliseconds(1);
  o.workers = kWorkers;
  o.session = selected_with_fallback(model, report);
  o.base_error_bound = selected_bound(report);
  o.overload.degraded = serve::DegradedTier::from_report(model, degraded);
  o.overload.degrade_p99 = std::chrono::milliseconds(5);
  o.overload.shed_depth = o.capacity * 3 / 4;
  return o;
}

struct Served {
  std::shared_ptr<const runtime::CompiledModel> model;
  AnalysisReport report;
  AnalysisReport degraded;
  std::unique_ptr<serve::Server> server;
};

/// Largest observed error / bound over low-precision answers, shared by the
/// completion callbacks of both worker shards.
struct ErrorMax {
  std::atomic<double> value{0.0};
  void update(double v) {
    double cur = value.load(std::memory_order_relaxed);
    while (v > cur && !value.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
};

/// Error / bound of one answer (0 for exact answers, which carry no bound).
double answer_error(const serve::Response& r, const std::vector<double>& exact) {
  if (!r.ok() || !r.served_format || !r.error_bound) return 0.0;
  if (r.posterior.size() != exact.size()) return INFINITY;  // definedness differs
  double worst = 0.0;
  for (std::size_t k = 0; k < exact.size(); ++k) {
    worst = std::max(worst, spec_error(ToleranceKind::kAbsolute, r.posterior[k], exact[k]));
  }
  return worst / *r.error_bound;
}

/// What one steady-phase request's completion recorded.  Written by exactly
/// one completion callback, read after shutdown() has joined the server.
struct Slot {
  float due_to_done_us = 0.0f;
  float queue_us = 0.0f;
  float service_us = 0.0f;
  float err = 0.0f;
  Clock::time_point done{};
  std::uint8_t status = 0xff;
  std::uint8_t tier = 0;
  std::uint8_t escalated = 0;
};

struct Steady {
  std::vector<double> due_s;           ///< Poisson schedule, seconds from phase start
  std::vector<std::uint32_t> request;  ///< pool index per request
  std::vector<Slot> slots;
  std::vector<float> lag_us;
  std::vector<float> submit_us;
  std::vector<Clock::time_point> sent;
  std::vector<std::vector<double>> replay;  ///< posteriors of every kReplayEvery-th request
  double seconds = 0.0;  ///< how long sending the whole schedule took
};

/// Batcher counters over the steady slices.
struct BatchCounts {
  std::uint64_t batches = 0;
  std::uint64_t evaluated = 0;
  std::uint64_t by_size = 0;
  std::uint64_t by_deadline = 0;
  void add(const serve::StatsSnapshot& a, const serve::StatsSnapshot& b) {
    batches += b.batches_evaluated - a.batches_evaluated;
    evaluated += (b.completed_ok + b.errors) - (a.completed_ok + a.errors);
    by_size += b.flushes_by_size - a.flushes_by_size;
    by_deadline += b.flushes_by_deadline - a.flushes_by_deadline;
  }
};

struct Capacity {
  Tally tally;
  std::uint64_t degraded = 0;
  std::vector<double> window_qps;  ///< ok answers/s per measurement window

  /// The rate the server sustains: the upper decile of the windows.
  /// Interference from the rest of the machine only ever lowers a window,
  /// and the windows of one run fall into a fast and a slow mode (thread
  /// placement), so the median jumps between modes while the best windows
  /// stay put.
  double sustained_qps() const { return best_window_rate(window_qps); }
};

/// Latency from due time of the ok answers, in schedule order.
std::vector<double> ok_latencies(const Steady& st) {
  std::vector<double> out;
  for (std::size_t i = 0; i < st.due_s.size(); ++i) {
    if (st.slots[i].status == static_cast<std::uint8_t>(serve::Status::kOk)) {
      out.push_back(st.slots[i].due_to_done_us);
    }
  }
  return out;
}

Served set_up(const RunOptions& options, const datasets::Benchmark& uiwads, Tracer& tracer) {
  Served s;
  {
    Scoped span(tracer, "runtime.compile");
    s.model = runtime::CompiledModel::compile(uiwads.circuit);
  }
  {
    Scoped span(tracer, "runtime.analyze");
    s.report = s.model->analyze(kSpec);
    s.degraded = s.model->analyze(kDegradedSpec);
  }
  const std::string path = artifact_path(options, "uiwads");
  {
    Scoped span(tracer, "runtime.save");
    s.model->save(path);
  }
  runtime::ModelRegistry registry;
  {
    Scoped span(tracer, "runtime.load");
    s.model = registry.get(path);
  }
  Scoped span(tracer, "serve.construct");
  s.server =
      std::make_unique<serve::Server>(s.model, server_options(*s.model, s.report, s.degraded));
  return s;
}

/// Worker sessions build their engines on their first batch, and enough
/// batches follow for the queues and allocator to settle.  Not part of
/// setup_s: its time is that of 128 batches handed between three threads,
/// which follows whether the host has three vCPUs free at that moment
/// (6 ms or 9 ms on a 4-vCPU virtual machine) more than the program's work.
void warm_up(serve::Server& server, const datasets::Benchmark& uiwads,
             const std::vector<ac::PartialAssignment>& pool) {
  std::vector<std::future<serve::Response>> warm;
  for (std::size_t i = 0; i < 4096; ++i) {
    serve::Request r;
    r.query = QueryType::kConditional;
    r.query_var = uiwads.query_var;
    r.evidence = pool[i % pool.size()];
    warm.push_back(server.submit(std::move(r)));
  }
  for (auto& f : warm) f.get();
}

}  // namespace

Outcome run_uiwads_serve(const RunOptions& options) {
  Outcome out;
  Tracer tracer(options.trace);

  // ---- inputs (seeded, before any timing) ------------------------------------
  const datasets::Benchmark uiwads = datasets::make_uiwads_benchmark(kModelSeed);
  const std::vector<ac::PartialAssignment> pool = sample_readings(uiwads, 2048, options.seed);
  Rng rng(options.seed ^ 0x5e7e5e7eULL);
  const std::vector<std::uint32_t> order = seeded_order(rng, pool.size());

  const double capacity_s = 0.5 * options.seconds;
  const double steady_s = 0.5 * options.seconds;
  Steady steady;
  {
    std::exponential_distribution<double> gap(kSteadyRate);
    for (double t = gap(rng.engine()); t < steady_s; t += gap(rng.engine())) {
      steady.due_s.push_back(t);
      steady.request.push_back(order[steady.due_s.size() % order.size()]);
    }
    const std::size_t n = steady.due_s.size();
    steady.slots = std::vector<Slot>(n);
    steady.lag_us.resize(n);
    steady.submit_us.resize(n);
    steady.sent.resize(n);
    steady.replay.resize(n / kReplayEvery + 1);
  }

  // ---- set-up, repeated ---------------------------------------------------------
  Served served;
  const std::vector<double> setup_s = repeat_setup(
      [&] { served = set_up(options, uiwads, tracer); },
      [&] {
        served = Served{};
        std::filesystem::remove(artifact_path(options, "uiwads"));
      });
  serve::Server& server = *served.server;
  warm_up(server, uiwads, pool);
  const serve::DegradedTier degraded_tier = *server.options().overload.degraded;

  std::vector<std::vector<double>> exact;
  {
    runtime::InferenceSession session(served.model);
    exact = session.conditional(uiwads.query_var, pool);
  }
  ErrorMax err;
  const auto make_request = [&](std::uint32_t idx) {
    serve::Request r;
    r.query = QueryType::kConditional;
    r.query_var = uiwads.query_var;
    r.evidence = pool[idx];
    r.timeout = kRequestTimeout;
    return r;
  };

  // ---- capacity: one closed-loop client with a fixed window -------------------
  std::size_t cursor = 0;
  Capacity capacity;
  const auto capacity_slice = [&](double seconds) {
    struct Shared {
      std::atomic<std::uint64_t> outstanding{0};
      std::atomic<std::uint64_t> ok{0};
      std::atomic<std::uint64_t> degraded{0};
    } shared;
    std::uint64_t attempted = 0;
    auto window_start = Clock::now();
    std::uint64_t window_ok = 0;
    const auto close_window = [&] {
      const auto now = Clock::now();
      const std::uint64_t ok = shared.ok.load(std::memory_order_relaxed);
      capacity.window_qps.push_back(static_cast<double>(ok - window_ok) /
                                    std::chrono::duration<double>(now - window_start).count());
      window_start = now;
      window_ok = ok;
    };
    // The slice is exactly its windows, each at least seconds/kCapacityWindows long.
    for (int closed = 0; closed < kCapacityWindows;) {
      while (shared.outstanding.load(std::memory_order_acquire) >= kWindow) {
        std::this_thread::yield();
      }
      if (seconds_since(window_start) >= seconds / kCapacityWindows) {
        close_window();
        ++closed;
        continue;
      }
      const std::uint32_t idx = order[cursor++ % order.size()];
      shared.outstanding.fetch_add(1, std::memory_order_relaxed);
      ++attempted;
      server.submit(make_request(idx), [&shared, &err, &exact, idx](serve::Response r) {
        if (r.ok()) {
          shared.ok.fetch_add(1, std::memory_order_relaxed);
          if (r.tier == serve::Tier::kDegraded) {
            shared.degraded.fetch_add(1, std::memory_order_relaxed);
          }
          err.update(answer_error(r, exact[idx]));
        }
        shared.outstanding.fetch_sub(1, std::memory_order_release);
      });
    }
    while (shared.outstanding.load(std::memory_order_acquire) > 0) std::this_thread::yield();
    capacity.tally.attempted += attempted;
    capacity.tally.failed += attempted - shared.ok.load();
    capacity.degraded += shared.degraded.load();
  };

  // ---- steady: the open-loop Poisson schedule, sent slice by slice ------------
  std::atomic<std::uint64_t> steady_completed{0};
  std::size_t next = 0;  ///< first request of the schedule not yet sent
  const auto steady_slice = [&](double from_s, double to_s) {
    Steady& st = steady;
    const auto start = Clock::now();
    for (; next < st.due_s.size() && st.due_s[next] < to_s; ++next) {
      const std::size_t i = next;
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(st.due_s[i] - from_s));
      Clock::time_point now = Clock::now();
      while (now < due) now = Clock::now();  // spin: gaps are a few microseconds
      st.sent[i] = now;
      st.lag_us[i] = static_cast<float>(us_between(due, now));
      const std::uint32_t idx = st.request[i];
      server.submit(make_request(idx), [&st, &exact, &steady_completed, i, idx,
                                        due](serve::Response r) {
        const auto end = Clock::now();
        Slot& slot = st.slots[i];
        slot.done = end;
        slot.due_to_done_us = static_cast<float>(us_between(due, end));
        slot.queue_us = static_cast<float>(
            std::chrono::duration<double, std::micro>(r.queue_wait).count());
        slot.service_us = static_cast<float>(
            std::chrono::duration<double, std::micro>(r.latency - r.queue_wait).count());
        slot.status = static_cast<std::uint8_t>(r.status);
        slot.tier = static_cast<std::uint8_t>(r.tier);
        slot.escalated = r.escalations > 0;
        slot.err = static_cast<float>(answer_error(r, exact[idx]));
        if (i % kReplayEvery == 0) st.replay[i / kReplayEvery] = r.posterior;
        steady_completed.fetch_add(1, std::memory_order_release);
      });
      st.submit_us[i] = static_cast<float>(us_between(now, Clock::now()));
    }
    st.seconds += seconds_since(start);
    while (steady_completed.load(std::memory_order_acquire) < next) std::this_thread::yield();
  };

  // ---- the run: rounds of a capacity slice, then a steady slice ---------------
  // Interleaved, both phases sample the whole run: a stretch of seconds in
  // which other tenants slow the host covers part of either phase's windows,
  // not one phase outright.  Each slice drains before the next begins.
  const serve::StatsSnapshot before = server.stats();
  BatchCounts steady_batches;
  for (int round = 0; round < kRounds; ++round) {
    capacity_slice(capacity_s / kRounds);
    const serve::StatsSnapshot from = server.stats();
    steady_slice(steady_s * round / kRounds, steady_s * (round + 1) / kRounds);
    steady_batches.add(from, server.stats());
  }
  server.shutdown(true);
  const serve::StatsSnapshot after = server.stats();

  // ---- checks ---------------------------------------------------------------------
  const std::uint64_t submitted = capacity.tally.attempted + steady.due_s.size();
  out.check(after.submitted - before.submitted == submitted,
            "uiwads_serve: the server counted a different number of submissions");
  out.check(after.submitted == after.total_completed() && after.double_completions == 0,
            str_format("uiwads_serve: accounting identity broken (submitted %llu, completed %llu, "
                       "double %llu)",
                       static_cast<unsigned long long>(after.submitted),
                       static_cast<unsigned long long>(after.total_completed()),
                       static_cast<unsigned long long>(after.double_completions)));
  std::vector<ServedSample> samples;
  const std::vector<runtime::SessionOptions> configs = {
      server.options().session,
      runtime::SessionOptions::low_precision(degraded_tier.repr, degraded_tier.rounding)};
  double worst = err.value.load();
  Tally steady_tally;
  std::uint64_t degraded = capacity.degraded;
  for (std::size_t i = 0; i < steady.due_s.size(); ++i) {
    const Slot& slot = steady.slots[i];
    const bool ok = slot.status == static_cast<std::uint8_t>(serve::Status::kOk);
    const bool on_degraded = slot.tier == static_cast<std::uint8_t>(serve::Tier::kDegraded);
    ++steady_tally.attempted;
    steady_tally.failed += ok ? 0 : 1;
    degraded += ok && on_degraded;
    worst = std::max(worst, static_cast<double>(slot.err));
    if (ok && i % kReplayEvery == 0) {
      samples.push_back({QueryType::kConditional, uiwads.query_var, &pool[steady.request[i]],
                         on_degraded ? 1u : 0u, 0.0, steady.replay[i / kReplayEvery]});
    }
  }
  check_replay(served.model, configs, samples, out);
  out.check(worst <= 1.0,
            str_format("uiwads_serve: observed error %.3g x the analytic bound", worst));

  // ---- metrics --------------------------------------------------------------------
  out.tally.attempted = capacity.tally.attempted + steady_tally.attempted;
  out.tally.failed = capacity.tally.failed + steady_tally.failed;
  const double capacity_qps = capacity.sustained_qps();
  const Summary lat = windowed(ok_latencies(steady), kRounds);
  const double ok_answers = static_cast<double>(out.tally.attempted - out.tally.failed);
  out.setup_time(setup_s);
  out.e2e("qps", capacity_qps, "1/s");
  out.e2e("p50_us", lat.p50, "us");
  out.e2e("p99_us", lat.tail, "us");
  out.note("capacity_window_qps", "[" + [&] {
    std::string s;
    for (double q : capacity.window_qps) s += (s.empty() ? "" : ",") + json_number(q);
    return s;
  }() + "]");
  out.e2e("ok_frac", out.tally.ok_frac(), "fraction");
  out.e2e("normal_tier_frac", 1.0 - static_cast<double>(degraded) / ok_answers, "fraction");
  out.note("err_over_bound", json_number(worst));
  out.note_summary("steady_latency_us", lat);
  out.note("steady_rate", json_number(kSteadyRate));
  out.note("steady_sent", std::to_string(steady.due_s.size()));
  out.note("steady_offered_over_s", json_number(steady.seconds));
  out.note("format", json_string(served.report.selected.to_string()));
  out.note("degraded_format", json_string(served.degraded.selected.to_string()));
  out.note("fail_frac", json_number(1.0 - out.tally.ok_frac()));
  out.note("degraded_frac", json_number(static_cast<double>(degraded) / ok_answers));
  {
    std::vector<double> lag(steady.lag_us.begin(), steady.lag_us.end());
    out.note_summary("loadgen_lag_us", summarize(lag));
  }

  if (options.trace) {
    const Steady& st = steady;
    std::vector<double> submit_us, queue_us, service_us, lag_us;
    std::uint64_t ok = 0, shed = 0, timeout = 0, deg = 0, escalated = 0;
    for (std::size_t i = 0; i < st.due_s.size(); ++i) {
      const Slot& slot = st.slots[i];
      submit_us.push_back(st.submit_us[i]);
      lag_us.push_back(st.lag_us[i]);
      const auto status = static_cast<serve::Status>(slot.status);
      shed += status == serve::Status::kRejectedOverload ||
              status == serve::Status::kRejectedQueueFull;
      timeout += status == serve::Status::kTimeout;
      if (status != serve::Status::kOk) continue;
      ++ok;
      deg += slot.tier == static_cast<std::uint8_t>(serve::Tier::kDegraded);
      escalated += slot.escalated;
      queue_us.push_back(slot.queue_us);
      service_us.push_back(slot.service_us);
      if (i % kSpanEvery == 0) {
        const auto due = st.sent[i] - std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double, std::micro>(st.lag_us[i]));
        const auto at = [&](double us) {
          return st.sent[i] + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double, std::micro>(us));
        };
        const int root = tracer.record("serve.request", due, slot.done, -1, i);
        tracer.record("loadgen.lag", due, st.sent[i], root, i);
        tracer.record("serve.submit", st.sent[i], at(st.submit_us[i]), root, i);
        tracer.record("serve.queue_wait", st.sent[i], at(slot.queue_us), root, i);
        tracer.record("serve.service", at(slot.queue_us), at(slot.queue_us + slot.service_us),
                      root, i);
      }
    }
    const Summary submit = summarize(submit_us);
    const Summary queue = summarize(queue_us);
    const Summary service = summarize(service_us);
    const double n = static_cast<double>(st.due_s.size());
    report_setup_layers(tracer, setup_s.size(), out);
    out.layer("serve.submit_us_p50", submit.p50, "us");
    out.layer("serve.submit_us_p99", submit.tail, "us");
    out.layer("serve.queue_wait_us_p50", queue.p50, "us");
    out.layer("serve.queue_wait_us_p99", queue.tail, "us");
    out.layer("serve.service_us_p50", service.p50, "us");
    out.layer("serve.service_us_p99", service.tail, "us");
    const BatchCounts& c = steady_batches;
    out.layer("serve.batch_mean",
              c.batches == 0 ? 0.0 : static_cast<double>(c.evaluated) / c.batches, "count");
    const std::uint64_t flushes = c.by_size + c.by_deadline;
    out.layer("serve.flush_size_frac",
              flushes == 0 ? 0.0 : static_cast<double>(c.by_size) / flushes, "fraction");
    out.layer("serve.shed_frac", static_cast<double>(shed) / n, "fraction");
    out.layer("serve.timeout_frac", static_cast<double>(timeout) / n, "fraction");
    out.layer("serve.degraded_frac", ok == 0 ? 0.0 : static_cast<double>(deg) / ok, "fraction");
    out.layer("session.escalated_frac", ok == 0 ? 0.0 : static_cast<double>(escalated) / ok,
              "fraction");
    out.layer("loadgen.lag_p99_us", summarize(lag_us).tail, "us");
    std::vector<ac::PartialAssignment> sample;
    for (std::size_t i = 0; i < 256; ++i) sample.push_back(pool[order[i]]);
    replay_ac_ladder(*served.model, served.report.selected,
                     analysis_rounding(*served.model, served.report.selected), sample, tracer,
                     out);
  }
  finish_trace(options, tracer, out);
  return out;
}

}  // namespace perfbench
