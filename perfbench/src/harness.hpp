// Shared plumbing of the repository benchmark: run options, the statistics
// every workload reports with, in-memory span tracing, the correctness
// ledger, and the result line.
//
// Statistics.  A timing is reported as its median and as the highest whole
// percentile (at most the 99th) that still has at least ten samples beyond
// it; the percentile used and the sample count travel with the value, so a
// "p99" taken from 200 samples reads as the p95 it really is.
//
// Tracing.  Spans are recorded around calls into the program's public API,
// from benchmark code only; nothing inside src/ is instrumented.  A span has
// a name ("<layer>.<what>"), start, end, parent span and request id; spans
// are kept in memory and written out when the run ends.  A layer's self
// time is the summed duration of its spans minus the parts their child
// spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";  ///< scratch directory for artifacts and the trace file
  std::string source_sha1 = "unknown";  ///< content hash of the sources under test
  std::string git_sha = "none";         ///< commit, when run from a git work tree
};

// ---- statistics -------------------------------------------------------------

/// Nearest-rank quantile of `sorted` (ascending, non-empty): the smallest
/// sample with at least a share `q` of the samples at or below it.
double nearest_rank(const std::vector<double>& sorted, double q);

/// Highest whole percentile p <= 99 whose nearest-rank sample still has at
/// least ten samples beyond it; 0 when there are too few samples for any.
int tail_percentile(std::size_t n);

struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  int tail_pct = 0;   ///< percentile the tail value was taken at
  double tail = 0.0;  ///< value at tail_pct (the maximum when tail_pct == 0)
};
Summary summarize(std::vector<double> samples);

/// Cuts `samples` (in arrival order) into `windows` consecutive chunks of
/// equal count and returns the best decile (lower decile, nearest rank: the
/// best chunk of ten) of the chunks' p50s and of their tails; n is the
/// total count and tail_pct the lowest chunk percentile.  Other tenants of
/// a shared machine only ever raise a chunk's figures, in bursts that can
/// cover most of a run: on a 4-vCPU virtual machine 0.5-9% of alarm_stream
/// readings ran ~500 us slow, from run to run of the same seed, while in
/// the quietest chunk p99 sat 3% above p50.  A change that slows even a
/// small share of requests raises every chunk, the quietest included.  Too
/// few samples for a tail in every chunk: summarize() instead.
Summary windowed(const std::vector<double>& samples, int windows = 10);

/// The rate counterpart of windowed(): the upper decile (nearest rank) of
/// per-window rates, 0 when there are none.
double best_window_rate(std::vector<double> window_rates);

/// Median of a small set of repeated measurements (set-up times, phases).
double median(std::vector<double> values);

/// Failures counted against the number attempted, never against successes.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double ok_frac() const {
    return attempted == 0 ? 0.0 : static_cast<double>(attempted - failed) /
                                      static_cast<double>(attempted);
  }
};

// ---- tracing ----------------------------------------------------------------

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id (or -1 when disabled).
  int record(const char* name, Clock::time_point start, Clock::time_point end, int parent = -1,
             std::uint64_t request = 0);
  /// Opens a span that end() closes; returns -1 when disabled.
  int begin(const char* name, int parent = -1, std::uint64_t request = 0);
  void end(int id);

  std::size_t size() const { return spans_.size(); }
  /// Summed span duration, in ms, of every span named `name`.
  double total_ms(const std::string& name) const;
  /// Self time in ms per layer (the span name up to its first '.').
  std::map<std::string, double> self_ms_by_layer() const;
  /// One JSON object per line: name, start_us, end_us, parent, request.
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;
    std::uint64_t request;
  };
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span; a no-op on a disabled tracer.
class Scoped {
 public:
  Scoped(Tracer& tracer, const char* name, int parent = -1)
      : tracer_(tracer), id_(tracer.begin(name, parent)) {}
  ~Scoped() { tracer_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// ---- the result -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports.  Checks fail closed: a run with any failed
/// check prints no metrics.
struct Outcome {
  std::vector<std::string> failures;
  Tally tally;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Extra "key": <raw JSON> fields of the report line printed before the
  /// result (the figures behind the metrics, sample counts, formats, rates).
  std::vector<std::pair<std::string, std::string>> report;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void note(const std::string& key, const std::string& json) { report.emplace_back(key, json); }
  /// Reports a timing summary under `key` with its percentile and count.
  void note_summary(const std::string& key, const Summary& s);
  /// setup_s: the median of the set-up repetitions, with their summary noted.
  void setup_time(const std::vector<double>& seconds) {
    e2e("setup_s", median(seconds), "s");
    note_summary("setup_s", summarize(seconds));
  }
};

/// Every per-layer metric with its unit (value 0), in BENCHMARK.json order.
const std::vector<Metric>& per_layer_metrics();

/// Puts the per-layer metrics in BENCHMARK.json order, reporting 0 for each
/// one the workload did not measure (its layer is not used there: the
/// prediction for it is "no change").
void fill_unused_layers(Outcome& outcome);

/// Host and build fingerprint as a JSON object.
std::string host_json(const RunOptions& options);

std::string json_string(const std::string& s);
std::string json_number(double v);

/// Runs the benchmark's own statistics self-tests; returns the number of
/// failed assertions (messages go to stderr).
int self_test();

}  // namespace perfbench
