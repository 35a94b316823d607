// perfbench — the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>] [--source-sha1 <hash>] [--git-sha <sha>]
//   perfbench --self-test
//
// Prints a report line (host, build, seed, and every figure behind the
// metrics with its sample count and percentile), then, as the last line, the result
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.  Any failed
// check prints the failures to stderr and exits 1 without a result.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <uiwads_serve|alarm_stream|design_flow>"
               " --seed <n> --seconds <s> --trace <0|1>\n"
               "                 [--workdir <dir>] [--source-sha1 <hash>] [--git-sha <sha>]\n"
               "       perfbench --self-test\n");
  return 2;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") {
      const int failed = self_test();
      std::fprintf(stderr, "perfbench self-test: %s\n", failed == 0 ? "ok" : "FAILED");
      return failed == 0 ? 0 : 1;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--workdir" && has_value) {
      options.workdir = argv[++i];
    } else if (arg == "--source-sha1" && has_value) {
      options.source_sha1 = argv[++i];
    } else if (arg == "--git-sha" && has_value) {
      options.git_sha = argv[++i];
    } else {
      return usage();
    }
  }
  if (!(options.seconds > 0.0)) return usage();

  Outcome (*run)(const RunOptions&) = nullptr;
  if (options.workload == "uiwads_serve") run = run_uiwads_serve;
  if (options.workload == "alarm_stream") run = run_alarm_stream;
  if (options.workload == "design_flow") run = run_design_flow;
  if (run == nullptr) return usage();

  Outcome outcome;
  try {
    std::filesystem::create_directories(options.workdir);
    outcome = run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
    return 1;
  }
  if (outcome.tally.attempted == 0) outcome.failures.push_back("no work was attempted");
  if (!outcome.failures.empty()) {
    for (const std::string& f : outcome.failures) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
    }
    return 1;
  }

  std::string report = "{\"host\": " + host_json(options);
  for (const auto& [key, json] : outcome.report) report += ", " + json_string(key) + ": " + json;
  std::printf("%s}\n", report.c_str());

  fill_unused_layers(outcome);
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              static_cast<unsigned long long>(outcome.tally.attempted),
              static_cast<unsigned long long>(outcome.tally.failed),
              metrics_json(options.trace ? outcome.per_layer : outcome.end_to_end).c_str());
  return 0;
}
