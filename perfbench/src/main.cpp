// micbench: run one MIC benchmark workload and print its metrics.
//
//   micbench --workload NAME --seed N --seconds S --trace 0|1
//            [--out-dir DIR] [--revision REV]
//
// Prints the configuration stamp, one line per metric with its unit, the
// simulated outcome counts, and as the last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones
// and writes the spans to DIR/trace-<workload>-<seed>.json.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "micbench: %s\nusage: micbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--revision REV]\n",
               why);
  return 2;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_metrics(const std::vector<perfbench::Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("%-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  return usage("refusing to measure a non-optimised build");
#endif
  // The thread-tier CI exports these; each changes what is measured.
  for (const char* var : {"MIC_SIM_SHARDS", "MIC_SIM_THREADS",
                          "MIC_SIM_PARALLEL", "MIC_PATH_WARMUP_THREADS"}) {
    const char* value = std::getenv(var);
    if (value != nullptr && *value != '\0') {
      std::fprintf(stderr, "micbench: refusing to run with %s=%s set\n", var,
                   value);
      return 2;
    }
  }

  perfbench::RunOptions opts;
  std::string workload_name, revision = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0' && *value != '\0';
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && opts.seconds > 0;
    } else if (arg == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      opts.trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--out-dir") {
      opts.out_dir = value;
    } else if (arg == "--revision") {
      revision = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  const perfbench::Workload* workload = nullptr;
  for (const auto& w : perfbench::workloads()) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr) {
    return usage(("unknown workload " + workload_name).c_str());
  }

  std::printf("# workload %s: %s\n", workload->name, workload->why);
  std::printf(
      "# config {\"revision\":\"%s\",\"build_type\":\"%s\","
      "\"hardware_concurrency\":%u,\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
      "\"fat_tree_k\":8,\"sim_shards\":1,\"sim_threads\":1,"
      "\"sim_parallel\":false}\n",
      revision.c_str(), PERFBENCH_BUILD_TYPE,
      std::thread::hardware_concurrency(),
      static_cast<unsigned long long>(opts.seed), opts.seconds,
      opts.trace ? 1 : 0);
  std::fflush(stdout);

  perfbench::Tracer tracer;
  tracer.set_enabled(opts.trace);
  perfbench::WorkloadResult result = workload->run(opts, tracer);

  const std::string stem = opts.out_dir + "/" + workload->name + "-" +
                           std::to_string(opts.seed);
  for (const auto& mismatch :
       perfbench::check_outcomes(stem + ".outcomes", result.outcomes)) {
    result.fail_check("simulated outcome differs from an earlier run: " +
                      mismatch);
  }
  if (opts.trace) {
    const std::string path = opts.out_dir + "/trace-" + workload->name + "-" +
                             std::to_string(opts.seed) + ".json";
    if (!tracer.write_chrome_trace(path)) {
      result.fail_check("cannot write " + path);
    } else {
      std::printf("# trace: %s (%zu spans stored, %llu beyond the cap)\n",
                  path.c_str(), tracer.spans().size(),
                  static_cast<unsigned long long>(tracer.dropped()));
    }
  }

  const auto& reported = opts.trace ? result.per_layer : result.end_to_end;
  for (const auto& m : reported) {
    if (!std::isfinite(m.value)) result.fail_check(m.name + " is not finite");
  }
  for (const auto& line : result.report) std::printf("%s\n", line.c_str());
  std::printf("fail_ratio = %.6f (%llu of %llu operations failed or shed)\n",
              result.attempted == 0
                  ? 0.0
                  : static_cast<double>(result.failed) /
                        static_cast<double>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  for (const auto& [key, value] : result.outcomes) {
    std::printf("outcome %s = %llu\n", key.c_str(),
                static_cast<unsigned long long>(value));
  }
  std::printf("-- end-to-end metrics\n");
  print_metrics(result.end_to_end);
  if (opts.trace) {
    std::printf("-- per-layer metrics\n");
    print_metrics(result.per_layer);
  }

  std::string json = "{\"correct\": " +
                     std::string(result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    const auto& m = reported[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            json_number(std::isfinite(m.value) ? m.value : 0) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
