// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--trace-out <file.json>]
//
// Runs one workload and prints, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}:
// the end-to-end metrics with --trace 0, the per-layer breakdown with
// --trace 1. Exits 1 when a correctness check fails, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "perfbench.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <cifar_1x4|cifar_2x2_store|"
               "mlp_4x1_wide|des_160> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file.json>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  long long seed = -1;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoll(value, &end, 10);
      if (*end != '\0' || seed < 0) return usage("--seed must be a non-negative integer");
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0' || !(seconds > 0 && seconds <= 600)) {
        return usage("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("--trace must be 0 or 1");
      }
      trace = value[0] - '0';
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (workload.empty() || seed < 0 || seconds <= 0 || trace < 0) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  perfbench::clear_scaffe_environment();

  perfbench::RunResult result;
  try {
    result = perfbench::run_workload(workload, static_cast<std::uint64_t>(seed), seconds,
                                     trace == 1, trace == 1 ? trace_out : std::string());
  } catch (const std::invalid_argument& error) {
    return usage(error.what());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              result.correct ? "true" : "false", result.attempted, result.failed);
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& metric = result.metrics[i];
    double value = metric.value;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: %s is not finite; reported as 0\n",
                   metric.name.c_str());
      value = 0;
    }
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metric.name.c_str(), value, metric.unit.c_str());
  }
  std::printf("}}\n");
  return result.correct ? 0 : 1;
}
