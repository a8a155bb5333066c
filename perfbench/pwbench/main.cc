// pwbench: runs one workload of the end-to-end benchmark in this process and
// prints a human-readable report followed by one JSON line with every
// end-to-end and per-layer metric. perfbench/run.py builds and drives it.
//
//   pwbench --workload <serve_snapshot|view_maintenance|decide_hard>
//           --seed <n> --seconds <s> --trace <0|1>
//           [--inject-wrong <request index>] [--span-file <path>]
//
// Exit status: 0 when every answer matched its oracle, 1 on a mismatch,
// 2 on bad arguments or a pinned environment variable that is set.

#include <cstdlib>
#include <iostream>
#include <string>

#include "pwbench/common.h"
#include "pwbench/workloads.h"

namespace {

int Usage(const std::string& why) {
  std::cerr << "pwbench: " << why << "\n"
            << "usage: pwbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--inject-wrong <i>] [--span-file <path>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Both variables change which code the measured calls run (the condition
  // backend behind kDefault; certificate checking in the SAT core), so a
  // run under either would not measure the library defaults.
  for (const char* pinned : {"PW_CONDITION_BACKEND", "PW_CHECK_CERTIFICATES"}) {
    if (std::getenv(pinned) != nullptr) {
      return Usage(std::string(pinned) + " is set; unset it to benchmark");
    }
  }
  pwbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        config.workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        config.trace = value == "1";
      } else if (flag == "--inject-wrong") {
        config.inject_wrong = std::stoll(value);
      } else if (flag == "--span-file") {
        config.span_file = value;
      } else {
        return Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return Usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(config.seconds > 0 && config.seconds <= 600)) {
    return Usage("--seconds must be in (0, 600]");
  }

  pwbench::WorkloadResult result;
  if (config.workload == "serve_snapshot") {
    result = pwbench::RunServeSnapshot(config);
  } else if (config.workload == "view_maintenance") {
    result = pwbench::RunViewMaintenance(config);
  } else if (config.workload == "decide_hard") {
    result = pwbench::RunDecideHard(config);
  } else {
    return Usage("unknown workload '" + config.workload + "'");
  }

  auto e2e = pwbench::EndToEndMetrics(result);
  auto layer = pwbench::PerLayerMetrics(result);
  pwbench::PrintReport(config, result, e2e, layer);
  if (config.trace && !config.span_file.empty() &&
      !pwbench::WriteSpans(config.span_file, result.spans)) {
    std::cerr << "pwbench: cannot write " << config.span_file << "\n";
  }
  std::cout << pwbench::ResultJson(result, e2e, layer) << std::endl;
  return result.check.failed() == 0 && result.check.attempted > 0 ? 0 : 1;
}
