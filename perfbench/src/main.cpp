// perfbench: the mempart repository benchmark harness.
//
//   perfbench --workload serve-hot|batch-cold|sim-1080p --seed N
//             --seconds S --trace 0|1 [--tiny] [--commit ID] [--workdir DIR]
//
// Normally launched through perfbench/run.py, which builds it first. See
// README.md in this directory for the workloads and metrics.
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "common.h"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload serve-hot|batch-cold|sim-1080p "
               "--seed N --seconds S --trace 0|1 [--tiny] [--commit ID] "
               "[--workdir DIR]\n";
  std::exit(2);
}

perfbench::Args parse_args(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--commit") {
        args.commit = value;
      } else if (flag == "--workdir") {
        args.workdir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse_args(argc, argv);
  // Timings from an unoptimised or assertion-enabled build are not the
  // program's numbers; refuse them rather than report them.
#ifndef NDEBUG
  const bool asserts_on = true;
#else
  const bool asserts_on = false;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0 || asserts_on) {
    std::cerr << "perfbench: refusing to measure a non-Release build ("
              << PERFBENCH_BUILD_TYPE << ")\n";
    return 2;
  }
  perfbench::print_fingerprint(args);
  perfbench::Result result;
  int status = 0;
  try {
    if (args.workload == "serve-hot") {
      status = perfbench::run_serve_hot(args, result);
    } else if (args.workload == "batch-cold") {
      status = perfbench::run_batch_cold(args, result);
    } else if (args.workload == "sim-1080p") {
      status = perfbench::run_sim_1080p(args, result);
    } else {
      usage("unknown workload " + args.workload);
    }
    perfbench::print_result(args, result);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << ": " << e.what() << '\n';
    return 1;
  }
  if (status != 0) return status;
  return result.correct && result.failed == 0 ? 0 : 1;
}
