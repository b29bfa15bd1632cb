// protea_perfbench: the repository benchmark's program.
//
//   protea_perfbench --workload <decode_steady|prefill_shared|overload_fp4|
//                    encoder_batch> --seed <n> --seconds <s> --trace <0|1>
//                    [--tiny] [--threads <1|2>]
//
// --trace 0 runs the timed passes and prints the end-to-end metrics;
// --trace 1 runs the traced, stepped replay and prints the per-layer
// metrics. Either way the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
#include <cstdio>
#include <exception>

#include "modes.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    if (!perfbench::is_serving_workload(args.workload) &&
        args.workload != "encoder_batch") {
      std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
      return 2;
    }
    return args.trace ? perfbench::run_traced(args)
                      : perfbench::run_timed(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "protea_perfbench: %s\n", e.what());
    return 2;
  }
}
