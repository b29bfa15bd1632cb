// The benchmark's two modes: the timed run prints the end-to-end metrics
// and the traced run the per-layer ones. Both return the process exit
// code (non-zero on any output mismatch).
#pragma once

#include "bench_util.hpp"

namespace perfbench {

int run_timed(const Args& args);
int run_traced(const Args& args);

}  // namespace perfbench
