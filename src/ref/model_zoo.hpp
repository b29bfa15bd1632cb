// Named model configurations used throughout the evaluation.
//
// `bert_variant()` is the paper's primary workload (Table I, Test #1):
// d_model=768, h=8, N=12, SL=64 — "a variant of BERT" sized to the U55C.
// The remaining entries model the workloads of the cited comparison points
// in Tables II/III; the cited papers do not publish full hyperparameters,
// so shapes are chosen to reproduce the ProTEA-side latencies the paper
// reports for those rows (see README.md, "Calibration notes").
#pragma once

#include <string_view>
#include <vector>

#include "ref/model_config.hpp"

namespace protea::ref {

/// Paper Table I baseline: BERT variant, d=768, h=8, N=12, SL=64.
ModelConfig bert_variant();

/// Workload matching the comparison row vs Peng et al. [21]
/// (column-balanced block pruning; ProTEA latency 4.48 ms).
ModelConfig model_peng21();

/// Workload matching Wojcicki et al. [23] (LHC trigger-scale tiny
/// transformer; ProTEA latency 0.425 ms).
ModelConfig model_wojcicki23();

/// Workload matching EFA-Trans [25] (ZCU102; ProTEA latency 5.18 ms).
ModelConfig model_efa_trans25();

/// Workload matching Qi et al. [28] (compression co-design; ProTEA
/// latency 9.12 ms).
ModelConfig model_qi28();

/// All Table I runtime-programmability test rows (Tests 1..9) expressed as
/// configs derived from bert_variant().
std::vector<ModelConfig> table1_tests();

/// Looks up any named config above ("bert", "peng21", ...); throws
/// std::invalid_argument for unknown names.
ModelConfig find_model(std::string_view name);

/// Names of all registered zoo entries.
std::vector<std::string> model_names();

}  // namespace protea::ref
