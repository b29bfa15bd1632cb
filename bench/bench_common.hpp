// Shared helpers for the table/figure regeneration binaries.
#pragma once

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "accel/perf_model.hpp"
#include "ref/model_config.hpp"
#include "util/csv.hpp"
#include "util/stopwatch.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace protea::bench {

/// Median of timing samples — medians shrug off the scheduler hiccups
/// that corrupt a mean. Samples are util::Stopwatch readings, so every
/// bench stamp shares the telemetry layer's clock (util::monotonic_ns).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Median wall time of `reps` invocations of `fn`, in milliseconds, on
/// the shared monotonic clock.
template <typename Fn>
double median_time_ms(int reps, const Fn& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps > 0 ? reps : 0));
  util::Stopwatch watch;
  for (int i = 0; i < reps; ++i) {
    watch.reset();
    fn();
    samples.push_back(watch.milliseconds());
  }
  return median(std::move(samples));
}

/// The paper's GOPS columns use a more generous operation-counting
/// convention than ops_total(): across the Table I rows the ratio
/// paper_ops / ops_total() is 1.309-1.354, mean 1.337 (see README.md,
/// "Calibration notes").
/// Applied only in the columns that quote the paper's convention.
inline constexpr double kPaperOpsFactor = 1.338;

/// The paper additionally keeps the *layer count* of the GOPS numerator
/// fixed at the 12-layer baseline when sweeping N (Tests 4-5 report 80 and
/// 159 GOPS = 14.8 GOP / measured latency). This helper reproduces that
/// convention: ops of the model with N forced to 12, scaled by the factor.
inline double paper_convention_gops(const ref::ModelConfig& model,
                                    double latency_ms) {
  ref::ModelConfig numerator = model;
  numerator.num_layers = 12;
  return static_cast<double>(numerator.ops_total()) * kPaperOpsFactor /
         (latency_ms * 1e-3) / 1e9;
}

/// Directory for CSV artifacts (created on demand).
inline std::string results_dir() {
  const std::string dir = "bench_results";
  std::filesystem::create_directories(dir);
  return dir;
}

/// One measurement in the shared BENCH_*.json schema. Every bench binary
/// emits through write_bench_records so all artifacts have the same
/// machine-readable shape:
///   {"bench": <binary>,
///    "schema": ["name", "metric", "value", "unit"],
///    "results": [{"name": ..., "metric": ..., "value": ..., "unit": ...}]}
/// `name` identifies the measured configuration (kernel + shape +
/// threads), `metric` what was measured, `unit` the value's unit. A
/// record that sets `kernel_body` gains that field, and the schema lists
/// it.
struct BenchRecord {
  std::string name;
  std::string metric;
  double value = 0.0;
  std::string unit;
  /// The int8 micro-kernel body that produced the value
  /// (tensor::qgemm_kernel_body()); written only when set.
  std::string kernel_body = {};
};

/// Writes the unified bench artifact to results_dir()/<filename>.
/// Returns false when the file can't be opened.
inline bool write_bench_records(const std::string& filename,
                                const std::string& bench,
                                const std::vector<BenchRecord>& records) {
  const std::string path = results_dir() + "/" + filename;
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const bool bodies = std::any_of(
      records.begin(), records.end(),
      [](const BenchRecord& r) { return !r.kernel_body.empty(); });
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n", bench.c_str());
  std::fprintf(f,
               "  \"schema\": [\"name\", \"metric\", \"value\", "
               "\"unit\"%s],\n",
               bodies ? ", \"kernel_body\"" : "");
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    const std::string body =
        r.kernel_body.empty()
            ? ""
            : ", \"kernel_body\": \"" + r.kernel_body + "\"";
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"metric\": \"%s\", "
                 "\"value\": %.6g, \"unit\": \"%s\"%s}%s\n",
                 r.name.c_str(), r.metric.c_str(), r.value, r.unit.c_str(),
                 body.c_str(), i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

inline std::string fmt(double value, int digits = 2) {
  return util::format_double(value, digits);
}

}  // namespace protea::bench
