// Shared helpers for the repository benchmark: arguments, order
// statistics, output digests, the metric sink that prints the final JSON
// line, the host-noise probe and process resource readings.
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks every workload (request counts, lengths, encoder shape) so
  /// the benchmark's own tests can run all four in seconds.
  bool tiny = false;
  /// Worker threads for the timed passes (the schedule in virtual time
  /// is identical for any value; the tests compare 1 and 2).
  size_t threads = 2;
};

/// Where the traced run writes its span files, under the working
/// directory (run.py runs from the repository root).
inline constexpr const char* kTraceDir = ".bench_build/traces";

/// Parses `--workload --seed --seconds --trace [--tiny] [--threads]`;
/// throws std::invalid_argument on anything else.
Args parse_args(int argc, char** argv);

/// Independent sub-seed for one input kind (weights, trace, memories...)
/// so one --seed drives every generated input.
uint64_t derive_seed(uint64_t seed, uint64_t tag);

double median(std::vector<double> v);
/// Linear-interpolated percentile (p in [0, 100]) for host samples.
double percentile(std::vector<double> v, double p);
/// Nearest-rank percentile for integer virtual-time samples: always one
/// of the samples, so it repeats bit for bit.
double nearest_rank(std::vector<double> v, double p);

/// FNV-1a over raw bytes, chained through `h`.
uint64_t fnv1a(const void* data, size_t bytes,
               uint64_t h = 1469598103934665603ull);

/// Resident-set high-water mark of this process in MiB.
double peak_rss_mib();

/// Fixed-work integer loop that calls nothing in libprotea; its wall
/// time shows how contended the host was. Returns milliseconds.
double host_noise_probe_ms();

/// Machine-wide CPU time counters from /proc/stat (zeros if unreadable).
struct HostCpuTimes {
  uint64_t total = 0, steal = 0;
};
HostCpuTimes host_cpu_times();
/// Share of all CPU time between two readings that the hypervisor stole.
double steal_share(const HostCpuTimes& before, const HostCpuTimes& after);

/// Collects the metrics of one run and prints them: one human-readable
/// line each as they are added, then the final JSON object.
class MetricSink {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  /// A named metric that does not apply to this workload: reported as 0
  /// with the reason printed beside it.
  void not_applicable(const std::string& name, const std::string& unit,
                      const std::string& why);
  /// Prints `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
  void print_json(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench
