#include "bench_util.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace perfbench {

Args parse_args(int argc, char** argv) {
  Args a;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      throw std::invalid_argument(std::string("missing value for ") + argv[i]);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--workload") {
      a.workload = value(i);
    } else if (key == "--seed") {
      a.seed = std::stoull(value(i));
    } else if (key == "--seconds") {
      a.seconds = std::stod(value(i));
    } else if (key == "--trace") {
      a.trace = std::stoi(value(i)) != 0;
    } else if (key == "--tiny") {
      a.tiny = true;
    } else if (key == "--threads") {
      a.threads = std::stoul(value(i));
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload missing");
  if (a.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  if (a.threads == 0 || a.threads > 2) {
    throw std::invalid_argument("--threads must be 1 or 2");
  }
  return a;
}

uint64_t derive_seed(uint64_t seed, uint64_t tag) {
  // splitmix64 over (seed, tag): distinct tags give unrelated streams.
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + tag * 0xD1B54A32D192ED03ull +
               0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double nearest_rank(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

uint64_t fnv1a(const void* data, size_t bytes, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double host_noise_probe_ms() {
  const auto start = std::chrono::steady_clock::now();
  uint64_t x = 0x243F6A8885A308D3ull;
  for (uint32_t i = 0; i < 40'000'000u; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const auto stop = std::chrono::steady_clock::now();
  // Keep the chain observable so the loop cannot be folded away.
  if (x == 0) std::printf("noise probe degenerate\n");
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

HostCpuTimes host_cpu_times() {
  HostCpuTimes t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  // cpu user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

double steal_share(const HostCpuTimes& before, const HostCpuTimes& after) {
  const uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

void MetricSink::add(const std::string& name, double value,
                     const std::string& unit, const std::string& note) {
  entries_.push_back({name, value, unit});
  std::printf("  %-40s %16.6f %-8s%s%s\n", name.c_str(), value, unit.c_str(),
              note.empty() ? "" : "  ", note.c_str());
}

void MetricSink::not_applicable(const std::string& name,
                                const std::string& unit,
                                const std::string& why) {
  add(name, 0.0, unit, "n/a: " + why);
}

void MetricSink::print_json(bool correct, uint64_t attempted,
                            uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    // %.17g keeps every digit a double carries.
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
