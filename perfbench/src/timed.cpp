// Timed run (--trace 0): the end-to-end metrics of one workload.
//
// Set-up is repeated and its median reported; an untimed warm-up pass
// fixes the expected output digest and SchedulerStats; then whole passes
// run until --seconds have been measured. Host-time metrics are medians
// over those passes (or percentiles over all their samples); virtual-time
// and modeled metrics come from the schedule, which every pass repeats
// exactly. The output check runs once, outside the timed passes.
#include <cstdio>
#include <memory>

#include "accel/batch_pipeline.hpp"
#include "accel/perf_model.hpp"
#include "bench_util.hpp"
#include "modes.hpp"
#include "util/stopwatch.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

// Set-up runs at least kMinSetups times and until kSetupSeconds have
// passed (at most kMaxSetups), so quick set-ups get more samples.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 9;
constexpr double kSetupSeconds = 1.0;
constexpr size_t kMinPasses = 3;

template <typename Make>
auto timed_setup(Make make, std::vector<double>& samples) {
  decltype(make()) built;
  double total = 0.0;
  while (samples.size() < kMinSetups ||
         (total < kSetupSeconds && samples.size() < kMaxSetups)) {
    built.reset();  // never hold two instances at once
    const protea::util::Stopwatch watch;
    built = make();
    samples.push_back(watch.seconds());
    total += samples.back();
  }
  return built;
}

void print_outcomes(const Outcomes& o) {
  std::printf(
      "requests per pass: sent %llu, completed %llu (late %llu), shed %llu, "
      "cancelled %llu, failed %llu\n",
      static_cast<unsigned long long>(o.sent),
      static_cast<unsigned long long>(o.completed + o.late),
      static_cast<unsigned long long>(o.late),
      static_cast<unsigned long long>(o.shed),
      static_cast<unsigned long long>(o.cancelled),
      static_cast<unsigned long long>(o.failed));
}

void print_passes(const std::vector<double>& rates) {
  std::printf("passes: %zu, tok/s per pass:", rates.size());
  for (const double r : rates) std::printf(" %.1f", r);
  std::printf("\n");
}

int timed_serving(const Args& args) {
  const double noise_before = host_noise_probe_ms();
  std::vector<double> setup;
  auto w = timed_setup(
      [&] {
        return std::make_unique<ServingWorkload>(args.workload, args.seed,
                                                 args.tiny);
      },
      setup);

  const ServingPass first = w->run_pass(args.threads);  // untimed warm-up
  const Outcomes o = w->outcomes(first);
  uint64_t failed = 0, attempted = 0;

  std::vector<double> rates, itl;
  double measured = 0.0;
  size_t diverged = 0;
  const HostCpuTimes cpu_before = host_cpu_times();
  while (measured < args.seconds || rates.size() < kMinPasses) {
    const ServingPass p = w->run_pass(args.threads);
    measured += p.wall_s;
    rates.push_back(static_cast<double>(p.tokens) / p.wall_s);
    itl.insert(itl.end(), p.itl_ms.begin(), p.itl_ms.end());
    attempted += o.sent;
    // A pass that departs from the warm-up fails every request in it.
    const bool same =
        p.digest == first.digest && p.stats_key == first.stats_key;
    diverged += same ? 0 : 1;
    failed += same ? o.failed : o.sent;
  }
  const double steal = steal_share(cpu_before, host_cpu_times());
  const double noise_after = host_noise_probe_ms();

  uint64_t checked = 0;
  const uint64_t mismatches = w->check_against_solo(first, &checked);
  failed += mismatches;

  std::vector<double> rounds;
  for (const pr::TrafficResult& r : first.results) {
    if (finished(r.outcome)) rounds.push_back(r.latency_rounds);
  }
  const pr::SchedulerStats& st = first.stats;
  const auto preempted = st.total(&pr::TrafficClassStats::preemptions);

  std::printf("workload %s, seed %llu, %zu worker thread(s)\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.threads);
  print_outcomes(o);
  print_passes(rates);
  std::printf("passes identical to the warm-up (digest + SchedulerStats): "
              "%zu of %zu\n",
              rates.size() - diverged, rates.size());
  std::printf("output check: %llu of %llu checked requests bit-identical to "
              "solo dense references\n",
              static_cast<unsigned long long>(checked - mismatches),
              static_cast<unsigned long long>(checked));
  std::printf("host noise probe: %.1f ms before, %.1f ms after; CPU steal "
              "during the timed passes %.2f%% (not compared)\n",
              noise_before, noise_after, 100.0 * steal);
  std::printf("open loop in virtual time: latency counts from each request's "
              "due round; the generator is never late (0 rounds)\n");
  std::printf("properties: prompt rows adopted from the prefix cache %.4f, "
              "prefix evictions %llu, preemptions %llu over %llu requests, "
              "peak %llu of %zu KV blocks\n",
              static_cast<double>(st.prefix_rows_adopted) /
                  static_cast<double>(w->spec().prompt_rows()),
              static_cast<unsigned long long>(st.prefix_evictions),
              static_cast<unsigned long long>(preempted),
              static_cast<unsigned long long>(o.sent),
              static_cast<unsigned long long>(st.kv_blocks_peak),
              w->spec().opts.kv_pool_blocks);
  std::printf("sim_cycles: the decode cost model has no published reference "
              "and is unvalidated\n");
  std::printf("samples: itl %zu, request_rounds %zu, passes %zu, set-ups "
              "%zu\n",
              itl.size(), rounds.size(), rates.size(), setup.size());

  MetricSink sink;
  sink.add("tokens_per_s", median(rates), "tok/s");
  sink.add("itl_ms_p50", percentile(itl, 50.0), "ms");
  sink.add("itl_ms_p90", percentile(itl, 90.0), "ms");
  sink.add("request_rounds_p50", nearest_rank(rounds, 50.0), "rounds");
  sink.add("request_rounds_p90", nearest_rank(rounds, 90.0), "rounds");
  sink.add("slo_attainment",
           static_cast<double>(o.completed) / static_cast<double>(o.sent),
           "share");
  sink.add("sim_cycles", static_cast<double>(w->sim_cycles(first)), "cycles");
  sink.add("setup_s", median(setup), "s");
  sink.add("peak_rss_mb", peak_rss_mib(), "MiB");
  const bool correct = failed == 0;
  sink.print_json(correct, attempted, failed);
  return correct ? 0 : 1;
}

int timed_encoder(const Args& args) {
  const double noise_before = host_noise_probe_ms();
  std::vector<double> setup;
  auto w = timed_setup(
      [&] { return std::make_unique<EncoderWorkload>(args.seed, args.tiny); },
      setup);

  const EncoderWorkload::Pass first = w->run_pass(args.threads);  // warm-up
  const uint32_t batch = EncoderWorkload::kBatch;
  const double tokens = static_cast<double>(batch) * w->cfg().seq_len;
  uint64_t failed = 0, attempted = 0;

  std::vector<double> rates, batch_ms;
  double measured = 0.0;
  size_t diverged = 0;
  const HostCpuTimes cpu_before = host_cpu_times();
  while (measured < args.seconds || rates.size() < kMinPasses) {
    const EncoderWorkload::Pass p = w->run_pass(args.threads);
    measured += p.wall_s;
    rates.push_back(tokens / p.wall_s);
    batch_ms.push_back(p.wall_s * 1e3);
    attempted += batch;
    if (p.digest != first.digest) {
      ++diverged;
      failed += batch;
    }
  }
  const double steal = steal_share(cpu_before, host_cpu_times());
  const double noise_after = host_noise_probe_ms();

  // Output check: batched == serial, executed schedule == analytic model.
  const auto serial = w->scheduler().run_serial(w->inputs());
  uint64_t mismatches = 0;
  for (uint32_t i = 0; i < batch; ++i) {
    if (!(serial[i] == first.outputs[i])) ++mismatches;
  }
  const protea::accel::BatchReport predicted =
      w->scheduler().predicted(batch);
  const bool schedule_ok =
      w->scheduler().simulate_pipeline_cycles(batch) ==
      predicted.pipelined_cycles;
  failed += mismatches + (schedule_ok ? 0 : batch);

  std::printf("workload encoder_batch, seed %llu, %zu worker thread(s), "
              "SL=%u d=%u h=%u N=%u, batch %u\n",
              static_cast<unsigned long long>(args.seed), args.threads,
              w->cfg().seq_len, w->cfg().d_model, w->cfg().num_heads,
              w->cfg().num_layers, batch);
  std::printf("requests per pass: sent %u, completed %u, shed 0, cancelled "
              "0, failed %llu\n",
              batch, batch, static_cast<unsigned long long>(mismatches));
  print_passes(rates);
  std::printf("passes identical to the warm-up: %zu of %zu\n",
              rates.size() - diverged, rates.size());
  std::printf("output check: batched == serial for %u of %u sequences; "
              "simulate_pipeline_cycles %s predicted pipelined cycles\n",
              batch - static_cast<uint32_t>(mismatches), batch,
              schedule_ok ? "==" : "!=");
  std::printf("host noise probe: %.1f ms before, %.1f ms after; CPU steal "
              "during the timed passes %.2f%% (not compared)\n",
              noise_before, noise_after, 100.0 * steal);
  std::printf("closed loop: the next batch starts when the previous one "
              "returns\n");
  if (w->paper_shape()) {
    const double model_ms =
        protea::accel::estimate_performance(w->scheduler().config(), w->cfg())
            .latency_ms;
    std::printf("reference: modeled single forward %.3f ms vs Table I Test 5 "
                "published %.0f ms (%+.2f%%)\n",
                model_ms, kPaperTest5Ms,
                100.0 * (model_ms - kPaperTest5Ms) / kPaperTest5Ms);
  }
  std::printf("itl: gap between consecutive batch outputs of the closed-loop "
              "client; each request spans one round (batch)\n");
  std::printf("samples: itl %zu, passes %zu, set-ups %zu\n", batch_ms.size(),
              rates.size(), setup.size());

  MetricSink sink;
  sink.add("tokens_per_s", median(rates), "tok/s");
  sink.add("itl_ms_p50", percentile(batch_ms, 50.0), "ms");
  sink.add("itl_ms_p90", percentile(batch_ms, 90.0), "ms");
  sink.add("request_rounds_p50", 1.0, "rounds");
  sink.add("request_rounds_p90", 1.0, "rounds");
  sink.add("slo_attainment",
           static_cast<double>(batch - mismatches) / static_cast<double>(batch),
           "share");
  sink.add("sim_cycles", static_cast<double>(predicted.pipelined_cycles),
           "cycles");
  sink.add("setup_s", median(setup), "s");
  sink.add("peak_rss_mb", peak_rss_mib(), "MiB");
  const bool correct = failed == 0;
  sink.print_json(correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace

int run_timed(const Args& args) {
  if (args.workload == "encoder_batch") return timed_encoder(args);
  return timed_serving(args);
}

}  // namespace perfbench
