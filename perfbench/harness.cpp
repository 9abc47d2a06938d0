// perfbench_harness -- runs one benchmark workload in this process, checks
// its outputs and writes every metric, by name and with its unit, as JSON.
//
//   perfbench_harness --workload=sim_paper --seed=1 --seconds=15 --trace=0
//                     --work=DIR --out=result.json
//
// perfbench/run.py builds this binary and is the command users run; see
// perfbench/README.md for the workloads and the metric map.
//
// Shape of one run:
//   1. set-up, three times (stream generation, conflict injection, OPTX
//      write); setup_s is the median;
//   2. one untimed warm-up repetition, so lazy set-up, page faults and the
//      first-run penalty are paid before the clock starts. Its outputs get
//      the full checks; every later repetition must reproduce them exactly;
//   3. timed repetitions until --seconds have passed (at least three).
//      --trace=1 alternates an untraced and a traced repetition, swapping
//      which goes first in each pair, so neither always runs first.
// End-to-end metrics are medians over the untraced repetitions, per-layer
// metrics medians over the traced ones.
//
// Host-speed normalisation: other tenants of a shared host slow its CPUs by
// a third or more, in phases of seconds to minutes, and every wall-clock
// figure moves with them. The fixed reference kernel of reference.hpp runs
// before every set-up and before and after every untraced repetition. Every
// wall-clock metric (units s and ns; rates in 1/s and tx/s inversely) is
// reported in reference seconds: measured seconds times kReferenceSeconds
// over the run's median kernel time. That is the time the run would take
// on a host where one kernel pass takes kReferenceSeconds. The measured
// figures stay visible as host.wall_s, host.setup_s and host.ref_s.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/placement_pipeline.hpp"
#include "api/placer_registry.hpp"
#include "api/run_spec.hpp"
#include "api/scenario_spec.hpp"
#include "api/sweep_runner.hpp"
#include "common/flags.hpp"
#include "common/json_writer.hpp"
#include "latency/l2s_model.hpp"
#include "layers.hpp"
#include "obs/run_tracer.hpp"
#include "reference.hpp"
#include "scenarios.hpp"
#include "sim/fabric/fabric_config.hpp"
#include "sim/simulation.hpp"
#include "trace/trace_import.hpp"
#include "trace/trace_source.hpp"
#include "workload/bitcoin_like_generator.hpp"
#include "workload/conflict_injector.hpp"
#include "workload/tx_source.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace optchain;
using perfbench::CallTimes;
using perfbench::Clock;
using perfbench::seconds_between;

constexpr int kSetupReps = 3;
constexpr int kMinTimedReps = 3;
/// The kernel time that defines a reference second (see the file comment).
constexpr double kReferenceSeconds = 0.1;

// ------------------------------------------------------------ metric names

/// Every metric the harness emits, with its unit. perfbench/run.py checks
/// these names and units against BENCHMARK.json.
const std::map<std::string, std::string>& metric_units() {
  static const std::map<std::string, std::string> units = {
      // end to end
      {"tx_per_s", "tx/s"},
      {"wall_s", "s"},
      {"cpu_s", "s"},
      {"setup_s", "s"},
      {"peak_rss_mib", "MiB"},
      {"cross_fraction", "ratio"},
      {"sim_avg_latency_s", "sim-s"},
      {"sim_p99_latency_s", "sim-s"},
      {"sim_throughput_tps", "sim-tx/s"},
      // per layer
      {"trace.next_s", "s"},
      {"trace.next_ns_p50", "ns"},
      {"trace.next_ns_p99", "ns"},
      {"trace.bytes", "bytes"},
      {"placer.choose_s", "s"},
      {"placer.choose_ns_p50", "ns"},
      {"placer.choose_ns_p99", "ns"},
      {"placer.notify_s", "s"},
      {"placer.calls", "count"},
      {"l2s.calls", "count"},
      {"l2s.input_shards_mean", "count"},
      {"l2s.score_all_ns_p50", "ns"},
      {"l2s.score_all_ns_p99", "ns"},
      {"l2s.share", "ratio"},
      {"pipeline.self_s", "s"},
      {"graph.tan_edges", "count"},
      {"sim.self_s", "s"},
      {"sim.events", "count"},
      {"sim.events_per_s", "1/s"},
      {"sim.event_heap_peak", "count"},
      {"sim.blocks", "count"},
      {"sim.aborted", "count"},
      {"sim.shard_event_skew", "ratio"},
      {"fabric.link_messages", "count"},
      {"fabric.link_bytes", "bytes"},
      {"fabric.link_drops", "count"},
      {"fabric.queue_delay_s", "sim-s"},
      {"obs.tracer_s", "s"},
      {"obs.callbacks", "count"},
      {"obs.trace_bytes", "bytes"},
      {"sweep.cells", "count"},
      {"sweep.cell_s_p50", "s"},
      {"sweep.cell_s_max", "s"},
      {"sweep.cores_busy", "ratio"},
      {"trace_overhead", "ratio"},
      {"unaccounted_s", "s"},
      {"host.ref_s", "s"},
      {"host.wall_s", "s"},
      {"host.setup_s", "s"},
  };
  return units;
}

/// Layer metrics every traced run reports, zero where a workload bypasses
/// the layer (placement-only runs have no engine, flat runs no fabric).
/// The simulated-latency numbers ride along here rather than end to end:
/// place_replay has no simulation to report them for.
std::vector<std::string> layer_metric_names() {
  std::vector<std::string> names = {"trace_overhead", "unaccounted_s",
                                    "sim_avg_latency_s", "sim_p99_latency_s",
                                    "sim_throughput_tps"};
  for (const auto& [name, unit] : metric_units()) {
    if (name.find('.') != std::string::npos) names.push_back(name);
  }
  return names;
}

const std::string kScenarioMetric = "sweep.scenario_s.";

std::string scenario_metric(const std::string& scenario) {
  return kScenarioMetric + scenario;
}

std::string unit_of(const std::string& name) {
  if (name.rfind(kScenarioMetric, 0) == 0) return "s";
  const auto it = metric_units().find(name);
  if (it == metric_units().end()) {
    throw std::logic_error("metric without a unit: " + name);
  }
  return it->second;
}

/// The scenarios `optchain-bench all` runs, in its order.
std::vector<const bench::Scenario*> figure_scenarios() {
  std::vector<const bench::Scenario*> out;
  for (const bench::Scenario& scenario : bench::scenarios()) {
    if (!scenario.exclude_from_all) out.push_back(&scenario);
  }
  return out;
}

// ---------------------------------------------------------- process meters

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Peak resident set since the last reset_peak_rss(), from VmHWM; falls
/// back to the process-lifetime peak where /proc cannot reset it.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Hands freed heap back to the system, then resets VmHWM to the current
/// RSS: each repetition starts from the same resident baseline and faults
/// in its own heap, as one run in a fresh process does. The warm-up
/// repetition has already paid for code pages, the file cache and static
/// registries.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Wall, CPU and peak memory of one timed region.
struct Sample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double rss_mib = 0.0;
};

class Meter {
 public:
  Meter() {
    reset_peak_rss();
    cpu_begin_ = cpu_seconds();
    begin_ = Clock::now();
  }

  Sample stop() const {
    const double wall = seconds_between(begin_, Clock::now());
    return {wall, cpu_seconds() - cpu_begin_, peak_rss_mib()};
  }

 private:
  double cpu_begin_ = 0.0;
  Clock::time_point begin_;
};

std::uint64_t file_bytes(const std::string& path) {
  std::error_code error;
  const auto size = std::filesystem::file_size(path, error);
  return error ? 0 : static_cast<std::uint64_t>(size);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// ------------------------------------------------------ results and checks

using Values = std::map<std::string, double>;

/// Samples per metric. A metric's reported value is its median.
class Report {
 public:
  void add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  void add_all(const Values& values) {
    for (const auto& [name, value] : values) add(name, value);
  }
  bool has(const std::string& name) const { return samples_.count(name) > 0; }
  double value(const std::string& name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() ? 0.0 : median(it->second);
  }
  /// Converts every wall-clock sample to reference seconds: times (s, ns)
  /// are multiplied by `factor`, rates (1/s, tx/s) divided by it.
  void to_reference_seconds(double factor) {
    for (auto& [name, samples] : samples_) {
      const std::string unit = unit_of(name);
      double scale = 1.0;
      if (unit == "s" || unit == "ns") scale = factor;
      if (unit == "1/s" || unit == "tx/s") scale = 1.0 / factor;
      for (double& sample : samples) sample *= scale;
    }
  }
  const std::map<std::string, std::vector<double>>& samples() const {
    return samples_;
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// Output checks. Every operation a repetition attempts is counted; a
/// failed check adds the operations it found broken (at least one).
class Checks {
 public:
  void attempt(std::uint64_t operations) { attempted_ += operations; }

  void expect(bool ok, const std::string& what, std::uint64_t broken = 1) {
    if (ok) return;
    failed_ += std::max<std::uint64_t>(broken, 1);
    if (failures_.size() < 32) failures_.push_back(what);
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

std::string fmt(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// One repetition's measurements: the timed region, the operations it
/// attempted and checked (transactions, or cells for figures), the
/// transactions it pushed through, result values (end-to-end quality
/// numbers) and, when traced, layer values.
struct RepResult {
  Sample sample;
  std::uint64_t operations = 0;
  std::uint64_t transactions = 0;
  Values results;
  Values layers;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs the timed region consumes.
  virtual void setup() = 0;
  /// One repetition; `first` asks for the full output checks, later ones
  /// only have to reproduce the first repetition's outputs.
  virtual RepResult rep(bool traced, bool first, Checks& checks) = 0;
  /// Layer metrics measured once after the timed loop, from `report`'s
  /// medians and the workload's own records of its last traced repetition.
  virtual void finish(Report& report) { (void)report; }
  /// Threads a repetition keeps busy; the reference kernel runs on as many.
  virtual unsigned threads() const { return 1; }
};

// ------------------------------------------------------------- pipelines

constexpr std::uint32_t kShards = 16;

/// api::make_pipeline, or with the placer wrapped in the timing decorator
/// when `stats` is given.
std::unique_ptr<api::PlacementPipeline> make_pipeline(
    const std::string& method, std::uint64_t seed, std::uint64_t txs,
    perfbench::PlacerStats* stats) {
  if (stats == nullptr) {
    return std::make_unique<api::PlacementPipeline>(
        api::make_pipeline(method, kShards, {}, seed, {}, txs));
  }
  auto pipeline = std::make_unique<api::PlacementPipeline>(
      kShards, [&](const graph::TanDag& dag) {
        const api::PlacerContext context{dag, kShards, seed, {}, {}, txs};
        return std::make_unique<perfbench::TimedPlacer>(
            api::PlacerRegistry::instance().make(method, context), *stats);
      });
  pipeline->reserve(txs);
  return pipeline;
}

/// The OPTX replay a repetition reads: the file source itself, or the file
/// source behind the decode-timing decorator when traced.
class Replay {
 public:
  Replay(const std::string& path, CallTimes* next_times) : file_(path) {
    if (next_times != nullptr) timed_.emplace(file_, *next_times);
  }
  workload::TxSource& source() {
    if (timed_) return *timed_;
    return file_;
  }

 private:
  trace::TraceTxSource file_;
  std::optional<perfbench::TimedSource> timed_;
};

// ----------------------------------------------------------- simulations

struct SimWorkloadConfig {
  std::string name;
  std::string method;
  std::string fabric = "off";
  double conflict_rate = 0.0;  ///< inject_double_spends rate; 0 = none
  bool run_tracer = false;     ///< attach obs::RunTracer
  bool l2s_replay = false;     ///< the placer scores with L2S
};

/// Holds the engine's reported fates against the stream itself.
void check_ledger(const std::string& stream_path,
                  const perfbench::LedgerObserver& ledger, Checks& checks) {
  using Fate = perfbench::LedgerObserver::Fate;
  const std::vector<std::uint8_t>& fates = ledger.fates();
  struct Spends {
    std::uint32_t contenders = 0;
    std::uint32_t committed = 0;
  };
  std::unordered_map<std::uint64_t, Spends> spends;
  spends.reserve(2 * fates.size());
  std::vector<std::vector<std::uint64_t>> aborted_inputs;
  std::vector<std::uint64_t> keys;

  trace::TraceTxSource source(stream_path);
  tx::Transaction transaction;
  std::uint64_t seen = 0;
  while (source.next(transaction)) {
    ++seen;
    const std::uint8_t fate = transaction.index < fates.size()
                                  ? fates[transaction.index]
                                  : std::uint8_t{Fate::kUnseen};
    keys.clear();
    for (const tx::OutPoint& point : transaction.inputs) {
      keys.push_back((static_cast<std::uint64_t>(point.tx) << 32) |
                     point.vout);
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    for (const std::uint64_t key : keys) {
      Spends& entry = spends[key];
      ++entry.contenders;
      if (fate == Fate::kCommitted) ++entry.committed;
    }
    if (fate == Fate::kAborted) aborted_inputs.push_back(keys);
  }

  std::uint64_t double_spends = 0;
  for (const auto& [key, entry] : spends) {
    if (entry.committed > 1) double_spends += entry.committed - 1;
  }
  std::uint64_t unresolved = 0;
  for (const std::uint8_t fate : fates) {
    if (fate != Fate::kCommitted && fate != Fate::kAborted) ++unresolved;
  }
  std::uint64_t uncontended_aborts = 0;
  for (const auto& inputs : aborted_inputs) {
    const bool contended =
        std::any_of(inputs.begin(), inputs.end(), [&](std::uint64_t key) {
          return spends[key].contenders > 1;
        });
    if (!contended) ++uncontended_aborts;
  }

  checks.expect(seen == fates.size(), "stream length differs from the run");
  checks.expect(ledger.protocol_errors() == 0,
                "observer hooks out of order for " +
                    std::to_string(ledger.protocol_errors()) + " txs",
                ledger.protocol_errors());
  checks.expect(double_spends == 0,
                std::to_string(double_spends) +
                    " outpoints spent by two committed transactions",
                double_spends);
  checks.expect(unresolved == 0,
                std::to_string(unresolved) +
                    " transactions never committed or aborted",
                unresolved);
  checks.expect(uncontended_aborts == 0,
                std::to_string(uncontended_aborts) +
                    " aborts on outpoints no other transaction spends",
                uncontended_aborts);
}

/// The engine outputs a repetition must reproduce exactly.
std::string sim_digest(const sim::SimResult& result,
                       const perfbench::LedgerObserver& ledger) {
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a over the fates
  for (const std::uint8_t fate : ledger.fates()) {
    hash = (hash ^ fate) * 1099511628211ull;
  }
  std::ostringstream out;
  out << result.total_txs << ' ' << result.cross_txs << ' '
      << result.committed_txs << ' ' << result.aborted_txs << ' '
      << result.total_events << ' ' << result.total_blocks << ' '
      << fmt(result.avg_latency_s) << ' ' << fmt(result.max_latency_s) << ' '
      << fmt(result.throughput_tps) << ' ' << result.link_messages << ' '
      << hash;
  return out.str();
}

/// A full simulation replayed from an OPTX file through TraceTxSource:
/// sim_paper and sim_adversarial.
class SimWorkload final : public Workload {
 public:
  SimWorkload(SimWorkloadConfig config, std::uint64_t seed,
              const std::string& work)
      : config_(std::move(config)),
        seed_(seed),
        stream_path_(work + "/" + config_.name + ".optx"),
        otrace_path_(work + "/" + config_.name + ".otrace") {}

  void setup() override {
    if (config_.conflict_rate > 0.0) {
      workload::BitcoinLikeGenerator generator({}, seed_);
      workload::ConflictStream stream = workload::inject_double_spends(
          generator.generate(kTxs), config_.conflict_rate,
          seed_ ^ 0xd0b1e5be7dULL);
      workload::SpanTxSource source(stream.transactions);
      trace::import_source(source, stream_path_);
    } else {
      workload::GeneratorTxSource source({}, seed_, kTxs);
      trace::import_source(source, stream_path_);
    }
  }

  RepResult rep(bool traced, bool first, Checks& checks) override {
    CallTimes next_times;
    perfbench::PlacerStats placer_stats;
    placer_stats.capture_l2s = traced && config_.l2s_replay;
    perfbench::LedgerObserver ledger(kTxs);
    std::unique_ptr<obs::RunTracer> tracer;
    std::unique_ptr<perfbench::TimedObserver> timed_ledger;
    std::unique_ptr<perfbench::TimedObserver> timed_tracer;

    RepResult out;
    out.operations = kTxs;
    out.transactions = kTxs;
    double run_s = 0.0;
    std::unique_ptr<api::PlacementPipeline> pipeline;
    sim::SimResult result;
    {
      const Meter meter;
      Replay replay(stream_path_, traced ? &next_times : nullptr);
      pipeline = make_pipeline(config_.method, seed_, kTxs,
                               traced ? &placer_stats : nullptr);

      api::RunSpec spec;
      spec.method = config_.method;
      spec.num_shards = kShards;
      spec.seed = seed_;
      spec.sim_seed = seed_;
      spec.rate_tps = kRateTps;
      spec.fabric = sim::fabric_preset(config_.fabric);
      if (config_.run_tracer) {
        tracer = std::make_unique<obs::RunTracer>(otrace_path_);
      }
      if (traced) {
        timed_ledger = std::make_unique<perfbench::TimedObserver>(ledger);
        spec.observers.push_back(timed_ledger.get());
        if (tracer) {
          timed_tracer = std::make_unique<perfbench::TimedObserver>(*tracer);
          spec.observers.push_back(timed_tracer.get());
        }
      } else {
        spec.observers.push_back(&ledger);
        if (tracer) spec.observers.push_back(tracer.get());
      }
      sim::Simulation simulation(spec.sim_config());
      const Clock::time_point run_begin = Clock::now();
      result = simulation.run(replay.source(), *pipeline);
      run_s = seconds_between(run_begin, Clock::now());
      if (tracer) tracer->finish();
      out.sample = meter.stop();
    }

    checks.attempt(kTxs);
    checks.expect(result.completed, config_.name + ": run not completed");
    checks.expect(result.total_txs == kTxs,
                  config_.name + ": issued " +
                      std::to_string(result.total_txs) + " of " +
                      std::to_string(kTxs) + " transactions");
    const std::string digest = sim_digest(result, ledger);
    if (first) {
      check_ledger(stream_path_, ledger, checks);
      digest_ = digest;
    } else {
      checks.expect(digest == digest_,
                    config_.name + ": repetition differs from the first (" +
                        digest + " vs " + digest_ + ")");
    }

    out.results = {
        {"cross_fraction", result.cross_fraction()},
        {"sim_avg_latency_s", result.avg_latency_s},
        {"sim_p99_latency_s", result.latencies.quantile(0.99)},
        {"sim_throughput_tps", result.throughput_tps},
    };
    if (traced) {
      const double source_s = next_times.total_s();
      const double placer_s =
          placer_stats.choose.total_s() + placer_stats.notify_s;
      const double observers_s =
          timed_ledger->seconds() + (timed_tracer ? timed_tracer->seconds()
                                                  : 0.0);
      double max_events = 0.0;
      double sum_events = 0.0;
      for (const std::uint64_t events : result.shard_event_counts) {
        max_events = std::max(max_events, static_cast<double>(events));
        sum_events += static_cast<double>(events);
      }
      const double mean_events =
          sum_events / static_cast<double>(
                           std::max<std::size_t>(
                               result.shard_event_counts.size(), 1));
      out.layers = {
          {"trace.next_s", source_s},
          {"trace.next_ns_p50", next_times.quantile_ns(0.50)},
          {"trace.next_ns_p99", next_times.quantile_ns(0.99)},
          {"trace.bytes", static_cast<double>(file_bytes(stream_path_))},
          {"placer.choose_s", placer_stats.choose.total_s()},
          {"placer.choose_ns_p50", placer_stats.choose.quantile_ns(0.50)},
          {"placer.choose_ns_p99", placer_stats.choose.quantile_ns(0.99)},
          {"placer.notify_s", placer_stats.notify_s},
          {"placer.calls",
           static_cast<double>(placer_stats.choose.calls())},
          {"graph.tan_edges",
           static_cast<double>(pipeline->dag().num_edges())},
          {"sim.self_s", run_s - source_s - placer_s - observers_s},
          {"sim.events", static_cast<double>(result.total_events)},
          {"sim.event_heap_peak",
           static_cast<double>(result.event_heap_peak)},
          {"sim.blocks", static_cast<double>(result.total_blocks)},
          {"sim.aborted", static_cast<double>(result.aborted_txs)},
          {"sim.shard_event_skew",
           mean_events > 0.0 ? max_events / mean_events : 0.0},
          {"fabric.link_messages", static_cast<double>(result.link_messages)},
          {"fabric.link_bytes", static_cast<double>(result.link_bytes)},
          {"fabric.link_drops", static_cast<double>(result.link_drops)},
          {"fabric.queue_delay_s", result.link_queue_delay_s},
          {"unaccounted_s", out.sample.wall_s - run_s},
      };
      if (timed_tracer) {
        out.layers["obs.tracer_s"] = timed_tracer->seconds();
        out.layers["obs.callbacks"] =
            static_cast<double>(timed_tracer->callbacks());
        out.layers["obs.trace_bytes"] =
            static_cast<double>(file_bytes(otrace_path_));
      }
      if (placer_stats.capture_l2s) last_placer_stats_ = placer_stats;
    }
    return out;
  }

  void finish(Report& report) override {
    report.add("sim.events_per_s",
               report.value("sim.events") / report.value("wall_s"));
    if (last_placer_stats_.l2s_calls == 0) return;
    // Replay the captured requests through a fresh estimator: once to warm
    // it, once timed call by call.
    latency::L2sEstimator estimator;
    std::vector<double> scores;
    CallTimes replay;
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& request : last_placer_stats_.l2s_sample) {
        const Clock::time_point begin = Clock::now();
        estimator.score_all(request.timings, request.input_shards, scores);
        if (pass == 1) replay.add(Clock::now() - begin);
      }
    }
    const double calls = static_cast<double>(last_placer_stats_.l2s_calls);
    const double mean_s =
        replay.total_s() / static_cast<double>(replay.calls());
    report.add("l2s.calls", calls);
    report.add("l2s.input_shards_mean",
               static_cast<double>(last_placer_stats_.l2s_input_shards) /
                   calls);
    report.add("l2s.score_all_ns_p50", replay.quantile_ns(0.50));
    report.add("l2s.score_all_ns_p99", replay.quantile_ns(0.99));
    report.add("l2s.share", mean_s * calls /
                                last_placer_stats_.choose.total_s());
  }

 private:
  static constexpr std::uint64_t kTxs = 200'000;
  static constexpr double kRateTps = 4000.0;

  SimWorkloadConfig config_;
  std::uint64_t seed_;
  std::string stream_path_;
  std::string otrace_path_;
  std::string digest_;
  perfbench::PlacerStats last_placer_stats_;
};

// -------------------------------------------------------- placement only

/// OptChain placement, one transaction at a time, over a 1M-transaction
/// OPTX replay: place_replay.
class PlaceWorkload final : public Workload {
 public:
  PlaceWorkload(std::uint64_t seed, const std::string& work)
      : seed_(seed), stream_path_(work + "/place_replay.optx") {}

  void setup() override {
    workload::GeneratorTxSource source({}, seed_, kTxs);
    trace::import_source(source, stream_path_);
  }

  RepResult rep(bool traced, bool first, Checks& checks) override {
    CallTimes next_times;
    perfbench::PlacerStats placer_stats;
    RepResult out;
    out.operations = kTxs;
    out.transactions = kTxs;
    double place_s = 0.0;
    std::unique_ptr<api::PlacementPipeline> pipeline;
    api::StreamOutcome outcome;
    {
      const Meter meter;
      Replay replay(stream_path_, traced ? &next_times : nullptr);
      pipeline = make_pipeline(kMethod, seed_, kTxs,
                               traced ? &placer_stats : nullptr);
      const Clock::time_point place_begin = Clock::now();
      outcome = pipeline->place_stream(replay.source());
      place_s = seconds_between(place_begin, Clock::now());
      out.sample = meter.stop();
    }

    checks.attempt(kTxs);
    std::ostringstream digest;
    digest << outcome.total << ' ' << outcome.cross;
    for (const std::uint64_t size : outcome.shard_sizes) digest << ' ' << size;
    if (first) {
      check_assignment(*pipeline, outcome, checks);
      digest_ = digest.str();
    } else {
      checks.expect(digest.str() == digest_,
                    "place_replay: repetition differs from the first");
    }

    out.results = {{"cross_fraction", outcome.fraction()}};
    if (traced) {
      const double source_s = next_times.total_s();
      const double placer_s =
          placer_stats.choose.total_s() + placer_stats.notify_s;
      out.layers = {
          {"trace.next_s", source_s},
          {"trace.next_ns_p50", next_times.quantile_ns(0.50)},
          {"trace.next_ns_p99", next_times.quantile_ns(0.99)},
          {"trace.bytes", static_cast<double>(file_bytes(stream_path_))},
          {"placer.choose_s", placer_stats.choose.total_s()},
          {"placer.choose_ns_p50", placer_stats.choose.quantile_ns(0.50)},
          {"placer.choose_ns_p99", placer_stats.choose.quantile_ns(0.99)},
          {"placer.notify_s", placer_stats.notify_s},
          {"placer.calls",
           static_cast<double>(placer_stats.choose.calls())},
          {"pipeline.self_s", place_s - source_s - placer_s},
          {"graph.tan_edges",
           static_cast<double>(pipeline->dag().num_edges())},
          {"unaccounted_s", out.sample.wall_s - place_s},
      };
    }
    return out;
  }

 private:
  static constexpr std::uint64_t kTxs = 1'000'000;
  static constexpr const char* kMethod = "OptChain";

  /// Re-derives the cross-shard count from the final assignment and the
  /// stream, independently of the pipeline's own counters.
  void check_assignment(const api::PlacementPipeline& pipeline,
                        const api::StreamOutcome& outcome,
                        Checks& checks) const {
    const placement::ShardAssignment& assignment = pipeline.assignment();
    checks.expect(assignment.total() == kTxs,
                  "place_replay: placed " +
                      std::to_string(assignment.total()) + " of " +
                      std::to_string(kTxs));
    std::uint64_t non_coinbase = 0;
    std::uint64_t cross = 0;
    std::uint64_t out_of_range = 0;
    trace::TraceTxSource source(stream_path_);
    tx::Transaction transaction;
    while (source.next(transaction)) {
      if (transaction.index >= assignment.total()) break;
      const placement::ShardId own = assignment.shard_of(transaction.index);
      if (own >= kShards) ++out_of_range;
      if (transaction.is_coinbase()) continue;
      ++non_coinbase;
      const bool is_cross = std::any_of(
          transaction.inputs.begin(), transaction.inputs.end(),
          [&](const tx::OutPoint& point) {
            return assignment.shard_of(point.tx) != own;
          });
      if (is_cross) ++cross;
    }
    std::uint64_t sized = 0;
    for (const std::uint64_t size : outcome.shard_sizes) sized += size;
    checks.expect(out_of_range == 0,
                  "place_replay: transactions placed outside the shard range",
                  out_of_range);
    checks.expect(sized == kTxs, "place_replay: shard sizes do not sum to n");
    checks.expect(non_coinbase == outcome.total,
                  "place_replay: counted " + std::to_string(outcome.total) +
                      " transactions, stream has " +
                      std::to_string(non_coinbase));
    checks.expect(cross == outcome.cross,
                  "place_replay: reported " + std::to_string(outcome.cross) +
                      " cross-shard transactions, assignment shows " +
                      std::to_string(cross));
  }

  std::uint64_t seed_;
  std::string stream_path_;
  std::string digest_;
};

// ----------------------------------------------------------------- figures

/// `optchain-bench all --smoke --jobs=2` in-process: figures.
///
/// Two sweep workers, not one per core: on a host whose cores other tenants
/// share, a run that needs every core at once mostly measures when the host
/// hands them out. On a shared 4-core Xeon, five seeds' wall times spread
/// 0.21 (quartile distance over median) at four workers and 0.04-0.10 at
/// two, and two workers still load cross-run parallelism.
class FiguresWorkload final : public Workload {
 public:
  FiguresWorkload(std::uint64_t seed, const std::string& work)
      : args_{"all", "--smoke", "--jobs=" + std::to_string(kJobs),
              "--seed=" + std::to_string(seed)},
        json_path_(work + "/figures.json") {
    bench::register_bench_placers();
  }

  /// Expands every grid scenario and generates each cell's stream.
  void setup() override {
    const Flags flags = make_flags();
    cells_.clear();
    cell_txs_ = 0;
    custom_scenarios_ = 0;
    for (const bench::Scenario* scenario : figure_scenarios()) {
      if (scenario->custom) ++custom_scenarios_;
      for (const auto& part : scenario->parts) {
        for (api::SweepCell& cell : part(flags).expand().cells) {
          cell_txs_ += cell.stream_txs;
          api::SweepRunner::cell_stream(cell);
          cells_.push_back(std::move(cell));
        }
      }
    }
  }

  RepResult rep(bool traced, bool first, Checks& checks) override {
    const Flags flags = make_flags();
    JsonWriter json;
    Values scenario_s;
    std::vector<std::pair<std::string, int>> codes;
    RepResult out;
    {
      const Meter meter;
      for (const bench::Scenario* scenario : figure_scenarios()) {
        const Clock::time_point begin = Clock::now();
        codes.emplace_back(scenario->name,
                           bench::run_scenario(*scenario, flags, &json));
        scenario_s[scenario_metric(scenario->name)] =
            seconds_between(begin, Clock::now());
      }
      out.sample = meter.stop();
    }
    std::fflush(stdout);

    out.operations = cells_.size() + custom_scenarios_;
    out.transactions = cell_txs_;
    checks.attempt(out.operations);
    for (const auto& [name, code] : codes) {
      checks.expect(code == 0,
                    "figures: scenario " + name + " exited " +
                        std::to_string(code));
    }
    const std::string text = json.finish();
    if (first) {
      reference_json_ = text;
      std::ofstream(json_path_) << text;
    } else {
      checks.expect(text == reference_json_,
                    "figures: JSON differs from the first repetition");
    }

    if (traced) {
      double accounted = 0.0;
      for (const auto& [name, seconds] : scenario_s) accounted += seconds;
      out.layers = scenario_s;
      out.layers["unaccounted_s"] = out.sample.wall_s - accounted;
    }
    return out;
  }

  unsigned threads() const override { return kJobs; }

  /// Times every grid cell on its own, serially, through run_cell.
  void finish(Report& report) override {
    std::vector<double> cell_s;
    for (const api::SweepCell& cell : cells_) {
      const Clock::time_point begin = Clock::now();
      api::SweepRunner::run_cell(cell);
      cell_s.push_back(seconds_between(begin, Clock::now()));
    }
    report.add("sweep.cells", static_cast<double>(cells_.size()));
    report.add("sweep.cell_s_p50", median(cell_s));
    report.add("sweep.cell_s_max",
               cell_s.empty() ? 0.0
                              : *std::max_element(cell_s.begin(),
                                                  cell_s.end()));
    report.add("sweep.cores_busy",
               report.value("cpu_s") / report.value("wall_s"));
  }

 private:
  static constexpr unsigned kJobs = 2;

  Flags make_flags() const {
    std::vector<const char*> argv;
    for (const std::string& arg : args_) argv.push_back(arg.c_str());
    return Flags(static_cast<int>(argv.size()), argv.data());
  }

  std::vector<std::string> args_;
  std::string json_path_;
  std::vector<api::SweepCell> cells_;
  std::uint64_t cell_txs_ = 0;
  std::uint64_t custom_scenarios_ = 0;
  std::string reference_json_;
};

// -------------------------------------------------------------------- main

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& work) {
  if (name == "sim_paper") {
    SimWorkloadConfig config;
    config.name = name;
    config.method = "OptChain";
    config.l2s_replay = true;
    return std::make_unique<SimWorkload>(config, seed, work);
  }
  if (name == "sim_adversarial") {
    SimWorkloadConfig config;
    config.name = name;
    config.method = "OmniLedger";
    config.fabric = "wan";
    config.conflict_rate = 0.02;
    config.run_tracer = true;
    return std::make_unique<SimWorkload>(config, seed, work);
  }
  if (name == "place_replay") {
    return std::make_unique<PlaceWorkload>(seed, work);
  }
  if (name == "figures") return std::make_unique<FiguresWorkload>(seed, work);
  throw std::invalid_argument("unknown workload \"" + name + "\"");
}

void write_result(const std::string& path, const std::string& workload,
                  std::uint64_t seed, bool traced, int timed_reps,
                  const Report& report, const Checks& checks) {
  std::ofstream out(path);
  out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
      << ", \"trace\": " << (traced ? 1 : 0)
      << ", \"timed_reps\": " << timed_reps
      << ", \"setup_reps\": " << kSetupReps
      << ", \"attempted\": " << checks.attempted()
      << ", \"failed\": " << checks.failed() << ", \"failures\": [";
  for (std::size_t i = 0; i < checks.failures().size(); ++i) {
    std::string text = checks.failures()[i];
    std::replace(text.begin(), text.end(), '"', '\'');
    out << (i == 0 ? "" : ", ") << '"' << text << '"';
  }
  out << "], \"build\": {\"compiler\": \"" << PERFBENCH_COMPILER
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\"}, \"metrics\": {";
  bool first = true;
  for (const auto& [name, samples] : report.samples()) {
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
        << fmt(report.value(name)) << ", \"unit\": \"" << unit_of(name)
        << "\", \"samples\": [";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      out << (i == 0 ? "" : ", ") << fmt(samples[i]);
    }
    out << "]}";
    first = false;
  }
  out << "}}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

int run(const Flags& flags) {
  const std::string name = flags.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double seconds = flags.get_double("seconds", 10.0);
  const bool traced = flags.get_int("trace", 0) != 0;
  const std::string work = flags.get_string("work", ".");
  const std::string out_path = flags.get_string("out", "");
  if (out_path.empty()) throw std::invalid_argument("--out is required");

  std::unique_ptr<Workload> workload = make_workload(name, seed, work);
  Report report;
  Checks checks;

  // Set-up runs on one thread, so the one-thread kernel measures its host.
  perfbench::ReferenceKernel setup_kernel(1);
  perfbench::ReferenceKernel rep_kernel(workload->threads());
  setup_kernel.seconds();  // warm-up
  std::vector<double> setup_s;
  std::vector<double> setup_ref_s;
  for (int i = 0; i < kSetupReps; ++i) {
    setup_ref_s.push_back(setup_kernel.seconds());
    const Clock::time_point begin = Clock::now();
    workload->setup();
    setup_s.push_back(seconds_between(begin, Clock::now()));
  }
  setup_ref_s.push_back(setup_kernel.seconds());

  const auto record_untraced = [&](const RepResult& rep) {
    report.add("wall_s", rep.sample.wall_s);
    report.add("cpu_s", rep.sample.cpu_s);
    report.add("peak_rss_mib", rep.sample.rss_mib);
    report.add("tx_per_s",
               static_cast<double>(rep.transactions) / rep.sample.wall_s);
    report.add_all(rep.results);
  };
  std::vector<double> traced_wall;
  const auto record_traced = [&](const RepResult& rep) {
    traced_wall.push_back(rep.sample.wall_s);
    report.add_all(rep.layers);
  };

  // The kernel samples the host for about a tenth of the time it measures:
  // one pass on each side of a repetition per two seconds the warm-up took.
  // A short pass catches bursts that a long repetition averages out, so a
  // long repetition needs more passes around it: at one pass a side, the
  // median kernel time of figures' four-second repetitions spread three
  // times as far from run to run as their wall time.
  rep_kernel.seconds();  // warm-up
  const double warmup_s =
      workload->rep(/*traced=*/false, /*first=*/true, checks).sample.wall_s;
  const int passes = std::max(1, static_cast<int>(std::lround(warmup_s / 2.0)));
  std::vector<double> rep_ref_s;
  const auto kernel_s = [&] {
    double total = 0.0;
    for (int i = 0; i < passes; ++i) total += rep_kernel.seconds();
    return total;
  };
  const auto untraced_rep = [&] {
    const double before = kernel_s();
    RepResult rep = workload->rep(false, false, checks);
    rep_ref_s.push_back((before + kernel_s()) / (2.0 * passes));
    return rep;
  };
  int timed_reps = 0;
  const Clock::time_point loop_begin = Clock::now();
  while (timed_reps < kMinTimedReps ||
         seconds_between(loop_begin, Clock::now()) < seconds) {
    if (!traced) {
      record_untraced(untraced_rep());
    } else if (timed_reps % 2 == 0) {
      record_untraced(untraced_rep());
      record_traced(workload->rep(true, false, checks));
    } else {
      record_traced(workload->rep(true, false, checks));
      record_untraced(untraced_rep());
    }
    ++timed_reps;
  }

  if (traced) {
    report.add("trace_overhead",
               median(traced_wall) / report.value("wall_s") - 1.0);
    workload->finish(report);
  }
  const std::vector<double> host_wall_s = report.samples().at("wall_s");
  report.to_reference_seconds(kReferenceSeconds / median(rep_ref_s));
  const double setup_factor = kReferenceSeconds / median(setup_ref_s);
  for (const double seconds : setup_s) {
    report.add("setup_s", seconds * setup_factor);
    report.add("host.setup_s", seconds);
  }
  for (const double seconds : rep_ref_s) report.add("host.ref_s", seconds);
  for (const double seconds : host_wall_s) report.add("host.wall_s", seconds);
  if (traced) {
    for (const std::string& layer : layer_metric_names()) {
      if (!report.has(layer)) report.add(layer, 0.0);
    }
    for (const bench::Scenario* scenario : figure_scenarios()) {
      const std::string metric = scenario_metric(scenario->name);
      if (!report.has(metric)) report.add(metric, 0.0);
    }
  }
  write_result(out_path, name, seed, traced, timed_reps, report, checks);
  return checks.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(Flags(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_harness: %s\n", error.what());
    return 2;
  }
}
