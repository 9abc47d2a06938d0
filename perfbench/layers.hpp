// Timing decorators for the traced benchmark run, and the ledger observer
// behind the output checks.
//
// The benchmark measures each layer from outside the library: it wraps the
// three seams a run pulls through -- the workload::TxSource it decodes
// from, the placement::Placer the pipeline drives, and the sim::SimObservers
// the engine notifies -- in forwarding decorators that time every call.
// Nothing inside src/ is instrumented, so an untraced run executes exactly
// the code a user runs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "latency/l2s_model.hpp"
#include "placement/placer.hpp"
#include "placement/shard_assignment.hpp"
#include "sim/sim_observer.hpp"
#include "txmodel/transaction.hpp"
#include "workload/tx_source.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

/// Durations of individual calls into one layer: their sum and, for the
/// percentiles, every call's duration in nanoseconds.
class CallTimes {
 public:
  void reserve(std::size_t calls) { ns_.reserve(calls); }

  void add(Clock::duration elapsed) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        elapsed)
                        .count();
    total_ns_ += static_cast<std::uint64_t>(ns);
    ns_.push_back(static_cast<std::uint32_t>(
        std::min<long long>(ns, 0xffffffffLL)));
  }

  std::uint64_t calls() const noexcept { return ns_.size(); }
  double total_s() const noexcept {
    return static_cast<double>(total_ns_) * 1e-9;
  }

  /// The q-quantile of the per-call durations (nearest rank; 0 when empty).
  double quantile_ns(double q) const {
    if (ns_.empty()) return 0.0;
    std::vector<std::uint32_t> sorted = ns_;
    const std::size_t rank = std::min(
        sorted.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(sorted.size())));
    std::nth_element(sorted.begin(), sorted.begin() + rank, sorted.end());
    return static_cast<double>(sorted[rank]);
  }

 private:
  std::vector<std::uint32_t> ns_;
  std::uint64_t total_ns_ = 0;
};

/// Times TxSource::next, the decode layer.
class TimedSource final : public optchain::workload::TxSource {
 public:
  TimedSource(optchain::workload::TxSource& inner, CallTimes& times)
      : inner_(inner), times_(times) {
    if (const auto hint = inner_.size_hint()) times_.reserve(*hint + 1);
  }

  bool next(optchain::tx::Transaction& out) override {
    const Clock::time_point begin = Clock::now();
    const bool more = inner_.next(out);
    times_.add(Clock::now() - begin);
    return more;
  }

  std::optional<std::uint64_t> size_hint() const override {
    return inner_.size_hint();
  }

  double issue_time(std::uint64_t index, double nominal_rate_tps) override {
    return inner_.issue_time(index, nominal_rate_tps);
  }

 private:
  optchain::workload::TxSource& inner_;
  CallTimes& times_;
};

/// What the placer decorator records. When `capture_l2s` is set it also
/// keeps every kL2sStride-th request that carried shard timings (the
/// timings and the input-shard set the L2S score reads), so the L2S layer
/// can be replayed and timed on its own after the run.
struct PlacerStats {
  static constexpr std::uint64_t kL2sStride = 16;

  struct L2sRequest {
    std::vector<optchain::latency::ShardTiming> timings;
    std::vector<optchain::placement::ShardId> input_shards;
  };

  CallTimes choose;
  double notify_s = 0.0;
  bool capture_l2s = false;
  std::uint64_t l2s_calls = 0;
  std::uint64_t l2s_input_shards = 0;  ///< summed over l2s_calls
  std::vector<L2sRequest> l2s_sample;
};

/// Forwards to the real strategy, timing choose() and notify_placed().
class TimedPlacer final : public optchain::placement::Placer {
 public:
  TimedPlacer(std::unique_ptr<optchain::placement::Placer> inner,
              PlacerStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  optchain::placement::ShardId choose(
      const optchain::placement::PlacementRequest& request,
      const optchain::placement::ShardAssignment& assignment) override {
    const Clock::time_point begin = Clock::now();
    const optchain::placement::ShardId shard =
        inner_->choose(request, assignment);
    stats_.choose.add(Clock::now() - begin);
    if (stats_.capture_l2s && !request.timings.empty()) {
      assignment.input_shards(request.input_txs, input_shards_);
      stats_.l2s_input_shards += input_shards_.size();
      if (stats_.l2s_calls++ % PlacerStats::kL2sStride == 0) {
        stats_.l2s_sample.push_back(
            {{request.timings.begin(), request.timings.end()},
             input_shards_});
      }
    }
    return shard;
  }

  void notify_placed(const optchain::placement::PlacementRequest& request,
                     optchain::placement::ShardId shard) override {
    const Clock::time_point begin = Clock::now();
    inner_->notify_placed(request, shard);
    stats_.notify_s += seconds_between(begin, Clock::now());
  }

  void reserve(std::uint64_t expected_txs) override {
    stats_.choose.reserve(expected_txs);
    inner_->reserve(expected_txs);
  }

  std::string_view name() const noexcept override { return inner_->name(); }

 private:
  std::unique_ptr<optchain::placement::Placer> inner_;
  PlacerStats& stats_;
  std::vector<optchain::placement::ShardId> input_shards_;
};

/// Forwards every hook to `inner`, timing each one.
class TimedObserver final : public optchain::sim::SimObserver {
 public:
  explicit TimedObserver(optchain::sim::SimObserver& inner) : inner_(inner) {}

  double seconds() const noexcept { return seconds_; }
  std::uint64_t callbacks() const noexcept { return callbacks_; }

  void on_issue(std::uint32_t tx, double time, bool cross) override {
    timed([&] { inner_.on_issue(tx, time, cross); });
  }
  void on_commit(std::uint32_t tx, double time, double latency_s) override {
    timed([&] { inner_.on_commit(tx, time, latency_s); });
  }
  void on_abort(std::uint32_t tx, double time) override {
    timed([&] { inner_.on_abort(tx, time); });
  }
  void on_queue_sample(double time,
                       std::span<const std::uint64_t> sizes) override {
    timed([&] { inner_.on_queue_sample(time, sizes); });
  }
  void on_block_commit(std::uint32_t shard, double time) override {
    timed([&] { inner_.on_block_commit(shard, time); });
  }
  void on_link_sample(double time,
                      std::span<const optchain::sim::LinkSample> links)
      override {
    timed([&] { inner_.on_link_sample(time, links); });
  }
  void on_shard_change(std::uint32_t shard, double time, bool joined,
                       std::uint64_t migrated_txs,
                       std::uint64_t migrated_utxos) override {
    timed([&] {
      inner_.on_shard_change(shard, time, joined, migrated_txs,
                             migrated_utxos);
    });
  }
  void on_repartition(double time, std::uint64_t migrated_txs,
                      std::uint64_t migrated_utxos,
                      std::uint64_t deferred_txs) override {
    timed([&] {
      inner_.on_repartition(time, migrated_txs, migrated_utxos, deferred_txs);
    });
  }

 private:
  template <class Hook>
  void timed(Hook&& hook) {
    const Clock::time_point begin = Clock::now();
    hook();
    seconds_ += seconds_between(begin, Clock::now());
    ++callbacks_;
  }

  optchain::sim::SimObserver& inner_;
  double seconds_ = 0.0;
  std::uint64_t callbacks_ = 0;
};

/// Records each transaction's fate as the engine reports it. The ledger
/// check (check_ledger in harness.cpp) later holds these fates against the
/// stream itself; recording is one store per hook, so the observer can stay
/// attached to every timed run.
class LedgerObserver final : public optchain::sim::SimObserver {
 public:
  enum Fate : std::uint8_t { kUnseen, kIssued, kCommitted, kAborted };

  explicit LedgerObserver(std::uint64_t txs) : fates_(txs, kUnseen) {}

  void on_issue(std::uint32_t tx, double, bool) override {
    settle(tx, kUnseen, kIssued);
  }
  void on_commit(std::uint32_t tx, double, double) override {
    settle(tx, kIssued, kCommitted);
  }
  void on_abort(std::uint32_t tx, double) override {
    settle(tx, kIssued, kAborted);
  }

  const std::vector<std::uint8_t>& fates() const noexcept { return fates_; }
  /// Hooks that arrived out of order: a second issue or terminal event for
  /// one transaction, or a transaction index beyond the stream.
  std::uint64_t protocol_errors() const noexcept { return protocol_errors_; }

 private:
  void settle(std::uint32_t tx, Fate from, Fate to) {
    if (tx >= fates_.size() || fates_[tx] != from) {
      ++protocol_errors_;
      return;
    }
    fates_[tx] = to;
  }

  std::vector<std::uint8_t> fates_;
  std::uint64_t protocol_errors_ = 0;
};

}  // namespace perfbench
