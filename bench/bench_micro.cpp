// Micro-benchmarks (google-benchmark): per-operation costs of the hot paths.
// The paper's practicality argument (§IV.B) rests on the O(k·|Nin|) T2S
// update being cheap enough for wallet software; these benchmarks quantify
// it, along with the substrate costs.
#include <benchmark/benchmark.h>

#include <memory>
#include <unordered_map>
#include <utility>

#include "api/placement_pipeline.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/optchain_placer.hpp"
#include "latency/l2s_model.hpp"
#include "metis/kway_partitioner.hpp"
#include "placement/random_placer.hpp"
#include "sim/event_queue.hpp"
#include "sim/fabric/fabric.hpp"
#include "sim/ledger.hpp"
#include "sim/simulation.hpp"
#include "sim/tree_gossip.hpp"
#include "workload/bitcoin_like_generator.hpp"
#include "workload/tan_builder.hpp"

namespace {

using namespace optchain;

void BM_Sha256_512B(benchmark::State& state) {
  std::vector<std::uint8_t> data(512, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::digest(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 512);
  state.SetLabel(detail::compress_kernel_name());
}
BENCHMARK(BM_Sha256_512B);

/// Transaction::txid() per transaction over the generator mix (71% one
/// block, 23% two, 5% three or more): the whole cost of an OmniLedger
/// placement. The label names the SHA-256 kernel that ran.
void BM_Txid(benchmark::State& state) {
  workload::BitcoinLikeGenerator generator({}, 1);
  const auto txs = generator.generate(65536);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(txs[i].txid());
    if (++i == txs.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(detail::compress_kernel_name());
}
BENCHMARK(BM_Txid);

void BM_WorkloadGenerator(benchmark::State& state) {
  workload::BitcoinLikeGenerator generator({}, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.next());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WorkloadGenerator);

/// Full OptChain placement step through the api::PlacementPipeline (TaN
/// registration + T2S scoring + argmax + commit), per transaction, across
/// shard counts. No txid: PlacementRequest::hash() is lazy and OptChain
/// never reads it. The paper's average scoring cost is O(k). The
/// pipeline is stateful; when the prepared stream runs out, state resets
/// outside the timed region.
void BM_OptChainPlacement(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  workload::BitcoinLikeGenerator generator({}, 2);
  const auto txs = generator.generate(200000);

  const auto fresh_pipeline = [k] {
    return std::make_unique<api::PlacementPipeline>(
        k, [](const graph::TanDag& dag) {
          core::OptChainConfig config;
          config.l2s_weight = 0.0;
          return std::make_unique<core::OptChainPlacer>(dag, config);
        });
  };

  auto pipeline = fresh_pipeline();
  std::size_t i = 0;
  for (auto _ : state) {
    if (i >= txs.size()) {
      state.PauseTiming();
      pipeline = fresh_pipeline();
      i = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(pipeline->step(txs[i]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_OptChainPlacement)->Arg(4)->Arg(16)->Arg(64);

void BM_L2sScoreAll(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  std::vector<latency::ShardTiming> timings(k);
  Rng rng(3);
  for (auto& timing : timings) {
    timing.mean_comm = rng.uniform(0.05, 0.3);
    timing.mean_verify = rng.uniform(0.5, 8.0);
  }
  const std::vector<std::uint32_t> inputs{0, 1 % k, 2 % k};
  latency::L2sEstimator estimator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.score_all(timings, inputs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_L2sScoreAll)->Arg(4)->Arg(16)->Arg(64);

/// E[max] over n input shards: the exact phase-type sweep up to
/// latency::kExactMaxShards, the quadrature fallback at cap + 1. Args: n,
/// equal rates (0/1: mean_comm == mean_verify, Erlang-2). The sweep grows
/// ~3.3× per shard while the fallback grows linearly; the cap is the last n
/// at which the sweep is cheaper.
void BM_ExpectedMaxTwoPhase(benchmark::State& state) {
  std::vector<latency::ShardTiming> timings(
      static_cast<std::size_t>(state.range(0)));
  Rng rng(5);
  for (auto& timing : timings) {
    timing.mean_comm = rng.uniform(0.05, 0.3);
    timing.mean_verify =
        state.range(1) != 0 ? timing.mean_comm : rng.uniform(0.5, 8.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(latency::expected_max_two_phase(timings));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ExpectedMaxTwoPhase)
    ->ArgsProduct({benchmark::CreateDenseRange(
                       2, static_cast<std::int64_t>(latency::kExactMaxShards) +
                              1,
                       1),
                   {0}})
    ->Args({4, 1});

struct NullHandler final : sim::EventHandler {
  void on_event(const sim::Event&) override {}
};

/// schedule + dispatch of one typed POD event (no allocation, no indirect
/// closure call). Arg = number of events already pending in the heap.
void BM_EventQueue(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  sim::EventQueue queue;
  NullHandler handler;
  double t = 0.0;
  for (std::size_t i = 0; i < depth; ++i) {
    queue.schedule(1e12 + static_cast<double>(i), sim::Event::tx_issue(0));
  }
  for (auto _ : state) {
    queue.schedule(t + 1.0, sim::Event::tx_issue(0));
    queue.run_one(handler);
    t += 1.0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
// 262144 is the sequential engine's event-heap peak on the perfbench
// sim_adversarial workload (200k txs, wan fabric).
BENCHMARK(BM_EventQueue)->Arg(0)->Arg(1024)->Arg(262144);

/// The engine's outpoint ledger behind the map interface of the benchmark:
/// sim::OutpointLedger (Arg 0) against the std::unordered_map it replaced
/// (Arg 1).
struct LedgerAdapter {
  sim::OutpointLedger table;
  void reserve(std::size_t n) { table.reserve(n); }
  bool held_by_other(std::uint64_t key, std::uint32_t owner) const {
    const sim::OutpointLedger::Entry* entry = table.find(key);
    return entry != nullptr && entry->owner != owner;
  }
  void set(std::uint64_t key, sim::OutpointState state, std::uint32_t owner) {
    table.assign(key, state, owner);
  }
  void erase(std::uint64_t key) { table.erase(key); }
};
struct UnorderedMapAdapter {
  std::unordered_map<std::uint64_t,
                     std::pair<sim::OutpointState, std::uint32_t>>
      table;
  void reserve(std::size_t n) { table.reserve(n); }
  bool held_by_other(std::uint64_t key, std::uint32_t owner) const {
    const auto it = table.find(key);
    return it != table.end() && it->second.second != owner;
  }
  void set(std::uint64_t key, sim::OutpointState state, std::uint32_t owner) {
    table[key] = {state, owner};
  }
  void erase(std::uint64_t key) { table.erase(key); }
};

/// One transaction's ledger traffic at ~300k live outpoints: a conflict
/// check of a random spent outpoint, then lock and spend of two fresh ones
/// (find + set each), and the erase of the two oldest, which holds the live
/// count steady.
template <typename Table>
void run_ledger_mix(benchmark::State& state) {
  constexpr std::uint32_t kLiveTxs = 150'000;  // two outpoints each
  const auto key = [](std::uint32_t tx, std::uint32_t vout) {
    return sim::OutpointLedger::key_of(tx::OutPoint{tx, vout});
  };
  Table table;
  table.reserve(std::size_t{kLiveTxs} * 2 * 4 / 3);
  for (std::uint32_t tx = 0; tx < kLiveTxs; ++tx) {
    table.set(key(tx, 0), sim::OutpointState::kSpent, tx);
    table.set(key(tx, 1), sim::OutpointState::kSpent, tx);
  }
  Rng rng(21);
  std::uint32_t oldest = 0;
  std::uint64_t conflicts = 0;
  for (auto _ : state) {
    const std::uint32_t tx = oldest + kLiveTxs;
    const auto probe =
        oldest + static_cast<std::uint32_t>(rng.below(kLiveTxs));
    conflicts += table.held_by_other(key(probe, 1), tx) ? 1 : 0;
    for (std::uint32_t vout = 0; vout < 2; ++vout) {
      if (!table.held_by_other(key(tx, vout), tx)) {
        table.set(key(tx, vout), sim::OutpointState::kLocked, tx);
      }
    }
    for (std::uint32_t vout = 0; vout < 2; ++vout) {
      if (!table.held_by_other(key(tx, vout), tx)) {
        table.set(key(tx, vout), sim::OutpointState::kSpent, tx);
      }
      table.erase(key(oldest, vout));
    }
    ++oldest;
  }
  benchmark::DoNotOptimize(conflicts);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
void BM_OutpointLedger(benchmark::State& state) {
  if (state.range(0) == 0) {
    state.SetLabel("OutpointLedger");
    run_ledger_mix<LedgerAdapter>(state);
  } else {
    state.SetLabel("std::unordered_map");
    run_ledger_mix<UnorderedMapAdapter>(state);
  }
}
BENCHMARK(BM_OutpointLedger)->Arg(0)->Arg(1);

/// LinkFabric::message_delay of a 512-byte proof from an uplink with 120 s
/// of backlog under the wan preset (256 KiB queue, 1 s retransmit timeout):
/// every send is tail-dropped ~120 times before it is admitted. Sends are
/// spaced by their own serialization time, so the backlog holds steady.
void BM_FabricSaturatedSend(benchmark::State& state) {
  const sim::FabricConfig config = sim::fabric_preset("wan");
  const sim::NetworkModel flat;
  sim::LinkFabric fabric(config, flat, 5);
  fabric.add_endpoint();
  fabric.add_endpoint();
  const sim::Position from{0.2, 0.3};
  const sim::Position to{0.7, 0.6};
  // An idle uplink admits any one send: 120 s worth of bytes at once.
  fabric.message_delay(
      0.0, 0, 1, from, to,
      static_cast<std::uint64_t>(120.0 * config.link.bandwidth_bps / 8.0));
  const double spacing = 512.0 * 8.0 / config.link.bandwidth_bps;
  double now = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fabric.message_delay(now, 0, 1, from, to, 512));
    now += spacing;
  }
  state.counters["drops_per_send"] =
      static_cast<double>(fabric.stats().drops) /
      static_cast<double>(fabric.stats().messages - 1);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FabricSaturatedSend);

void BM_MetisPartition(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  workload::BitcoinLikeGenerator generator({}, 4);
  const auto txs = generator.generate(n);
  const graph::Csr undirected = workload::build_tan(txs).to_undirected();
  for (auto _ : state) {
    metis::PartitionConfig config;
    config.k = 16;
    benchmark::DoNotOptimize(metis::partition_kway(undirected, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MetisPartition)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);

/// The O(k(|V|+|E|)) full recomputation the paper rejects (§IV.B), per
/// transaction — contrast with BM_OptChainPlacement's incremental O(k·|Nin|).
void BM_OfflineT2sRecompute(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  workload::BitcoinLikeGenerator generator({}, 6);
  const auto txs = generator.generate(n);
  const graph::TanDag dag = workload::build_tan(txs);
  placement::ShardAssignment assignment(16);
  Rng rng(7);
  for (std::size_t i = 0; i < n; ++i) {
    assignment.record(static_cast<tx::TxIndex>(i),
                      static_cast<placement::ShardId>(rng.below(16)));
  }
  core::T2sConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::recompute_all_scores_dense(dag, assignment, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_OfflineT2sRecompute)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

/// Message-level tree-gossip consensus round vs the closed-form model.
void BM_TreeGossipRound(benchmark::State& state) {
  const auto committee = static_cast<std::uint32_t>(state.range(0));
  sim::NetworkModel network;
  const sim::Position leader{0.5, 0.5};
  sim::ConsensusConfig consensus;
  consensus.committee_size = committee;
  for (auto _ : state) {
    Rng rng(9);
    benchmark::DoNotOptimize(sim::simulate_tree_gossip_round(
        network, leader, consensus, 2000, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TreeGossipRound)->Arg(64)->Arg(400)
    ->Unit(benchmark::kMicrosecond);

void BM_SimulationEndToEnd(benchmark::State& state) {
  workload::BitcoinLikeGenerator generator({}, 5);
  const auto txs = generator.generate(20000);
  for (auto _ : state) {
    sim::SimConfig config;
    config.num_shards = 8;
    config.tx_rate_tps = 2000.0;
    api::PlacementPipeline pipeline(
        8, std::make_unique<placement::RandomPlacer>());
    sim::Simulation simulation(config);
    benchmark::DoNotOptimize(simulation.run(txs, pipeline));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(txs.size()));
  state.SetLabel("20k txs / iteration");
}
BENCHMARK(BM_SimulationEndToEnd)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
