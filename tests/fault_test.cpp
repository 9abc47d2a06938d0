// Failure injection: leader faults (view changes) and chronic shard
// slowdowns, and how placement strategies react to them.
#include <gtest/gtest.h>

#include <memory>
#include <span>

#include "api/placement_pipeline.hpp"
#include "placement/random_placer.hpp"
#include "sim/simulation.hpp"
#include "workload/bitcoin_like_generator.hpp"

namespace optchain::sim {
namespace {

/// Routes round-completion events to a standalone ShardNode.
struct ShardRouter final : EventHandler {
  explicit ShardRouter(ShardNode& node) : node(&node) {}
  void on_event(const Event& event) override {
    EXPECT_TRUE(node->route_round_event(event));
  }
  ShardNode* node;
};

/// Fresh hash-placement pipeline for k shards.
api::PlacementPipeline random_pipeline(std::uint32_t k) {
  return api::PlacementPipeline(k,
                                std::make_unique<placement::RandomPlacer>());
}

std::vector<tx::Transaction> stream(std::size_t n, std::uint64_t seed = 4) {
  workload::BitcoinLikeGenerator gen({}, seed);
  return gen.generate(n);
}

SimConfig base_config(std::uint32_t shards, double rate) {
  SimConfig config;
  config.num_shards = shards;
  config.tx_rate_tps = rate;
  return config;
}

TEST(ShardFaultsTest, ViewChangeExtendsRound) {
  EventQueue events;
  NetworkModel network;
  Rng rng(1);
  ConsensusModel model({}, network, {0.5, 0.5}, rng);
  const double base_round = model.round_duration(1);

  ShardFaults always_faulty;
  always_faulty.leader_fault_rate = 1.0;
  always_faulty.view_change_penalty_s = 7.0;
  double commit_time = 0.0;
  ShardNode shard(0, {0.5, 0.5}, std::move(model), events,
                  [&](std::uint32_t, std::span<const QueueItem>, SimTime t) {
                    commit_time = t;
                  },
                  always_faulty);
  ShardRouter router(shard);
  shard.enqueue(QueueItem{0, ItemKind::kSameShard});
  while (events.run_one(router)) {
  }
  EXPECT_NEAR(commit_time, base_round + 7.0, 1e-9);
  EXPECT_EQ(shard.view_changes(), 1u);
  // Clients observe the degraded round.
  EXPECT_NEAR(shard.last_round_duration(), base_round + 7.0, 1e-9);
}

TEST(ShardFaultsTest, SlowdownScalesRounds) {
  EventQueue events;
  NetworkModel network;
  Rng rng(2);
  ConsensusModel model({}, network, {0.5, 0.5}, rng);
  const double base_round = model.round_duration(1);

  ShardFaults slow;
  slow.slowdown = 3.0;
  double commit_time = 0.0;
  ShardNode shard(0, {0.5, 0.5}, std::move(model), events,
                  [&](std::uint32_t, std::span<const QueueItem>, SimTime t) {
                    commit_time = t;
                  },
                  slow);
  ShardRouter router(shard);
  shard.enqueue(QueueItem{0, ItemKind::kSameShard});
  while (events.run_one(router)) {
  }
  EXPECT_NEAR(commit_time, 3.0 * base_round, 1e-9);
}

TEST(FaultSimTest, CompletesUnderLeaderFaults) {
  const auto txs = stream(6000);
  SimConfig config = base_config(8, 2000.0);
  config.leader_fault_rate = 0.3;
  Simulation sim(config);
  auto pipeline = random_pipeline(8);
  const auto result = sim.run(txs, pipeline);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.committed_txs, txs.size());
}

TEST(FaultSimTest, FaultsRaiseLatency) {
  const auto txs = stream(8000);

  SimConfig clean = base_config(8, 2000.0);
  SimConfig faulty = clean;
  faulty.leader_fault_rate = 0.5;
  faulty.view_change_penalty_s = 8.0;
  auto pipeline_clean = random_pipeline(8);
  auto pipeline_faulty = random_pipeline(8);
  const auto clean_result = Simulation(clean).run(txs, pipeline_clean);
  const auto faulty_result = Simulation(faulty).run(txs, pipeline_faulty);
  EXPECT_GT(faulty_result.avg_latency_s, clean_result.avg_latency_s * 1.3);
}

TEST(FaultSimTest, DeterministicUnderFaults) {
  const auto txs = stream(4000);
  SimConfig config = base_config(4, 1500.0);
  config.leader_fault_rate = 0.2;
  auto pipeline_a = random_pipeline(4);
  auto pipeline_b = random_pipeline(4);
  const auto a = Simulation(config).run(txs, pipeline_a);
  const auto b = Simulation(config).run(txs, pipeline_b);
  EXPECT_DOUBLE_EQ(a.avg_latency_s, b.avg_latency_s);
  EXPECT_EQ(a.total_events, b.total_events);
}

TEST(FaultSimTest, OptChainRoutesAroundChronicallySlowShard) {
  // Shard 0 is 6x slower. OptChain's L2S term observes the longer rounds
  // and steers new chains elsewhere; random placement keeps hashing ~1/k
  // of the load into the degraded shard.
  const auto txs = stream(30000);
  SimConfig config = base_config(8, 3000.0);
  config.shard_slowdown = {6.0};

  auto optchain = api::make_pipeline("OptChain", 8);
  auto random = random_pipeline(8);
  const auto opt = Simulation(config).run(txs, optchain);
  const auto rnd = Simulation(config).run(txs, random);

  const double uniform_share = 1.0 / 8.0;
  const double opt_share =
      static_cast<double>(opt.final_shard_sizes[0]) /
      static_cast<double>(txs.size());
  const double rnd_share =
      static_cast<double>(rnd.final_shard_sizes[0]) /
      static_cast<double>(txs.size());
  EXPECT_NEAR(rnd_share, uniform_share, 0.02);   // hashing is oblivious
  EXPECT_LT(opt_share, uniform_share * 0.6);     // OptChain avoids shard 0
  // And it pays off end to end.
  EXPECT_LT(opt.avg_latency_s, rnd.avg_latency_s);
}

TEST(FaultSimTest, SlowShardOnlyHurtsLocally) {
  // With OptChain routing around it, a single slow shard must not collapse
  // the whole system's health.
  const auto txs = stream(20000);
  SimConfig config = base_config(8, 2000.0);
  config.shard_slowdown = {5.0};
  auto pipeline = api::make_pipeline("OptChain", 8);
  const auto result = Simulation(config).run(txs, pipeline);
  EXPECT_TRUE(result.completed);
  EXPECT_LT(result.avg_latency_s, 30.0);
}

}  // namespace
}  // namespace optchain::sim
