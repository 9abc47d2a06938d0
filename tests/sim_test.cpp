// Tests for the discrete-event simulator: event ordering, network/consensus
// models, shard block production, and full-run invariants (conservation,
// determinism, protocol semantics).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "api/placement_pipeline.hpp"
#include "placement/random_placer.hpp"
#include "sim/consensus.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/shard_node.hpp"
#include "sim/simulation.hpp"
#include "workload/bitcoin_like_generator.hpp"

namespace optchain::sim {
namespace {

// -------------------------------------------------------------- EventQueue

/// Records every dispatched event and its dispatch time.
struct RecordingHandler final : EventHandler {
  explicit RecordingHandler(EventQueue& queue) : queue(&queue) {}
  void on_event(const Event& event) override {
    events.push_back(event);
    times.push_back(queue->now());
  }
  EventQueue* queue;
  std::vector<Event> events;
  std::vector<double> times;
};

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue queue;
  RecordingHandler handler(queue);
  queue.schedule(3.0, Event::tx_issue(3));
  queue.schedule(1.0, Event::tx_issue(1));
  queue.schedule(2.0, Event::tx_issue(2));
  while (queue.run_one(handler)) {
  }
  ASSERT_EQ(handler.events.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(handler.events[i].tx, i + 1);
    EXPECT_DOUBLE_EQ(handler.times[i], static_cast<double>(i + 1));
  }
  EXPECT_DOUBLE_EQ(queue.now(), 3.0);
}

TEST(EventQueueTest, TieBreaksByContentKey) {
  // Simultaneous events order by content (rank, shard, tx, ...), not by
  // schedule order: the cross-engine determinism contract. Schedule in a
  // deliberately scrambled order and expect churn < sample < issues-by-tx <
  // shard-addressed-by-shard.
  EventQueue queue;
  RecordingHandler handler(queue);
  queue.schedule(1.0, Event::tx_issue(3));
  queue.schedule(1.0, Event::deliver(EventType::kTxDeliver, 5, 9));
  queue.schedule(1.0, Event::tx_issue(1));
  queue.schedule(1.0, Event::queue_sample());
  queue.schedule(1.0, Event::deliver(EventType::kTxDeliver, 2, 9));
  queue.schedule(1.0, Event::shard_change(0));
  while (queue.run_one(handler)) {
  }
  ASSERT_EQ(handler.events.size(), 6u);
  EXPECT_EQ(handler.events[0].type, EventType::kShardChange);
  EXPECT_EQ(handler.events[1].type, EventType::kQueueSample);
  EXPECT_EQ(handler.events[2].tx, 1u);
  EXPECT_EQ(handler.events[3].tx, 3u);
  EXPECT_EQ(handler.events[4].shard, 2u);
  EXPECT_EQ(handler.events[5].shard, 5u);
}

TEST(EventQueueTest, IdenticalSimultaneousEventsKeepScheduleOrder) {
  // Two entries with the same time and content are byte-identical events
  // (content_order compares every field), so the queue needs no schedule
  // sequence number: either pop order hands the handler the same events.
  EventQueue queue;
  RecordingHandler handler(queue);
  queue.schedule(1.0, Event::tx_issue(7));
  queue.schedule(1.0, Event::tx_issue(7));
  while (queue.run_one(handler)) {
  }
  ASSERT_EQ(handler.events.size(), 2u);
  EXPECT_EQ(handler.events[0].tx, 7u);
  EXPECT_EQ(handler.events[1].tx, 7u);
}

static_assert(sizeof(EventQueue::Entry) == 24,
              "a heap entry is the time plus the 12-byte event");

using Scheduled = std::pair<SimTime, Event>;

bool same_event(const Event& a, const Event& b) {
  return a.type == b.type && a.flag == b.flag && a.shard == b.shard &&
         a.tx == b.tx;
}

/// A random schedule made of few distinct times and a small payload space,
/// so exact-time ties between different events are everywhere, plus
/// byte-identical duplicates.
std::vector<Scheduled> tie_heavy_schedule(std::uint64_t seed, std::size_t n,
                                          SimTime earliest) {
  std::mt19937_64 rng(seed);
  std::vector<Scheduled> schedule;
  while (schedule.size() < n) {
    const SimTime time = earliest + static_cast<double>(rng() % 12) * 0.25;
    const auto tx = static_cast<std::uint32_t>(rng() % 6);
    const auto shard = static_cast<std::uint32_t>(rng() % 4);
    Event event;
    switch (rng() % 6) {
      case 0:
        event = Event::tx_issue(tx);
        break;
      case 1:
        event = Event::deliver(EventType::kLockRequest, shard, tx);
        break;
      case 2:
        event = Event::deliver(EventType::kTxDeliver, shard, tx);
        break;
      case 3:
        event = Event::proof(tx, shard, rng() % 2 == 0);
        break;
      case 4:
        event = Event::round_complete(shard, rng() % 2 == 0);
        break;
      default:
        event = Event::queue_sample();
        break;
    }
    schedule.emplace_back(time, event);
    if (rng() % 3 == 0) schedule.emplace_back(time, event);  // duplicate
  }
  return schedule;
}

/// `pending` in the order the queue must pop it: sorted on (time, content).
std::vector<Scheduled> reference_order(std::vector<Scheduled> pending) {
  std::sort(pending.begin(), pending.end(),
            [](const Scheduled& a, const Scheduled& b) {
              return event_key_less(a.first, a.second, b.first, b.second);
            });
  return pending;
}

/// Pops every pending event and checks it against `expected`.
void expect_pops(EventQueue& queue, const std::vector<Scheduled>& expected) {
  RecordingHandler handler(queue);
  while (queue.run_one(handler)) {
  }
  ASSERT_EQ(handler.events.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(handler.times[i], expected[i].first) << "pop " << i;
    EXPECT_TRUE(same_event(handler.events[i], expected[i].second))
        << "pop " << i;
  }
}

TEST(EventQueueTest, TieHeavyScheduleMatchesAReferenceSort) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::vector<Scheduled> schedule =
        tie_heavy_schedule(seed, 50 + 40 * seed, 0.0);
    EventQueue queue;
    for (const auto& [time, event] : schedule) queue.schedule(time, event);
    EXPECT_EQ(queue.peak_pending(), schedule.size());
    expect_pops(queue, reference_order(schedule));
  }
}

TEST(EventQueueTest, TieHeavyScheduleMatchesAReferenceSortAfterExtract) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::vector<Scheduled> schedule =
        tie_heavy_schedule(seed, 50 + 40 * seed, 1.0);
    EventQueue queue;
    for (const auto& [time, event] : schedule) queue.schedule(time, event);
    // Pop a prefix, then pull out every event of shard 1 (what churn does
    // to a retiring shard group), which re-heapifies the rest.
    RecordingHandler prefix(queue);
    queue.run_until(1.5, prefix);
    const std::vector<Scheduled> order = reference_order(schedule);
    ASSERT_LT(prefix.events.size(), order.size());
    for (std::size_t i = 0; i < prefix.events.size(); ++i) {
      EXPECT_EQ(prefix.times[i], order[i].first) << "pop " << i;
      EXPECT_TRUE(same_event(prefix.events[i], order[i].second)) << "pop " << i;
    }
    const auto of_shard_one = [](const Event& event) {
      return event.type != EventType::kTxIssue &&
             event.type != EventType::kQueueSample && event.shard == 1;
    };
    std::vector<Scheduled> kept, matching;
    for (std::size_t i = prefix.events.size(); i < order.size(); ++i) {
      (of_shard_one(order[i].second) ? matching : kept).push_back(order[i]);
    }
    ASSERT_FALSE(matching.empty());
    const std::vector<Scheduled> extracted =
        reference_order(queue.extract_if(of_shard_one));
    ASSERT_EQ(extracted.size(), matching.size());
    for (std::size_t i = 0; i < matching.size(); ++i) {
      EXPECT_EQ(extracted[i].first, matching[i].first);
      EXPECT_TRUE(same_event(extracted[i].second, matching[i].second));
    }
    // What stays pops in reference order straight after the re-heapify.
    {
      EventQueue copy = queue;
      expect_pops(copy, kept);
    }
    // Re-scheduling the extracted events plus a fresh tie-heavy batch
    // restores one (time, content) order over everything pending.
    std::vector<Scheduled> pending = kept;
    for (const Scheduled& entry : extracted) {
      queue.schedule(entry.first, entry.second);
      pending.push_back(entry);
    }
    for (const Scheduled& entry :
         tie_heavy_schedule(seed + 100, 30, queue.now())) {
      queue.schedule(entry.first, entry.second);
      pending.push_back(entry);
    }
    EXPECT_EQ(queue.pending(), pending.size());
    expect_pops(queue, reference_order(pending));
  }
}

TEST(EventQueueTest, EventsMayScheduleEvents) {
  // A handler reacting to one event by scheduling another (the issue-chain /
  // block-round pattern).
  struct ChainingHandler final : EventHandler {
    explicit ChainingHandler(EventQueue& queue) : queue(&queue) {}
    void on_event(const Event& event) override {
      ++fired;
      if (event.tx == 0) queue->schedule_in(0.5, Event::tx_issue(1));
    }
    EventQueue* queue;
    int fired = 0;
  };
  EventQueue queue;
  ChainingHandler handler(queue);
  queue.schedule(1.0, Event::tx_issue(0));
  while (queue.run_one(handler)) {
  }
  EXPECT_EQ(handler.fired, 2);
  EXPECT_DOUBLE_EQ(queue.now(), 1.5);
}

TEST(EventQueueTest, RunUntilRespectsHorizon) {
  EventQueue queue;
  RecordingHandler handler(queue);
  queue.schedule(1.0, Event::tx_issue(1));
  queue.schedule(5.0, Event::tx_issue(2));
  EXPECT_EQ(queue.run_until(2.0, handler), 1u);
  EXPECT_EQ(handler.events.size(), 1u);
  EXPECT_EQ(queue.pending(), 1u);
}

TEST(EventQueueDeathTest, PastSchedulingRejected) {
  EventQueue queue;
  RecordingHandler handler(queue);
  queue.schedule(2.0, Event::tx_issue(0));
  queue.run_one(handler);
  EXPECT_DEATH(queue.schedule(1.0, Event::tx_issue(1)), "Precondition");
}

TEST(EventQueueTest, PodEventRoundTripsPayload) {
  EventQueue queue;
  RecordingHandler handler(queue);
  queue.schedule(1.0, Event::proof(/*tx=*/7, /*from_shard=*/3, true));
  queue.schedule(2.0, Event::round_complete(/*shard=*/5, /*view_change=*/true));
  while (queue.run_one(handler)) {
  }
  ASSERT_EQ(handler.events.size(), 2u);
  EXPECT_EQ(handler.events[0].type, EventType::kProof);
  EXPECT_EQ(handler.events[0].tx, 7u);
  EXPECT_EQ(handler.events[0].shard, 3u);
  EXPECT_EQ(handler.events[0].flag, 1u);
  EXPECT_EQ(handler.events[1].type, EventType::kViewChange);
  EXPECT_EQ(handler.events[1].shard, 5u);
}

// -------------------------------------------------------------- Network

TEST(NetworkModelTest, BaseLatencyFloor) {
  NetworkModel net;
  const Position a{0.0, 0.0};
  EXPECT_DOUBLE_EQ(net.propagation_delay(a, a), 0.100);
}

TEST(NetworkModelTest, DistanceIncreasesLatency) {
  NetworkModel net;
  const Position a{0.0, 0.0};
  const Position near{0.1, 0.0};
  const Position far{1.0, 1.0};
  EXPECT_LT(net.propagation_delay(a, near), net.propagation_delay(a, far));
  // Corner to corner: base + full distance term.
  EXPECT_NEAR(net.propagation_delay(a, far), 0.150, 1e-9);
}

TEST(NetworkModelTest, BandwidthDelaysLargeMessages) {
  NetworkModel net;
  const Position a{0.0, 0.0};
  // 1 MB at 20 Mbps = 0.4 s of serialization.
  EXPECT_NEAR(net.message_delay(a, a, 1'000'000) -
                  net.propagation_delay(a, a),
              0.4, 1e-9);
}

TEST(NetworkModelTest, TransferTimeLinear) {
  NetworkModel net;
  EXPECT_NEAR(net.transfer_time(2'000'000), 2 * net.transfer_time(1'000'000),
              1e-12);
}

// -------------------------------------------------------------- Consensus

TEST(ConsensusModelTest, DurationGrowsWithBlockFill) {
  NetworkModel net;
  Rng rng(1);
  ConsensusModel model({}, net, {0.5, 0.5}, rng);
  const double empty = model.round_duration(0);
  const double half = model.round_duration(1000);
  const double full = model.round_duration(2000);
  EXPECT_LT(empty, half);
  EXPECT_LT(half, full);
}

TEST(ConsensusModelTest, FullBlockInPaperBallpark) {
  // A full 1 MB block over a 400-validator committee should take seconds —
  // that is what bounds per-shard throughput to a few hundred tps, which is
  // the regime the paper's experiments live in.
  NetworkModel net;
  Rng rng(2);
  ConsensusModel model({}, net, {0.5, 0.5}, rng);
  const double full = model.round_duration(2000);
  EXPECT_GT(full, 1.0);
  EXPECT_LT(full, 10.0);
}

TEST(ConsensusModelTest, SmallerCommitteeFaster) {
  NetworkModel net;
  Rng rng(3);
  ConsensusConfig small_c;
  small_c.committee_size = 16;
  ConsensusConfig big_c;
  big_c.committee_size = 1024;
  ConsensusModel small_m(small_c, net, {0.5, 0.5}, rng);
  ConsensusModel big_m(big_c, net, {0.5, 0.5}, rng);
  EXPECT_LT(small_m.round_duration(2000), big_m.round_duration(2000));
}

// -------------------------------------------------------------- ShardNode

struct CommitLog {
  std::vector<std::pair<QueueItem, SimTime>> items;
};

/// Minimal dispatcher for standalone ShardNode tests: routes round events to
/// the node and kTxDeliver events into its mempool.
struct ShardRouter final : EventHandler {
  explicit ShardRouter(ShardNode& node) : node(&node) {}
  void on_event(const Event& event) override {
    if (node->route_round_event(event)) return;
    ASSERT_EQ(event.type, EventType::kTxDeliver);
    node->enqueue(QueueItem{event.tx, ItemKind::kSameShard});
  }
  ShardNode* node;
};

TEST(ShardNodeTest, ProcessesQueueInBlocks) {
  EventQueue events;
  NetworkModel net;
  Rng rng(4);
  ConsensusConfig consensus;
  consensus.txs_per_block = 2;  // tiny blocks to observe batching
  CommitLog log;
  ShardNode shard(0, {0.5, 0.5}, ConsensusModel(consensus, net, {0.5, 0.5}, rng),
                  events, [&](std::uint32_t, std::span<const QueueItem> block,
                              SimTime t) {
                    for (const QueueItem& item : block) {
                      log.items.emplace_back(item, t);
                    }
                  });
  ShardRouter router(shard);

  for (std::uint32_t i = 0; i < 5; ++i) {
    shard.enqueue(QueueItem{i, ItemKind::kSameShard});
  }
  while (events.run_one(router)) {
  }
  ASSERT_EQ(log.items.size(), 5u);
  // The first enqueue starts a round immediately with just item 0; the rest
  // batch into blocks of 2: {0}, {1,2}, {3,4}.
  EXPECT_EQ(shard.blocks_committed(), 3u);
  EXPECT_EQ(shard.queue_size(), 0u);
  // FIFO order preserved.
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(log.items[i].first.tx, i);
  }
  // Items within a block share a commit time; later blocks commit later.
  EXPECT_LT(log.items[0].second, log.items[1].second);
  EXPECT_DOUBLE_EQ(log.items[1].second, log.items[2].second);
  EXPECT_LT(log.items[2].second, log.items[3].second);
  EXPECT_DOUBLE_EQ(log.items[3].second, log.items[4].second);
}

TEST(ShardNodeTest, CommitsEachBlockInOneCallback) {
  EventQueue events;
  NetworkModel net;
  Rng rng(8);
  ConsensusConfig consensus;
  consensus.txs_per_block = 3;
  std::vector<std::vector<QueueItem>> blocks;
  std::vector<SimTime> commit_times;
  ShardNode shard(2, {0.5, 0.5},
                  ConsensusModel(consensus, net, {0.5, 0.5}, rng), events,
                  [&](std::uint32_t id, std::span<const QueueItem> block,
                      SimTime t) {
                    EXPECT_EQ(id, 2u);
                    EXPECT_EQ(t, events.now());
                    blocks.emplace_back(block.begin(), block.end());
                    commit_times.push_back(t);
                  });
  ShardRouter router(shard);
  // Items of every kind, some queued up front and some arriving while a
  // round is in flight.
  const ItemKind kinds[] = {ItemKind::kSameShard, ItemKind::kLock,
                            ItemKind::kCommit};
  for (std::uint32_t i = 0; i < 5; ++i) {
    shard.enqueue(QueueItem{i, kinds[i % 3]});
  }
  for (std::uint32_t i = 5; i < 9; ++i) {
    events.schedule(0.01 * i, Event::deliver(EventType::kTxDeliver, 2, i));
  }
  while (events.run_one(router)) {
  }
  EXPECT_EQ(blocks.size(), shard.blocks_committed());
  EXPECT_EQ(shard.items_committed(), 9u);
  // One callback per block, blocks of at most txs_per_block, FIFO overall.
  std::uint32_t next = 0;
  for (const std::vector<QueueItem>& block : blocks) {
    ASSERT_FALSE(block.empty());
    EXPECT_LE(block.size(), 3u);
    for (const QueueItem& item : block) {
      EXPECT_EQ(item.tx, next);
      EXPECT_EQ(item.kind, next < 5 ? kinds[next % 3] : ItemKind::kSameShard);
      ++next;
    }
  }
  EXPECT_EQ(next, 9u);
  // The first enqueue starts a round with item 0 alone; the rest batch.
  EXPECT_EQ(blocks.front().size(), 1u);
  for (std::size_t b = 1; b < commit_times.size(); ++b) {
    EXPECT_LT(commit_times[b - 1], commit_times[b]);
  }
}

TEST(ShardNodeTest, IdleUntilWorkArrives) {
  EventQueue events;
  NetworkModel net;
  Rng rng(5);
  CommitLog log;
  ShardNode shard(0, {0.5, 0.5}, ConsensusModel({}, net, {0.5, 0.5}, rng),
                  events, [&](std::uint32_t, std::span<const QueueItem> block,
                              SimTime t) {
                    for (const QueueItem& item : block) {
                      log.items.emplace_back(item, t);
                    }
                  });
  ShardRouter router(shard);
  EXPECT_TRUE(events.empty());
  events.schedule(10.0, Event::deliver(EventType::kTxDeliver, 0, 0));
  while (events.run_one(router)) {
  }
  ASSERT_EQ(log.items.size(), 1u);
  EXPECT_GT(log.items[0].second, 10.0);
}

TEST(ShardNodeTest, LastRoundDurationTracksBlockSize) {
  EventQueue events;
  NetworkModel net;
  Rng rng(6);
  ShardNode shard(0, {0.5, 0.5}, ConsensusModel({}, net, {0.5, 0.5}, rng),
                  events, [](std::uint32_t, std::span<const QueueItem>,
                             SimTime) {});
  ShardRouter router(shard);
  const double initial = shard.last_round_duration();
  shard.enqueue(QueueItem{0, ItemKind::kSameShard});
  while (events.run_one(router)) {
  }
  // One item instead of a full 2000-tx block: the observed round is shorter.
  EXPECT_LT(shard.last_round_duration(), initial);
}

// -------------------------------------------------------------- Simulation

SimConfig small_config(std::uint32_t shards, double rate) {
  SimConfig config;
  config.num_shards = shards;
  config.tx_rate_tps = rate;
  config.consensus.txs_per_block = 100;
  config.consensus.block_bytes = 50'000;
  config.consensus.committee_size = 64;
  config.queue_sample_interval_s = 1.0;
  config.commit_window_s = 10.0;
  return config;
}

std::vector<tx::Transaction> small_stream(std::size_t n,
                                          std::uint64_t seed = 1) {
  workload::BitcoinLikeGenerator gen({}, seed);
  return gen.generate(n);
}

/// Fresh hash-placement pipeline for k shards.
api::PlacementPipeline random_pipeline(std::uint32_t k) {
  return api::PlacementPipeline(k,
                                std::make_unique<placement::RandomPlacer>());
}

TEST(SimulationTest, AllTransactionsCommitExactlyOnce) {
  const auto txs = small_stream(2000);
  Simulation sim(small_config(4, 500.0));
  auto pipeline = random_pipeline(4);
  const SimResult result = sim.run(txs, pipeline);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.committed_txs, txs.size());
  EXPECT_EQ(result.latencies.count(), txs.size());
  EXPECT_GT(result.throughput_tps, 0.0);
  EXPECT_GT(result.total_blocks, 0u);
}

TEST(SimulationTest, DeterministicForSameSeed) {
  const auto txs = small_stream(1500);
  SimResult a, b;
  {
    Simulation sim(small_config(4, 500.0));
    auto pipeline = random_pipeline(4);
    a = sim.run(txs, pipeline);
  }
  {
    Simulation sim(small_config(4, 500.0));
    auto pipeline = random_pipeline(4);
    b = sim.run(txs, pipeline);
  }
  EXPECT_DOUBLE_EQ(a.duration_s, b.duration_s);
  EXPECT_DOUBLE_EQ(a.avg_latency_s, b.avg_latency_s);
  EXPECT_EQ(a.cross_txs, b.cross_txs);
  EXPECT_EQ(a.total_events, b.total_events);
}

TEST(SimulationTest, DifferentSeedsChangeTopology) {
  const auto txs = small_stream(1000);
  SimConfig config_a = small_config(4, 500.0);
  SimConfig config_b = config_a;
  config_b.seed = 777;
  auto pipeline_a = random_pipeline(4);
  auto pipeline_b = random_pipeline(4);
  const SimResult a = Simulation(config_a).run(txs, pipeline_a);
  const SimResult b = Simulation(config_b).run(txs, pipeline_b);
  EXPECT_NE(a.avg_latency_s, b.avg_latency_s);
}

TEST(SimulationTest, LatencyAtLeastNetworkFloor) {
  const auto txs = small_stream(500);
  Simulation sim(small_config(4, 200.0));
  auto pipeline = random_pipeline(4);
  const SimResult result = sim.run(txs, pipeline);
  // No commit can beat one client->shard hop: > 100 ms.
  EXPECT_GT(result.latencies.quantile(0.0), 0.1);
}

TEST(SimulationTest, CrossFractionMatchesPlacementTheory) {
  // Random placement over k shards leaves related transactions together with
  // probability ~1/k per input; the measured cross fraction must be high.
  const auto txs = small_stream(3000);
  Simulation sim(small_config(8, 1000.0));
  auto pipeline = random_pipeline(8);
  const SimResult result = sim.run(txs, pipeline);
  EXPECT_GT(result.cross_fraction(), 0.6);
}

TEST(SimulationTest, OptChainReducesCrossAndLatency) {
  const auto txs = small_stream(3000);

  auto random = random_pipeline(8);
  const SimResult r_random =
      Simulation(small_config(8, 1000.0)).run(txs, random);

  auto optchain = api::make_pipeline("OptChain", 8);
  const SimResult r_opt =
      Simulation(small_config(8, 1000.0)).run(txs, optchain);

  EXPECT_LT(r_opt.cross_txs, r_random.cross_txs / 2);
  EXPECT_LT(r_opt.avg_latency_s, r_random.avg_latency_s);
}

TEST(SimulationTest, RapidChainModeAlsoCompletes) {
  const auto txs = small_stream(1500);
  SimConfig config = small_config(4, 500.0);
  config.protocol = ProtocolMode::kRapidChain;
  Simulation sim(config);
  auto pipeline = random_pipeline(4);
  const SimResult result = sim.run(txs, pipeline);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.committed_txs, txs.size());
}

TEST(SimulationTest, RapidChainFasterThanOmniLedgerOnCrossTxs) {
  // Yanking skips the client round trip, so under identical placement the
  // average latency cannot be (meaningfully) worse.
  const auto txs = small_stream(2000);
  SimConfig omni_config = small_config(4, 400.0);
  SimConfig rapid_config = omni_config;
  rapid_config.protocol = ProtocolMode::kRapidChain;
  auto pipeline_a = random_pipeline(4);
  auto pipeline_b = random_pipeline(4);
  const SimResult omni = Simulation(omni_config).run(txs, pipeline_a);
  const SimResult rapid = Simulation(rapid_config).run(txs, pipeline_b);
  EXPECT_LT(rapid.avg_latency_s, omni.avg_latency_s * 1.02);
}

TEST(SimulationTest, OverloadBacklogRaisesLatency) {
  // Same stream, same shards; 4x the arrival rate must raise avg latency.
  const auto txs = small_stream(3000);
  auto pipeline_slow = random_pipeline(2);
  auto pipeline_fast = random_pipeline(2);
  const SimResult slow =
      Simulation(small_config(2, 200.0)).run(txs, pipeline_slow);
  const SimResult fast =
      Simulation(small_config(2, 2000.0)).run(txs, pipeline_fast);
  EXPECT_GT(fast.avg_latency_s, slow.avg_latency_s);
}

TEST(SimulationTest, QueueTrackerSamples) {
  const auto txs = small_stream(2000);
  Simulation sim(small_config(4, 500.0));
  auto pipeline = random_pipeline(4);
  const SimResult result = sim.run(txs, pipeline);
  EXPECT_GT(result.queue_tracker.snapshots().size(), 2u);
  // Snapshot times are non-decreasing.
  double prev = -1.0;
  for (const auto& snap : result.queue_tracker.snapshots()) {
    EXPECT_GE(snap.time, prev);
    prev = snap.time;
    EXPECT_GE(snap.max_queue, snap.min_queue);
  }
}

TEST(SimulationTest, WindowCountsSumToTotal) {
  const auto txs = small_stream(2000);
  Simulation sim(small_config(4, 500.0));
  auto pipeline = random_pipeline(4);
  const SimResult result = sim.run(txs, pipeline);
  std::uint64_t sum = 0;
  for (const auto c : result.commits_per_window.counts()) sum += c;
  EXPECT_EQ(sum, txs.size());
}

TEST(SimulationTest, ShardSizesSumToTotal) {
  const auto txs = small_stream(1000);
  Simulation sim(small_config(4, 500.0));
  auto pipeline = random_pipeline(4);
  const SimResult result = sim.run(txs, pipeline);
  std::uint64_t sum = 0;
  for (const auto s : result.final_shard_sizes) sum += s;
  EXPECT_EQ(sum, txs.size());
}

TEST(SimulationTest, HorizonAbortReportsIncomplete) {
  const auto txs = small_stream(2000);
  SimConfig config = small_config(1, 100000.0);  // 1 shard, hopeless rate
  config.max_sim_time_s = 1.0;
  Simulation sim(config);
  auto pipeline = random_pipeline(1);
  const SimResult result = sim.run(txs, pipeline);
  EXPECT_FALSE(result.completed);
  EXPECT_LT(result.committed_txs, txs.size());
}

// Property sweep: conservation holds across shard counts and protocols.
struct SimCase {
  std::uint32_t shards;
  ProtocolMode protocol;
};

class SimConservationTest : public ::testing::TestWithParam<SimCase> {};

TEST_P(SimConservationTest, EveryTxCommitsOnce) {
  const auto [shards, protocol] = GetParam();
  const auto txs = small_stream(1200, /*seed=*/shards);
  SimConfig config = small_config(shards, 600.0);
  config.protocol = protocol;
  Simulation sim(config);
  auto pipeline = random_pipeline(shards);
  const SimResult result = sim.run(txs, pipeline);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.committed_txs, txs.size());
  EXPECT_EQ(result.latencies.count(), txs.size());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimConservationTest,
    ::testing::Values(SimCase{1, ProtocolMode::kOmniLedger},
                      SimCase{2, ProtocolMode::kOmniLedger},
                      SimCase{4, ProtocolMode::kOmniLedger},
                      SimCase{16, ProtocolMode::kOmniLedger},
                      SimCase{4, ProtocolMode::kRapidChain},
                      SimCase{16, ProtocolMode::kRapidChain}),
    [](const ::testing::TestParamInfo<SimCase>& param_info) {
      return "k" + std::to_string(param_info.param.shards) +
             (param_info.param.protocol == ProtocolMode::kOmniLedger ? "_omni"
                                                               : "_rapid");
    });

}  // namespace
}  // namespace optchain::sim
