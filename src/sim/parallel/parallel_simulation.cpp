// Parallel engine implementation. Protocol semantics are duplicated
// statement-for-statement from sim/simulation.cpp (the source of truth);
// comments here cover only what the split adds — ownership, the lookahead
// window, record replay and churn-barrier migration. When simulation.cpp
// changes protocol behavior, the twin code paths here must follow; the
// golden and parallel bit-identity suites catch any drift.
#include "sim/parallel/parallel_simulation.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/assert.hpp"
#include "obs/phase_profiler.hpp"
#include "sim/shard_spawn.hpp"
#include "workload/dynamic_profile.hpp"

namespace optchain::sim::parallel {

namespace {
constexpr SimTime kNever = std::numeric_limits<SimTime>::infinity();
}  // namespace

ParallelSimulation::ParallelSimulation(SimConfig config, std::uint32_t jobs)
    : config_(std::move(config)),
      jobs_(std::max<std::uint32_t>(jobs, 1)),
      lookahead_(config_.fabric.min_delay(config_.network)),
      network_(config_.network),
      fabric_(config_.fabric, network_, config_.seed),
      rng_(config_.seed),
      result_{} {
  OPTCHAIN_EXPECTS(config_.num_shards >= 1);
  OPTCHAIN_EXPECTS(config_.tx_rate_tps > 0.0);
  // The lookahead IS the fabric's minimum delivery delay; without one the
  // window degenerates and the engine cannot run ahead (api::simulate falls
  // back to the sequential engine in that case).
  OPTCHAIN_EXPECTS(lookahead_ > 0.0);
  for (const ShardChurnEvent& change : config_.churn.events) {
    OPTCHAIN_EXPECTS(change.time_s >= 0.0);
  }

  // Same draw order as the sequential constructor: client first (the one
  // shared-Rng draw), then each shard from its private spawn stream.
  client_position_ = network_.random_position(rng_);
  OPTCHAIN_ASSERT(fabric_.add_endpoint() == kClientEndpoint);
  workers_ = std::vector<Worker>(jobs_);  // fixed: nodes reference queues
  shards_.reserve(config_.num_shards);
  for (std::uint32_t s = 0; s < config_.num_shards; ++s) spawn_shard_node();
}

ParallelSimulation::~ParallelSimulation() {
  if (!threads_.empty()) stop_workers();
}

void ParallelSimulation::spawn_shard_node() {
  const auto s = static_cast<std::uint32_t>(shards_.size());
  SpawnedShard spawned = spawn_shard(
      config_.consensus, network_, config_.seed, s,
      config_.fabric.enabled ? config_.fabric.link.bandwidth_bps : 0.0);
  const Position leader = spawned.leader_position;
  ShardFaults faults;
  faults.slowdown =
      s < config_.shard_slowdown.size() ? config_.shard_slowdown[s] : 1.0;
  faults.leader_fault_rate = config_.leader_fault_rate;
  faults.view_change_penalty_s = config_.view_change_penalty_s;
  faults.seed = config_.seed;
  const std::uint32_t w = s % jobs_;
  shards_.push_back(std::make_unique<ShardNode>(
      s, leader, std::move(spawned.model), workers_[w].queue,
      [this](std::uint32_t shard, std::span<const QueueItem> block,
             SimTime time) {
        for (const QueueItem& item : block) {
          worker_item_committed(shard, item, time);
        }
      },
      faults));
  shard_to_worker_.push_back(w);
  partitions_.emplace_back();
  OPTCHAIN_ASSERT(fabric_.add_endpoint() == endpoint_of(s));
  ShardMirror mirror;
  // Cached client↔leader round-trip: fabric propagation is stateless and a
  // pure function of immutable positions and endpoint ids, so the cached
  // double is bit-identical to the sequential engine's per-issue
  // recomputation.
  mirror.mean_comm =
      2.0 * fabric_.propagation_delay(kClientEndpoint, endpoint_of(s),
                                      client_position_, leader);
  mirror.last_round = shards_.back()->last_round_duration();
  mirror.queue_size = 0;
  mirror_.push_back(mirror);
}

SimResult ParallelSimulation::run(
    std::span<const tx::Transaction> transactions,
    api::PlacementPipeline& pipeline) {
  workload::SpanTxSource source(transactions);
  return run(source, pipeline);
}

SimResult ParallelSimulation::run(workload::TxSource& source,
                                  api::PlacementPipeline& pipeline) {
  OPTCHAIN_EXPECTS(pipeline.k() == config_.num_shards);
  OPTCHAIN_EXPECTS(pipeline.total() == 0);
  OPTCHAIN_EXPECTS(pipeline.dag().num_nodes() == 0);

  source_ = &source;
  pipeline_ = &pipeline;
  assignment_ = &pipeline.assignment();
  issued_ = 0;
  outstanding_ = 0;
  committed_ = 0;
  blocks_replayed_ = 0;
  now_ = 0.0;
  inflight_.clear();
  shadow_spent_.clear();
  for (LedgerPartition& partition : partitions_) partition.clear();
  successor_of_.resize(shards_.size());
  for (std::uint32_t s = 0; s < successor_of_.size(); ++s) {
    successor_of_[s] = s;
  }
  utxo_records_.assign(churn_enabled() ? shards_.size() : 0, 0);
  live_outputs_.clear();
  repartitioner_.reset();
  next_repartition_time_ = kNeverRepartition;
  if (repartition_enabled()) {
    repartitioner_ =
        std::make_unique<RepartitionController>(config_.repartition);
  }

  result_ = SimResult{};
  result_.placer_name = std::string(pipeline.method_name());
  fabric_.reset_state();

  metrics_ = stats::MetricsObserver(config_.commit_window_s);
  observers_.clear();
  observers_.push_back(&metrics_);
  for (SimObserver* observer : config_.observers) {
    OPTCHAIN_EXPECTS(observer != nullptr);
    observers_.push_back(observer);
  }

  const auto hint = source.size_hint();
  if (hint.has_value()) {
    pipeline.reserve(*hint);
    if (track_utxos()) {
      shadow_spent_.reserve(static_cast<std::size_t>(*hint * 2));
    }
    if (repartition_enabled()) {
      live_outputs_.reserve(static_cast<std::size_t>(*hint));
    }
  }
  inflight_.reserve(1024);
  // Satellite of the reserve contract: the coordinator heap and every
  // per-group heap are pre-sized from the expected-txs hint, so no heap
  // reallocates in steady state. Worker heaps split the hint — each group
  // sees roughly 1/jobs of the shard-addressed traffic.
  events_.reserve(event_heap_reserve(hint));
  const std::size_t per_worker = event_heap_reserve(
      hint.has_value() ? std::optional<std::uint64_t>(*hint / jobs_ + 1)
                       : std::nullopt);
  for (Worker& worker : workers_) worker.queue.reserve(per_worker);
  shard_event_counts_.assign(shards_.size(), 0);

  staged_valid_ = source_->next(staged_);
  if (staged_valid_) {
    events_.schedule(0.0, Event::tx_issue(0));
  }
  events_.schedule(0.0, Event::queue_sample());
  churn_times_.clear();
  churn_cursor_ = 0;
  for (std::uint32_t c = 0; c < config_.churn.events.size(); ++c) {
    events_.schedule(config_.churn.events[c].time_s, Event::shard_change(c));
    churn_times_.push_back(config_.churn.events[c].time_s);
  }
  std::sort(churn_times_.begin(), churn_times_.end());
  // Like churn, re-partition ticks cut windows: window ends never cross
  // next_repartition_time_, so each tick fires alone at a barrier.
  if (repartition_enabled()) {
    next_repartition_time_ = config_.repartition.interval_s;
    events_.schedule(next_repartition_time_, Event::repartition());
  }

  start_workers();

  // The window loop. Loop-entry checks mirror the sequential engine's
  // per-event loop condition (work_remaining, queue non-empty, now within
  // the horizon); replay_window re-checks them before every merged item.
  while (true) {
    for (Worker& worker : workers_) worker.mailbox.flush_into(worker.queue);
    if (!work_remaining()) break;
    if (now_ > config_.max_sim_time_s) break;

    SimTime t_min = kNever;
    if (!events_.empty()) t_min = events_.next_time();
    for (const Worker& worker : workers_) {
      if (!worker.queue.empty()) {
        t_min = std::min(t_min, worker.queue.next_time());
      }
    }
    if (t_min == kNever) break;  // nothing pending anywhere

    // Scripted churn or a re-partition tick due: ranks 0/1 make them the
    // globally earliest keys at their time, so each fires alone at a
    // barrier (workers idle, current window cut short by the min()s below
    // on earlier iterations). When both are due at once, churn's lower rank
    // fires first — the next loop iteration picks up the tick.
    if (!events_.empty() && events_.next_time() == t_min &&
        (events_.next_event().type == EventType::kShardChange ||
         events_.next_event().type == EventType::kRepartition)) {
      events_.run_one(*this);
      continue;
    }

    SimTime window_end = t_min + lookahead_;
    if (churn_cursor_ < churn_times_.size()) {
      window_end = std::min(window_end, churn_times_[churn_cursor_]);
    }
    window_end = std::min(window_end, next_repartition_time_);
    OPTCHAIN_ASSERT(window_end > t_min);

    {
      // phase A: workers execute [t_min, E)
      obs::ScopedPhase timer(obs::Phase::kSimPhaseA);
      run_worker_phase(window_end);
    }
    {
      // phase B: merged deterministic replay (the serial fraction)
      obs::ScopedPhase timer(obs::Phase::kSimPhaseB);
      replay_window(window_end);
    }
  }

  stop_workers();

  result_.total_txs = hint.has_value() ? *hint : issued_;
  result_.committed_txs = committed_;
  result_.completed = !work_remaining();
  result_.cross_txs = metrics_.cross_counter().cross();
  result_.aborted_txs = metrics_.aborted();
  result_.duration_s = metrics_.duration_s();
  result_.shard_changes = metrics_.shard_changes();
  result_.migrated_txs = metrics_.migrated_txs();
  result_.migrated_utxos = metrics_.migrated_utxos();
  result_.repartition_events = metrics_.repartition_events();
  result_.repartition_migrated_txs = metrics_.repartition_migrated_txs();
  result_.repartition_migrated_utxos = metrics_.repartition_migrated_utxos();
  result_.repartition_deferred_txs = metrics_.repartition_deferred_txs();
  result_.latencies = metrics_.latencies();
  result_.commits_per_window = metrics_.commits_per_window();
  result_.queue_tracker = metrics_.queue_tracker();
  if (result_.latencies.count() > 0) {
    result_.avg_latency_s = result_.latencies.average();
    result_.max_latency_s = result_.latencies.maximum();
  }
  if (result_.duration_s > 0.0) {
    result_.throughput_tps =
        static_cast<double>(result_.committed_txs) / result_.duration_s;
  }
  // Blocks are counted from *replayed* round records, never from node
  // state: workers legitimately overrun the coordinator's stop point
  // inside the final window, and only replayed rounds exist in the
  // sequential engine's timeline.
  result_.total_blocks = blocks_replayed_;
  const LinkFabric::Stats& link_stats = fabric_.stats();
  result_.link_messages = link_stats.messages;
  result_.link_bytes = link_stats.bytes;
  result_.link_drops = link_stats.drops;
  result_.link_queue_delay_s = link_stats.queue_delay_s;
  result_.link_peak_backlog_s = link_stats.peak_backlog_s;
  result_.event_heap_peak = events_.peak_pending();
  for (const Worker& worker : workers_) {
    result_.event_heap_peak =
        std::max<std::uint64_t>(result_.event_heap_peak,
                                worker.queue.peak_pending());
  }
  shard_event_counts_.resize(shards_.size(), 0);
  result_.shard_event_counts = shard_event_counts_;
  result_.final_shard_sizes = pipeline.assignment().sizes();
  assignment_ = nullptr;
  pipeline_ = nullptr;
  source_ = nullptr;
  return result_;
}

// ----------------------------------------------------------------- phase A

void ParallelSimulation::worker_main(Worker& worker) {
  std::uint64_t seen_epoch = 0;
  WorkerHandler handler(*this, worker);
  while (true) {
    SimTime window_end;
    {
      std::unique_lock lock(mu_);
      cv_workers_.wait(lock,
                       [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
      window_end = window_end_;
    }
    worker.records.clear();
    worker.items.clear();
    while (!worker.queue.empty() && worker.queue.next_time() < window_end) {
      worker.queue.run_one(handler);
    }
    {
      std::lock_guard lock(mu_);
      if (++done_ == jobs_) cv_done_.notify_one();
    }
  }
}

void ParallelSimulation::worker_on_event(Worker& worker, const Event& event) {
  const SimTime time = worker.queue.now();
  WorkerRecord record;
  record.time = time;
  record.event = event;
  switch (event.type) {
    case EventType::kTxDeliver:
    case EventType::kLockRequest:
    case EventType::kUnlockCommit: {
      const std::uint32_t s = resolve_shard(event.shard);
      const ItemKind kind = event.type == EventType::kTxDeliver
                                ? ItemKind::kSameShard
                                : event.type == EventType::kLockRequest
                                      ? ItemKind::kLock
                                      : ItemKind::kCommit;
      shards_[s]->enqueue(QueueItem{event.tx, kind});
      record.resolved_shard = s;
      record.queue_size_after = shards_[s]->queue_size();
      break;
    }
    case EventType::kUnlockAbort: {
      const std::uint32_t s = resolve_shard(event.shard);
      partition_release_locks(event.tx, s);
      record.resolved_shard = s;
      break;
    }
    case EventType::kBlockCommit:
    case EventType::kViewChange: {
      record.item_begin = static_cast<std::uint32_t>(worker.items.size());
      shards_[event.shard]->complete_round();  // items land via the callback
      record.item_count =
          static_cast<std::uint32_t>(worker.items.size()) - record.item_begin;
      record.resolved_shard = resolve_shard(event.shard);
      record.last_round_duration = shards_[event.shard]->last_round_duration();
      record.queue_size_after = shards_[event.shard]->queue_size();
      break;
    }
    default:
      OPTCHAIN_ASSERT(false);  // client-side events never reach a worker
  }
  worker.records.push_back(record);
}

void ParallelSimulation::worker_item_committed(std::uint32_t node_id,
                                               const QueueItem& item,
                                               SimTime /*time*/) {
  // Runs inside complete_round() on the worker owning resolve(node_id) —
  // exactly the worker whose queue held the round event (churn migrates the
  // event and rebinds the node together).
  const std::uint32_t s = resolve_shard(node_id);
  Worker& worker = workers_[shard_to_worker_[s]];
  ItemOutcome outcome;
  outcome.item = item;
  switch (item.kind) {
    case ItemKind::kSameShard:
      outcome.locked = partition_try_lock(item.tx, s);
      if (outcome.locked) partition_spend(item.tx, s);
      break;
    case ItemKind::kCommit:
      partition_spend(item.tx, s);
      break;
    case ItemKind::kLock:
      // The lock verdict is decided here (partition state is worker-owned);
      // the proof's *delay* is computed at replay time on the coordinator —
      // the fabric's uplink state must advance in merged phase-B order.
      outcome.locked = partition_try_lock(item.tx, s);
      break;
  }
  worker.items.push_back(outcome);
}

bool ParallelSimulation::partition_try_lock(std::uint32_t index,
                                            std::uint32_t shard) {
  const Inflight& flight = inflight_.at(index);
  LedgerPartition& partition = partitions_[shard];
  for (const tx::OutPoint& point : flight.inputs) {
    if (assignment_->shard_of(point.tx) != shard) continue;
    const auto it = partition.find(outpoint_key(point));
    if (it != partition.end() && it->second.second != index) {
      return false;
    }
  }
  for (const tx::OutPoint& point : flight.inputs) {
    if (assignment_->shard_of(point.tx) != shard) continue;
    partition[outpoint_key(point)] = {OutpointState::kLocked, index};
  }
  return true;
}

void ParallelSimulation::partition_release_locks(std::uint32_t index,
                                                 std::uint32_t shard) {
  const Inflight& flight = inflight_.at(index);
  LedgerPartition& partition = partitions_[shard];
  for (const tx::OutPoint& point : flight.inputs) {
    if (assignment_->shard_of(point.tx) != shard) continue;
    const auto it = partition.find(outpoint_key(point));
    if (it != partition.end() &&
        it->second == std::make_pair(OutpointState::kLocked, index)) {
      partition.erase(it);
    }
  }
}

void ParallelSimulation::partition_spend(std::uint32_t index,
                                         std::uint32_t shard) {
  // Only this shard's owned inputs are marked. A cross-shard commit leaves
  // remote inputs (kLocked, index) in their owners' partitions forever —
  // observationally identical to the sequential engine's global kSpent
  // marker: conflict checks reject on any foreign entry, and a committed
  // transaction's locks are never released. UTXO accounting (churn runs)
  // happens on the coordinator's shadow map instead.
  const Inflight& flight = inflight_.at(index);
  LedgerPartition& partition = partitions_[shard];
  for (const tx::OutPoint& point : flight.inputs) {
    if (assignment_->shard_of(point.tx) != shard) continue;
    auto& entry = partition[outpoint_key(point)];
    if (entry.first == OutpointState::kSpent && entry.second != index) {
      // Churn handoffs and re-partition moves can both drop a lock.
      OPTCHAIN_ASSERT(churn_enabled() || repartition_enabled());
      continue;
    }
    entry = {OutpointState::kSpent, index};
  }
}

// ----------------------------------------------------------------- phase B

void ParallelSimulation::replay_window(SimTime window_end) {
  replay_cursor_.assign(jobs_, 0);
  while (work_remaining() && now_ <= config_.max_sim_time_s) {
    // Pick the globally-least item: worker record streams (already in key
    // order, all < window_end) vs the coordinator queue head.
    const WorkerRecord* best = nullptr;
    std::size_t best_worker = 0;
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      const std::vector<WorkerRecord>& records = workers_[w].records;
      if (replay_cursor_[w] >= records.size()) continue;
      const WorkerRecord& candidate = records[replay_cursor_[w]];
      if (best == nullptr || record_key_less(candidate, *best)) {
        best = &candidate;
        best_worker = w;
      }
    }
    bool use_coordinator = false;
    if (!events_.empty() && events_.next_time() < window_end) {
      if (best == nullptr ||
          event_key_less(events_.next_time(), events_.next_event(),
                         best->time, best->event)) {
        use_coordinator = true;
      }
    }
    if (use_coordinator) {
      // Barrier events never appear inside a window: window ends are cut at
      // the next churn time and next_repartition_time_.
      OPTCHAIN_ASSERT(events_.next_event().type != EventType::kShardChange &&
                      events_.next_event().type != EventType::kRepartition);
      events_.run_one(*this);
    } else if (best != nullptr) {
      replay_record(workers_[best_worker], *best);
      ++replay_cursor_[best_worker];
    } else {
      break;  // window drained
    }
  }
}

void ParallelSimulation::replay_record(const Worker& worker,
                                       const WorkerRecord& record) {
  now_ = record.time;
  ++result_.total_events;
  count_shard_event(record.event.shard);
  switch (record.event.type) {
    case EventType::kTxDeliver:
    case EventType::kLockRequest:
    case EventType::kUnlockCommit:
      mirror_[record.resolved_shard].queue_size = record.queue_size_after;
      break;
    case EventType::kUnlockAbort: {
      Inflight& flight = inflight_.at(record.event.tx);
      OPTCHAIN_ASSERT(flight.releases_in_flight > 0);
      --flight.releases_in_flight;
      erase_if_settled(record.event.tx);
      break;
    }
    case EventType::kBlockCommit:
    case EventType::kViewChange: {
      for (std::uint32_t i = 0; i < record.item_count; ++i) {
        replay_item(record, worker.items[record.item_begin + i]);
      }
      mirror_[record.event.shard].queue_size = record.queue_size_after;
      mirror_[record.event.shard].last_round = record.last_round_duration;
      ++blocks_replayed_;
      notify_block_commit(record.event.shard, record.time);
      break;
    }
    default:
      OPTCHAIN_ASSERT(false);
  }
}

void ParallelSimulation::replay_item(const WorkerRecord& record,
                                     const ItemOutcome& outcome) {
  const std::uint32_t index = outcome.item.tx;
  switch (outcome.item.kind) {
    case ItemKind::kSameShard:
      if (outcome.locked) {
        shadow_spend(index);
        commit_transaction(index, record.time);
      } else {
        abort_transaction(index, record.time);
        inflight_.at(index).aborted = true;
        erase_if_settled(index);
      }
      break;
    case ItemKind::kCommit:
      shadow_spend(index);
      commit_transaction(index, record.time);
      break;
    case ItemKind::kLock: {
      // The proof delay is computed here, in merged replay order — the
      // exact moment the sequential engine computes it — so the fabric's
      // uplink/jitter state advances identically in both engines. The
      // proof re-enters the coordinator's own queue; its handling
      // (client-side quorum state) belongs to phase B of a later window.
      const std::uint32_t origin = record.resolved_shard;
      const std::uint32_t decision_ep =
          config_.protocol == ProtocolMode::kOmniLedger
              ? kClientEndpoint
              : endpoint_of(
                    resolve_shard(inflight_.at(index).cross.output_shard));
      const Position decision_point =
          decision_ep == kClientEndpoint
              ? client_position_
              : shards_[decision_ep - 1]->leader_position();
      const double proof_delay = fabric_.message_delay(
          record.time, endpoint_of(origin), decision_ep,
          shards_[origin]->leader_position(), decision_point,
          config_.proof_bytes);
      events_.schedule(record.time + proof_delay,
                       Event::proof(index, origin, outcome.locked));
      break;
    }
  }
}

void ParallelSimulation::on_event(const Event& event) {
  now_ = events_.now();
  ++result_.total_events;
  switch (event.type) {
    case EventType::kTxIssue:
      issue_transaction(event.tx);
      break;
    case EventType::kProof:
      count_shard_event(event.shard);
      handle_proof(event.tx, event.flag != 0, event.shard);
      break;
    case EventType::kQueueSample:
      sample_queues();
      if (work_remaining()) {
        events_.schedule(now_ + config_.queue_sample_interval_s,
                         Event::queue_sample());
      }
      break;
    case EventType::kShardChange:
      apply_churn(config_.churn.events[event.tx]);
      ++churn_cursor_;
      break;
    case EventType::kRepartition:
      apply_repartition();
      break;
    default:
      OPTCHAIN_ASSERT(false);  // shard events live in worker queues
  }
}

void ParallelSimulation::issue_transaction(std::uint32_t index) {
  OPTCHAIN_ASSERT(staged_valid_);
  OPTCHAIN_ASSERT(staged_.index == index);
  constexpr std::uint64_t kMinPayloadBytes = 512;

  Inflight flight;
  flight.issue_time = now_;

  observe_timings();
  const api::StepResult placed = pipeline_->step(staged_, timings_);
  const placement::ShardId target = placed.shard;

  const std::uint64_t payload =
      std::max<std::uint64_t>(staged_.serialized_size(), kMinPayloadBytes);
  if (!placed.cross) {
    send_to_shard(Event::deliver(EventType::kTxDeliver, target, index),
                  fabric_.message_delay(
                      now_, kClientEndpoint, endpoint_of(target),
                      client_position_, shards_[target]->leader_position(),
                      payload));
  } else {
    flight.cross.remaining_locks =
        static_cast<std::uint32_t>(placed.input_shards.size());
    flight.cross.output_shard = target;
    for (const placement::ShardId s : placed.input_shards) {
      send_to_shard(Event::deliver(EventType::kLockRequest, s, index),
                    fabric_.message_delay(
                        now_, kClientEndpoint, endpoint_of(s),
                        client_position_, shards_[s]->leader_position(),
                        payload));
    }
  }

  if (churn_enabled()) {
    utxo_records_[target] += staged_.outputs.size();
  }
  if (repartition_enabled()) {
    OPTCHAIN_ASSERT(live_outputs_.size() == index);
    live_outputs_.push_back(
        static_cast<std::uint32_t>(staged_.outputs.size()));
  }

  flight.inputs = std::move(staged_.inputs);
  const double issue_time = flight.issue_time;
  inflight_.emplace(index, std::move(flight));
  ++outstanding_;
  ++issued_;
  notify_issue(index, issue_time, placed.cross);

  staged_valid_ = source_->next(staged_);
  if (staged_valid_) {
    const double next_time =
        source_->issue_time(index + 1, config_.tx_rate_tps);
    events_.schedule(next_time, Event::tx_issue(index + 1));
  }
}

void ParallelSimulation::handle_proof(std::uint32_t index, bool accepted,
                                      std::uint32_t from_shard) {
  Inflight& flight = inflight_.at(index);
  PendingCross& pending = flight.cross;
  OPTCHAIN_ASSERT(pending.remaining_locks > 0);
  if (accepted) {
    pending.accepted_shards.push_back(from_shard);
  } else {
    pending.rejected = true;
  }
  if (--pending.remaining_locks > 0) return;

  const std::uint32_t output_shard = resolve_shard(pending.output_shard);
  const ShardNode& output = *shards_[output_shard];
  const std::uint32_t decision_ep =
      config_.protocol == ProtocolMode::kOmniLedger
          ? kClientEndpoint
          : endpoint_of(output_shard);
  const Position decision_point =
      config_.protocol == ProtocolMode::kOmniLedger
          ? client_position_
          : output.leader_position();

  if (!pending.rejected) {
    const double to_output = fabric_.message_delay(
        now_, decision_ep, endpoint_of(output_shard), decision_point,
        output.leader_position(), config_.proof_bytes + 512);
    send_to_shard(
        Event::deliver(EventType::kUnlockCommit, pending.output_shard, index),
        to_output);
    return;
  }

  for (const std::uint32_t shard : pending.accepted_shards) {
    const double to_shard = fabric_.message_delay(
        now_, decision_ep, endpoint_of(shard), decision_point,
        shards_[shard]->leader_position(), config_.proof_bytes);
    send_to_shard(Event::deliver(EventType::kUnlockAbort, shard, index),
                  to_shard);
  }
  flight.releases_in_flight =
      static_cast<std::uint32_t>(pending.accepted_shards.size());
  flight.aborted = true;
  abort_transaction(index, now_);
  erase_if_settled(index);
}

void ParallelSimulation::commit_transaction(std::uint32_t index,
                                            SimTime time) {
  OPTCHAIN_ASSERT(outstanding_ > 0);
  const auto it = inflight_.find(index);
  OPTCHAIN_ASSERT(it != inflight_.end());
  const double latency = time - it->second.issue_time;
  OPTCHAIN_ASSERT(latency >= 0.0);
  ++committed_;
  --outstanding_;
  inflight_.erase(it);
  notify_commit(index, time, latency);
}

void ParallelSimulation::abort_transaction(std::uint32_t index, SimTime time) {
  OPTCHAIN_ASSERT(outstanding_ > 0);
  --outstanding_;
  notify_abort(index, time);
}

void ParallelSimulation::erase_if_settled(std::uint32_t index) {
  const auto it = inflight_.find(index);
  OPTCHAIN_ASSERT(it != inflight_.end());
  if (it->second.aborted && it->second.releases_in_flight == 0) {
    inflight_.erase(it);
  }
}

void ParallelSimulation::shadow_spend(std::uint32_t index) {
  if (!track_utxos()) return;
  // Replays the *unfiltered* sequential spend_inputs() on the shadow map:
  // first spender wins, tolerated respends (dropped-lock handoffs) consume
  // nothing, and synthetic hotspot outpoints never credit a record.
  const Inflight& flight = inflight_.at(index);
  for (const tx::OutPoint& point : flight.inputs) {
    const auto [it, inserted] =
        shadow_spent_.try_emplace(outpoint_key(point), index);
    if (!inserted && it->second != index) continue;
    if (point.vout < workload::DynamicTxSource::kInjectedVoutBase) {
      if (churn_enabled()) {
        std::uint64_t& records =
            utxo_records_[assignment_->shard_of(point.tx)];
        if (records > 0) --records;
      }
      if (repartition_enabled() && point.tx < live_outputs_.size()) {
        std::uint32_t& live = live_outputs_[point.tx];
        if (live > 0) --live;
      }
    }
  }
}

void ParallelSimulation::observe_timings() {
  timings_.resize(mirror_.size());
  for (std::size_t s = 0; s < mirror_.size(); ++s) {
    timings_[s].mean_comm = mirror_[s].mean_comm;
    const double backlog_blocks =
        static_cast<double>(mirror_[s].queue_size) /
        static_cast<double>(config_.consensus.txs_per_block);
    timings_[s].mean_verify = mirror_[s].last_round * (1.0 + backlog_blocks);
  }
}

void ParallelSimulation::sample_queues() {
  queue_sizes_.resize(mirror_.size());
  for (std::size_t s = 0; s < mirror_.size(); ++s) {
    queue_sizes_[s] = mirror_[s].queue_size;
  }
  for (SimObserver* observer : observers_) {
    observer->on_queue_sample(now_, queue_sizes_);
  }
  // The fabric is coordinator-owned, so this reads exactly the state a
  // sequential sample at the same merged position would see.
  if (fabric_.enabled()) {
    fabric_.sample_links(now_, link_samples_);
    for (SimObserver* observer : observers_) {
      observer->on_link_sample(now_, link_samples_);
    }
  }
}

void ParallelSimulation::send_to_shard(const Event& event, double delay) {
  // The lookahead soundness condition: every message covers at least the
  // base latency, so the arrival lands at-or-after the current window end.
  OPTCHAIN_ASSERT(delay >= lookahead_);
  const std::uint32_t w = shard_to_worker_[resolve_shard(event.shard)];
  workers_[w].mailbox.deposit(now_ + delay, event);
}

void ParallelSimulation::count_shard_event(std::uint32_t shard) {
  if (shard >= shard_event_counts_.size()) {
    shard_event_counts_.resize(shard + 1, 0);
  }
  ++shard_event_counts_[shard];
}

void ParallelSimulation::notify_issue(std::uint32_t tx, double time,
                                      bool cross) {
  for (SimObserver* observer : observers_) observer->on_issue(tx, time, cross);
}

void ParallelSimulation::notify_commit(std::uint32_t tx, double time,
                                       double latency_s) {
  for (SimObserver* observer : observers_) {
    observer->on_commit(tx, time, latency_s);
  }
}

void ParallelSimulation::notify_abort(std::uint32_t tx, double time) {
  for (SimObserver* observer : observers_) observer->on_abort(tx, time);
}

void ParallelSimulation::notify_block_commit(std::uint32_t shard,
                                             double time) {
  for (SimObserver* observer : observers_) {
    observer->on_block_commit(shard, time);
  }
}

void ParallelSimulation::notify_shard_change(std::uint32_t shard, double time,
                                             bool joined,
                                             std::uint64_t migrated_txs,
                                             std::uint64_t migrated_utxos) {
  for (SimObserver* observer : observers_) {
    observer->on_shard_change(shard, time, joined, migrated_txs,
                              migrated_utxos);
  }
}

// ------------------------------------------------------------------- churn

void ParallelSimulation::apply_churn(const ShardChurnEvent& change) {
  // Fires at a barrier: workers idle, mailboxes flushed, every pending
  // event ≥ now_. The client-side sequence below matches the sequential
  // apply_churn statement-for-statement; the queue/partition migration is
  // the parallel engine's extra context handoff.
  const double time = now_;
  const placement::ShardAssignment& assignment = pipeline_->assignment();

  if (change.kind == ChurnKind::kAddShard) {
    spawn_shard_node();
    const placement::ShardId id = pipeline_->add_shard();
    OPTCHAIN_ASSERT(id + 1 == shards_.size());
    successor_of_.push_back(id);
    utxo_records_.push_back(0);
    notify_shard_change(id, time, /*joined=*/true, 0, 0);
    return;
  }

  std::uint32_t target = change.shard;
  if (target == ShardChurnEvent::kAutoShard) {
    target = assignment.largest_active();
  }
  OPTCHAIN_EXPECTS(target < assignment.k() && assignment.is_active(target));
  OPTCHAIN_EXPECTS(assignment.active_count() >= 2);
  std::uint32_t successor = placement::kUnplaced;
  std::uint64_t successor_size = 0;
  for (std::uint32_t j = 0; j < assignment.k(); ++j) {
    if (j == target || !assignment.is_active(j)) continue;
    if (successor == placement::kUnplaced ||
        assignment.size_of(j) < successor_size) {
      successor = j;
      successor_size = assignment.size_of(j);
    }
  }

  const std::uint64_t migrated_txs = pipeline_->retire_shard(target,
                                                             successor);
  const std::uint64_t migrated_utxos = utxo_records_[target];
  utxo_records_[successor] += migrated_utxos;
  utxo_records_[target] = 0;
  successor_of_[target] = successor;

  // Context migration: the retiring chain's pending events (late
  // deliveries, its in-flight round) move to the successor's worker, the
  // node rebinds so its round completes on that worker's clock, and the
  // ledger partition merges (key sets are disjoint — an outpoint has one
  // owner).
  const std::uint32_t old_worker = shard_to_worker_[target];
  const std::uint32_t new_worker = shard_to_worker_[successor];
  if (old_worker != new_worker) {
    auto moved = workers_[old_worker].queue.extract_if([&](const Event& e) {
      return shard_addressed(e.type) && resolve_shard(e.shard) == successor;
    });
    for (const auto& [at, event] : moved) {
      workers_[new_worker].queue.schedule(at, event);
    }
    shards_[target]->rebind_queue(workers_[new_worker].queue);
    shard_to_worker_[target] = new_worker;
  }
  partitions_[successor].merge(partitions_[target]);
  OPTCHAIN_ASSERT(partitions_[target].empty());

  // The drain-refill schedules successor rounds relative to the successor
  // queue's clock — advance it to the churn time first (it may lag at its
  // last locally-processed event).
  workers_[new_worker].queue.advance_to(time);
  for (const QueueItem& item : shards_[target]->drain_queue()) {
    shards_[successor]->enqueue(item);
  }
  // Refresh the timing mirror from live node state — exactly the view a
  // sequential post-churn queue sample would read.
  mirror_[target].queue_size = shards_[target]->queue_size();
  mirror_[target].last_round = shards_[target]->last_round_duration();
  mirror_[successor].queue_size = shards_[successor]->queue_size();
  mirror_[successor].last_round = shards_[successor]->last_round_duration();
  notify_shard_change(target, time, /*joined=*/false, migrated_txs,
                      migrated_utxos);
}

// ------------------------------------------------------------- repartition

void ParallelSimulation::notify_repartition(double time,
                                            std::uint64_t migrated_txs,
                                            std::uint64_t migrated_utxos,
                                            std::uint64_t deferred_txs) {
  for (SimObserver* observer : observers_) {
    observer->on_repartition(time, migrated_txs, migrated_utxos, deferred_txs);
  }
}

void ParallelSimulation::apply_repartition() {
  // Fires at a barrier (like churn): workers idle, mailboxes flushed, every
  // pending event ≥ now_. The controller drive and UTXO accounting match the
  // sequential apply_repartition statement-for-statement; the
  // ledger-partition migration below is the parallel engine's extra handoff.
  const double time = now_;
  const RepartitionOutcome outcome = repartitioner_->step(*pipeline_);
  std::uint64_t moved_utxos = 0;
  for (const RepartitionMove& move : outcome.applied) {
    OPTCHAIN_ASSERT(move.tx < live_outputs_.size());
    const std::uint64_t live = live_outputs_[move.tx];
    moved_utxos += live;
    if (churn_enabled() && live > 0) {
      std::uint64_t& from = utxo_records_[move.from];
      const std::uint64_t transfer = live < from ? live : from;
      from -= transfer;
      utxo_records_[move.to] += transfer;
    }
  }

  // Ledger handoff: an outpoint's lock/spend entry lives in the partition
  // of shard_of(its creator), so entries follow their moved creators.
  // moved[tx] is the final destination; an entry already there stays put
  // (which also keeps the map being iterated stable).
  if (!outcome.applied.empty()) {
    std::unordered_map<std::uint32_t, std::uint32_t> moved;
    moved.reserve(outcome.applied.size());
    std::vector<std::uint32_t> from_shards;
    from_shards.reserve(outcome.applied.size());
    for (const RepartitionMove& move : outcome.applied) {
      moved[move.tx] = move.to;
      from_shards.push_back(move.from);
    }
    std::sort(from_shards.begin(), from_shards.end());
    from_shards.erase(std::unique(from_shards.begin(), from_shards.end()),
                      from_shards.end());
    for (const std::uint32_t from : from_shards) {
      LedgerPartition& partition = partitions_[from];
      for (auto it = partition.begin(); it != partition.end();) {
        const auto mit =
            moved.find(static_cast<std::uint32_t>(it->first >> 32));
        if (mit != moved.end() && mit->second != from) {
          partitions_[mit->second].insert(*it);
          it = partition.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  notify_repartition(time, outcome.applied.size(), moved_utxos,
                     outcome.deferred);
  if (work_remaining()) {
    next_repartition_time_ = now_ + config_.repartition.interval_s;
    events_.schedule(next_repartition_time_, Event::repartition());
  } else {
    next_repartition_time_ = kNeverRepartition;
  }
}

// ----------------------------------------------------------- phase barrier

void ParallelSimulation::start_workers() {
  stop_ = false;
  epoch_ = 0;
  done_ = 0;
  threads_.reserve(jobs_);
  for (std::uint32_t w = 0; w < jobs_; ++w) {
    threads_.emplace_back([this, w] { worker_main(workers_[w]); });
  }
}

void ParallelSimulation::run_worker_phase(SimTime window_end) {
  {
    std::lock_guard lock(mu_);
    window_end_ = window_end;
    done_ = 0;
    ++epoch_;
  }
  cv_workers_.notify_all();
  std::unique_lock lock(mu_);
  cv_done_.wait(lock, [&] { return done_ == jobs_; });
}

void ParallelSimulation::stop_workers() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_workers_.notify_all();
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
}

}  // namespace optchain::sim::parallel
