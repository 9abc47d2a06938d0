#include "sim/shard_node.hpp"

#include <utility>

#include "common/assert.hpp"
#include "common/hash.hpp"

namespace optchain::sim {

ShardNode::ShardNode(std::uint32_t id, Position leader_position,
                     ConsensusModel model, EventQueue& events,
                     CommitCallback on_commit, ShardFaults faults)
    : id_(id),
      leader_position_(leader_position),
      model_(std::move(model)),
      events_(&events),
      on_commit_(std::move(on_commit)),
      faults_(faults),
      fault_rng_(mix64(faults.seed ^ (0x51a4d0000ULL + id))) {
  OPTCHAIN_EXPECTS(on_commit_ != nullptr);
  OPTCHAIN_EXPECTS(faults_.slowdown > 0.0);
  OPTCHAIN_EXPECTS(faults_.leader_fault_rate >= 0.0 &&
                   faults_.leader_fault_rate <= 1.0);
  last_round_duration_ =
      model_.round_duration(model_.config().txs_per_block) * faults_.slowdown;
}

void ShardNode::enqueue(const QueueItem& item) {
  queue_.push_back(item);
  try_start_round();
}

void ShardNode::try_start_round() {
  if (round_in_progress_ || queue_.empty()) return;

  const std::uint32_t take = static_cast<std::uint32_t>(
      std::min<std::size_t>(queue_.size(), model_.config().txs_per_block));
  round_block_.clear();
  for (std::uint32_t i = 0; i < take; ++i) {
    round_block_.push_back(queue_.front());
    queue_.pop_front();
  }

  round_in_progress_ = true;
  double duration = model_.round_duration(take) * faults_.slowdown;
  bool view_change = false;
  if (faults_.leader_fault_rate > 0.0 &&
      fault_rng_.bernoulli(faults_.leader_fault_rate)) {
    duration += faults_.view_change_penalty_s;
    view_change = true;
    ++view_changes_;
  }
  round_duration_ = duration;
  events_->schedule_in(duration,
                       Event::round_complete(id_, view_change));
}

void ShardNode::complete_round() {
  OPTCHAIN_ASSERT(round_in_progress_);
  round_in_progress_ = false;
  ++blocks_committed_;
  items_committed_ += round_block_.size();
  // Clients estimate verification time from the most recent observed round;
  // faults and slowdowns are visible to them through this value.
  last_round_duration_ = round_duration_;
  const SimTime now = events_->now();
  // The commit callback never enqueues into this shard synchronously (every
  // protocol reaction travels through the event queue), so lending it the
  // member block buffer is safe until try_start_round() refills it below.
  on_commit_(id_, round_block_, now);
  try_start_round();
}

}  // namespace optchain::sim
