// Flat per-run state of the sequential engine: the in-flight transaction
// table and the outpoint lock/spend ledger.
//
// Both replace node-based hash maps that cost one heap node (plus, for the
// in-flight records, two vectors) per transaction and a pointer chase per
// probe. In steady state neither type allocates:
//
//   InflightTable   transaction indices are issued densely and in order, so
//                   a power-of-two ring of uint32 handles indexed by
//                   `index & mask` finds a record in O(1). Handles point into
//                   a paged record pool with a free list; a reused record
//                   keeps its vectors' capacity. Memory is O(peak live
//                   records) plus 4 bytes per index between the oldest live
//                   transaction and the newest.
//   OutpointLedger  open addressing with linear probing and backward-shift
//                   erase (no tombstones), 16-byte entries, load factor at or
//                   below 0.75, pre-sized from the stream's size hint.
//
// Neither type is ever iterated, so its layout cannot leak into a result.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "txmodel/transaction.hpp"

namespace optchain::sim {

/// Everything the protocol still needs about an issued, not-yet-terminal
/// transaction. Dropped once the transaction commits, or aborts and every
/// unlock-to-abort has released its locks.
struct InflightRecord {
  double issue_time = 0.0;
  std::vector<tx::OutPoint> inputs;
  /// Cross-shard protocol state: lock proofs still awaited, the output
  /// shard, whether any proof was a rejection, and the input shards that
  /// accepted (the unlock-to-abort targets).
  std::uint32_t remaining_locks = 0;
  std::uint32_t output_shard = 0;
  bool rejected = false;
  std::vector<std::uint32_t> accepted_shards;
  /// Unlock-to-abort messages still traveling after an abort; the record
  /// stays alive until they have all released their locks.
  std::uint32_t releases_in_flight = 0;
  bool aborted = false;

  /// Returns every field to its default, keeping the vectors' capacity.
  void reset() noexcept {
    issue_time = 0.0;
    inputs.clear();
    remaining_locks = 0;
    output_shard = 0;
    rejected = false;
    accepted_shards.clear();
    releases_in_flight = 0;
    aborted = false;
  }
};

/// In-flight records keyed by the dense, in-order transaction index.
class InflightTable {
 public:
  static constexpr std::uint32_t kPageRecords = 1u << 10;

  /// Forgets every record. Pages and vector capacity are kept; the next
  /// issue() must be index 0.
  void clear() {
    std::fill(ring_.begin(), ring_.end(), kNoHandle);
    head_ = 0;
    next_ = 0;
    live_ = 0;
    pool_records_ = 0;
    free_.clear();
  }

  /// Starts the record of transaction `index`, the next index in issue
  /// order. The record comes back with every field at its default.
  InflightRecord& issue(std::uint32_t index) {
    OPTCHAIN_EXPECTS(index == next_);
    if (next_ - head_ == ring_.size()) grow_ring();
    std::uint32_t handle;
    if (!free_.empty()) {
      handle = free_.back();
      free_.pop_back();
    } else {
      if (pool_records_ == pages_.size() * kPageRecords) {
        pages_.push_back(std::make_unique<InflightRecord[]>(kPageRecords));
      }
      handle = pool_records_++;
    }
    slot(index) = handle;
    ++next_;
    ++live_;
    InflightRecord& record = record_of(handle);
    record.reset();
    return record;
  }

  /// Whether `index` has been issued and not yet erased.
  bool contains(std::uint32_t index) const noexcept {
    return index - head_ < next_ - head_ && slot(index) != kNoHandle;
  }

  /// The live record of `index`.
  InflightRecord& at(std::uint32_t index) {
    OPTCHAIN_ASSERT(contains(index));
    return record_of(slot(index));
  }

  /// Drops the live record of `index`; its storage goes to the free list.
  void erase(std::uint32_t index) {
    OPTCHAIN_ASSERT(contains(index));
    free_.push_back(slot(index));
    slot(index) = kNoHandle;
    --live_;
    while (head_ != next_ && slot(head_) == kNoHandle) ++head_;
  }

  /// Live records.
  std::size_t size() const noexcept { return live_; }
  /// Records the pool has handed out since clear(): the peak live count.
  std::size_t pool_records() const noexcept { return pool_records_; }
  /// Handle slots in the ring (a power of two, or 0 before the first issue).
  std::size_t ring_capacity() const noexcept { return ring_.size(); }

 private:
  static constexpr std::uint32_t kNoHandle = ~0u;
  static constexpr std::size_t kMinRing = 64;

  std::uint32_t& slot(std::uint32_t index) noexcept {
    return ring_[index & (ring_.size() - 1)];
  }
  std::uint32_t slot(std::uint32_t index) const noexcept {
    return ring_[index & (ring_.size() - 1)];
  }
  InflightRecord& record_of(std::uint32_t handle) noexcept {
    return pages_[handle / kPageRecords][handle % kPageRecords];
  }

  /// Doubles the ring, re-homing the handles of [head_, next_).
  void grow_ring() {
    std::vector<std::uint32_t> grown(
        ring_.empty() ? kMinRing : ring_.size() * 2, kNoHandle);
    const std::size_t mask = grown.size() - 1;
    for (std::uint32_t i = head_; i != next_; ++i) grown[i & mask] = slot(i);
    ring_.swap(grown);
  }

  std::vector<std::uint32_t> ring_;  ///< handle per index, power-of-two size
  std::uint32_t head_ = 0;           ///< oldest index that may be live
  std::uint32_t next_ = 0;           ///< index the next issue() expects
  std::size_t live_ = 0;
  std::vector<std::unique_ptr<InflightRecord[]>> pages_;
  std::uint32_t pool_records_ = 0;   ///< records handed out from the pages
  std::vector<std::uint32_t> free_;  ///< handles of erased records
};

/// Lock/spend state of an outpoint that is not available.
enum class OutpointState : std::uint8_t { kLocked = 1, kSpent = 2 };

/// Outpoint → (state, owning transaction). An absent outpoint is available.
class OutpointLedger {
 public:
  struct Entry {
    std::uint64_t key = 0;
    std::uint32_t owner = 0;
    OutpointState state{};  ///< zero marks an empty slot
  };
  static_assert(sizeof(Entry) <= 16);

  static std::uint64_t key_of(const tx::OutPoint& point) noexcept {
    return (static_cast<std::uint64_t>(point.tx) << 32) | point.vout;
  }

  /// Sizes the table so `entries` fit at a load factor of at most 0.75.
  void reserve(std::size_t entries) {
    std::size_t buckets = kMinBuckets;
    while (buckets * 3 / 4 < entries) buckets *= 2;
    if (buckets > slots_.size()) rehash(buckets);
  }

  /// Empties the table, keeping its buckets.
  void clear() {
    std::fill(slots_.begin(), slots_.end(), Entry{});
    size_ = 0;
  }

  /// The entry of `key`, or nullptr when the outpoint is available.
  const Entry* find(std::uint64_t key) const noexcept {
    if (size_ == 0) return nullptr;
    const Entry& entry = slots_[slot_for(key)];
    return entry.state == OutpointState{} ? nullptr : &entry;
  }

  /// Sets `key` to (state, owner), inserting it if absent.
  void assign(std::uint64_t key, OutpointState state, std::uint32_t owner) {
    OPTCHAIN_ASSERT(state != OutpointState{});
    if (slots_.empty()) rehash(kMinBuckets);
    std::size_t i = slot_for(key);
    if (slots_[i].state == OutpointState{}) {
      if ((size_ + 1) * 4 > slots_.size() * 3) {
        rehash(slots_.size() * 2);
        i = slot_for(key);
      }
      ++size_;
    }
    slots_[i] = Entry{key, owner, state};
  }

  /// Removes `key`; returns whether it was present. Later entries of the
  /// probe run shift back into the hole, so no tombstone is left.
  bool erase(std::uint64_t key) noexcept {
    if (size_ == 0) return false;
    std::size_t hole = slot_for(key);
    if (slots_[hole].state == OutpointState{}) return false;
    for (std::size_t i = (hole + 1) & mask();
         slots_[i].state != OutpointState{}; i = (i + 1) & mask()) {
      // The entry at i may fill the hole only if its home bucket does not
      // lie cyclically in (hole, i]: probing from home must still reach it.
      const std::size_t home = home_bucket(slots_[i].key);
      if (((i - home) & mask()) >= ((i - hole) & mask())) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole] = Entry{};
    --size_;
    return true;
  }

  std::size_t size() const noexcept { return size_; }
  /// Buckets (a power of two, or 0 before the first insert).
  std::size_t bucket_count() const noexcept { return slots_.size(); }
  /// The bucket where probing for `key` starts.
  std::size_t home_bucket(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(mix64(key)) & mask();
  }

 private:
  static constexpr std::size_t kMinBuckets = 16;

  std::size_t mask() const noexcept { return slots_.size() - 1; }

  /// The bucket holding `key`, or the empty bucket that ends its probe run
  /// (the load bound guarantees one). The table must have buckets.
  std::size_t slot_for(std::uint64_t key) const noexcept {
    std::size_t i = home_bucket(key);
    while (slots_[i].state != OutpointState{} && slots_[i].key != key) {
      i = (i + 1) & mask();
    }
    return i;
  }

  void rehash(std::size_t buckets) {
    std::vector<Entry> old(buckets);
    old.swap(slots_);
    for (const Entry& entry : old) {
      if (entry.state == OutpointState{}) continue;
      std::size_t i = home_bucket(entry.key);
      while (slots_[i].state != OutpointState{}) i = (i + 1) & mask();
      slots_[i] = entry;
    }
  }

  std::vector<Entry> slots_;
  std::size_t size_ = 0;
};

}  // namespace optchain::sim
