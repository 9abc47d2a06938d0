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
//   OutpointLedger  open addressing with linear probing, Robin Hood
//                   insertion and backward-shift erase (no tombstones),
//                   16-byte entries, load factor at or below 0.75, pre-sized
//                   from the stream's size hint.
//
// The ledger's home bucket is tx-major when the stream's length is known.
// A transaction spends outputs of recent transactions (median parent
// distance 25 in a Bitcoin-like stream), and a block commits its lock and
// spend items seconds of simulated time after they were queued. With a
// hashed home every one of those probes lands on a random line of a table
// of 2^19-2^21 buckets. Tx-major, outpoint (tx, vout) starts probing at
// tx × buckets/funders + vout × kVoutSpread: the outpoints the protocol is
// working on sit in one compact, cache-resident band that moves forward
// with the stream. The spread sends one funder's outputs to different
// neighbourhoods (129 buckets ≈ 50 funders apart), so a transaction with
// many spent outputs does not pile them onto one probe run. On 200k
// Bitcoin-like transactions the mean probe distance is 0.375 against 0.670
// for the hashed home (plain tx × 2 + vout: 5.4, and runs of 1,700
// buckets).
//
// Homes are mixed (mix64) instead when the funder count is unknown (an
// unhinted stream fills the table front to back at the growth threshold's
// density, so it would probe further than a hashed table), for synthetic
// outpoints (workload::DynamicTxSource's injected vouts), and for the rest
// of a run once an insert walks past kMaxTxMajorWalk buckets: many more
// outpoints per funder than the table was sized for crowd the band behind
// the newest funder (hashed synthetic outpoints on top of a tx-major band
// do; a Bitcoin-like stream's longest walk at 1M transactions is 750).
// Robin Hood insertion keeps the longest probe short in either layout.
//
// Neither type is ever iterated, so its layout cannot leak into a result.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "txmodel/transaction.hpp"
#include "workload/dynamic_profile.hpp"

namespace optchain::sim {

/// Cache prefetch hint for a line about to be read and written (no-op on
/// toolchains without __builtin_prefetch). Never faults, whatever the
/// address.
inline void prefetch_for_write(const void* address) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(address, 1, 3);
#else
  (void)address;
#endif
}

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

  /// The live record of `index`, or nullptr when there is none.
  const InflightRecord* find(std::uint32_t index) const noexcept {
    return contains(index) ? &record_of(slot(index)) : nullptr;
  }

  /// Prefetches the ring slot of `index` (any index; a hint only).
  void prefetch_slot(std::uint32_t index) const noexcept {
    if (!ring_.empty()) prefetch_for_write(&slot(index));
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
  const std::uint32_t& slot(std::uint32_t index) const noexcept {
    return ring_[index & (ring_.size() - 1)];
  }
  InflightRecord& record_of(std::uint32_t handle) noexcept {
    return pages_[handle / kPageRecords][handle % kPageRecords];
  }
  const InflightRecord& record_of(std::uint32_t handle) const noexcept {
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

  /// Home-bucket distance between output v and output v + 1 of one funder.
  static constexpr std::uint64_t kVoutSpread = 129;

  static std::uint64_t key_of(const tx::OutPoint& point) noexcept {
    return (static_cast<std::uint64_t>(point.tx) << 32) | point.vout;
  }

  /// Sizes the table so `entries` fit at a load factor of at most 0.75.
  /// `funders`, when non-zero, is the number of funding transactions
  /// (outpoint tx indices [0, funders)): homes then become tx-major, with
  /// the funders spread over every bucket.
  void reserve(std::size_t entries, std::size_t funders = 0) {
    std::size_t buckets = std::max(kMinBuckets, slots_.size());
    while (buckets * 3 / 4 < entries) buckets *= 2;
    const std::uint64_t scale =
        funders == 0 ? funder_scale_
                     : (static_cast<std::uint64_t>(buckets) << 32) / funders;
    if (buckets != slots_.size() || scale != funder_scale_) {
      rehash(buckets, scale);
    }
  }

  /// Empties the table, keeping its buckets; homes are mixed again until
  /// the next reserve() names the funders.
  void clear() {
    std::fill(slots_.begin(), slots_.end(), Entry{});
    size_ = 0;
    funder_scale_ = 0;
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
    if (slots_.empty()) rehash(kMinBuckets, funder_scale_);
    Entry& slot = slots_[slot_for(key)];
    if (slot.state != OutpointState{}) {
      slot.owner = owner;
      slot.state = state;
      return;
    }
    // Doubling keeps the funders spread over every bucket: a stream's
    // length is known exactly when it is known at all, so outgrowing the
    // table means more outpoints per funder than it was sized for.
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      rehash(slots_.size() * 2, funder_scale_ * 2);
    }
    // A walk this long means the tx-major band is crowded (see the file
    // comment): re-home everything mixed for the rest of the run.
    if (place(Entry{key, owner, state}) > kMaxTxMajorWalk &&
        funder_scale_ != 0) {
      rehash(slots_.size(), 0);
    }
    ++size_;
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

  /// Prefetches the home bucket of `key` (a hint only).
  void prefetch(std::uint64_t key) const noexcept {
    if (!slots_.empty()) prefetch_for_write(&slots_[home_bucket(key)]);
  }

  std::size_t size() const noexcept { return size_; }
  /// Whether homes are tx-major (see the file comment) rather than mixed.
  bool tx_major() const noexcept { return funder_scale_ != 0; }
  /// Buckets (a power of two, or 0 before the first insert).
  std::size_t bucket_count() const noexcept { return slots_.size(); }

  /// The bucket where probing for `key` starts (see the file comment).
  std::size_t home_bucket(std::uint64_t key) const noexcept {
    const auto vout = static_cast<std::uint32_t>(key);
    if (funder_scale_ == 0 ||
        vout >= workload::DynamicTxSource::kInjectedVoutBase) {
      return static_cast<std::size_t>(mix64(key)) & mask();
    }
    const std::uint64_t funder = key >> 32;
    return static_cast<std::size_t>(((funder * funder_scale_) >> 32) +
                                    vout * kVoutSpread) &
           mask();
  }

  /// Buckets probed past the home bucket to reach `key` (or the empty
  /// bucket that ends its probe run).
  std::size_t probe_distance(std::uint64_t key) const noexcept {
    if (slots_.empty()) return 0;
    return (slot_for(key) - home_bucket(key)) & mask();
  }

 private:
  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::size_t kMaxTxMajorWalk = 4096;
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

  /// Robin Hood insertion of an absent key: walking from its home, the
  /// entry in hand takes the bucket of any resident that sits nearer to its
  /// own home and carries that resident on instead. Lookups are unchanged;
  /// the longest probe distance stays short even where homes crowd.
  /// Returns the number of buckets walked past the home bucket.
  std::size_t place(Entry entry) noexcept {
    std::size_t i = home_bucket(entry.key);
    std::size_t distance = 0;
    std::size_t walked = 0;
    while (slots_[i].state != OutpointState{}) {
      const std::size_t resident = (i - home_bucket(slots_[i].key)) & mask();
      if (resident < distance) {
        std::swap(entry, slots_[i]);
        distance = resident;
      }
      i = (i + 1) & mask();
      ++distance;
      ++walked;
    }
    slots_[i] = entry;
    return walked;
  }

  void rehash(std::size_t buckets, std::uint64_t scale) {
    std::vector<Entry> old(buckets);
    old.swap(slots_);
    funder_scale_ = scale;
    for (const Entry& entry : old) {
      if (entry.state != OutpointState{}) place(entry);
    }
  }

  std::vector<Entry> slots_;
  std::size_t size_ = 0;
  /// Buckets per funder in 32.32 fixed point; 0 = funders unknown (mixed
  /// homes).
  std::uint64_t funder_scale_ = 0;
};

}  // namespace optchain::sim
