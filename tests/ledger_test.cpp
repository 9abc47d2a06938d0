// Engine-state suite (sim/ledger.hpp): OutpointLedger against
// std::unordered_map under random insert/find/erase traffic (probe runs
// that wrap past the end of the table, growth with live entries), and
// InflightTable under in-order issue with out-of-order erase (ring wrap and
// growth with old entries live, record reuse, pool bounded by peak live).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/ledger.hpp"

namespace optchain {
namespace {

using sim::InflightRecord;
using sim::InflightTable;
using sim::OutpointLedger;
using sim::OutpointState;

using Reference =
    std::unordered_map<std::uint64_t, std::pair<OutpointState, std::uint32_t>>;

void expect_same(const OutpointLedger& ledger, const Reference& reference,
                 std::uint64_t key) {
  const OutpointLedger::Entry* entry = ledger.find(key);
  const auto it = reference.find(key);
  ASSERT_EQ(entry != nullptr, it != reference.end()) << "key " << key;
  if (entry == nullptr) return;
  EXPECT_EQ(entry->key, key);
  EXPECT_EQ(entry->state, it->second.first);
  EXPECT_EQ(entry->owner, it->second.second);
}

void expect_all_present(const OutpointLedger& ledger,
                        const Reference& reference) {
  ASSERT_EQ(ledger.size(), reference.size());
  for (const auto& [key, value] : reference) expect_same(ledger, reference, key);
}

// ------------------------------------------------------- OutpointLedger

TEST(OutpointLedger, MatchesUnorderedMapUnderRandomTraffic) {
  std::mt19937_64 rng(13);
  OutpointLedger ledger;  // no reserve: grows while entries are live
  Reference reference;
  // A key space a few times the live set keeps the table dense, so probe
  // runs are long and regularly wrap past the last bucket.
  std::vector<std::uint64_t> keys;
  for (std::uint32_t tx = 0; tx < 1500; ++tx) {
    for (std::uint32_t vout = 0; vout < 2; ++vout) {
      keys.push_back(OutpointLedger::key_of(tx::OutPoint{tx, vout}));
    }
  }
  std::size_t growths = 0;
  std::size_t buckets = ledger.bucket_count();
  for (int op = 0; op < 100000; ++op) {
    const std::uint64_t key = keys[rng() % keys.size()];
    switch (rng() % 4) {
      case 0:
      case 1: {
        const OutpointState state =
            rng() % 2 == 0 ? OutpointState::kLocked : OutpointState::kSpent;
        const auto owner = static_cast<std::uint32_t>(rng() % 5000);
        ledger.assign(key, state, owner);
        reference[key] = {state, owner};
        break;
      }
      case 2:
        EXPECT_EQ(ledger.erase(key), reference.erase(key) == 1);
        break;
      default:
        expect_same(ledger, reference, key);
        break;
    }
    ASSERT_EQ(ledger.size(), reference.size());
    ASSERT_LE(ledger.size() * 4, ledger.bucket_count() * 3);  // load ≤ 0.75
    if (ledger.bucket_count() != buckets) {
      ++growths;
      buckets = ledger.bucket_count();
      expect_all_present(ledger, reference);
    }
    if (op % 5000 == 0) expect_all_present(ledger, reference);
  }
  EXPECT_GE(growths, 5u);
  expect_all_present(ledger, reference);
}

TEST(OutpointLedger, EraseShiftsBackAcrossTheWrap) {
  OutpointLedger ledger;
  ledger.reserve(8);
  const std::size_t buckets = ledger.bucket_count();
  ASSERT_EQ(buckets, 16u);
  // Keys homed in the last two buckets: their probe runs wrap to bucket 0.
  std::vector<std::uint64_t> last, second_last, first;
  for (std::uint64_t key = 0; first.size() < 2 || last.size() < 4 ||
                              second_last.size() < 2;
       ++key) {
    const std::size_t home = ledger.home_bucket(key);
    if (home == buckets - 1) last.push_back(key);
    if (home == buckets - 2) second_last.push_back(key);
    if (home == 0) first.push_back(key);
  }
  // Layout: [14] s0, [15] l0, [0] l1, [1] s1, [2] l2, [3] f0, [4] l3, [5] f1.
  const std::vector<std::uint64_t> order = {second_last[0], last[0], last[1],
                                            second_last[1], last[2], first[0],
                                            last[3], first[1]};
  for (int victim = 0; victim < static_cast<int>(order.size()); ++victim) {
    OutpointLedger table;
    table.reserve(8);
    Reference reference;
    for (std::size_t i = 0; i < order.size(); ++i) {
      table.assign(order[i], OutpointState::kLocked,
                   static_cast<std::uint32_t>(i));
      reference[order[i]] = {OutpointState::kLocked,
                             static_cast<std::uint32_t>(i)};
    }
    ASSERT_EQ(table.bucket_count(), buckets);  // no growth: probes wrap
    EXPECT_TRUE(table.erase(order[victim]));
    reference.erase(order[victim]);
    EXPECT_FALSE(table.erase(order[victim]));
    expect_all_present(table, reference);
    // Erase the rest in a scrambled order; every step keeps all others
    // reachable.
    for (std::size_t i = 0; i < order.size(); ++i) {
      const std::uint64_t key = order[(i * 5 + 3) % order.size()];
      EXPECT_EQ(table.erase(key), reference.erase(key) == 1);
      expect_all_present(table, reference);
    }
    EXPECT_EQ(table.size(), 0u);
  }
}

TEST(OutpointLedger, ReserveSizesForTheHintAndClearKeepsBuckets) {
  OutpointLedger ledger;
  ledger.reserve(300000);
  const std::size_t buckets = ledger.bucket_count();
  EXPECT_EQ(buckets & (buckets - 1), 0u);  // a power of two
  EXPECT_GE(buckets * 3 / 4, 300000u);
  EXPECT_LT(buckets * 3 / 8, 300000u);  // and the smallest such
  for (std::uint32_t tx = 0; tx < 150000; ++tx) {
    ledger.assign(OutpointLedger::key_of({tx, 0}), OutpointState::kSpent, tx);
    ledger.assign(OutpointLedger::key_of({tx, 1}), OutpointState::kLocked,
                  tx + 1);
  }
  EXPECT_EQ(ledger.bucket_count(), buckets);  // never rehashed
  EXPECT_EQ(ledger.size(), 300000u);
  const OutpointLedger::Entry* entry =
      ledger.find(OutpointLedger::key_of({77, 1}));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->state, OutpointState::kLocked);
  EXPECT_EQ(entry->owner, 78u);

  ledger.clear();
  EXPECT_EQ(ledger.size(), 0u);
  EXPECT_EQ(ledger.bucket_count(), buckets);
  EXPECT_EQ(ledger.find(OutpointLedger::key_of({77, 1})), nullptr);
  EXPECT_FALSE(ledger.erase(OutpointLedger::key_of({77, 1})));

  // A full table (load exactly 0.75) takes overwrites without growing; the
  // next new key doubles it.
  OutpointLedger small;
  small.reserve(12);
  ASSERT_EQ(small.bucket_count(), 16u);
  for (std::uint32_t tx = 0; tx < 12; ++tx) {
    small.assign(OutpointLedger::key_of({tx, 0}), OutpointState::kLocked, tx);
  }
  small.assign(OutpointLedger::key_of({5, 0}), OutpointState::kSpent, 5);
  EXPECT_EQ(small.bucket_count(), 16u);
  EXPECT_EQ(small.size(), 12u);
  small.assign(OutpointLedger::key_of({12, 0}), OutpointState::kLocked, 12);
  EXPECT_EQ(small.bucket_count(), 32u);
  EXPECT_EQ(small.size(), 13u);
  EXPECT_EQ(small.find(OutpointLedger::key_of({5, 0}))->state,
            OutpointState::kSpent);
}

// -------------------------------------------------------- InflightTable

TEST(InflightTable, InOrderIssueOutOfOrderEraseMatchesAMap) {
  std::mt19937_64 rng(29);
  InflightTable table;
  std::unordered_map<std::uint32_t, double> reference;  // index → issue time
  std::vector<std::uint32_t> live;
  std::size_t peak_live = 0;
  std::uint32_t next = 0;
  for (int op = 0; op < 100000; ++op) {
    // Issue a little more often than erase so the live set drifts upward
    // and the ring must grow.
    if (live.empty() || rng() % 100 < 52) {
      InflightRecord& record = table.issue(next);
      record.issue_time = static_cast<double>(next) * 0.5;
      record.inputs.push_back({next, 0});
      reference[next] = record.issue_time;
      live.push_back(next);
      ++next;
    } else {
      const std::size_t pick = rng() % live.size();
      const std::uint32_t index = live[pick];
      live[pick] = live.back();
      live.pop_back();
      ASSERT_TRUE(table.contains(index));
      EXPECT_EQ(table.at(index).issue_time, reference.at(index));
      ASSERT_EQ(table.at(index).inputs.size(), 1u);
      EXPECT_EQ(table.at(index).inputs[0].tx, index);
      table.erase(index);
      reference.erase(index);
      EXPECT_FALSE(table.contains(index));
    }
    peak_live = std::max(peak_live, live.size());
    ASSERT_EQ(table.size(), reference.size());
    ASSERT_LE(table.pool_records(), peak_live);
  }
  EXPECT_EQ(table.pool_records(), peak_live);
  for (const auto& [index, issue_time] : reference) {
    ASSERT_TRUE(table.contains(index));
    EXPECT_EQ(table.at(index).issue_time, issue_time);
  }
  EXPECT_FALSE(table.contains(next));
  EXPECT_FALSE(table.contains(next + 12345));
}

TEST(InflightTable, RingWrapsAndGrowsWhileOldEntriesLive) {
  InflightTable table;
  // Index 0 stays live throughout; everything else is short-lived, so the
  // live set is tiny but spans ever more indices: the ring must grow past
  // its first size with the old entry still reachable.
  InflightRecord& oldest = table.issue(0);
  oldest.issue_time = -1.0;
  oldest.accepted_shards = {3, 4};
  std::size_t first_ring = 0;
  for (std::uint32_t index = 1; index < 5000; ++index) {
    if (index >= 3) table.erase(index - 2);  // two young entries live
    table.issue(index).issue_time = index;
    if (first_ring == 0) first_ring = table.ring_capacity();
    ASSERT_TRUE(table.contains(0));
  }
  EXPECT_GT(table.ring_capacity(), first_ring);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.at(0).issue_time, -1.0);
  EXPECT_EQ(table.at(0).accepted_shards, (std::vector<std::uint32_t>{3, 4}));
  EXPECT_EQ(table.at(4998).issue_time, 4998.0);
  EXPECT_EQ(table.at(4999).issue_time, 4999.0);
  EXPECT_EQ(table.pool_records(), 3u);

  // Once the oldest goes, the ring wraps many times over without growing:
  // the span of live indices stays small.
  table.erase(0);
  const std::size_t ring = table.ring_capacity();
  for (std::uint32_t index = 5000; index < 5000 + 10 * ring; ++index) {
    table.erase(index - 2);
    table.issue(index).issue_time = index;
  }
  EXPECT_EQ(table.ring_capacity(), ring);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.pool_records(), 3u);
}

TEST(InflightTable, ReusedRecordIsResetAndKeepsCapacity) {
  InflightTable table;
  InflightRecord& first = table.issue(0);
  first.issue_time = 12.5;
  first.inputs.assign(40, tx::OutPoint{7, 1});
  first.remaining_locks = 3;
  first.output_shard = 9;
  first.rejected = true;
  first.accepted_shards.assign(20, 2);
  first.releases_in_flight = 4;
  first.aborted = true;
  const std::size_t inputs_capacity = first.inputs.capacity();
  const std::size_t accepted_capacity = first.accepted_shards.capacity();
  table.erase(0);

  InflightRecord& reused = table.issue(1);
  EXPECT_EQ(&reused, &first);  // the freed record comes back
  EXPECT_EQ(table.pool_records(), 1u);
  EXPECT_EQ(reused.issue_time, 0.0);
  EXPECT_TRUE(reused.inputs.empty());
  EXPECT_EQ(reused.remaining_locks, 0u);
  EXPECT_EQ(reused.output_shard, 0u);
  EXPECT_FALSE(reused.rejected);
  EXPECT_TRUE(reused.accepted_shards.empty());
  EXPECT_EQ(reused.releases_in_flight, 0u);
  EXPECT_FALSE(reused.aborted);
  EXPECT_GE(reused.inputs.capacity(), inputs_capacity);
  EXPECT_GE(reused.accepted_shards.capacity(), accepted_capacity);

  // clear() starts over at index 0 and hands out reset records too.
  reused.aborted = true;
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.pool_records(), 0u);
  EXPECT_FALSE(table.contains(1));
  InflightRecord& again = table.issue(0);
  EXPECT_FALSE(again.aborted);
  EXPECT_EQ(table.pool_records(), 1u);
}

TEST(InflightTable, PoolSpansPagesWithoutMovingRecords) {
  InflightTable table;
  const std::uint32_t count = 3 * InflightTable::kPageRecords + 5;
  std::vector<InflightRecord*> records;
  for (std::uint32_t index = 0; index < count; ++index) {
    records.push_back(&table.issue(index));
    records.back()->issue_time = index;
  }
  // References handed out earlier stay valid across page and ring growth.
  for (std::uint32_t index = 0; index < count; ++index) {
    EXPECT_EQ(&table.at(index), records[index]);
    EXPECT_EQ(records[index]->issue_time, index);
  }
  EXPECT_EQ(table.pool_records(), count);
}

}  // namespace
}  // namespace optchain
