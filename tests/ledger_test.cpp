// Engine-state suite (sim/ledger.hpp): OutpointLedger against
// std::unordered_map under random insert/find/erase traffic (probe runs
// that wrap past the end of the table, growth with live entries), with
// mixed and with tx-major homes; probe-distance bounds of the tx-major
// layout on generated streams, held against the mixed layout on the same
// keys; and InflightTable under in-order issue with out-of-order erase
// (ring wrap and growth with old entries live, record reuse, pool bounded
// by peak live).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "sim/ledger.hpp"
#include "workload/dynamic_profile.hpp"
#include "workload/tx_source.hpp"

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

/// Random insert/find/erase traffic against std::unordered_map. `funders`
/// non-zero gives the ledger tx-major homes over that many funders.
void expect_map_semantics_under_random_traffic(std::size_t funders) {
  std::mt19937_64 rng(13);
  OutpointLedger ledger;  // not sized: grows while entries are live
  if (funders > 0) ledger.reserve(0, funders);
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

TEST(OutpointLedger, MatchesUnorderedMapUnderRandomTraffic) {
  expect_map_semantics_under_random_traffic(0);
}

TEST(OutpointLedger, TxMajorMatchesUnorderedMapUnderRandomTraffic) {
  // 1500 funders over 16 buckets to start with: homes crowd, and every
  // doubling keeps the funders-per-bucket ratio.
  expect_map_semantics_under_random_traffic(1500);
}

/// Backward-shift erase over probe runs that wrap past the last bucket.
/// `funders` non-zero gives the ledger tx-major homes.
void expect_erase_shifts_back_across_the_wrap(std::size_t funders) {
  OutpointLedger ledger;
  ledger.reserve(8, funders);
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
  // Robin Hood layout: [14] s0, [15] s1, [0] l1, [1] l0, [2] l2, [3] l3,
  // [4] f0, [5] f1.
  const std::vector<std::uint64_t> order = {second_last[0], last[0], last[1],
                                            second_last[1], last[2], first[0],
                                            last[3], first[1]};
  for (int victim = 0; victim < static_cast<int>(order.size()); ++victim) {
    OutpointLedger table;
    table.reserve(8, funders);
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

TEST(OutpointLedger, EraseShiftsBackAcrossTheWrap) {
  expect_erase_shifts_back_across_the_wrap(0);
}

TEST(OutpointLedger, TxMajorEraseShiftsBackAcrossTheWrap) {
  expect_erase_shifts_back_across_the_wrap(4);
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

// ------------------------------------------------- home-bucket layout

struct ProbeStats {
  double mean = 0.0;
  std::size_t max = 0;
};

/// The outpoints a run's ledger ends with: every input of the stream, in
/// stream order (spends persist).
struct SpentKeys {
  std::vector<std::uint64_t> keys;
  std::uint64_t txs = 0;
};
SpentKeys spent_keys(workload::TxSource& source) {
  SpentKeys spent;
  tx::Transaction transaction;
  while (source.next(transaction)) {
    ++spent.txs;
    for (const tx::OutPoint& point : transaction.inputs) {
      spent.keys.push_back(OutpointLedger::key_of(point));
    }
  }
  return spent;
}

struct LayoutComparison {
  ProbeStats ledger;
  bool tx_major = false;  ///< the ledger's homes at the end
  ProbeStats mixed;
};

/// The probe distances of `keys` inserted the way a run does (pre-sized
/// from the stream's size hint when it has one), next to those of the
/// layout the ledger had before its homes became tx-major: home mix64(key),
/// linear probing, the same sizing and growth (doubling past load 0.75,
/// re-inserting in bucket order).
LayoutComparison compare_layouts(const std::vector<std::uint64_t>& keys,
                                 std::optional<std::uint64_t> hint) {
  LayoutComparison result;
  OutpointLedger ledger;
  if (hint.has_value()) ledger.reserve(*hint * 3 / 2, *hint);
  for (const std::uint64_t key : keys) {
    ledger.assign(key, OutpointState::kSpent, 0);
  }
  for (const std::uint64_t key : keys) {
    EXPECT_NE(ledger.find(key), nullptr) << "key " << key;
    const std::size_t distance = ledger.probe_distance(key);
    result.ledger.mean += static_cast<double>(distance);
    result.ledger.max = std::max(result.ledger.max, distance);
  }
  result.ledger.mean /= static_cast<double>(keys.size());
  result.tx_major = ledger.tx_major();

  std::vector<std::uint64_t> slots;  // key + 1; 0 marks an empty bucket
  const auto insert = [&slots](std::uint64_t key) {
    std::size_t i = mix64(key) & (slots.size() - 1);
    while (slots[i] != 0) i = (i + 1) & (slots.size() - 1);
    slots[i] = key + 1;
  };
  std::size_t buckets = 16;
  while (hint.has_value() && buckets * 3 / 4 < *hint * 3 / 2) buckets *= 2;
  slots.assign(buckets, 0);
  std::size_t size = 0;
  for (const std::uint64_t key : keys) {
    if ((size + 1) * 4 > slots.size() * 3) {
      std::vector<std::uint64_t> old(slots.size() * 2, 0);
      old.swap(slots);
      for (const std::uint64_t entry : old) {
        if (entry != 0) insert(entry - 1);
      }
    }
    insert(key);
    ++size;
  }
  const std::size_t mask = slots.size() - 1;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i] == 0) continue;
    const std::size_t distance = (i - mix64(slots[i] - 1)) & mask;
    result.mixed.mean += static_cast<double>(distance);
    result.mixed.max = std::max(result.mixed.max, distance);
  }
  result.mixed.mean /= static_cast<double>(size);
  return result;
}

/// Holds the ledger to fixed probe-distance bounds, and the bounds to what
/// the mixed layout reaches on the same keys.
void expect_bounded(const LayoutComparison& probes, double mean_bound,
                    std::size_t max_bound) {
  EXPECT_LE(probes.ledger.mean, mean_bound);
  EXPECT_LE(probes.ledger.max, max_bound);
  EXPECT_LE(mean_bound, probes.mixed.mean);
  EXPECT_LE(max_bound, probes.mixed.max);
}

TEST(OutpointLedgerLayout, BitcoinLikeStreamProbesNoFurtherThanMixed) {
  workload::GeneratorTxSource source({}, 1, 200000);
  const SpentKeys spent = spent_keys(source);
  const LayoutComparison probes = compare_layouts(spent.keys, spent.txs);
  EXPECT_TRUE(probes.tx_major);
  // Measured: tx-major mean 0.375, max 8; mixed mean 0.670, max 41.
  expect_bounded(probes, 0.40, 10);
}

TEST(OutpointLedgerLayout, HotspotStreamFallsBackToMixedHomes) {
  // The hotspot scenario's shape over a 200k-tx Bitcoin-like stream: a
  // rotating Zipfian hot set spent through synthetic vouts (mixed homes),
  // plus a consolidation burst.
  constexpr std::uint64_t kTxs = 200000;
  workload::GeneratorTxSource inner({}, 1, kTxs);
  workload::DynamicProfile profile;
  profile.hotspot.injection_fraction = 0.10;
  profile.hotspot.zipf_s = 1.2;
  profile.hotspot.hot_set_size = 32;
  profile.hotspot.fanout_inputs = 2;
  profile.hotspot.rotation_interval = kTxs / 10;
  profile.bursts = {{kTxs / 2, kTxs / 2 + kTxs / 10, 0.5, 24}};
  workload::DynamicTxSource source(inner, profile, 1);
  ASSERT_FALSE(source.size_hint().has_value());
  const SpentKeys spent = spent_keys(source);
  ASSERT_GT(std::count_if(spent.keys.begin(), spent.keys.end(),
                          [](std::uint64_t key) {
                            return static_cast<std::uint32_t>(key) >=
                                   workload::DynamicTxSource::kInjectedVoutBase;
                          }),
            0);
  // 2.3 outpoints per funder: pre-sized from the stream's length (as a
  // materialized copy of it would be), tx-major homes crowd the funded
  // front of the table while the synthetic ones spread over all of it, and
  // the ledger falls back to mixed homes. Pulled through DynamicTxSource,
  // as a sweep runs it, the length is unknown and homes are mixed
  // throughout. Either way Robin Hood placement keeps the mixed layout's
  // total displacement and shortens its longest probe (measured: mean
  // 0.487 both, max 10 against 30).
  for (const std::optional<std::uint64_t> hint :
       {std::optional<std::uint64_t>(spent.txs),
        std::optional<std::uint64_t>()}) {
    const LayoutComparison probes = compare_layouts(spent.keys, hint);
    EXPECT_FALSE(probes.tx_major);
    EXPECT_DOUBLE_EQ(probes.ledger.mean, probes.mixed.mean);
    expect_bounded(probes, probes.mixed.mean, 12);
  }
}

TEST(OutpointLedgerLayout, AccountStreamProbesNoFurtherThanMixed) {
  workload::AccountGeneratorTxSource source({}, 1, 200000);
  const SpentKeys spent = spent_keys(source);
  const LayoutComparison probes = compare_layouts(spent.keys, spent.txs);
  EXPECT_TRUE(probes.tx_major);
  // Measured: tx-major mean 0.106, max 1; mixed mean 0.302, max 15.
  expect_bounded(probes, 0.15, 2);
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
