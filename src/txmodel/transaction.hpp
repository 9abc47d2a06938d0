// UTXO-model transaction types (paper §III.A).
//
// Transactions carry multiple inputs (references to unspent outputs of
// earlier transactions) and multiple outputs (value locked to an owner).
// A dense TxIndex — assigned in arrival order — doubles as the node id of
// the transaction in the TaN network; the SHA-256 txid over the canonical
// encoding exists so that hash-based (OmniLedger random) placement works the
// way the paper describes: "the hashed value of a transaction is used to
// determine which shards the transaction will be placed into".
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.hpp"

namespace optchain::tx {

using TxIndex = std::uint32_t;
using WalletId = std::uint32_t;
using Amount = std::int64_t;

inline constexpr TxIndex kInvalidTx = static_cast<TxIndex>(-1);

/// Reference to the `vout`-th output of transaction `tx`.
struct OutPoint {
  TxIndex tx = kInvalidTx;
  std::uint32_t vout = 0;

  friend bool operator==(const OutPoint&, const OutPoint&) = default;
  friend auto operator<=>(const OutPoint&, const OutPoint&) = default;
};

/// A transaction output: value locked to an owner (the owner id stands in
/// for Bitcoin's locking script).
struct TxOut {
  Amount value = 0;
  WalletId owner = 0;

  friend bool operator==(const TxOut&, const TxOut&) = default;
};

struct Transaction {
  TxIndex index = kInvalidTx;
  std::vector<OutPoint> inputs;   // empty iff coinbase
  std::vector<TxOut> outputs;

  bool is_coinbase() const noexcept { return inputs.empty(); }

  Amount total_output() const noexcept {
    Amount sum = 0;
    for (const auto& out : outputs) sum += out.value;
    return sum;
  }

  /// Distinct transactions referenced by the inputs, i.e. the TaN input
  /// neighborhood Nin (first-seen order).
  std::vector<TxIndex> distinct_input_txs() const;

  /// As above, into a caller-reused buffer (assign semantics): the streaming
  /// placement loop calls this once per transaction.
  void distinct_input_txs(std::vector<TxIndex>& out) const;

  /// SHA-256 over the canonical little-endian encoding of index, inputs and
  /// outputs (12 + 8·|inputs| + 12·|outputs| bytes), hashed in one call.
  /// Stable across platforms and across SHA-256 kernels.
  Digest256 txid() const;

  /// Approximate serialized size in bytes, following Bitcoin's rough
  /// per-input / per-output footprint (the paper assumes ~500 B average and
  /// 2000 transactions per 1 MB block).
  std::size_t serialized_size() const noexcept;
};

}  // namespace optchain::tx
