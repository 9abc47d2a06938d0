// Unit tests for src/txmodel: transactions, txids, UTXO-set validation.
#include <gtest/gtest.h>

#include "common/hash.hpp"
#include "txmodel/transaction.hpp"
#include "txmodel/utxo_set.hpp"
#include "workload/bitcoin_like_generator.hpp"

namespace optchain::tx {
namespace {

Transaction coinbase(TxIndex index, Amount value, WalletId owner) {
  Transaction t;
  t.index = index;
  t.outputs.push_back({value, owner});
  return t;
}

TEST(TransactionTest, CoinbaseDetection) {
  EXPECT_TRUE(coinbase(0, 100, 1).is_coinbase());
  Transaction spend;
  spend.index = 1;
  spend.inputs.push_back({0, 0});
  EXPECT_FALSE(spend.is_coinbase());
}

TEST(TransactionTest, TotalOutput) {
  Transaction t;
  t.outputs.push_back({30, 0});
  t.outputs.push_back({70, 1});
  EXPECT_EQ(t.total_output(), 100);
}

TEST(TransactionTest, DistinctInputTxsDeduplicates) {
  Transaction t;
  t.inputs = {{5, 0}, {5, 1}, {3, 0}, {5, 2}};
  const auto distinct = t.distinct_input_txs();
  ASSERT_EQ(distinct.size(), 2u);
  EXPECT_EQ(distinct[0], 5u);
  EXPECT_EQ(distinct[1], 3u);
}

TEST(TransactionTest, TxidDeterministicAndSensitive) {
  Transaction a = coinbase(0, 100, 1);
  Transaction b = coinbase(0, 100, 1);
  EXPECT_EQ(a.txid(), b.txid());
  b.outputs[0].value = 101;
  EXPECT_NE(a.txid(), b.txid());
  Transaction c = coinbase(1, 100, 1);
  EXPECT_NE(a.txid(), c.txid());
}

// Txids pinned to the values of the byte-at-a-time SHA-256 they replaced.
// The encoding is 12 + 8·inputs + 12·outputs bytes; the cases cover each
// padding edge of SHA-256 and the heap spill of large transactions.
TEST(TransactionTest, TxidPinnedAcrossPaddingEdges) {
  const Transaction coinbase_tx = coinbase(0, 5000000000LL, 7);  // 24 B
  Transaction one_in_two_out;                                     // 44 B
  one_in_two_out.index = 1;
  one_in_two_out.inputs = {{0, 0}};
  one_in_two_out.outputs = {{2500000000LL, 11}, {2499990000LL, 12}};
  Transaction one_in_three_out;  // 56 B: the length spills into block two
  one_in_three_out.index = 2;
  one_in_three_out.inputs = {{1, 1}};
  one_in_three_out.outputs = {{1000, 3}, {2000, 4}, {3000, 5}};
  Transaction two_in_three_out;  // 64 B: exactly one block
  two_in_three_out.index = 3;
  two_in_three_out.inputs = {{1, 0}, {2, 2}};
  two_in_three_out.outputs = {{-1, 0xffffffffu}, {0, 0}, {42, 9}};
  Transaction seventy_in;  // 584 B: larger than the stack buffer
  seventy_in.index = 1000;
  for (std::uint32_t i = 0; i < 70; ++i) {
    seventy_in.inputs.push_back({i * 13u, i % 3u});
  }
  seventy_in.outputs = {{123456789, 77}};

  EXPECT_EQ(coinbase_tx.txid().hex(),
            "9bf83e388dcd77a7b34492ed196e7f09e4b79147fb674c12acd50207952a4a37");
  EXPECT_EQ(one_in_two_out.txid().hex(),
            "9ec08ba047c2fd85994418e33dad922700030a2481d9891b5c4bdb7d8f42fdf7");
  EXPECT_EQ(one_in_three_out.txid().hex(),
            "2843ed0dab627f38c91ad550c8a6d42ecdcf4b33ce6e1aa5a18a2a79d9d6ce4c");
  EXPECT_EQ(two_in_three_out.txid().hex(),
            "c4fe8e1cd97826a44d2a10d2b7e9b448ce0170bb866bf014887fbfe2291ae8bc");
  EXPECT_EQ(seventy_in.txid().hex(),
            "3d39e0b87c42622e3c9660da25a06904f55e41a4226d44662d5211b83b1bf8fd");
}

// An order-sensitive fold of low64() over the generator's first 200k txids:
// the value OmniLedger placement reads, pinned for the whole workload mix.
TEST(TransactionTest, GeneratorTxidFoldPinned) {
  workload::BitcoinLikeGenerator generator({}, 1);
  std::uint64_t fold = 0;
  for (int i = 0; i < 200000; ++i) {
    fold = mix64(fold ^ generator.next().txid().low64());
  }
  EXPECT_EQ(fold, 0x64fdc55d213eaebdULL);
}

TEST(TransactionTest, SerializedSizeScalesWithInputsOutputs) {
  Transaction small = coinbase(0, 1, 0);
  Transaction big;
  big.index = 1;
  for (int i = 0; i < 10; ++i) big.inputs.push_back({0, 0});
  big.outputs.push_back({1, 0});
  EXPECT_GT(big.serialized_size(), small.serialized_size());
  // A 2-in/2-out transaction should be in the neighborhood of the paper's
  // ~500 B average.
  Transaction typical;
  typical.index = 2;
  typical.inputs = {{0, 0}, {0, 1}};
  typical.outputs = {{1, 0}, {1, 1}};
  EXPECT_GE(typical.serialized_size(), 300u);
  EXPECT_LE(typical.serialized_size(), 700u);
}

TEST(UtxoSetTest, ApplyCoinbaseRegistersOutputs) {
  UtxoSet utxo;
  EXPECT_EQ(utxo.apply(coinbase(0, 100, 1)), ValidationError::kOk);
  EXPECT_EQ(utxo.num_txs(), 1u);
  EXPECT_EQ(utxo.num_outputs(0), 1u);
  EXPECT_EQ(utxo.total_unspent_count(), 1u);
  EXPECT_EQ(utxo.total_unspent_value(), 100);
  const auto out = utxo.output({0, 0});
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->value, 100);
  EXPECT_EQ(out->owner, 1u);
  EXPECT_FALSE(utxo.is_spent({0, 0}));
}

TEST(UtxoSetTest, SpendMarksOutputs) {
  UtxoSet utxo;
  ASSERT_EQ(utxo.apply(coinbase(0, 100, 1)), ValidationError::kOk);
  Transaction spend;
  spend.index = 1;
  spend.inputs.push_back({0, 0});
  spend.outputs.push_back({60, 2});
  spend.outputs.push_back({40, 3});
  EXPECT_EQ(utxo.apply(spend), ValidationError::kOk);
  EXPECT_TRUE(utxo.is_spent({0, 0}));
  EXPECT_EQ(utxo.total_unspent_count(), 2u);
  EXPECT_EQ(utxo.total_unspent_value(), 100);
}

TEST(UtxoSetTest, DoubleSpendRejected) {
  UtxoSet utxo;
  ASSERT_EQ(utxo.apply(coinbase(0, 100, 1)), ValidationError::kOk);
  Transaction first;
  first.index = 1;
  first.inputs.push_back({0, 0});
  first.outputs.push_back({100, 2});
  ASSERT_EQ(utxo.apply(first), ValidationError::kOk);

  Transaction second;
  second.index = 2;
  second.inputs.push_back({0, 0});
  second.outputs.push_back({100, 3});
  EXPECT_EQ(utxo.apply(second), ValidationError::kAlreadySpent);
  EXPECT_EQ(utxo.num_txs(), 2u);  // rejected tx not applied
}

TEST(UtxoSetTest, UnknownInputRejected) {
  UtxoSet utxo;
  Transaction spend;
  spend.index = 0;
  spend.inputs.push_back({7, 0});
  spend.outputs.push_back({1, 1});
  EXPECT_EQ(utxo.apply(spend), ValidationError::kUnknownInputTx);
}

TEST(UtxoSetTest, BadVoutRejected) {
  UtxoSet utxo;
  ASSERT_EQ(utxo.apply(coinbase(0, 100, 1)), ValidationError::kOk);
  Transaction spend;
  spend.index = 1;
  spend.inputs.push_back({0, 5});
  spend.outputs.push_back({1, 1});
  EXPECT_EQ(utxo.apply(spend), ValidationError::kBadOutputIndex);
}

TEST(UtxoSetTest, OverspendRejected) {
  UtxoSet utxo;
  ASSERT_EQ(utxo.apply(coinbase(0, 100, 1)), ValidationError::kOk);
  Transaction spend;
  spend.index = 1;
  spend.inputs.push_back({0, 0});
  spend.outputs.push_back({150, 2});
  EXPECT_EQ(utxo.apply(spend), ValidationError::kValueNotConserved);
}

TEST(UtxoSetTest, UnderspendAllowed) {
  // Outputs below inputs = implicit fee; legal.
  UtxoSet utxo;
  ASSERT_EQ(utxo.apply(coinbase(0, 100, 1)), ValidationError::kOk);
  Transaction spend;
  spend.index = 1;
  spend.inputs.push_back({0, 0});
  spend.outputs.push_back({90, 2});
  EXPECT_EQ(utxo.apply(spend), ValidationError::kOk);
  EXPECT_EQ(utxo.total_unspent_value(), 90);
}

TEST(UtxoSetTest, DuplicateInputRejected) {
  UtxoSet utxo;
  ASSERT_EQ(utxo.apply(coinbase(0, 100, 1)), ValidationError::kOk);
  Transaction spend;
  spend.index = 1;
  spend.inputs.push_back({0, 0});
  spend.inputs.push_back({0, 0});
  spend.outputs.push_back({100, 2});
  EXPECT_EQ(utxo.apply(spend), ValidationError::kDuplicateInput);
}

TEST(UtxoSetTest, IndexMismatchRejected) {
  UtxoSet utxo;
  EXPECT_EQ(utxo.apply(coinbase(3, 100, 1)), ValidationError::kIndexMismatch);
}

TEST(UtxoSetTest, ValidateDoesNotMutate) {
  UtxoSet utxo;
  ASSERT_EQ(utxo.apply(coinbase(0, 100, 1)), ValidationError::kOk);
  Transaction spend;
  spend.index = 1;
  spend.inputs.push_back({0, 0});
  spend.outputs.push_back({100, 2});
  EXPECT_EQ(utxo.validate(spend), ValidationError::kOk);
  EXPECT_FALSE(utxo.is_spent({0, 0}));
  EXPECT_EQ(utxo.num_txs(), 1u);
}

TEST(UtxoSetTest, UnspentOutputsListsOnlyLive) {
  UtxoSet utxo;
  Transaction multi = coinbase(0, 100, 1);
  multi.outputs.push_back({50, 2});
  ASSERT_EQ(utxo.apply(multi), ValidationError::kOk);
  Transaction spend;
  spend.index = 1;
  spend.inputs.push_back({0, 0});
  spend.outputs.push_back({100, 3});
  ASSERT_EQ(utxo.apply(spend), ValidationError::kOk);
  const auto unspent = utxo.unspent_outputs(0);
  ASSERT_EQ(unspent.size(), 1u);
  EXPECT_EQ(unspent[0], 1u);
}

TEST(UtxoSetTest, ErrorStringsNonEmpty) {
  for (auto err : {ValidationError::kOk, ValidationError::kUnknownInputTx,
                   ValidationError::kBadOutputIndex,
                   ValidationError::kAlreadySpent,
                   ValidationError::kValueNotConserved,
                   ValidationError::kDuplicateInput,
                   ValidationError::kIndexMismatch}) {
    EXPECT_GT(std::string(to_string(err)).size(), 0u);
  }
}

}  // namespace
}  // namespace optchain::tx
