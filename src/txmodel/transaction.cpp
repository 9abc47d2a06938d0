#include "txmodel/transaction.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <type_traits>

namespace optchain::tx {

std::vector<TxIndex> Transaction::distinct_input_txs() const {
  std::vector<TxIndex> out;
  distinct_input_txs(out);
  return out;
}

void Transaction::distinct_input_txs(std::vector<TxIndex>& out) const {
  out.clear();
  out.reserve(inputs.size());
  for (const auto& in : inputs) {
    if (std::find(out.begin(), out.end(), in.tx) == out.end()) {
      out.push_back(in.tx);
    }
  }
}

namespace {

// Appends `value` little-endian at `out` and returns the next write position.
template <typename T>
std::uint8_t* put_le(std::uint8_t* out, T value) noexcept {
  const auto bits = static_cast<std::make_unsigned_t<T>>(value);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &bits, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out[i] = static_cast<std::uint8_t>(bits >> (8 * i));
    }
  }
  return out + sizeof(T);
}

}  // namespace

Digest256 Transaction::txid() const {
  // Encoding: u32 index, u32 n_inputs, {u32 tx, u32 vout}*, u32 n_outputs,
  // {i64 value, u32 owner}*. Built in one buffer, hashed in one call; the
  // stack buffer covers ~40 inputs, larger transactions spill to the heap.
  const std::size_t bytes = 12 + 8 * inputs.size() + 12 * outputs.size();
  std::array<std::uint8_t, 512> stack_buffer;
  std::vector<std::uint8_t> heap_buffer;
  std::uint8_t* begin = stack_buffer.data();
  if (bytes > stack_buffer.size()) {
    heap_buffer.resize(bytes);
    begin = heap_buffer.data();
  }

  std::uint8_t* out = put_le(begin, index);
  out = put_le(out, static_cast<std::uint32_t>(inputs.size()));
  for (const auto& in : inputs) {
    out = put_le(out, in.tx);
    out = put_le(out, in.vout);
  }
  out = put_le(out, static_cast<std::uint32_t>(outputs.size()));
  for (const auto& txo : outputs) {
    out = put_le(out, txo.value);
    out = put_le(out, txo.owner);
  }
  return Sha256::digest(std::span<const std::uint8_t>(begin, bytes));
}

std::size_t Transaction::serialized_size() const noexcept {
  // Bitcoin ballpark: ~10 B framing, ~148 B per input (outpoint + signature),
  // ~34 B per output (value + script). A 2-in/2-out transaction lands near
  // the paper's ~500 B average once txid/witness overheads are counted; we
  // fold those into the per-input constant.
  return 10 + 180 * inputs.size() + 34 * outputs.size();
}

}  // namespace optchain::tx
