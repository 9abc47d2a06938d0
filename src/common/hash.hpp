// Hashing primitives.
//
// - Sha256: a from-scratch FIPS 180-4 SHA-256 implementation. Transaction ids
//   are SHA-256 digests of the transaction's canonical encoding, mirroring
//   Bitcoin's txid construction (single pass; the double hash adds nothing for
//   the experiments here). OmniLedger-style random placement is
//   "hash of txid mod k", so a real cryptographic hash keeps that baseline
//   faithful to the paper, and `placer.choose_*` on an OmniLedger run is the
//   txid cost.
//
//   Whole 64-byte blocks go through one compress kernel, chosen once per
//   process at first use: on x86 CPUs with the SHA extensions
//   (`__builtin_cpu_supports("sha")`) a kernel built on the
//   `sha256rnds2/msg1/msg2` instructions, compiled for that one function by
//   a target attribute; everywhere else (other CPUs, other architectures)
//   the portable FIPS rounds. Both kernels produce the same bytes: the
//   choice changes speed, never a digest, a txid or a result. detail::
//   exposes both so tests check them against each other directly.
// - mix64: a cheap statistically-strong 64-bit finalizer for hash tables and
//   for deriving per-entity sub-seeds.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
/// Defined when the build compiles the x86 SHA-extensions kernel.
#define OPTCHAIN_SHA256_X86 1
#endif

namespace optchain {

/// 256-bit digest.
struct Digest256 {
  std::array<std::uint8_t, 32> bytes{};

  friend bool operator==(const Digest256&, const Digest256&) = default;

  /// First 8 bytes interpreted little-endian; convenient uniform 64-bit view.
  std::uint64_t low64() const noexcept {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data(), sizeof(v));
    return v;
  }

  std::string hex() const;
};

/// Incremental SHA-256 (FIPS 180-4).
class Sha256 {
 public:
  Sha256() noexcept { reset(); }

  void reset() noexcept;
  void update(std::span<const std::uint8_t> data) noexcept;
  void update(std::string_view text) noexcept {
    update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  }

  /// Finalizes and returns the digest. The object must be reset() before reuse.
  Digest256 finish() noexcept;

  /// One-shot digest of `data`: update() then finish() on a fresh hasher.
  static Digest256 digest(std::span<const std::uint8_t> data) noexcept;
  static Digest256 digest(std::string_view text) noexcept {
    return digest(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  }

 private:
  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

namespace detail {

/// A SHA-256 block kernel: folds `n_blocks` consecutive 64-byte blocks of
/// `data` into the eight working words `state` (FIPS 180-4 §6.2.2).
using CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t n_blocks) noexcept;

/// The portable FIPS 180-4 rounds; runs on any CPU.
void compress_portable(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t n_blocks) noexcept;

#ifdef OPTCHAIN_SHA256_X86
/// The x86 SHA-extensions kernel. Call it only when sha_ni_available().
void compress_sha_ni(std::uint32_t* state, const std::uint8_t* data,
                     std::size_t n_blocks) noexcept;

/// True when the CPU has the SHA extensions (and SSSE3/SSE4.1).
bool sha_ni_available() noexcept;
#endif

/// Name of the kernel Sha256 uses: "sha-ni" or "portable".
const char* compress_kernel_name() noexcept;

}  // namespace detail

/// Fast 64-bit mixing finalizer (splitmix64 finalizer). Suitable for hash
/// tables and seed derivation; not cryptographic.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a over a byte span; for cheap non-adversarial content hashing.
constexpr std::uint64_t fnv1a(std::span<const std::uint8_t> data) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace optchain
