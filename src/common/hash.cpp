#include "common/hash.hpp"

#include <algorithm>
#include <bit>

#ifdef OPTCHAIN_SHA256_X86
#include <immintrin.h>
#endif

namespace optchain {
namespace {

alignas(16) constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t big_sigma0(std::uint32_t x) noexcept {
  return std::rotr(x, 2) ^ std::rotr(x, 13) ^ std::rotr(x, 22);
}
constexpr std::uint32_t big_sigma1(std::uint32_t x) noexcept {
  return std::rotr(x, 6) ^ std::rotr(x, 11) ^ std::rotr(x, 25);
}
constexpr std::uint32_t small_sigma0(std::uint32_t x) noexcept {
  return std::rotr(x, 7) ^ std::rotr(x, 18) ^ (x >> 3);
}
constexpr std::uint32_t small_sigma1(std::uint32_t x) noexcept {
  return std::rotr(x, 17) ^ std::rotr(x, 19) ^ (x >> 10);
}

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

void store_be64(std::uint8_t* p, std::uint64_t v) noexcept {
  for (std::size_t i = 0; i < 8; ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
  }
}

Digest256 to_digest(const std::uint32_t* state) noexcept {
  Digest256 out;
  for (std::size_t i = 0; i < 8; ++i) {
    out.bytes[4 * i] = static_cast<std::uint8_t>(state[i] >> 24);
    out.bytes[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    out.bytes[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    out.bytes[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
  }
  return out;
}

#ifdef OPTCHAIN_SHA256_X86

#define OPTCHAIN_SHA_TARGET __attribute__((target("sha,sse4.1,ssse3")))

// Four rounds on the schedule words plus constants `wk`. The SHA extensions
// keep the state as ABEF/CDGH lane pairs; each sha256rnds2 does two rounds.
OPTCHAIN_SHA_TARGET inline void rounds4(__m128i& abef, __m128i& cdgh,
                                        __m128i wk) noexcept {
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

// W[t..t+3] from W[t-16..t-1], held as four quads oldest first.
OPTCHAIN_SHA_TARGET inline __m128i next_schedule(__m128i w0, __m128i w1,
                                                 __m128i w2,
                                                 __m128i w3) noexcept {
  const __m128i partial = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1),
                                        _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(partial, w3);
}

// Message words W[4q..4q+3] of a block; they are big-endian in memory.
OPTCHAIN_SHA_TARGET inline __m128i load_words(const std::uint8_t* block,
                                              std::size_t quad) noexcept {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * quad)),
      byte_swap);
}

OPTCHAIN_SHA_TARGET inline __m128i round_constants(std::size_t quad) noexcept {
  return _mm_load_si128(
      reinterpret_cast<const __m128i*>(kRoundConstants.data() + 4 * quad));
}

#endif  // OPTCHAIN_SHA256_X86

}  // namespace

namespace detail {

void compress_portable(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t n_blocks) noexcept {
  for (; n_blocks > 0; --n_blocks, data += 64) {
    std::array<std::uint32_t, 64> w;
    for (std::size_t i = 0; i < 16; ++i) w[i] = load_be32(data + 4 * i);
    for (std::size_t i = 16; i < 64; ++i) {
      w[i] = small_sigma1(w[i - 2]) + w[i - 7] + small_sigma0(w[i - 15]) +
             w[i - 16];
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint32_t t1 =
          h + big_sigma1(e) + ((e & f) ^ (~e & g)) + kRoundConstants[i] + w[i];
      const std::uint32_t t2 = big_sigma0(a) + ((a & b) ^ (a & c) ^ (b & c));
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#ifdef OPTCHAIN_SHA256_X86

OPTCHAIN_SHA_TARGET void compress_sha_ni(std::uint32_t* state,
                                         const std::uint8_t* data,
                                         std::size_t n_blocks) noexcept {
  // state[0..7] = a..h  ->  ABEF and CDGH lane order.
  const __m128i dcba = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i hgfe = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(dcba, hgfe, 8);
  __m128i cdgh = _mm_blend_epi16(hgfe, dcba, 0xF0);

  for (; n_blocks > 0; --n_blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w0 = load_words(data, 0), w1 = load_words(data, 1);
    __m128i w2 = load_words(data, 2), w3 = load_words(data, 3);
    rounds4(abef, cdgh, _mm_add_epi32(w0, round_constants(0)));
    rounds4(abef, cdgh, _mm_add_epi32(w1, round_constants(1)));
    rounds4(abef, cdgh, _mm_add_epi32(w2, round_constants(2)));
    rounds4(abef, cdgh, _mm_add_epi32(w3, round_constants(3)));
    for (std::size_t quad = 4; quad < 16; ++quad) {
      const __m128i w4 = next_schedule(w0, w1, w2, w3);
      rounds4(abef, cdgh, _mm_add_epi32(w4, round_constants(quad)));
      w0 = w1;
      w1 = w2;
      w2 = w3;
      w3 = w4;
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  // ABEF/CDGH -> a..h.
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

bool sha_ni_available() noexcept {
  __builtin_cpu_init();  // needed when first called from a static initializer
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
         __builtin_cpu_supports("ssse3");
}

#endif  // OPTCHAIN_SHA256_X86

}  // namespace detail

namespace {

// The kernel every Sha256 call uses, picked on first use.
detail::CompressFn compress_kernel() noexcept {
#ifdef OPTCHAIN_SHA256_X86
  static const detail::CompressFn kernel = detail::sha_ni_available()
                                               ? detail::compress_sha_ni
                                               : detail::compress_portable;
  return kernel;
#else
  return detail::compress_portable;
#endif
}

}  // namespace

const char* detail::compress_kernel_name() noexcept {
  return compress_kernel() == compress_portable ? "portable" : "sha-ni";
}

void Sha256::reset() noexcept {
  state_ = kInitialState;
  buffered_ = 0;
  total_bytes_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> data) noexcept {
  const detail::CompressFn compress = compress_kernel();
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == buffer_.size()) {
      compress(state_.data(), buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  const std::size_t whole_blocks = (data.size() - offset) / 64;
  if (whole_blocks > 0) {
    compress(state_.data(), data.data() + offset, whole_blocks);
    offset += 64 * whole_blocks;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Digest256 Sha256::finish() noexcept {
  // 0x80, zeros up to 56 mod 64, then the 64-bit big-endian bit length
  // (FIPS 180-4 §5.1.1), fed to update() as one span.
  std::array<std::uint8_t, 72> padding{};
  const std::uint64_t length = total_bytes_;
  const std::size_t n = 1 + (55 - length % 64 + 64) % 64 + 8;
  padding[0] = 0x80;
  store_be64(padding.data() + n - 8, length * 8);
  update(std::span<const std::uint8_t>(padding.data(), n));
  return to_digest(state_.data());
}

Digest256 Sha256::digest(std::span<const std::uint8_t> data) noexcept {
  Sha256 hasher;
  hasher.update(data);
  return hasher.finish();
}

std::string Digest256::hex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

}  // namespace optchain
