// Helpers for hand-crafting OPTX/OTRC container bytes in reader-hardening
// tests.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "txmodel/serialization.hpp"

namespace optchain::crafted {

/// LEB128 varint bytes of `value`.
inline std::string varint(std::uint64_t value) {
  std::vector<std::uint8_t> bytes;
  tx::write_varint(bytes, value);
  return std::string(bytes.begin(), bytes.end());
}

/// The 12-byte container trailer: `footer_offset` as u64 little-endian,
/// then the 4-byte trailer `magic`.
inline std::string trailer(std::uint64_t footer_offset,
                           std::string_view magic) {
  std::string out;
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>(footer_offset >> (8 * i)));
  }
  return out.append(magic);
}

/// `fn` must throw a std::runtime_error whose message contains each of
/// `needles`; a std::bad_alloc or std::length_error from an unchecked
/// reserve escapes and fails the test.
template <typename Fn>
void expect_bounded(Fn&& fn, std::initializer_list<std::string_view> needles) {
  try {
    fn();
    ADD_FAILURE() << "no error for an oversized field";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    for (const std::string_view needle : needles) {
      EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
  }
}

}  // namespace optchain::crafted
