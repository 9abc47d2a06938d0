// Unit tests for src/common: RNG, hashing, histograms, tables, flags.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/hash.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"

namespace optchain {
namespace {

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ReseedRestartsSequence) {
  Rng rng(7);
  const std::uint64_t first = rng();
  rng();
  rng.reseed(7);
  EXPECT_EQ(rng(), first);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(42);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(RngTest, BelowOneAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, Uniform01InHalfOpenInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, Uniform01MeanNearHalf) {
  Rng rng(17);
  double sum = 0.0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(23);
  const double lambda = 4.0;
  double sum = 0.0;
  constexpr int kSamples = 40000;
  for (int i = 0; i < kSamples; ++i) sum += rng.exponential(lambda);
  EXPECT_NEAR(sum / kSamples, 1.0 / lambda, 0.01);
}

TEST(RngTest, ExponentialNonNegative) {
  Rng rng(29);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.exponential(0.5), 0.0);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, GeometricMeanMatches) {
  Rng rng(37);
  const double p = 0.25;
  double sum = 0.0;
  constexpr int kSamples = 40000;
  for (int i = 0; i < kSamples; ++i) {
    sum += static_cast<double>(rng.geometric(p));
  }
  // Mean of failures-before-success geometric is (1-p)/p = 3.
  EXPECT_NEAR(sum / kSamples, 3.0, 0.1);
}

TEST(RngTest, NormalMoments) {
  Rng rng(41);
  double sum = 0.0, sq = 0.0;
  constexpr int kSamples = 40000;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kSamples;
  const double var = sq / kSamples - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

// ---------------------------------------------------------------- Zipf

TEST(ZipfSamplerTest, RangeRespected) {
  ZipfSampler zipf(2.0, 10);
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const std::uint32_t x = zipf.sample(rng);
    EXPECT_GE(x, 1u);
    EXPECT_LE(x, 10u);
  }
}

TEST(ZipfSamplerTest, SingletonSupport) {
  ZipfSampler zipf(2.5, 1);
  Rng rng(2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.sample(rng), 1u);
  EXPECT_DOUBLE_EQ(zipf.mean(), 1.0);
}

TEST(ZipfSamplerTest, HeavierAlphaConcentratesOnOne) {
  Rng rng(3);
  ZipfSampler light(1.2, 50), heavy(3.0, 50);
  int light_ones = 0, heavy_ones = 0;
  for (int i = 0; i < 5000; ++i) {
    if (light.sample(rng) == 1) ++light_ones;
    if (heavy.sample(rng) == 1) ++heavy_ones;
  }
  EXPECT_GT(heavy_ones, light_ones);
}

TEST(ZipfSamplerTest, EmpiricalMeanMatchesAnalytic) {
  ZipfSampler zipf(2.2, 24);
  Rng rng(4);
  double sum = 0.0;
  constexpr int kSamples = 60000;
  for (int i = 0; i < kSamples; ++i) {
    sum += static_cast<double>(zipf.sample(rng));
  }
  EXPECT_NEAR(sum / kSamples, zipf.mean(), 0.05);
}

// ---------------------------------------------------------------- Sha256

TEST(Sha256Test, EmptyStringVector) {
  // FIPS 180-4 test vector.
  EXPECT_EQ(Sha256::digest("").hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, AbcVector) {
  EXPECT_EQ(Sha256::digest("abc").hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockVector) {
  EXPECT_EQ(Sha256::digest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
                .hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionA) {
  Sha256 hasher;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.update(chunk);
  EXPECT_EQ(hasher.finish().hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Sha256 hasher;
  hasher.update("hello ");
  hasher.update("world");
  EXPECT_EQ(hasher.finish().hex(), Sha256::digest("hello world").hex());
}

TEST(Sha256Test, Low64Differs) {
  EXPECT_NE(Sha256::digest("a").low64(), Sha256::digest("b").low64());
}

TEST(Sha256Test, ResetReusesObject) {
  Sha256 hasher;
  hasher.update("abc");
  const auto first = hasher.finish();
  hasher.reset();
  hasher.update("abc");
  EXPECT_EQ(hasher.finish(), first);
}

// Both compress kernels, driven directly. Sha256 itself runs whichever one
// the CPU supports; these pin each against FIPS 180-4.

// One-shot digest of `message` through `compress` alone (padding built here).
Digest256 digest_with(detail::CompressFn compress, std::string_view message) {
  std::vector<std::uint8_t> padded(message.begin(), message.end());
  const std::uint64_t bits = 8 * static_cast<std::uint64_t>(message.size());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  for (int shift = 56; shift >= 0; shift -= 8) {
    padded.push_back(static_cast<std::uint8_t>(bits >> shift));
  }
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  compress(state, padded.data(), padded.size() / 64);
  Digest256 out;
  for (std::size_t i = 0; i < 32; ++i) {
    out.bytes[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

void expect_nist_vectors(detail::CompressFn compress) {
  EXPECT_EQ(digest_with(compress, "").hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(digest_with(compress, "abc").hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(digest_with(compress,
                        "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopn"
                        "opq")
                .hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(digest_with(compress,
                        "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijkl"
                        "mnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopq"
                        "rstu")
                .hex(),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  EXPECT_EQ(digest_with(compress, std::string(1000000, 'a')).hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// Every length 0..300 (every padding case, up to five blocks): streaming
// Sha256, the one-shot digest and the given kernel agree.
void expect_paths_agree(detail::CompressFn compress) {
  std::string message;
  for (std::size_t n = 0; n <= 300; ++n) {
    SCOPED_TRACE(n);
    const std::span<const std::uint8_t> bytes(
        reinterpret_cast<const std::uint8_t*>(message.data()), message.size());
    Sha256 streaming;
    for (std::size_t i = 0; i < n; i += 7) {
      streaming.update(bytes.subspan(i, std::min<std::size_t>(7, n - i)));
    }
    const Digest256 expected = digest_with(compress, message);
    EXPECT_EQ(streaming.finish(), expected);
    EXPECT_EQ(Sha256::digest(bytes), expected);
    message.push_back(static_cast<char>(n * 131 + 17));
  }
}

TEST(Sha256KernelTest, PortableMatchesNistVectors) {
  expect_nist_vectors(detail::compress_portable);
}

TEST(Sha256KernelTest, PortableAgreesWithStreamingAndOneShot) {
  expect_paths_agree(detail::compress_portable);
}

#ifdef OPTCHAIN_SHA256_X86

TEST(Sha256KernelTest, ShaNiMatchesNistVectors) {
  if (!detail::sha_ni_available()) {
    GTEST_SKIP() << "CPU lacks the x86 SHA extensions";
  }
  expect_nist_vectors(detail::compress_sha_ni);
}

TEST(Sha256KernelTest, ShaNiAgreesWithStreamingAndOneShot) {
  if (!detail::sha_ni_available()) {
    GTEST_SKIP() << "CPU lacks the x86 SHA extensions";
  }
  expect_paths_agree(detail::compress_sha_ni);
}

#else

TEST(Sha256KernelTest, ShaNiMatchesNistVectors) {
  GTEST_SKIP() << "build has no x86 SHA-extensions kernel";
}

#endif  // OPTCHAIN_SHA256_X86

// ---------------------------------------------------------------- mix64/fnv

TEST(MixTest, Mix64IsInjectiveOnSmallRange) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10000; ++i) seen.insert(mix64(i));
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(MixTest, Fnv1aKnownValue) {
  // FNV-1a of empty input is the offset basis.
  EXPECT_EQ(fnv1a({}), 0xcbf29ce484222325ULL);
}

TEST(MixTest, Fnv1aDistinguishesInputs) {
  const std::uint8_t a[] = {1, 2, 3};
  const std::uint8_t b[] = {3, 2, 1};
  EXPECT_NE(fnv1a(a), fnv1a(b));
}

// ---------------------------------------------------------------- Histogram

TEST(IntHistogramTest, CountsAndTotal) {
  IntHistogram hist;
  hist.add(1);
  hist.add(1);
  hist.add(5, 3);
  EXPECT_EQ(hist.total(), 5u);
  EXPECT_EQ(hist.count_of(1), 2u);
  EXPECT_EQ(hist.count_of(5), 3u);
  EXPECT_EQ(hist.count_of(2), 0u);
  EXPECT_EQ(hist.max_value(), 5u);
}

TEST(IntHistogramTest, FractionBelow) {
  IntHistogram hist;
  for (std::uint64_t v : {0u, 1u, 1u, 2u, 3u}) hist.add(v);
  EXPECT_DOUBLE_EQ(hist.fraction_below(0), 0.0);
  EXPECT_DOUBLE_EQ(hist.fraction_below(2), 0.6);
  EXPECT_DOUBLE_EQ(hist.fraction_below(100), 1.0);
}

TEST(IntHistogramTest, CumulativeReachesOne) {
  IntHistogram hist;
  hist.add(2, 10);
  hist.add(7, 30);
  const auto cdf = hist.cumulative();
  ASSERT_EQ(cdf.size(), 2u);
  EXPECT_DOUBLE_EQ(cdf[0].second, 0.25);
  EXPECT_DOUBLE_EQ(cdf[1].second, 1.0);
}

TEST(IntHistogramTest, EmptyHistogram) {
  IntHistogram hist;
  EXPECT_EQ(hist.total(), 0u);
  EXPECT_EQ(hist.max_value(), 0u);
  EXPECT_DOUBLE_EQ(hist.fraction_below(10), 0.0);
  EXPECT_TRUE(hist.cumulative().empty());
}

TEST(SampleStatsTest, Moments) {
  SampleStats stats;
  for (double v : {1.0, 2.0, 3.0, 4.0}) stats.add(v);
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 4.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 10.0);
}

TEST(SampleStatsTest, Quantiles) {
  SampleStats stats;
  for (int i = 1; i <= 100; ++i) stats.add(i);
  EXPECT_DOUBLE_EQ(stats.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(stats.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(stats.quantile(0.0), 1.0);
}

TEST(SampleStatsTest, CdfAtThresholds) {
  SampleStats stats;
  for (double v : {1.0, 2.0, 3.0, 4.0}) stats.add(v);
  const auto cdf = stats.cdf_at({0.5, 2.0, 10.0});
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0], 0.0);
  EXPECT_DOUBLE_EQ(cdf[1], 0.5);
  EXPECT_DOUBLE_EQ(cdf[2], 1.0);
}

TEST(SampleStatsTest, AddAfterQuantileInvalidatesCache) {
  SampleStats stats;
  stats.add(1.0);
  EXPECT_DOUBLE_EQ(stats.quantile(1.0), 1.0);
  stats.add(5.0);
  EXPECT_DOUBLE_EQ(stats.quantile(1.0), 5.0);
}

// ---------------------------------------------------------------- TextTable

TEST(TextTableTest, AlignsColumns) {
  TextTable table({"k", "value"});
  table.add_row({"4", "9.28 %"});
  table.add_row({"64", "21.65 %"});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("k   value"), std::string::npos);
  EXPECT_NE(text.find("64  21.65 %"), std::string::npos);
}

TEST(TextTableTest, Formatters) {
  EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::fmt_percent(0.0928, 2), "9.28 %");
  EXPECT_EQ(TextTable::fmt_int(-42), "-42");
}

TEST(TextTableTest, RowCount) {
  TextTable table({"a"});
  EXPECT_EQ(table.rows(), 0u);
  table.add_row({"x"});
  EXPECT_EQ(table.rows(), 1u);
}

TEST(TextTableTest, CsvBasic) {
  TextTable table({"k", "value"});
  table.add_row({"4", "9.28 %"});
  EXPECT_EQ(table.to_csv(), "k,value\n4,9.28 %\n");
}

TEST(TextTableTest, CsvEscapesSpecials) {
  TextTable table({"name", "note"});
  table.add_row({"a,b", "say \"hi\""});
  EXPECT_EQ(table.to_csv(), "name,note\n\"a,b\",\"say \"\"hi\"\"\"\n");
}

// ---------------------------------------------------------------- Flags

TEST(FlagsTest, ParsesTypes) {
  const char* argv[] = {"prog", "--txs=1000", "--rate=2.5", "--verbose",
                        "--name=opt"};
  Flags flags(5, argv);
  EXPECT_EQ(flags.get_int("txs", 0), 1000);
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 0.0), 2.5);
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_EQ(flags.get_string("name", ""), "opt");
}

TEST(FlagsTest, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  Flags flags(1, argv);
  EXPECT_EQ(flags.get_int("txs", 77), 77);
  EXPECT_FALSE(flags.has("txs"));
}

TEST(FlagsTest, IntList) {
  const char* argv[] = {"prog", "--shards=4,8,16"};
  Flags flags(2, argv);
  const auto list = flags.get_int_list("shards", {});
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], 4);
  EXPECT_EQ(list[2], 16);
}

TEST(FlagsTest, IntListFallback) {
  const char* argv[] = {"prog"};
  Flags flags(1, argv);
  const auto list = flags.get_int_list("shards", {1, 2});
  ASSERT_EQ(list.size(), 2u);
}

TEST(FlagsTest, IgnoresBenchmarkFlags) {
  const char* argv[] = {"prog", "--benchmark_filter=abc"};
  EXPECT_NO_THROW(Flags(2, argv));
}

TEST(FlagsTest, ThrowsOnMalformed) {
  const char* argv[] = {"prog", "positional"};
  EXPECT_THROW(Flags(2, argv), std::invalid_argument);
}

}  // namespace
}  // namespace optchain
