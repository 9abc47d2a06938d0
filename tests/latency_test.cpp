// Tests for the L2S latency model: distribution helpers, expectations,
// quadrature, and the estimator's protocol semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "latency/l2s_model.hpp"
#include "latency/quadrature.hpp"

namespace optchain::latency {
namespace {

// -------------------------------------------------------------- quadrature

TEST(QuadratureTest, PolynomialExact) {
  // Simpson is exact for cubics.
  const double integral =
      integrate_simpson([](double x) { return x * x * x; }, 0.0, 2.0, 4);
  EXPECT_NEAR(integral, 4.0, 1e-12);
}

TEST(QuadratureTest, EmptyInterval) {
  EXPECT_DOUBLE_EQ(integrate_simpson([](double) { return 1.0; }, 1.0, 1.0),
                   0.0);
  EXPECT_DOUBLE_EQ(integrate_simpson([](double) { return 1.0; }, 2.0, 1.0),
                   0.0);
}

TEST(QuadratureTest, ExponentialTail) {
  // ∫₀^∞ e^(-t) dt = 1.
  const double integral =
      integrate_decaying([](double t) { return std::exp(-t); }, 1.0);
  EXPECT_NEAR(integral, 1.0, 1e-6);
}

TEST(QuadratureTest, OddSubintervalCountRoundsUp) {
  const double integral =
      integrate_simpson([](double x) { return x; }, 0.0, 1.0, 3);
  EXPECT_NEAR(integral, 0.5, 1e-12);
}

// -------------------------------------------------------------- two-phase

TEST(TwoPhaseTest, CdfIsMonotoneFromZeroToOne) {
  const ShardTiming timing{0.2, 1.5};
  EXPECT_DOUBLE_EQ(two_phase_cdf(timing, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(two_phase_cdf(timing, -1.0), 0.0);
  double prev = 0.0;
  for (double t = 0.1; t < 60.0; t += 0.5) {
    const double cur = two_phase_cdf(timing, t);
    EXPECT_GE(cur, prev - 1e-12);
    prev = cur;
  }
  EXPECT_NEAR(two_phase_cdf(timing, 200.0), 1.0, 1e-9);
}

TEST(TwoPhaseTest, EqualRatesUseErlangBranch) {
  const ShardTiming timing{1.0, 1.0};
  // Erlang-2, rate 1: F(t) = 1 - e^-t (1 + t).
  for (double t : {0.5, 1.0, 2.0, 5.0}) {
    EXPECT_NEAR(two_phase_cdf(timing, t),
                1.0 - std::exp(-t) * (1.0 + t), 1e-9);
  }
}

TEST(TwoPhaseTest, PdfIntegratesToOne) {
  const ShardTiming timing{0.3, 2.0};
  const double total = integrate_decaying(
      [&](double t) { return two_phase_pdf(timing, t); }, 2.3, 30.0, 2048);
  EXPECT_NEAR(total, 1.0, 1e-4);
}

TEST(TwoPhaseTest, PdfMatchesCdfDerivative) {
  const ShardTiming timing{0.4, 1.1};
  const double h = 1e-5;
  for (double t : {0.5, 1.0, 3.0}) {
    const double numeric =
        (two_phase_cdf(timing, t + h) - two_phase_cdf(timing, t - h)) /
        (2 * h);
    EXPECT_NEAR(two_phase_pdf(timing, t), numeric, 1e-5);
  }
}

// Across the equal-rate limit the CDF must move only by its first-order
// term: with λ_c = λ and λ_v = λ(1 + g), F_g(t) = F_0(t) + g·(λt)²e^{−λt}/2
// + O(g²). The textbook difference form loses ~8 digits at g = 1e-8.
TEST(TwoPhaseTest, CdfContinuousAcrossEqualRates) {
  constexpr double kLambda = 2.5;
  for (const double t : {0.05, 0.4, 1.0, 3.0, 12.0}) {
    const double erlang = two_phase_cdf({1.0 / kLambda, 1.0 / kLambda}, t);
    const double lt = kLambda * t;
    for (const double gap : {1e-10, -1e-10, 1e-8, -1e-8}) {
      const ShardTiming timing{1.0 / kLambda, 1.0 / (kLambda * (1.0 + gap))};
      const double predicted = erlang + gap * lt * lt * std::exp(-lt) / 2.0;
      EXPECT_NEAR(two_phase_cdf(timing, t), predicted, 1e-12)
          << "t=" << t << " gap=" << gap;
      // The density's first-order term: g·λ²t·e^{−λt}·(1 − λt/2).
      const double density = two_phase_pdf({1.0 / kLambda, 1.0 / kLambda}, t) +
                             gap * kLambda * lt * std::exp(-lt) *
                                 (1.0 - lt / 2.0);
      EXPECT_NEAR(two_phase_pdf(timing, t), density, 1e-12)
          << "t=" << t << " gap=" << gap;
    }
  }
}

TEST(TwoPhaseTest, FastCommFiniteAtLargeTimes) {
  // λ_c ≫ λ_v: the hypoexponential is symmetric in its rates, so nothing
  // overflows far into the tail.
  const ShardTiming timing{1e-12, 1.0};
  for (const double t : {1e-3, 1.0, 50.0, 800.0}) {
    EXPECT_TRUE(std::isfinite(two_phase_pdf(timing, t)));
    EXPECT_NEAR(two_phase_cdf(timing, t), -std::expm1(-t), 1e-9);
  }
}

TEST(TwoPhaseTest, MeanByQuadratureMatchesClosedForm) {
  const ShardTiming timing{0.25, 1.75};
  // E[T] = ∫ (1 - F(t)) dt.
  const double mean = integrate_decaying(
      [&](double t) { return 1.0 - two_phase_cdf(timing, t); }, 2.0, 30.0,
      2048);
  EXPECT_NEAR(mean, expected_two_phase(timing), 1e-6);
}

// -------------------------------------------------------------- E[max]

TEST(ExpectedMaxTest, EmptySetIsZero) {
  EXPECT_DOUBLE_EQ(expected_max_two_phase({}), 0.0);
}

TEST(ExpectedMaxTest, SingletonEqualsMean) {
  const ShardTiming timing{0.2, 1.0};
  const std::vector<ShardTiming> one{timing};
  EXPECT_NEAR(expected_max_two_phase(one), 1.2, 1e-9);
}

TEST(ExpectedMaxTest, MaxAtLeastEveryComponent) {
  const std::vector<ShardTiming> set{{0.1, 0.5}, {0.2, 3.0}, {0.1, 1.0}};
  const double max_mean = expected_max_two_phase(set);
  for (const auto& timing : set) {
    EXPECT_GE(max_mean, expected_two_phase(timing) - 1e-6);
  }
  // And at most the sum of means.
  double sum = 0.0;
  for (const auto& timing : set) sum += expected_two_phase(timing);
  EXPECT_LE(max_mean, sum);
}

TEST(ExpectedMaxTest, IdenticalShardsGrowWithCount) {
  const ShardTiming timing{0.1, 1.0};
  const double one = expected_max_two_phase(std::vector<ShardTiming>{timing});
  const double two =
      expected_max_two_phase(std::vector<ShardTiming>{timing, timing});
  const double four = expected_max_two_phase(
      std::vector<ShardTiming>{timing, timing, timing, timing});
  EXPECT_GT(two, one);
  EXPECT_GT(four, two);
}

TEST(ExpectedMaxTest, OrderInvariant) {
  const std::vector<ShardTiming> a{{0.1, 0.5}, {0.3, 2.0}};
  const std::vector<ShardTiming> b{{0.3, 2.0}, {0.1, 0.5}};
  EXPECT_NEAR(expected_max_two_phase(a), expected_max_two_phase(b), 1e-9);
}

// ---------------------------------------------------- E[max] exactness

/// High-resolution reference: Simpson with 200k points out to 40 times the
/// largest mean (truncation ~e^-40).
double reference_expected_max(const std::vector<ShardTiming>& timings) {
  double max_mean = 0.0;
  for (const auto& timing : timings) {
    max_mean = std::max(max_mean, expected_two_phase(timing));
  }
  return integrate_decaying(
      [&](double t) {
        double prod = 1.0;
        for (const auto& timing : timings) prod *= two_phase_cdf(timing, t);
        return 1.0 - prod;
      },
      max_mean, 40.0, 200000);
}

/// The accuracy promised at this proof-set size: exact up to the cap, the
/// quadrature fallback's tolerance above it.
double tolerance_for(std::size_t n) {
  return n <= kExactMaxShards ? 1e-9 : 1e-4;
}

void expect_matches_reference(const std::vector<ShardTiming>& timings,
                              const std::string& label) {
  const double value = expected_max_two_phase(timings);
  ASSERT_TRUE(std::isfinite(value)) << label;
  ASSERT_GE(value, 0.0) << label;
  const double reference = reference_expected_max(timings);
  EXPECT_LE(std::abs(value - reference),
            tolerance_for(timings.size()) * reference)
      << label << ": n=" << timings.size() << " value=" << value
      << " reference=" << reference;
}

/// Shard timings drawn from the simulator's range: communication 0.05–0.5 s,
/// verification 0.2–8 s.
std::vector<ShardTiming> random_timings(std::size_t n, Rng& rng) {
  std::vector<ShardTiming> timings(n);
  for (auto& timing : timings) {
    timing.mean_comm = rng.uniform(0.05, 0.5);
    timing.mean_verify = rng.uniform(0.2, 8.0);
  }
  return timings;
}

constexpr std::size_t kLargestTested = kExactMaxShards + 2;

TEST(ExpectedMaxExactnessTest, RandomTimingsMatchReference) {
  Rng rng(2024);
  for (std::size_t n = 2; n <= kLargestTested; ++n) {
    for (int trial = 0; trial < 3; ++trial) {
      expect_matches_reference(random_timings(n, rng),
                               "random trial " + std::to_string(trial));
    }
  }
}

TEST(ExpectedMaxExactnessTest, EqualRatesWithinShard) {
  // mean_comm == mean_verify: every shard is Erlang-2.
  Rng rng(11);
  for (std::size_t n = 2; n <= kLargestTested; ++n) {
    std::vector<ShardTiming> timings(n);
    for (auto& timing : timings) {
      timing.mean_comm = timing.mean_verify = rng.uniform(0.3, 3.0);
    }
    expect_matches_reference(timings, "erlang");
  }
}

TEST(ExpectedMaxExactnessTest, NearEqualRates) {
  // Relative rate gaps inside each shard and between shards.
  for (const double gap : {1e-12, 1e-8, 1e-6, 1e-3}) {
    for (std::size_t n = 2; n <= kLargestTested; ++n) {
      std::vector<ShardTiming> within(n);
      std::vector<ShardTiming> across(n);
      for (std::size_t i = 0; i < n; ++i) {
        const double mean = 0.5 + 0.25 * static_cast<double>(i);
        within[i] = {mean, mean * (1.0 + gap)};
        const double shared = 1.0 * (1.0 + gap * static_cast<double>(i));
        across[i] = {0.2 * shared, shared};
      }
      const std::string label = "gap " + std::to_string(gap);
      expect_matches_reference(within, label + " within");
      expect_matches_reference(across, label + " across");
    }
  }
}

TEST(ExpectedMaxExactnessTest, IdenticalShards) {
  for (std::size_t n = 2; n <= kLargestTested; ++n) {
    expect_matches_reference(std::vector<ShardTiming>(n, {0.1, 1.0}),
                             "identical");
  }
}

TEST(ExpectedMaxExactnessTest, ClampedTinyMeans) {
  // The NonNegativeScores case: means below the 1e-9 clamp.
  const std::vector<ShardTiming> timings{{1e-12, 1e-12}, {0.1, 1.0}};
  expect_matches_reference(timings, "clamped");
  EXPECT_NEAR(expected_max_two_phase(timings), 1.1, 1e-8);
}

TEST(ExpectedMaxExactnessTest, AddingAShardNeverLowersTheMax) {
  Rng rng(77);
  for (int trial = 0; trial < 5; ++trial) {
    const std::vector<ShardTiming> all = random_timings(kLargestTested, rng);
    double previous = 0.0;
    for (std::size_t n = 1; n <= all.size(); ++n) {
      const double value = expected_max_two_phase(
          std::span<const ShardTiming>(all.data(), n));
      // The step onto the quadrature fallback may lose up to its tolerance.
      EXPECT_GE(value, previous * (1.0 - tolerance_for(n)))
          << "trial " << trial << " n=" << n;
      previous = value;
    }
  }
}

// -------------------------------------------------------------- estimator

TEST(L2sEstimatorTest, SameShardSkipsProofPhase) {
  const std::vector<ShardTiming> timings{{0.1, 1.0}, {0.1, 5.0}};
  L2sEstimator estimator;
  // All inputs in shard 0, candidate 0: just one commit pass.
  const std::vector<std::uint32_t> inputs{0};
  EXPECT_NEAR(estimator.score(timings, inputs, 0), 1.1, 1e-9);
  // Candidate 1 is cross: proof from shard 0 plus commit at shard 1.
  const double cross = estimator.score(timings, inputs, 1);
  EXPECT_NEAR(cross, 1.1 + 5.1, 1e-6);
}

TEST(L2sEstimatorTest, CoinbaseUsesCandidateOnly) {
  const std::vector<ShardTiming> timings{{0.1, 1.0}, {0.1, 2.0}};
  L2sEstimator estimator;
  EXPECT_NEAR(estimator.score(timings, {}, 0), 1.1, 1e-9);
  EXPECT_NEAR(estimator.score(timings, {}, 1), 2.1, 1e-9);
}

TEST(L2sEstimatorTest, BusierShardScoresWorse) {
  const std::vector<ShardTiming> timings{{0.1, 1.0}, {0.1, 10.0}};
  L2sEstimator estimator;
  const std::vector<std::uint32_t> inputs{0, 1};  // cross either way
  EXPECT_LT(estimator.score(timings, inputs, 0),
            estimator.score(timings, inputs, 1));
}

TEST(L2sEstimatorTest, MonotoneInQueueBacklog) {
  // Growing mean_verify (deeper queue) must raise the score.
  L2sEstimator estimator;
  double prev = 0.0;
  for (double verify = 1.0; verify < 20.0; verify += 2.0) {
    const std::vector<ShardTiming> timings{{0.1, verify}};
    const double score = estimator.score(timings, {}, 0);
    EXPECT_GT(score, prev);
    prev = score;
  }
}

TEST(L2sEstimatorTest, ScoreAllMatchesScore) {
  const std::vector<ShardTiming> timings{
      {0.1, 1.0}, {0.2, 2.0}, {0.15, 4.0}};
  const std::vector<std::uint32_t> inputs{0, 2};
  L2sEstimator estimator;
  const auto all = estimator.score_all(timings, inputs);
  ASSERT_EQ(all.size(), timings.size());
  for (std::uint32_t j = 0; j < timings.size(); ++j) {
    EXPECT_NEAR(all[j], estimator.score(timings, inputs, j), 1e-9);
  }
}

TEST(L2sEstimatorTest, PaperSelfConvolutionMode) {
  const std::vector<ShardTiming> timings{{0.1, 1.0}, {0.1, 2.0}};
  const std::vector<std::uint32_t> inputs{0};
  L2sEstimator paper({L2sMode::kPaperSelfConvolution});
  // Cross placement at shard 1: E = 2 × E[proof gathering from shard 0].
  EXPECT_NEAR(paper.score(timings, inputs, 1), 2.0 * 1.1, 1e-6);
  // Same-shard behavior unchanged.
  EXPECT_NEAR(paper.score(timings, inputs, 0), 1.1, 1e-9);
}

TEST(L2sEstimatorTest, NonNegativeScores) {
  const std::vector<ShardTiming> timings{{1e-12, 1e-12}, {0.1, 1.0}};
  L2sEstimator estimator;
  const std::vector<std::uint32_t> inputs{0, 1};
  for (std::uint32_t j = 0; j < 2; ++j) {
    EXPECT_GE(estimator.score(timings, inputs, j), 0.0);
  }
}

// ------------------------------------------------ Monte-Carlo validation

/// Empirically samples the protocol's latency (draw l_c + l_v per shard,
/// take the max over input shards, add the commit phase) and compares the
/// mean against the exact estimator.
double monte_carlo_cross_latency(const std::vector<ShardTiming>& timings,
                                 const std::vector<std::uint32_t>& inputs,
                                 std::uint32_t candidate, int samples,
                                 std::uint64_t seed) {
  Rng rng(seed);
  double total = 0.0;
  for (int s = 0; s < samples; ++s) {
    double proof_phase = 0.0;
    for (const std::uint32_t shard : inputs) {
      const double t = rng.exponential(1.0 / timings[shard].mean_comm) +
                       rng.exponential(1.0 / timings[shard].mean_verify);
      proof_phase = std::max(proof_phase, t);
    }
    const double commit_phase =
        rng.exponential(1.0 / timings[candidate].mean_comm) +
        rng.exponential(1.0 / timings[candidate].mean_verify);
    total += proof_phase + commit_phase;
  }
  return total / samples;
}

TEST(L2sMonteCarloTest, QuadratureMatchesSimulation) {
  const std::vector<ShardTiming> timings{
      {0.12, 1.4}, {0.25, 3.3}, {0.08, 0.7}, {0.2, 2.0}};
  const std::vector<std::uint32_t> inputs{0, 1, 2};
  L2sEstimator estimator;
  for (std::uint32_t candidate : {1u, 3u}) {
    const double analytic = estimator.score(timings, inputs, candidate);
    const double empirical =
        monte_carlo_cross_latency(timings, inputs, candidate, 200000, 99);
    EXPECT_NEAR(analytic, empirical, 0.02 * analytic)
        << "candidate " << candidate;
  }
}

TEST(L2sMonteCarloTest, ExpectedMaxMatchesSimulation) {
  const std::vector<ShardTiming> set{{0.1, 0.9}, {0.3, 2.1}, {0.15, 1.2}};
  Rng rng(7);
  double total = 0.0;
  constexpr int kSamples = 200000;
  for (int s = 0; s < kSamples; ++s) {
    double worst = 0.0;
    for (const auto& timing : set) {
      worst = std::max(worst, rng.exponential(1.0 / timing.mean_comm) +
                                  rng.exponential(1.0 / timing.mean_verify));
    }
    total += worst;
  }
  const double empirical = total / kSamples;
  const double analytic = expected_max_two_phase(set);
  EXPECT_NEAR(analytic, empirical, 0.02 * analytic);
}

// Property sweep: E(j) for a cross placement always exceeds the same-shard
// expectation at the same shard.
class L2sPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(L2sPropertyTest, CrossAlwaysCostsMoreThanSameShard) {
  const int seed = GetParam();
  std::vector<ShardTiming> timings;
  for (int i = 0; i < 4; ++i) {
    timings.push_back({0.05 + 0.05 * ((seed + i) % 5),
                       0.5 + 0.7 * ((seed * 3 + i) % 7)});
  }
  L2sEstimator estimator;
  const std::vector<std::uint32_t> inputs{0, 1};
  for (std::uint32_t j = 0; j < timings.size(); ++j) {
    const double cross = estimator.score(timings, inputs, j);
    const double same = expected_two_phase(timings[j]);
    EXPECT_GT(cross, same);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, L2sPropertyTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace optchain::latency
