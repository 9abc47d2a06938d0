#include "latency/l2s_model.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/assert.hpp"
#include "latency/quadrature.hpp"

namespace optchain::latency {
namespace {

/// Rates from mean times; clamped away from zero for numerical safety.
struct Rates {
  double lc;
  double lv;
};

Rates rates_of(const ShardTiming& timing) noexcept {
  constexpr double kMinMean = 1e-9;
  return {1.0 / std::max(timing.mean_comm, kMinMean),
          1.0 / std::max(timing.mean_verify, kMinMean)};
}

/// The hypoexponential in a form that is exact for every rate gap. The sum
/// of two exponentials is symmetric in its rates, so with a ≤ b:
///     S(t) = e^{−at} · (1 + a · ramp(t)),   f(t) = a·b · e^{−at} · ramp(t),
/// where ramp(t) = (1 − e^{−(b−a)t}) / (b − a) is evaluated through expm1 and
/// tends to t as the gap closes (Erlang-2). Nothing cancels and nothing
/// overflows, whichever of λ_c, λ_v is the larger.
struct Hypoexponential {
  double a;
  double b;

  explicit Hypoexponential(const ShardTiming& timing) noexcept {
    const auto [lc, lv] = rates_of(timing);
    a = std::min(lc, lv);
    b = std::max(lc, lv);
  }

  double ramp(double t) const noexcept {
    const double gap = b - a;
    return gap > 0.0 ? -std::expm1(-gap * t) / gap : t;
  }
  double survival(double t) const noexcept {
    return std::exp(-a * t) * (1.0 + a * ramp(t));
  }
  double pdf(double t) const noexcept {
    return a * b * std::exp(-a * t) * ramp(t);
  }
};

/// 3^kExactMaxShards: the number of joint states at the largest exact size.
constexpr std::size_t kExactStates = [] {
  std::size_t states = 1;
  for (std::size_t i = 0; i < kExactMaxShards; ++i) states *= 3;
  return states;
}();

/// Exact E[max] by the phase-type recursion. Each shard's chain sits in
/// digit 0 (communicating), 1 (verifying) or 2 (done); the joint state is
/// the base-3 number of those digits. The expected time to all-done obeys
///     h(s) = (1 + Σ_i r_i(s) · h(s + 3^i)) / Σ_i r_i(s),   h(all done) = 0,
/// and every transition raises the index, so one reverse sweep solves it.
/// All terms are positive: no cancellation, and equal rates need no care.
template <typename TimingOf>
double expected_max_exact(std::size_t n, TimingOf timing_of) {
  // rate[i][digit]; a done shard contributes rate 0, which lets the sweep
  // read h past its own row (the padding below) instead of branching.
  std::array<std::array<double, 3>, kExactMaxShards> rate;
  std::array<std::size_t, kExactMaxShards> stride;
  std::array<unsigned char, kExactMaxShards> digit;
  std::size_t states = 1;
  for (std::size_t i = 0; i < n; ++i) {
    const auto [lc, lv] = rates_of(timing_of(i));
    rate[i] = {lc, lv, 0.0};
    stride[i] = states;
    digit[i] = 2;
    states *= 3;
  }
  // A done digit's successor index carries into the digits above it, at
  // most states/3 past the end; those reads are multiplied by 0.
  std::array<double, kExactStates + kExactStates / 3> h;
  std::fill(h.begin() + static_cast<std::ptrdiff_t>(states - 1),
            h.begin() + static_cast<std::ptrdiff_t>(states + states / 3),
            0.0);
  // h(s + 1) (shard 0's successor) is the value just computed: it stays in
  // `next` and is folded in last, and the division by the total rate runs
  // off that dependency chain, so consecutive states overlap.
  double next = 0.0;  // h(all done)
  for (std::size_t s = states - 1; s-- > 0;) {
    std::size_t i = 0;
    while (digit[i] == 0) digit[i++] = 2;
    --digit[i];
    double total = rate[0][digit[0]];
    double flow = 1.0;
    for (i = 1; i < n; ++i) {
      const double r = rate[i][digit[i]];
      total += r;
      flow += r * h[s + stride[i]];
    }
    next = h[s] = (flow + rate[0][digit[0]] * next) * (1.0 / total);
  }
  return next;
}

/// Above the exact cap: E[max] = ∫ (1 − Π F_i(t)) dt by Simpson. The
/// integrand decays like the slowest shard's tail, so the cutoff scales with
/// the largest mean.
template <typename TimingOf>
double expected_max_quadrature(std::size_t n, TimingOf timing_of) {
  double max_mean = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    max_mean = std::max(max_mean, expected_two_phase(timing_of(i)));
  }
  const auto survivor = [&](double t) {
    double prod = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      prod *= two_phase_cdf(timing_of(i), t);
    }
    return 1.0 - prod;
  };
  return integrate_decaying(survivor, max_mean, 30.0, 512);
}

/// E[max over n shards], the shards given by `timing_of(i)` for i < n.
template <typename TimingOf>
double expected_max(std::size_t n, TimingOf timing_of) {
  if (n == 0) return 0.0;
  if (n == 1) return expected_two_phase(timing_of(0));
  return n <= kExactMaxShards ? expected_max_exact(n, timing_of)
                              : expected_max_quadrature(n, timing_of);
}

bool all_in(std::span<const std::uint32_t> input_shards,
            std::uint32_t candidate) {
  return std::all_of(input_shards.begin(), input_shards.end(),
                     [candidate](std::uint32_t s) { return s == candidate; });
}

/// E[max proof time over the input shards]; 0 when there are none.
double proof_phase(std::span<const ShardTiming> timings,
                   std::span<const std::uint32_t> input_shards) {
  for (const std::uint32_t s : input_shards) {
    OPTCHAIN_EXPECTS(s < timings.size());
  }
  return expected_max(input_shards.size(),
                      [timings, input_shards](std::size_t i) {
                        return timings[input_shards[i]];
                      });
}

/// E(j) from the candidate's timing, whether u is same-shard at j, and the
/// proof-phase expectation (unused when same-shard).
double candidate_score(L2sMode mode, const ShardTiming& candidate,
                       bool same_shard, double proof) {
  // Same-shard placement (or coinbase): one submission, no proof phase.
  if (same_shard) return expected_two_phase(candidate);
  switch (mode) {
    case L2sMode::kPaperSelfConvolution:
      return 2.0 * proof;
    case L2sMode::kProofPlusCommit:
      break;
  }
  return proof + expected_two_phase(candidate);
}

}  // namespace

double two_phase_cdf(const ShardTiming& timing, double t) noexcept {
  if (t <= 0.0) return 0.0;
  return 1.0 - Hypoexponential(timing).survival(t);
}

double two_phase_pdf(const ShardTiming& timing, double t) noexcept {
  if (t < 0.0) return 0.0;
  return Hypoexponential(timing).pdf(t);
}

double expected_max_two_phase(std::span<const ShardTiming> timings) {
  return expected_max(timings.size(), [timings](std::size_t i) {
    return timings[i];
  });
}

double L2sEstimator::score(std::span<const ShardTiming> timings,
                           std::span<const std::uint32_t> input_shards,
                           std::uint32_t candidate) const {
  OPTCHAIN_EXPECTS(candidate < timings.size());
  const bool same_shard = all_in(input_shards, candidate);
  return candidate_score(
      config_.mode, timings[candidate], same_shard,
      same_shard ? 0.0 : proof_phase(timings, input_shards));
}

std::vector<double> L2sEstimator::score_all(
    std::span<const ShardTiming> timings,
    std::span<const std::uint32_t> input_shards) const {
  std::vector<double> scores;
  score_all(timings, input_shards, scores);
  return scores;
}

void L2sEstimator::score_all(std::span<const ShardTiming> timings,
                             std::span<const std::uint32_t> input_shards,
                             std::vector<double>& out) const {
  const std::size_t k = timings.size();
  out.assign(k, 0.0);
  // The proof-gathering set is the input-shard set, independent of the
  // candidate; compute its expectation once.
  const double proof = proof_phase(timings, input_shards);
  for (std::uint32_t j = 0; j < k; ++j) {
    out[j] = candidate_score(config_.mode, timings[j],
                             all_in(input_shards, j), proof);
  }
}

}  // namespace optchain::latency
