// Latency-to-Shard (L2S) model — paper §IV.C.
//
// The time for shard i to produce a proof-of-acceptance is modeled as the sum
// of two independent exponentials: communication l_c ~ Exp(λ_c⁽ⁱ⁾) and
// verification l_v ~ Exp(λ_v⁽ⁱ⁾) (a hypoexponential). The user requests
// proofs from all input shards simultaneously, so gathering them all takes
// the *maximum* of the per-shard times: F(t) = Π_i F⁽ⁱ⁾(t). The commit phase
// at the output shard adds one more hypoexponential.
//
// The L2S score E(j) of placing transaction u into shard j is the expected
// total confirmation time:
//     E(j) = E[ max_{i ∈ S_j} (l_c⁽ⁱ⁾ + l_v⁽ⁱ⁾) ] + E[ l_c⁽ʲ⁾ + l_v⁽ʲ⁾ ]
// with S_j the set of shards that must issue proofs (the input shards). A
// placement that makes u same-shard skips the proof phase entirely (§III.A:
// the user "only needs to submit the transaction to the shard and wait for
// confirmation").
//
// E[max] is computed exactly. The max of n independent two-phase chains is
// itself phase-type: each shard is communicating, verifying or done, so the
// joint chain has 3^n states s. The expected time h(s) to all-done obeys
//     h(s) = (1 + Σ_i r_i(s) · h(s + e_i)) / Σ_i r_i(s),   h(all done) = 0,
// with r_i(s) shard i's current rate (λ_c, λ_v, or 0 once done). Every
// transition moves one base-3 digit forward, so one reverse sweep over the
// state index solves it. Every term is positive, so nothing cancels, and
// equal rates (Erlang-2) need no special case. The sweep costs O(n·3^n): up
// to kExactMaxShards input shards it beats integration; above that, E[max]
// falls back to Simpson quadrature of ∫₀^∞ (1 − Π_i F⁽ⁱ⁾(t)) dt. The cap is
// measured by BM_ExpectedMaxTwoPhase in bench/bench_micro.cpp.
//
// The paper's Algorithm 1 writes the expectation as a self-convolution of
// the proof-gathering density; that reading (E = 2·E[max]) is available as
// L2sMode::kPaperSelfConvolution.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace optchain::latency {

/// Expected-time parameters of one shard, as observed by a client:
/// mean_comm = 1/λ_c (round-trip sampling), mean_verify = 1/λ_v (recent
/// consensus time scaled by queue backlog).
struct ShardTiming {
  double mean_comm = 0.1;
  double mean_verify = 1.0;
};

/// CDF of l_c + l_v (hypoexponential; Erlang-2 when the rates coincide).
double two_phase_cdf(const ShardTiming& timing, double t) noexcept;

/// Density of l_c + l_v.
double two_phase_pdf(const ShardTiming& timing, double t) noexcept;

/// E[l_c + l_v] — closed form.
inline double expected_two_phase(const ShardTiming& timing) noexcept {
  return timing.mean_comm + timing.mean_verify;
}

/// Largest proof set whose E[max] is solved exactly (3^n-state sweep);
/// larger sets use the quadrature fallback.
inline constexpr std::size_t kExactMaxShards = 8;

/// E[max over the given shards of (l_c + l_v)]: exact up to
/// kExactMaxShards shards, quadrature above. Empty input yields 0.
double expected_max_two_phase(std::span<const ShardTiming> timings);

enum class L2sMode : std::uint8_t {
  /// E(j) = E[max proof-gathering] + E[commit at j]  (protocol reading).
  kProofPlusCommit,
  /// E(j) = 2 · E[max proof-gathering]               (paper's literal Alg. 1 line 6).
  kPaperSelfConvolution,
};

struct L2sConfig {
  L2sMode mode = L2sMode::kProofPlusCommit;
};

/// Computes L2S scores for every candidate output shard of one transaction.
class L2sEstimator {
 public:
  explicit L2sEstimator(L2sConfig config = {}) : config_(config) {}

  /// `timings[i]` describes shard i; `input_shards` lists the distinct shards
  /// holding the transaction's inputs (empty for coinbase). Returns E(j) in
  /// seconds for the given candidate shard j.
  double score(std::span<const ShardTiming> timings,
               std::span<const std::uint32_t> input_shards,
               std::uint32_t candidate) const;

  /// Scores all k candidates at once (computes the proof-phase expectation
  /// once for every cross candidate).
  std::vector<double> score_all(
      std::span<const ShardTiming> timings,
      std::span<const std::uint32_t> input_shards) const;

  /// As above, into a caller-reused buffer (assign semantics) — the per-issue
  /// hot path of the simulator. Allocation-free once `out` has capacity k.
  void score_all(std::span<const ShardTiming> timings,
                 std::span<const std::uint32_t> input_shards,
                 std::vector<double>& out) const;

 private:
  L2sConfig config_;
};

}  // namespace optchain::latency
