// Wall-clock phase profiling for the execution engines (src/obs).
//
// The ROADMAP's parallel-engine item is blocked on measurement: "profile
// the phase-B coordinator replay (it is the serial fraction — Amdahl
// ceiling)". PhaseProfiler answers that with scoped wall-clock timers on a
// fixed set of engine phases — the parallel engine's phase-A/phase-B split,
// the sequential engine's block commits, outpoint ledger and link fabric,
// the OptChain placer's T2S/L2S scoring split, the batch front-end's
// prepare/score/commit stages, and SweepRunner cell execution — surfaced as
// the `profile` section of api::RunReport and the bench JSON.
//
// Wall-clock data is STRICTLY segregated from simulated-time results
// (determinism rule 9, docs/ARCHITECTURE.md): nothing here ever feeds a
// SimResult, an .otrace record, a golden, or any other deterministic
// artifact. The profiler is globally off by default; a disabled ScopedPhase
// is one relaxed atomic load — cheap enough to leave in the engines' inner
// loops.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace optchain::obs {

/// The instrumented engine phases. Fixed slots (not a name registry) keep
/// the hot-path cost to an indexed atomic add.
enum class Phase : std::uint8_t {
  kSimPhaseA = 0,   ///< parallel engine: workers execute a window
  kSimPhaseB,       ///< parallel engine: coordinator merged replay (serial)
  kSimLedger,       ///< sequential engine: outpoint lock, release and spend
  kSimCommit,       ///< sequential engine: one committed block's items
  kSimFabric,       ///< LinkFabric::message_delay (either engine)
  kPlaceT2s,        ///< OptChain placer: T2S scoring of one transaction
  kPlaceL2s,        ///< OptChain placer: L2S scoring of one transaction
  kBatchPrepare,    ///< batch front-end: drain + TaN registration
  kBatchScore,      ///< batch front-end: parallel gather/score
  kBatchCommit,     ///< batch front-end: sequential argmax + commit
  kSweepCell,       ///< sweep runner: one cell end-to-end
  kCount            ///< slot count, not a phase
};

/// Stable lowercase name of a phase (e.g. "sim.parallel.phase_a").
const char* phase_name(Phase phase) noexcept;

/// One finished profile row: accumulated wall-clock seconds and the number
/// of scoped sections that contributed.
struct PhaseEntry {
  std::string phase;        ///< phase_name() of the slot
  double seconds = 0.0;     ///< accumulated wall-clock seconds
  std::uint64_t calls = 0;  ///< scoped sections accumulated
};

/// Process-global accumulator of wall-clock phase timings. Disabled by
/// default; api::simulate()/place() enable it for the duration of a run
/// when RunSpec::profile is set (the CLI's --profile). Accumulation is
/// thread-safe (per-slot atomics) — workers and the coordinator time their
/// phases concurrently under the sweep pool and the parallel engine.
class PhaseProfiler {
 public:
  /// The process-wide profiler instance.
  static PhaseProfiler& instance();

  /// Turns collection on/off. Scopes opened while disabled record nothing.
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  /// Whether scopes currently record.
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Zeroes every slot (typically paired with set_enabled(true)).
  void reset() noexcept;

  /// Adds `nanos` wall-clock nanoseconds to a phase slot. Thread-safe.
  void add(Phase phase, std::uint64_t nanos) noexcept;

  /// Counts one call of a phase slot without timing it; returns the count
  /// before this call. Thread-safe.
  std::uint64_t count_call(Phase phase) noexcept {
    return slots_[static_cast<std::size_t>(phase)].calls.fetch_add(
        1, std::memory_order_relaxed);
  }
  /// Adds `nanos` to a phase slot without counting a call. Thread-safe.
  void add_nanos(Phase phase, std::uint64_t nanos) noexcept {
    slots_[static_cast<std::size_t>(phase)].nanos.fetch_add(
        nanos, std::memory_order_relaxed);
  }

  /// Non-empty slots in enum order, converted to seconds.
  std::vector<PhaseEntry> snapshot() const;

 private:
  struct Slot {
    std::atomic<std::uint64_t> nanos{0};
    std::atomic<std::uint64_t> calls{0};
  };

  std::atomic<bool> enabled_{false};
  std::array<Slot, static_cast<std::size_t>(Phase::kCount)> slots_;
};

/// Wall-clock nanoseconds since `start`.
inline std::uint64_t nanos_since(
    std::chrono::steady_clock::time_point start) noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// RAII wall-clock timer for one phase. When the global profiler is
/// disabled, construction is a single relaxed load and nothing is timed.
class ScopedPhase {
 public:
  /// Starts timing `phase` if the global profiler is enabled.
  explicit ScopedPhase(Phase phase) noexcept
      : phase_(phase), active_(PhaseProfiler::instance().enabled()) {
    if (active_) start_ = std::chrono::steady_clock::now();
  }

  /// Stops the timer and accumulates the elapsed wall-clock into the slot.
  ~ScopedPhase() {
    if (active_) PhaseProfiler::instance().add(phase_, nanos_since(start_));
  }

  /// Not copyable (a scope times exactly one section).
  ScopedPhase(const ScopedPhase&) = delete;
  /// Not copy-assignable.
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Phase phase_;
  bool active_;
  std::chrono::steady_clock::time_point start_{};
};

/// ScopedPhase for sections too short and too frequent to time each call
/// within the telemetry budget (the engine's per-message fabric and ledger
/// calls): every call is counted, one in kStride is timed, and its time is
/// scaled by kStride, so the slot's seconds are an estimate. Disabled, it
/// costs the same single relaxed load.
class SampledPhase {
 public:
  static constexpr std::uint64_t kStride = 16;

  /// Counts the call and times it if it is one of the sampled ones.
  explicit SampledPhase(Phase phase) noexcept : phase_(phase) {
    PhaseProfiler& profiler = PhaseProfiler::instance();
    active_ = profiler.enabled() && profiler.count_call(phase) % kStride == 0;
    if (active_) start_ = std::chrono::steady_clock::now();
  }

  /// Adds the sampled call's time, scaled by kStride.
  ~SampledPhase() {
    if (active_) {
      PhaseProfiler::instance().add_nanos(phase_,
                                          nanos_since(start_) * kStride);
    }
  }

  /// Not copyable (a scope times exactly one section).
  SampledPhase(const SampledPhase&) = delete;
  /// Not copy-assignable.
  SampledPhase& operator=(const SampledPhase&) = delete;

 private:
  Phase phase_;
  bool active_ = false;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace optchain::obs
