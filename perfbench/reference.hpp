// A fixed reference kernel that measures how fast the host runs right now.
//
// Other tenants of a shared host slow its CPUs by a third or more, in phases
// of seconds to minutes, and a repetition's wall time moves with them. The
// harness times this kernel right before and right after every timed
// repetition; dividing the repetition's time by the kernel's time cancels
// the host's current speed. The kernel is built from this directory only and
// does the same work on every call, so no change to the library moves it.
//
// Its mix follows what the workloads spend their time on: node-based
// hash-map inserts and lookups (allocator and pointer chasing), a binary
// heap, as in an event queue, and a sort. Its working set stays within the
// per-core caches: a kernel that streamed a table larger than the shared
// cache tracked other tenants' cache use, which moves the workloads far
// less, and its time then spread more from run to run than theirs.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "layers.hpp"

namespace perfbench {

/// Where the kernel's results go, so that none of its work is optimised away.
inline std::atomic<std::uint64_t> reference_sink{0};

class ReferenceKernel {
 public:
  /// A kernel for a workload that keeps `threads` threads busy. Its work
  /// grows with `threads` and is shared out round by round, as a sweep
  /// shares out its cells, so one slow core delays it no more than it
  /// delays the workload.
  explicit ReferenceKernel(unsigned threads)
      : threads_(std::max(threads, 1u)) {}

  /// Runs the kernel once and returns its wall time in seconds.
  double seconds() const {
    const int rounds = kRoundsPerThread * static_cast<int>(threads_);
    std::atomic<int> next_round{0};
    const auto work = [&] {
      std::uint64_t acc = 0;
      for (int r = next_round++; r < rounds; r = next_round++) acc += round(r);
      reference_sink += acc;
    };
    const Clock::time_point begin = Clock::now();
    std::vector<std::thread> helpers;
    for (unsigned i = 1; i < threads_; ++i) helpers.emplace_back(work);
    work();
    for (std::thread& helper : helpers) helper.join();
    return seconds_between(begin, Clock::now());
  }

 private:
  static constexpr int kRoundsPerThread = 8;
  static constexpr int kMapKeys = 1 << 14;
  static constexpr int kHeapItems = 1 << 15;
  static constexpr int kSortItems = 1 << 16;

  static std::uint64_t next(std::uint64_t& state) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }

  static std::uint64_t round(int index) {
    const std::uint64_t seed = 0x9e3779b97f4a7c15ULL + index % kRoundsPerThread;
    std::uint64_t state = seed;
    std::uint64_t acc = 0;

    std::unordered_map<std::uint64_t, std::uint64_t> map;
    for (int i = 0; i < kMapKeys; ++i) map[next(state)] = i;
    state = seed;
    for (int i = 0; i < kMapKeys; ++i) acc += map.count(next(state) + (i & 1));

    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        heap;
    for (int i = 0; i < kHeapItems; ++i) {
      heap.push(next(state) >> 20);
      if (i % 3 == 2) {
        acc += heap.top();
        heap.pop();
      }
    }

    std::vector<std::uint64_t> values(kSortItems);
    for (std::uint64_t& value : values) value = next(state);
    std::sort(values.begin(), values.end());
    return acc + values[kSortItems / 2];
  }

  unsigned threads_;
};

}  // namespace perfbench
