// Serving-layer observability: lock-free counters for every completion
// class, plus a small sliding latency window whose p99 the workers publish
// for the overload controller to read.
//
// The accounting identity the drain tests pin down:
//
//   submitted == completed_ok + timed_out + rejected_queue_full
//              + rejected_overload + rejected_shutdown + errors
//
// holds after shutdown() returns — every request completes exactly once
// (double_completions counts violations of "exactly once"; it must stay 0,
// and the stress/drain tests assert it).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "util/clock.hpp"

namespace problp::serve {

/// A point-in-time copy of the server's counters.
struct StatsSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t timed_out = 0;           ///< expired in queue, never evaluated
  std::uint64_t timed_out_after_flush = 0;  ///< subset of timed_out: expired between flush and eval
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t errors = 0;
  std::uint64_t degraded_admitted = 0;  ///< admitted onto the degraded tier
  std::uint64_t flushes_by_size = 0;
  std::uint64_t flushes_by_deadline = 0;  ///< linger and drain flushes
  std::uint64_t flushes_idle = 0;  ///< cut because a worker was idle (work-conserving)
  std::uint64_t deadline_sweeps = 0;  ///< batcher walks of the queue for expired requests
  std::uint64_t batches_evaluated = 0;
  std::uint64_t double_completions = 0;  ///< exactly-once violations; must be 0
  std::uint64_t producers_blocked = 0;   ///< currently blocked in submit()
  std::uint64_t queue_depth = 0;         ///< current
  std::uint64_t total_completed() const {
    return completed_ok + timed_out + rejected_queue_full + rejected_overload +
           rejected_shutdown + errors;
  }
};

/// The mutable counters (one relaxed atomic each — serving-path increments
/// never contend on a lock).
struct Counters {
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> completed_ok{0};
  std::atomic<std::uint64_t> timed_out{0};
  std::atomic<std::uint64_t> timed_out_after_flush{0};
  std::atomic<std::uint64_t> rejected_queue_full{0};
  std::atomic<std::uint64_t> rejected_overload{0};
  std::atomic<std::uint64_t> rejected_shutdown{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> degraded_admitted{0};
  std::atomic<std::uint64_t> flushes_by_size{0};
  std::atomic<std::uint64_t> flushes_by_deadline{0};
  std::atomic<std::uint64_t> flushes_idle{0};
  std::atomic<std::uint64_t> deadline_sweeps{0};
  std::atomic<std::uint64_t> batches_evaluated{0};
  std::atomic<std::uint64_t> double_completions{0};
  std::atomic<std::uint64_t> producers_blocked{0};
};

/// Sliding window of recent completion latencies; its p99 feeds the
/// overload controller's latency trigger.  Workers record a whole group at
/// once and republish the p99 there (one nth_element over at most 256
/// entries), so admission reads it with a single relaxed load: no lock, no
/// sort on the submit path.
class LatencyWindow {
 public:
  explicit LatencyWindow(std::size_t size = 256) : ring_(size) { scratch_.reserve(size); }

  void record_many(const std::vector<util::Clock::Duration>& ds) {
    if (ds.empty()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    for (util::Clock::Duration d : ds) {
      ring_[next_++ % ring_.size()] = d;
      if (count_ < ring_.size()) ++count_;
    }
    scratch_.assign(ring_.begin(), ring_.begin() + static_cast<long>(count_));
    const std::size_t idx =
        std::min(count_ - 1, static_cast<std::size_t>(0.99 * static_cast<double>(count_)));
    std::nth_element(scratch_.begin(), scratch_.begin() + static_cast<long>(idx), scratch_.end());
    p99_.store(scratch_[idx].count(), std::memory_order_relaxed);
  }

  /// The p99 published by the last record_many (0 before any).
  util::Clock::Duration p99() const {
    return util::Clock::Duration(p99_.load(std::memory_order_relaxed));
  }

 private:
  std::mutex mutex_;  ///< serialises writers (worker shards); readers never take it
  std::vector<util::Clock::Duration> ring_;
  std::vector<util::Clock::Duration> scratch_;  ///< nth_element's working copy
  std::size_t next_ = 0;
  std::size_t count_ = 0;
  std::atomic<util::Clock::Duration::rep> p99_{0};
};

}  // namespace problp::serve
