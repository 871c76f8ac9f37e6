#include "common/parallel_for.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace dare {
namespace {

TEST(ParallelFor, CoversAllIndices) {
  std::vector<std::atomic<int>> hits(50);
  parallel_for(50, 3, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroItemsRunsNothing) {
  std::atomic<int> calls{0};
  parallel_for(0, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, ZeroThreadsMeansHardwareConcurrency) {
  std::vector<std::atomic<int>> hits(20);
  parallel_for(20, 0, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, StartsNoMoreThreadsThanItems) {
  // 8 threads requested for 3 items: at most 3 distinct threads may run
  // them. The sleep keeps each call busy long enough that a surplus
  // thread, had one been started, would claim an index.
  std::mutex mutex;
  std::set<std::thread::id> ids;
  parallel_for(3, 8, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const std::lock_guard<std::mutex> lock(mutex);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 3u);
  EXPECT_EQ(ids.count(std::this_thread::get_id()), 0u)
      << "calls run on the started threads, not the caller";
}

TEST(ParallelFor, AtMostThreadsCallsInFlight) {
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  parallel_for(40, 2, [&](std::size_t) {
    const int now = ++in_flight;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    --in_flight;
  });
  EXPECT_GE(peak.load(), 1);
  EXPECT_LE(peak.load(), 2);
}

TEST(ParallelFor, PropagatesException) {
  EXPECT_THROW(parallel_for(10, 2,
                            [](std::size_t i) {
                              if (i == 5) throw std::runtime_error("x");
                            }),
               std::runtime_error);
}

TEST(ParallelFor, LowestIndexExceptionWins) {
  // Multiple calls throw; the lowest-index exception must surface, making
  // failure reports deterministic regardless of execution interleaving.
  for (int attempt = 0; attempt < 10; ++attempt) {
    try {
      parallel_for(16, 4, [](std::size_t i) {
        if (i % 3 == 1) {  // indices 1, 4, 7, ...
          throw std::runtime_error("task " + std::to_string(i));
        }
      });
      FAIL() << "parallel_for should have thrown";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 1");
    }
  }
}

TEST(ParallelFor, FinishesAllCallsDespiteException) {
  // Even when a call throws, every other call must complete before
  // parallel_for returns — they reference caller state (here `started`).
  std::atomic<int> started{0};
  EXPECT_THROW(parallel_for(64, 4,
                            [&started](std::size_t i) {
                              ++started;
                              if (i == 0) {
                                throw std::runtime_error("early");
                              }
                              std::this_thread::sleep_for(
                                  std::chrono::microseconds(100));
                            }),
               std::runtime_error);
  EXPECT_EQ(started.load(), 64);
}

TEST(ParallelFor, StressManyTinyCalls) {
  // Many tiny calls on a few threads: exercises the shared index counter
  // under TSan.
  constexpr std::size_t kCalls = 10000;
  std::atomic<std::int64_t> sum{0};
  parallel_for(kCalls, 4, [&sum](std::size_t i) {
    sum += static_cast<std::int64_t>(i);
  });
  const auto n = static_cast<std::int64_t>(kCalls);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

}  // namespace
}  // namespace dare
