#include "rainshine/util/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "rainshine/cart/flat.hpp"
#include "rainshine/cart/forest.hpp"
#include "rainshine/util/rng.hpp"

namespace rainshine::util {
namespace {

/// Restores auto thread resolution when a test exits (success or failure).
struct ThreadGuard {
  ~ThreadGuard() { clear_thread_override(); }
};

TEST(Parallel, ThreadCountResolution) {
  const ThreadGuard guard;
  EXPECT_GE(hardware_threads(), 1U);

  set_num_threads(0);
  EXPECT_EQ(num_threads(), 1U);  // 0 pins serial
  set_num_threads(1);
  EXPECT_EQ(num_threads(), 1U);
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3U);

  clear_thread_override();
  EXPECT_EQ(num_threads(), default_num_threads());
}

TEST(Parallel, EnvVariableControlsDefault) {
  const ThreadGuard guard;
  clear_thread_override();
  ASSERT_EQ(setenv("RAINSHINE_THREADS", "2", 1), 0);
  EXPECT_EQ(default_num_threads(), 2U);
  EXPECT_EQ(num_threads(), 2U);

  ASSERT_EQ(setenv("RAINSHINE_THREADS", "0", 1), 0);
  EXPECT_EQ(num_threads(), 1U);  // 0 in the env also pins serial

  ASSERT_EQ(setenv("RAINSHINE_THREADS", "not-a-number", 1), 0);
  EXPECT_EQ(num_threads(), hardware_threads());  // malformed: ignored

  // Explicit API beats the environment.
  ASSERT_EQ(setenv("RAINSHINE_THREADS", "7", 1), 0);
  set_num_threads(2);
  EXPECT_EQ(num_threads(), 2U);

  ASSERT_EQ(unsetenv("RAINSHINE_THREADS"), 0);
}

TEST(Parallel, ForCoversEveryIndexExactlyOnce) {
  const ThreadGuard guard;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    set_num_threads(threads);
    for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{1000}}) {
      for (const std::size_t chunk : {std::size_t{0}, std::size_t{1}, std::size_t{13}}) {
        std::vector<std::atomic<int>> hits(n);
        parallel_for(n, chunk, [&](std::size_t begin, std::size_t end) {
          ASSERT_LE(begin, end);
          ASSERT_LE(end, n);
          for (std::size_t i = begin; i < end; ++i) ++hits[i];
        });
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(hits[i].load(), 1) << "i=" << i << " threads=" << threads;
        }
      }
    }
  }
}

TEST(Parallel, ForHandlesEmptyRange) {
  bool called = false;
  parallel_for(0, 4, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, MapPreservesIndexOrder) {
  const ThreadGuard guard;
  set_num_threads(4);
  const auto out = parallel_map(257, [](std::size_t i) { return 3 * i + 1; });
  ASSERT_EQ(out.size(), 257U);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 3 * i + 1);
}

TEST(Parallel, MapSupportsMoveOnlyResults) {
  const ThreadGuard guard;
  set_num_threads(2);
  // std::unique_ptr is move-only and not usable in a plain vector-of-T
  // without the optional-slot construction parallel_map uses.
  const auto out = parallel_map(
      64, [](std::size_t i) { return std::make_unique<std::size_t>(i); });
  ASSERT_EQ(out.size(), 64U);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(*out[i], i);
}

TEST(Parallel, ExceptionsPropagateToCaller) {
  const ThreadGuard guard;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_num_threads(threads);
    EXPECT_THROW(
        parallel_for(100, 1,
                     [&](std::size_t begin, std::size_t) {
                       if (begin == 41) throw std::runtime_error("chunk 41");
                     }),
        std::runtime_error);
    // The pool must stay usable after an exception.
    std::atomic<std::size_t> sum{0};
    parallel_for(10, 1, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) sum += i;
    });
    EXPECT_EQ(sum.load(), 45U);
  }
}

TEST(Parallel, NestedCallsRunSeriallyWithoutDeadlock) {
  const ThreadGuard guard;
  set_num_threads(4);
  std::vector<std::atomic<int>> hits(64);
  parallel_for(8, 1, [&](std::size_t ob, std::size_t oe) {
    for (std::size_t o = ob; o < oe; ++o) {
      parallel_for(8, 1, [&](std::size_t ib, std::size_t ie) {
        for (std::size_t i = ib; i < ie; ++i) ++hits[o * 8 + i];
      });
    }
  });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(Parallel, ChunkBoundariesIndependentOfThreadCount) {
  const ThreadGuard guard;
  // Record the (begin, end) pairs seen at 1 thread and at 4; identical
  // partitioning is what the determinism guarantee is built on.
  const auto boundaries = [](std::size_t threads) {
    set_num_threads(threads);
    std::mutex m;
    std::vector<std::pair<std::size_t, std::size_t>> seen;
    parallel_for(1000, 64, [&](std::size_t begin, std::size_t end) {
      const std::lock_guard<std::mutex> lock(m);
      seen.emplace_back(begin, end);
    });
    std::sort(seen.begin(), seen.end());
    return seen;
  };
  EXPECT_EQ(boundaries(1), boundaries(4));
}

TEST(Parallel, RegionsOnTwoThreadsDoNotWaitForEachOther) {
  // Thread A's region blocks inside every chunk until this thread's region
  // has returned, so A's caller and the one worker are both busy. This region
  // must still run, on this thread alone. A pool that ran one region at a
  // time would park it behind A forever; the chunks' timed wait is the
  // watchdog that ends the test instead.
  const ThreadGuard guard;
  set_num_threads(2);
  std::promise<void> a_entered;
  std::once_flag entered_once;
  std::promise<void> b_returned;
  const std::shared_future<void> b_done = b_returned.get_future().share();
  std::atomic<int> timed_out{0};
  std::thread a([&] {
    parallel_for(2, 1, [&](std::size_t, std::size_t) {
      std::call_once(entered_once, [&] { a_entered.set_value(); });
      const std::shared_future<void> done = b_done;
      if (done.wait_for(std::chrono::seconds(5)) != std::future_status::ready) {
        ++timed_out;
      }
    });
  });
  a_entered.get_future().wait();

  std::vector<int> hits(64);
  parallel_for(hits.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  b_returned.set_value();
  a.join();
  EXPECT_EQ(timed_out.load(), 0) << "this region waited for thread A's";
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(Parallel, ConcurrentRegionsMatchSerial) {
  // Four threads run regions at once, so workers move between jobs; each
  // result must still equal its 1-thread result bit for bit.
  const ThreadGuard guard;
  util::Rng rng(21);
  std::vector<double> x(4 * cart::FlatForest::kBlockRows);
  std::vector<double> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.uniform(0.0, 6.0);
    y[i] = std::sin(x[i]) + rng.uniform(-0.2, 0.2);
  }
  table::Table storage;
  storage.add_column("x", table::Column::continuous(std::move(x)));
  storage.add_column("y", table::Column::continuous(std::move(y)));
  const cart::Dataset rows(storage, "y", {"x"}, cart::Task::kRegression);
  cart::ForestConfig cfg;
  cfg.num_trees = 8;
  const cart::Forest forest = cart::grow_forest(rows, cfg);
  const auto mapped = [] {
    return parallel_map(500, [](std::size_t i) {
      return std::sqrt(static_cast<double>(i));
    });
  };

  set_num_threads(1);
  const std::vector<double> want_map = mapped();
  const std::vector<double> want_predict = forest.predict(rows);
  set_num_threads(4);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        if (mapped() != want_map) ++mismatches;
        if (forest.predict(rows) != want_predict) ++mismatches;
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace rainshine::util
