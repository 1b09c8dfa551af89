// Channel: bounded blocking MPSC semantics — FIFO, backpressure, and the
// close() drain contract the stream sources rely on.
#include "rainshine/stream/channel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

namespace rainshine::stream {
namespace {

using std::chrono::milliseconds;

TEST(Channel, FifoWithinCapacity) {
  Channel<int> ch(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ch.push(i));
  EXPECT_EQ(ch.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    const auto got = ch.pop();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, i);
  }
  EXPECT_EQ(ch.size(), 0u);
}

TEST(Channel, ZeroCapacityIsRejected) {
  EXPECT_THROW(Channel<int>(0), std::exception);
}

TEST(Channel, PushBlocksOnFullUntilPopMakesRoom) {
  Channel<int> ch(1);
  ASSERT_TRUE(ch.push(1));

  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(ch.push(2));  // blocks until the consumer pops
    pushed.store(true);
  });
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_FALSE(pushed.load());  // still backpressured

  EXPECT_EQ(ch.pop().value(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(ch.pop().value(), 2);
}

TEST(Channel, CloseDrainsQueuedItemsThenReturnsNullopt) {
  Channel<int> ch(4);
  ASSERT_TRUE(ch.push(7));
  ASSERT_TRUE(ch.push(8));
  ch.close();
  EXPECT_FALSE(ch.push(9));      // producers fail fast after close
  EXPECT_EQ(ch.pop().value(), 7);  // but queued work still drains...
  EXPECT_EQ(ch.pop().value(), 8);
  EXPECT_EQ(ch.pop(), std::nullopt);  // ...then the stream ends
  EXPECT_EQ(ch.pop(), std::nullopt);  // and stays ended
}

TEST(Channel, CloseUnblocksAWaitingConsumer) {
  Channel<int> ch(1);
  std::thread consumer([&] { EXPECT_EQ(ch.pop(), std::nullopt); });
  std::this_thread::sleep_for(milliseconds(30));
  ch.close();
  consumer.join();
}

TEST(Channel, CloseUnblocksABlockedProducer) {
  Channel<int> ch(1);
  ASSERT_TRUE(ch.push(1));
  std::thread producer([&] { EXPECT_FALSE(ch.push(2)); });
  std::this_thread::sleep_for(milliseconds(30));
  ch.close();
  producer.join();
}

TEST(Channel, MultiProducerMultiConsumerTransfersEverythingOnce) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  Channel<int> ch(8);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ch, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(ch.push(p * kPerProducer + i));
      }
    });
  }

  std::atomic<long long> sum{0};
  std::atomic<int> count{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      while (const auto got = ch.pop()) {
        sum.fetch_add(*got);
        count.fetch_add(1);
      }
    });
  }

  for (auto& t : producers) t.join();
  ch.close();
  for (auto& t : consumers) t.join();

  constexpr int kTotal = kProducers * kPerProducer;
  EXPECT_EQ(count.load(), kTotal);
  EXPECT_EQ(sum.load(), static_cast<long long>(kTotal) * (kTotal - 1) / 2);
}

}  // namespace
}  // namespace rainshine::stream
