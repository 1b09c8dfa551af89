// Bounded blocking channel: the serve admission-queue idiom (mutex, two
// condition variables, explicit capacity) extracted into a reusable
// primitive for producer/consumer pipelines.
//
// Semantics:
//   - push() blocks while the channel is full; returns false (dropping the
//     item) once the channel is closed.
//   - pop() blocks while the channel is empty; after close() it keeps
//     draining whatever was queued, then returns nullopt.
//   - close() is idempotent and wakes every blocked producer and consumer.
//
// Multiple producers and consumers are safe; the stream sources use it
// single-producer/single-consumer (one simulation thread feeding one
// pipeline loop), which also gives FIFO per producer — the property the
// deterministic day-ordering of chunks rests on.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "rainshine/util/check.hpp"

namespace rainshine::stream {

template <typename T>
class Channel {
 public:
  explicit Channel(std::size_t capacity) : capacity_(capacity) {
    util::require(capacity > 0, "Channel capacity must be positive");
  }

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Blocks until there is room (backpressure), then enqueues. Returns false
  /// — and discards `item` — if the channel is (or becomes) closed.
  bool push(T item) {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock, [&] { return items_.size() < capacity_ || closed_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the channel is closed AND drained.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;  // closed and drained
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Closes the channel: producers fail fast, consumers drain then stop.
  void close() {
    {
      std::unique_lock lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  /// Queued (not yet popped) items — a point-in-time depth gauge.
  [[nodiscard]] std::size_t size() const {
    std::unique_lock lock(mutex_);
    return items_.size();
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace rainshine::stream
