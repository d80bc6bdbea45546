// Bounded MPMC admission queue.
//
// Admission control is load shedding, not back-pressure: `try_push`
// NEVER blocks — a full queue refuses the item immediately so the caller
// can return the typed kOverloaded rejection while the client still
// cares about the answer.  Consumers block in `pop`, which hands back the
// oldest item.
//
// Shutdown contract: `close()` refuses further pushes but pops continue
// until the queue is drained — every admitted item is handed to exactly
// one consumer, then `pop` returns std::nullopt forever.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace p2auth::service {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  // Admits `item` unless the queue is full or closed.  Returns false
  // without consuming `item` in either case; never blocks.
  bool try_push(T&& item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
    return true;
  }

  // Blocks until an item is available (or the queue is closed and
  // drained), then hands back the oldest item.  std::nullopt only on
  // closed-and-drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    ready_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;  // closed and drained
    std::optional<T> item(std::move(items_.front()));
    items_.pop_front();
    return item;
  }

  // Refuses further pushes and wakes every blocked consumer.  Items
  // already admitted remain poppable until drained.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }
  std::size_t capacity() const noexcept { return capacity_; }
  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable ready_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace p2auth::service
