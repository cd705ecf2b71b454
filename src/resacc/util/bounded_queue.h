#ifndef RESACC_UTIL_BOUNDED_QUEUE_H_
#define RESACC_UTIL_BOUNDED_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

#include "resacc/util/check.h"
#include "resacc/util/fault_injection.h"

namespace resacc {

// Bounded multi-producer multi-consumer FIFO. The serving layer uses it as
// the submission queue between request producers and solver workers:
// producers use the non-blocking TryPush so a full queue surfaces as an
// explicit backpressure signal instead of unbounded buffering; consumers
// block in Pop until work arrives or the queue is closed.
//
// Close() is the shutdown handshake: it rejects further pushes but lets
// consumers drain everything already queued (no silent drop), then Pop
// returns false.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    RESACC_CHECK(capacity >= 1);
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // Enqueues without blocking. Returns false if the queue is full or closed.
  bool TryPush(T item) {
    if (RESACC_FAULT("bounded_queue.try_push")) return false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  // Blocks until space is available; returns false if the queue is (or
  // becomes) closed before the item is accepted.
  bool Push(T item) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_full_.wait(lock,
                     [this] { return closed_ || items_.size() < capacity_; });
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  // Blocks until an item is available (true) or the queue is closed and
  // fully drained (false).
  bool Pop(T& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;  // closed and drained
    out = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  // Blocks up to `timeout` for an item: false on timeout or when the
  // queue is closed and drained. The serving layer's gathering lingers
  // on this — a worker holding a partial gather waits out its linger
  // budget here instead of spinning on TryPop.
  template <typename Rep, typename Period>
  bool PopFor(T& out, const std::chrono::duration<Rep, Period>& timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!not_empty_.wait_for(lock, timeout,
                             [this] { return closed_ || !items_.empty(); })) {
      return false;
    }
    if (items_.empty()) return false;  // closed and drained
    out = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  // Non-blocking Pop; false when nothing is queued right now.
  bool TryPop(T& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  // Rejects further pushes and wakes all waiters. Idempotent.
  void Close() {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::unique_lock<std::mutex> lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    std::unique_lock<std::mutex> lock(mutex_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace resacc

#endif  // RESACC_UTIL_BOUNDED_QUEUE_H_
