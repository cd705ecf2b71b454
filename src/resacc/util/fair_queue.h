#ifndef RESACC_UTIL_FAIR_QUEUE_H_
#define RESACC_UTIL_FAIR_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <limits>
#include <mutex>
#include <utility>
#include <vector>

#include "resacc/util/check.h"
#include "resacc/util/fault_injection.h"

namespace resacc {

// Bounded multi-producer multi-consumer queue with weighted fair service
// across lanes — the serving layer's per-tenant QoS primitive. Producers
// push into a lane; consumers pop in start-time-fair-queueing order, so
// under saturation lane i receives service proportional to its weight and
// one tenant's burst cannot starve another (its backlog only consumes its
// own lane's capacity and its own weighted share of the workers).
//
// Scheduling (start-time fair queueing): every item is stamped at ENQUEUE
// with virtual tags
//   start  = max(virtual_time, lane.last_finish)
//   finish = start + 1 / lane.weight
// (lane.last_finish advances to `finish`), and every pop serves the lane
// whose head has the smallest finish tag, advancing virtual_time to the
// served item's start tag. Stamping at enqueue is what makes the schedule
// fair: a backlogged lane's tags are fixed the moment its items arrive,
// so a high-weight competitor can only run ahead until its own tags pass
// them — computing tags at pop time instead would re-anchor a waiting
// lane to the ever-advancing virtual time and starve it outright. Ties
// break toward the lowest lane index, so single-lane behavior is exactly
// FIFO. Items have unit cost — a query is a query; differential compute
// cost shows up as the worker being busy.
//
// An idle lane re-anchors at the current virtual time on its next push
// (last_finish has fallen behind), so it gets its fair share from now on
// rather than a catch-up burst for the service it never asked for.
//
// Capacity is per lane: `lane_capacity` items each, so backpressure is a
// per-tenant signal. With one lane (the default when no tenants are
// configured) the queue degenerates to BoundedQueue semantics: FIFO,
// capacity == lane_capacity.
//
// Close() follows BoundedQueue's shutdown handshake: further pushes are
// rejected, consumers drain everything already queued, then Pop returns
// false.
template <typename T>
class WeightedFairQueue {
 public:
  // `weights` may be empty (one lane, weight 1). Every weight must be
  // positive — a zero weight would starve its lane forever, which is a
  // configuration error, not a policy.
  WeightedFairQueue(std::size_t lane_capacity, std::vector<double> weights)
      : lane_capacity_(lane_capacity) {
    RESACC_CHECK(lane_capacity >= 1);
    if (weights.empty()) weights.push_back(1.0);
    lanes_.reserve(weights.size());
    for (double w : weights) {
      RESACC_CHECK(w > 0.0);
      lanes_.emplace_back();
      lanes_.back().weight = w;
    }
  }

  WeightedFairQueue(const WeightedFairQueue&) = delete;
  WeightedFairQueue& operator=(const WeightedFairQueue&) = delete;

  // Enqueues into `lane` without blocking. Returns false when that lane is
  // full or the queue is closed. Shares the bounded-queue fault site so
  // chaos runs inject rejections here exactly as they did pre-lanes.
  bool TryPush(T item, std::size_t lane = 0) {
    RESACC_CHECK(lane < lanes_.size());
    if (RESACC_FAULT("bounded_queue.try_push")) return false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      Lane& l = lanes_[lane];
      if (closed_ || l.items.size() >= lane_capacity_) {
        return false;
      }
      Tagged tagged;
      tagged.start = l.last_finish > virtual_time_ ? l.last_finish
                                                   : virtual_time_;
      tagged.finish = tagged.start + 1.0 / l.weight;
      l.last_finish = tagged.finish;
      tagged.value = std::move(item);
      l.items.push_back(std::move(tagged));
      ++size_;
    }
    not_empty_.notify_one();
    return true;
  }

  // Blocks until an item is available (true) or the queue is closed and
  // fully drained (false). Service order across lanes is the weighted
  // schedule above.
  bool Pop(T& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [this] { return closed_ || size_ > 0; });
    if (size_ == 0) return false;  // closed and drained
    PopLocked(out);
    return true;
  }

  // Blocks up to `timeout` for an item: false on timeout or when the queue
  // is closed and drained. Gathering lingers on this.
  template <typename Rep, typename Period>
  bool PopFor(T& out, const std::chrono::duration<Rep, Period>& timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!not_empty_.wait_for(lock, timeout,
                             [this] { return closed_ || size_ > 0; })) {
      return false;
    }
    if (size_ == 0) return false;  // closed and drained
    PopLocked(out);
    return true;
  }

  // Moves a queued item into `lane` IF that earns it an earlier virtual
  // finish tag (and the lane has room) — the coalescing hook: when a
  // high-weight tenant's request piggybacks onto a job queued in a slower
  // lane, the job should be billed to (and scheduled as) the most urgent
  // tenant waiting on it, not the one that happened to submit it first.
  // Items are located by operator==; only instantiated when called, so
  // value types without equality can still use the rest of the queue.
  // Returns true when the item moved; false when it is not queued (in
  // flight or already popped), already scheduled at least as early, the
  // target lane is full, or the queue is closed.
  bool PromoteIfSooner(const T& item, std::size_t lane) {
    RESACC_CHECK(lane < lanes_.size());
    std::unique_lock<std::mutex> lock(mutex_);
    if (closed_) return false;
    Lane& target = lanes_[lane];
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      Lane& source = lanes_[i];
      for (auto it = source.items.begin(); it != source.items.end(); ++it) {
        if (!(it->value == item)) continue;
        if (i == lane || target.items.size() >= lane_capacity_) return false;
        Tagged tagged;
        tagged.start = target.last_finish > virtual_time_ ? target.last_finish
                                                          : virtual_time_;
        tagged.finish = tagged.start + 1.0 / target.weight;
        if (tagged.finish >= it->finish) return false;
        tagged.value = std::move(it->value);
        target.last_finish = tagged.finish;
        source.items.erase(it);
        target.items.push_back(std::move(tagged));
        return true;
      }
    }
    return false;
  }

  // Non-blocking Pop; false when nothing is queued right now.
  bool TryPop(T& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (size_ == 0) return false;
    PopLocked(out);
    return true;
  }

  // Rejects further pushes and wakes all waiters. Idempotent.
  void Close() {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
  }

  bool closed() const {
    std::unique_lock<std::mutex> lock(mutex_);
    return closed_;
  }

  // Total queued items across lanes.
  std::size_t size() const {
    std::unique_lock<std::mutex> lock(mutex_);
    return size_;
  }

  std::size_t lane_size(std::size_t lane) const {
    RESACC_CHECK(lane < lanes_.size());
    std::unique_lock<std::mutex> lock(mutex_);
    return lanes_[lane].items.size();
  }

  // Total capacity (lane_capacity per lane).
  std::size_t capacity() const { return lane_capacity_ * lanes_.size(); }
  std::size_t lane_capacity() const { return lane_capacity_; }
  std::size_t num_lanes() const { return lanes_.size(); }

 private:
  // An enqueued item with its virtual start/finish tags, stamped at push.
  struct Tagged {
    double start = 0.0;
    double finish = 0.0;
    T value{};
  };

  struct Lane {
    double weight = 1.0;
    // Virtual finish tag of the last item ENQUEUED into this lane (the
    // stamping cursor, not a service record).
    double last_finish = 0.0;
    std::deque<Tagged> items;
  };

  void PopLocked(T& out) {
    std::size_t best = lanes_.size();
    double best_finish = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      const Lane& lane = lanes_[i];
      if (lane.items.empty()) continue;
      if (lane.items.front().finish < best_finish) {
        best_finish = lane.items.front().finish;
        best = i;
      }
    }
    RESACC_CHECK(best < lanes_.size());
    Lane& lane = lanes_[best];
    Tagged& head = lane.items.front();
    if (head.start > virtual_time_) virtual_time_ = head.start;
    out = std::move(head.value);
    lane.items.pop_front();
    --size_;
  }

  const std::size_t lane_capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::vector<Lane> lanes_;
  std::size_t size_ = 0;
  double virtual_time_ = 0.0;
  bool closed_ = false;
};

}  // namespace resacc

#endif  // RESACC_UTIL_FAIR_QUEUE_H_
