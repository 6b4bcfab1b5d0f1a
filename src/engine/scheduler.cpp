#include "engine/scheduler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace wlsync::engine {

namespace {

using sim::EventHandle;
using sim::EventKey;
using sim::EventKeyOf;
using sim::EventPool;
using sim::IndexedEventQueue;

// ----------------------------------------------------------- d-ary heap ---

class DAryHeapScheduler final : public SchedulerPolicy {
 public:
  explicit DAryHeapScheduler(const EventPool& pool) : queue_(pool) {}

  void push(EventHandle handle) override { queue_.push(handle); }
  EventHandle pop() override { return queue_.pop(); }
  EventHandle pop_if_not_after(double time) override {
    return queue_.pop_if(
        [time](const EventKey& key) { return key.time <= time; });
  }
  [[nodiscard]] EventHandle peek() const override { return queue_.top(); }
  [[nodiscard]] EventKey peek_key() const override {
    return queue_.head_key();
  }
  [[nodiscard]] std::size_t size() const noexcept override {
    return queue_.size();
  }

 private:
  IndexedEventQueue queue_;
};

// -------------------------------------------------------- calendar queue ---

// Brown's calendar queue over pooled handles.  The time axis is partitioned
// into integer cells of `width_` seconds (cell = floor(time / width_));
// bucket b holds every event whose cell is congruent to b modulo the
// (power-of-two) bucket count.  Each entry stores its cell, and *all*
// window logic — cursor resets on early pushes, the year-membership test
// during scans — compares those integers, never recomputed floating-point
// window bounds, so an event within an ulp of a window boundary cannot
// land on the wrong side of a guard.  The scan invariant is that no pending
// event's cell precedes cursor_cell_; dequeue scans cells forward from the
// cursor, and within the first populated cell picks the minimum by the full
// (time, tier, seq) key, so ties resolve identically to the d-ary heap.
class CalendarQueueScheduler final : public SchedulerPolicy {
 public:
  explicit CalendarQueueScheduler(const EventPool& pool) : pool_(&pool) {
    buckets_.resize(kMinBuckets);
  }

  void push(EventHandle handle) override {
    cache_valid_ = false;
    const EventKey key = EventKeyOf{}((*pool_)[handle]);
    const std::int64_t cell = cell_of(key.time);
    // Keep the scan invariant: never let an event slip behind the cursor.
    if (cell < cursor_cell_) cursor_cell_ = cell;
    buckets_[bucket_of(cell)].push_back(Entry{key, cell, handle});
    ++size_;
    if (size_ > buckets_.size() * 2) rebuild(buckets_.size() * 2);
  }

  EventHandle pop() override {
    if (!cache_valid_) locate_min();
    std::vector<Entry>& bucket = buckets_[cache_bucket_];
    const EventHandle handle = bucket[cache_pos_].handle;
    cursor_cell_ = bucket[cache_pos_].cell;
    bucket[cache_pos_] = bucket.back();
    bucket.pop_back();
    --size_;
    cache_valid_ = false;
    if (buckets_.size() > kMinBuckets && size_ * 4 < buckets_.size()) {
      rebuild(buckets_.size() / 2);
    }
    return handle;
  }

  EventHandle pop_if_not_after(double time) override {
    if (size_ == 0) return EventPool::kInvalidHandle;
    if (!cache_valid_) locate_min();
    if (buckets_[cache_bucket_][cache_pos_].key.time > time) {
      return EventPool::kInvalidHandle;
    }
    return pop();
  }

  [[nodiscard]] EventHandle peek() const override {
    if (!cache_valid_) locate_min();
    return buckets_[cache_bucket_][cache_pos_].handle;
  }

  [[nodiscard]] EventKey peek_key() const override {
    if (!cache_valid_) locate_min();
    return buckets_[cache_bucket_][cache_pos_].key;
  }

  [[nodiscard]] std::size_t size() const noexcept override { return size_; }

 private:
  struct Entry {
    EventKey key;
    std::int64_t cell;  ///< floor(key.time / width_) at insertion
    EventHandle handle;
  };

  static constexpr std::size_t kMinBuckets = 8;
  static constexpr double kMinWidth = 1e-9;
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  [[nodiscard]] std::int64_t cell_of(double time) const noexcept {
    return static_cast<std::int64_t>(std::floor(time / width_));
  }
  [[nodiscard]] std::size_t bucket_of(std::int64_t cell) const noexcept {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(cell) &
                                    (buckets_.size() - 1));
  }

  /// Finds the EventBefore-minimal entry; fills the cache.  size_ > 0.
  void locate_min() const {
    for (std::size_t lap = 0; lap < buckets_.size(); ++lap) {
      const std::int64_t cell = cursor_cell_ + static_cast<std::int64_t>(lap);
      const std::vector<Entry>& bucket = buckets_[bucket_of(cell)];
      std::size_t best = kNone;
      for (std::size_t pos = 0; pos < bucket.size(); ++pos) {
        if (bucket[pos].cell != cell) continue;  // a later year
        if (best == kNone || bucket[pos].key < bucket[best].key) {
          best = pos;
        }
      }
      if (best != kNone) {
        cache_bucket_ = bucket_of(cell);
        cache_pos_ = best;
        cache_valid_ = true;
        return;
      }
    }
    // A whole year is empty: direct search over everything.  (The pop that
    // follows parks the cursor at the found entry's cell.)
    const Entry* best = nullptr;
    for (std::size_t bb = 0; bb < buckets_.size(); ++bb) {
      const std::vector<Entry>& bucket = buckets_[bb];
      for (std::size_t pos = 0; pos < bucket.size(); ++pos) {
        if (best == nullptr || bucket[pos].key < best->key) {
          best = &bucket[pos];
          cache_bucket_ = bb;
          cache_pos_ = pos;
        }
      }
    }
    cache_valid_ = true;
  }

  /// Re-buckets everything into `count` buckets with a width matched to the
  /// current event-time span (~3x the mean inter-event gap).  Entry cells
  /// are recomputed because the cell grid changes with the width.
  void rebuild(std::size_t count) {
    std::vector<Entry> pending;
    pending.reserve(size_);
    for (std::vector<Entry>& bucket : buckets_) {
      pending.insert(pending.end(), bucket.begin(), bucket.end());
      bucket.clear();
    }
    buckets_.resize(count);

    double lo = 0.0;
    double hi = 0.0;
    if (!pending.empty()) {
      lo = hi = pending.front().key.time;
      for (const Entry& entry : pending) {
        lo = std::min(lo, entry.key.time);
        hi = std::max(hi, entry.key.time);
      }
    }
    const double span = hi - lo;
    width_ = std::max(
        3.0 * span /
            static_cast<double>(std::max<std::size_t>(pending.size(), 1)),
        kMinWidth);
    cursor_cell_ = cell_of(lo);
    for (Entry entry : pending) {
      entry.cell = cell_of(entry.key.time);
      buckets_[bucket_of(entry.cell)].push_back(entry);
    }
    cache_valid_ = false;
  }

  const EventPool* pool_;
  std::vector<std::vector<Entry>> buckets_;
  double width_ = 1.0;
  std::size_t size_ = 0;
  std::int64_t cursor_cell_ = 0;  ///< scan start; <= every pending cell
  // peek()/pop() share one located minimum so run_until's peek-then-step
  // pattern pays for a single scan per event.
  mutable bool cache_valid_ = false;
  mutable std::size_t cache_bucket_ = 0;
  mutable std::size_t cache_pos_ = 0;
};

}  // namespace

const char* scheduler_name(SchedulerKind kind) noexcept {
  switch (kind) {
    case SchedulerKind::kDaryHeap: return "d-ary-heap";
    case SchedulerKind::kCalendar: return "calendar";
  }
  return "?";
}

std::unique_ptr<SchedulerPolicy> make_scheduler(SchedulerKind kind,
                                                const sim::EventPool& pool) {
  switch (kind) {
    case SchedulerKind::kDaryHeap:
      return std::make_unique<DAryHeapScheduler>(pool);
    case SchedulerKind::kCalendar:
      return std::make_unique<CalendarQueueScheduler>(pool);
  }
  throw std::invalid_argument("make_scheduler: unknown SchedulerKind");
}

}  // namespace wlsync::engine
