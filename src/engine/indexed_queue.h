#pragma once
// Index-based d-ary min-heap over pooled payloads, with cached keys.
//
// The heap array holds (key, handle) entries: the ordering key is extracted
// from the pooled payload once at push and cached next to the 4-byte
// handle.  Sifting therefore moves small contiguous entries and compares
// locally — no pointer chase into the pool per comparison, and no copying
// of full payloads per level, which is what makes push/pop cheaper than a
// std::priority_queue of whole event records.  Requires that the key fields
// of a payload never change while its handle is queued.
//
// A 4-ary layout trades slightly more comparisons per level for half the
// tree depth and a cache-friendlier sift-down than the classic binary heap.
//
// Deferred root hole.  An event engine mostly pops an event and then, from
// that event's handler, pushes one or more new ones.  pop() therefore does
// not refill the root: it leaves the slot empty (hole_) and the next push()
// drops its entry into the hole and sifts it down from the root — one
// sift instead of a last-leaf sift-down for the pop plus a sift-up for the
// push.  Every other mutation (a pop while the hole is pending) first fills
// the hole with the last leaf, exactly as an eager pop would have.  Reads
// never fill: with a hole pending the minimum is the least of the root's
// children.  Keys are unique (the engine's (time, tier, seq) is a total
// order), so where an entry sits never changes which one pops next.

#include <cstddef>
#include <type_traits>
#include <vector>

#include "engine/event_pool.h"

namespace wlsync::engine {

template <typename Pool, typename KeyOf, std::size_t Arity = 4>
class IndexedQueue {
  static_assert(Arity >= 2, "a heap needs at least two children per node");

 public:
  using Handle = typename Pool::Handle;
  using Key =
      std::invoke_result_t<KeyOf, const typename Pool::value_type&>;

  explicit IndexedQueue(const Pool& pool, KeyOf key_of = KeyOf{})
      : pool_(&pool), key_of_(key_of) {}

  void push(Handle handle) {
    const Entry entry{key_of_((*pool_)[handle]), handle};
    if (hole_) {
      hole_ = false;
      sift_down_from_root(entry);
      return;
    }
    heap_.push_back(entry);
    sift_up(heap_.size() - 1);
  }

  /// The minimal handle; undefined when empty.
  [[nodiscard]] Handle top() const noexcept {
    return heap_[min_pos()].handle;
  }
  /// The minimal entry's cached key; undefined when empty.
  [[nodiscard]] const Key& head_key() const noexcept {
    return heap_[min_pos()].key;
  }

  /// Removes and returns the minimal handle, leaving its slot as the hole
  /// the next push fills.  Undefined when empty.
  Handle pop() {
    fill_hole();
    hole_ = true;
    return heap_.front().handle;
  }

  /// Pops the minimum only if pred(head key) holds; kInvalidHandle
  /// otherwise.  Lets callers gate on the cached key without touching the
  /// pool.
  template <typename Pred>
  Handle pop_if(Pred&& pred) {
    if (empty() || !pred(head_key())) return Pool::kInvalidHandle;
    return pop();
  }

  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] std::size_t size() const noexcept {
    return heap_.size() - (hole_ ? 1 : 0);
  }
  void reserve(std::size_t n) { heap_.reserve(n); }

 private:
  struct Entry {
    Key key;
    Handle handle;
  };

  /// Where the minimum lives: the root, or with a hole pending the least of
  /// the root's children.
  [[nodiscard]] std::size_t min_pos() const noexcept {
    if (!hole_) return 0;
    const std::size_t last_child = heap_.size() < Arity + 1 ? heap_.size()
                                                            : Arity + 1;
    std::size_t best = 1;
    for (std::size_t child = 2; child < last_child; ++child) {
      if (heap_[child].key < heap_[best].key) best = child;
    }
    return best;
  }

  /// Moves the last leaf into a pending hole (the eager pop's refill).
  void fill_hole() {
    if (!hole_) return;
    hole_ = false;
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down_leaf(0);
  }

  void sift_up(std::size_t pos) {
    const Entry moving = heap_[pos];
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / Arity;
      if (!(moving.key < heap_[parent].key)) break;
      heap_[pos] = heap_[parent];
      pos = parent;
    }
    heap_[pos] = moving;
  }

  /// Standard sift-down of a freshly pushed entry into the root hole: stop
  /// at the first level whose children all follow it.
  void sift_down_from_root(const Entry& moving) {
    std::size_t pos = 0;
    const std::size_t count = heap_.size();
    for (;;) {
      const std::size_t first_child = pos * Arity + 1;
      if (first_child >= count) break;
      const std::size_t last_child =
          first_child + Arity <= count ? first_child + Arity : count;
      std::size_t best = first_child;
      for (std::size_t child = first_child + 1; child < last_child; ++child) {
        if (heap_[child].key < heap_[best].key) best = child;
      }
      if (!(heap_[best].key < moving.key)) break;
      heap_[pos] = heap_[best];
      pos = best;
    }
    heap_[pos] = moving;
  }

  void sift_down_leaf(std::size_t pos) {
    // Floyd's bottom-up variant: descend along min-children to the bottom
    // without comparing against `moving`, then bubble `moving` back up.
    // The entry sifted here is always a former last *leaf* (a late event),
    // which belongs near the bottom anyway — the descent's comparisons per
    // level drop from Arity to Arity - 1 and the bubble-up is ~O(1).
    const Entry moving = heap_[pos];
    const std::size_t top = pos;
    const std::size_t count = heap_.size();
    for (;;) {
      const std::size_t first_child = pos * Arity + 1;
      if (first_child >= count) break;
      const std::size_t last_child =
          first_child + Arity <= count ? first_child + Arity : count;
      std::size_t best = first_child;
      for (std::size_t child = first_child + 1; child < last_child; ++child) {
        if (heap_[child].key < heap_[best].key) best = child;
      }
      heap_[pos] = heap_[best];
      pos = best;
    }
    while (pos > top) {
      const std::size_t parent = (pos - 1) / Arity;
      if (!(moving.key < heap_[parent].key)) break;
      heap_[pos] = heap_[parent];
      pos = parent;
    }
    heap_[pos] = moving;
  }

  const Pool* pool_;
  std::vector<Entry> heap_;
  KeyOf key_of_;
  /// heap_[0] is a popped slot awaiting the next push (see the header).
  bool hole_ = false;
};

}  // namespace wlsync::engine
