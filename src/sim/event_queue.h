#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstddef>
#include <vector>

#include "sim/sim_time.h"
#include "support/prof.h"

namespace softres::sim {

/// Pending-event priority queue of the discrete-event engine: a four-ary
/// implicit min-heap of (time, key) entries ordered by (time, key), with
/// the current minimum cached outside the array.
///
/// The key's low kIndexBits are an owner-assigned record index, and the
/// queue maintains a dense index -> heap-position map (`pos_`) keyed on
/// them. That map is what makes cancellation and rescheduling *eager*:
/// update() re-keys an entry in place with a single sift, erase() removes
/// one outright, and no stale entry ever reaches pop(). The map is a flat
/// uint32 array off to the side, so maintaining it costs one L1 store per
/// entry move and heap maintenance still never dereferences a record. (The
/// owner must keep at most one entry per index in the queue for pos_ to be
/// authoritative; the simulator's one-entry-per-record invariant and the
/// CPU's one-entry-per-slot run queue both satisfy this. An owner that
/// never calls update()/erase() may ignore the rule — stale positions are
/// then never read.)
///
/// Layout notes (measured on BM_TestbedTrial, see DESIGN.md §9):
///  * An entry is 16 bytes: the time plus one `key` word that packs the
///    schedule sequence number (high bits) over the record index (low
///    bits). Sifts touch only the flat entry array plus the pos_ array,
///    and an aligned group of four siblings is exactly one cache line —
///    the array for a few thousand pending events stays L1-resident,
///    which is what the 24-byte (time, seq, pointer) layout lost.
///  * Arity 4 halves the tree height of a binary heap, and ~3/4 of the
///    nodes are leaves, so a pushed entry usually settles after a single
///    parent comparison.
///  * Entries cross function boundaries by value. A 16-byte {double,
///    uint64} travels in two registers; a reference to a freshly built
///    entry instead makes the callee reload with one 16-byte load what the
///    caller wrote as two 8-byte stores, a store-forwarding stall that cost
///    ~15 ns per schedule in BM_EventScheduleExecute.
///  * The minimum is cached in `top_`, not at heap_[0]: the common
///    schedule-then-fire pattern replaces the cached top without touching
///    the array, and peeking at the next event time reads a member. Its
///    position in pos_ is the sentinel kTopPos.
///  * Pop refills the root bottom-up: the hole walks the min-child path to
///    a leaf (three comparisons per level, none against the displaced last
///    element), then the last element sifts up from there — rarely more
///    than a step, because a recently pushed entry is rarely early. Each
///    full group of four children is decided by a branch-free two-round
///    tournament over their 128-bit order keys (see heap_pop_min).
///
/// Ties on `time` break by `key`; because the sequence number occupies the
/// key's high bits and is unique per push, key order *is* schedule order,
/// which is what gives the simulator its FIFO same-instant guarantee.
///
/// Precondition: every time is non-negative and not NaN (asserted on push
/// and update). -0.0 is stored as +0.0. Under that precondition a time's
/// IEEE bit pattern, read as an unsigned integer, is monotone in its value,
/// so (time bits, key) compared as one unsigned 128-bit number is exactly
/// the (time, key) order — before() is defined that way.
class EventQueue {
 public:
  /// Low bits of Entry::key that address the owner's record slab; the
  /// owner packs (seq << kIndexBits) | index. 24 bits address 16.7M
  /// concurrently-live records (a trial peaks in the thousands), leaving
  /// 40 seq bits — 10^12 schedules per queue.
  static constexpr unsigned kIndexBits = 24;
  static constexpr std::uint64_t kIndexMask = (1ull << kIndexBits) - 1;

  struct Entry {
    SimTime time = 0.0;
    std::uint64_t key = 0;  // (seq << kIndexBits) | record index
  };

  /// Strict (time, key) order of the queue: the order pop() follows.
  /// Defined for entries as the queue stores them (times non-negative,
  /// +0.0 for zero), such as top().
  static bool before(const Entry& a, const Entry& b) {
    return order_key(a) < order_key(b);
  }

  bool empty() const { return !has_top_; }
  std::size_t size() const { return heap_.size() + (has_top_ ? 1u : 0u); }

  const Entry& top() const {
    assert(has_top_);
    return top_;
  }

  void push(Entry e) {
    SOFTRES_PROF_SCOPE(kEventQueuePush);
    canonicalize(e);
    const std::uint32_t idx = static_cast<std::uint32_t>(e.key & kIndexMask);
    if (idx >= pos_.size()) pos_.resize(idx + 1, 0);
    if (!has_top_) {
      top_ = e;
      has_top_ = true;
      pos_[idx] = kTopPos;
      return;
    }
    if (before(e, top_)) {
      heap_push(top_);
      top_ = e;
      pos_[idx] = kTopPos;
    } else {
      heap_push(e);
    }
  }

  Entry pop() {
    SOFTRES_PROF_SCOPE(kEventQueuePop);
    assert(has_top_);
    const Entry out = top_;
    if (heap_.empty()) {
      has_top_ = false;
    } else {
      top_ = heap_pop_min();
      pos_[top_.key & kIndexMask] = kTopPos;
    }
    return out;
  }

  /// Re-key the entry whose index is `idx` to `e` (same index, new time and
  /// seq) with a single in-place sift. Precondition: exactly one entry with
  /// that index is in the queue (the owner's pending flag guards this).
  void update(std::uint32_t idx, Entry e) {
    SOFTRES_PROF_SCOPE(kEventQueueCancel);
    canonicalize(e);
    assert((e.key & kIndexMask) == idx && idx < pos_.size());
    const std::uint32_t p = pos_[idx];
    if (p == kTopPos) {
      assert(has_top_ && (top_.key & kIndexMask) == idx);
      // The cached min is the one moving; it may no longer be the min.
      if (heap_.empty() || before(e, heap_.front())) {
        top_ = e;  // pos_ already kTopPos
        return;
      }
      top_ = heap_pop_min();
      pos_[top_.key & kIndexMask] = kTopPos;
      heap_push(e);
      return;
    }
    assert(p < heap_.size() && (heap_[p].key & kIndexMask) == idx);
    if (before(e, top_)) {
      // e becomes the new cached min; the old min re-enters at the hole.
      const Entry old_top = top_;
      top_ = e;
      pos_[idx] = kTopPos;
      sift_from(p, old_top);
      return;
    }
    sift_from(p, e);
  }

  /// Remove the entry whose index is `idx`. Same precondition as update().
  void erase(std::uint32_t idx) {
    SOFTRES_PROF_SCOPE(kEventQueueCancel);
    assert(idx < pos_.size());
    const std::uint32_t p = pos_[idx];
    if (p == kTopPos) {
      assert(has_top_ && (top_.key & kIndexMask) == idx);
      if (heap_.empty()) {
        has_top_ = false;
        return;
      }
      top_ = heap_pop_min();
      pos_[top_.key & kIndexMask] = kTopPos;
      return;
    }
    assert(p < heap_.size() && (heap_[p].key & kIndexMask) == idx);
    const Entry last = heap_.back();
    heap_.pop_back();
    if (p < heap_.size()) sift_from(p, last);  // else: erased the tail entry
  }

  void clear() {
    heap_.clear();
    has_top_ = false;
  }

 private:
  static constexpr std::size_t kArity = 4;
  static constexpr std::uint32_t kTopPos = 0xFFFFFFFFu;

  using OrderKey = unsigned __int128;

  // (time bits, key) as one unsigned 128-bit value; see the class comment
  // for why its order is the (time, key) order.
  static OrderKey order_key(const Entry& e) {
    return static_cast<OrderKey>(std::bit_cast<std::uint64_t>(e.time)) << 64 |
           e.key;
  }
  static Entry entry_of(OrderKey k) {
    return {std::bit_cast<SimTime>(static_cast<std::uint64_t>(k >> 64)),
            static_cast<std::uint64_t>(k)};
  }

  // The stored form of an entry: -0.0 becomes +0.0 (x + 0.0 is +0.0 for
  // x = -0.0 and x for every other value), whose bits order like a zero.
  static void canonicalize(Entry& e) {
    assert(e.time >= 0.0 && "EventQueue times must be non-negative, not NaN");
    e.time += 0.0;
  }

  void place(const Entry& e, std::size_t i) {
    heap_[i] = e;
    pos_[e.key & kIndexMask] = static_cast<std::uint32_t>(i);
  }

  void heap_push(Entry e) {
    std::size_t i = heap_.size();
    heap_.push_back(e);
    // Hole insertion: shift ancestors down until e's slot is found.
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(e, heap_[parent])) break;
      place(heap_[parent], i);
      i = parent;
    }
    place(e, i);
  }

  // Fill the hole at position p with entry e, sifting it up or down to
  // wherever heap order puts it. e may come from anywhere (a re-keyed
  // entry, the displaced old top, the detached tail), so both directions
  // are possible; at most one of them moves.
  void sift_from(std::size_t p, Entry e) {
    std::size_t i = p;
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(e, heap_[parent])) break;
      place(heap_[parent], i);
      i = parent;
    }
    if (i == p) {
      const std::size_t n = heap_.size();
      for (;;) {
        const std::size_t first_child = i * kArity + 1;
        if (first_child >= n) break;
        std::size_t best = first_child;
        const std::size_t end =
            first_child + kArity < n ? first_child + kArity : n;
        for (std::size_t c = first_child + 1; c < end; ++c) {
          if (before(heap_[c], heap_[best])) best = c;
        }
        if (!before(heap_[best], e)) break;
        place(heap_[best], i);
        i = best;
      }
    }
    place(e, i);
  }

  Entry heap_pop_min() {
    const Entry min = heap_.front();
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      // Bottom-up refill: walk the hole down the min-child path to a leaf
      // (no comparisons against `last`), then sift `last` up from there.
      std::size_t i = 0;
      const std::size_t n = heap_.size();
      // Full groups of four: a two-round tournament over the children's
      // order keys. It carries the keys themselves, so the winner is
      // rebuilt from registers instead of reloaded by index, and every
      // select is a conditional move rather than a mispredicted branch.
      // Strict compares keep the lowest index on a tie, as the scan does.
      for (std::size_t c = 1; c + kArity <= n; c = i * kArity + 1) {
        const Entry* g = heap_.data() + c;
        const OrderKey k0 = order_key(g[0]);
        const OrderKey k1 = order_key(g[1]);
        const OrderKey k2 = order_key(g[2]);
        const OrderKey k3 = order_key(g[3]);
        const bool right01 = k1 < k0;
        const bool right23 = k3 < k2;
        const OrderKey m01 = right01 ? k1 : k0;
        const OrderKey m23 = right23 ? k3 : k2;
        const bool right = m23 < m01;
        place(entry_of(right ? m23 : m01), i);
        i = c + (right ? 2 + static_cast<std::size_t>(right23)
                       : static_cast<std::size_t>(right01));
      }
      // A partial last group (one to three children) is scanned.
      const std::size_t first_child = i * kArity + 1;
      if (first_child < n) {
        std::size_t best = first_child;
        for (std::size_t c = first_child + 1; c < n; ++c) {
          if (before(heap_[c], heap_[best])) best = c;
        }
        place(heap_[best], i);
        i = best;
      }
      while (i > 0) {
        const std::size_t parent = (i - 1) / kArity;
        if (!before(last, heap_[parent])) break;
        place(heap_[parent], i);
        i = parent;
      }
      place(last, i);
    }
    return min;
  }

  Entry top_;
  bool has_top_ = false;
  std::vector<Entry> heap_;
  // index -> heap position (kTopPos for the cached top). Authoritative only
  // while that index has an entry in the queue; garbage otherwise.
  std::vector<std::uint32_t> pos_;
};

}  // namespace softres::sim
