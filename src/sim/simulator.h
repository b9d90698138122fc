#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/inline_callback.h"
#include "sim/sim_time.h"

namespace softres::sim {

/// Handle to a scheduled event; allows O(1) cancellation. Default-constructed
/// handles are inert. The handle pins the *generation* the record had when
/// the event was scheduled: records are recycled through a freelist, and a
/// recycled record bumps its generation, so a handle kept across the recycle
/// boundary can never cancel the stranger now living in the same slot (the
/// classic ABA hazard of freelist-backed handles).
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return record_ != nullptr; }

 private:
  friend class Simulator;
  EventHandle(void* record, std::uint64_t gen) : record_(record), gen_(gen) {}
  void* record_ = nullptr;
  std::uint64_t gen_ = 0;
};

/// Discrete-event simulation engine: a clock plus a pending-event set.
///
/// All model components (CPUs, pools, servers, clients) are callback state
/// machines driven by this single engine; the engine itself is strictly
/// single-threaded and deterministic, which is what makes whole-testbed
/// experiments exactly reproducible. Events scheduled for the same instant
/// fire in FIFO order of scheduling.
///
/// Hot-path layout (DESIGN.md §9): callbacks are sim::InlineCallback, so
/// small captures ride inside the event record with no allocation; the
/// pending set is made of four-ary heaps of (time, seq, record) entries
/// whose keys live inline, so heap maintenance never dereferences a record;
/// records live in a deque-backed freelist, so a steady-state trial stops
/// asking the allocator for anything. Cancellation and rescheduling are
/// *eager*: each record owns exactly one queue entry while pending,
/// reschedule() re-keys it in place (one sift, via the queue's
/// index->position map) and cancel() erases it outright, so every popped
/// entry dispatches — there are no stale entries to drain. This matters
/// because the CPU model re-aims its completion timer on every arrival:
/// under the older lazy scheme those re-aims left a superseded entry behind
/// each time, and the stale drains grew to ~a third of all heap pops.
///
/// Two-tier pending set. A closed-loop trial keeps one think timer pending
/// per idle session (tens of thousands), while the events that actually
/// fire are short CPU, link and pool hops. So the pending set is two
/// EventQueue instances: a *near* heap and a *far* heap. schedule_at()
/// routes a record by its delay: longer than the running mean of every
/// delay scheduled so far goes far, the rest near. The tier is fixed for
/// the record's pending life (Record::far); cancel() and reschedule() act
/// on that tier and never migrate the entry. The loop pops whichever
/// cached top is earlier under the queues' own (time, key) order, and
/// seq is global across both tiers, so dispatch order is the same total
/// order a single heap gives: routing only decides which heap a short hop
/// must walk, never when anything fires. The running mean is taken from
/// the trial's own delays; it is not tunable. In softbench's think_heavy
/// (45k sessions, 70 s think) the near heap averages ~190 entries against
/// ~45k far ones; trials/s went from 3.78 to 4.54 against a single heap
/// (median of 5 alternating pairs) and BM_EventQueueBimodal/32000 from
/// ~137 to ~115 ns/event. DESIGN.md §9 has the full measurements.
class Simulator {
 public:
  using Callback = InlineCallback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `fn` to run `delay` seconds from now (delay < 0 clamps to 0).
  EventHandle schedule(SimTime delay, Callback fn) {
    return schedule_at(now_ + (delay > 0.0 ? delay : 0.0), std::move(fn));
  }

  /// Schedule `fn` at absolute time `t` (t < now clamps to now).
  EventHandle schedule_at(SimTime t, Callback fn);

  /// Cancel a pending event. Safe to call with stale or inert handles; returns
  /// true iff the event was pending and is now cancelled.
  bool cancel(EventHandle h);

  /// Move a pending event to fire `delay` seconds from now, keeping its
  /// callback and handle (the handle stays valid under the same generation).
  /// The event is re-keyed in place in the heap — no cancel + schedule round
  /// trip, no callback move. It fires in FIFO order as if freshly scheduled
  /// at its new instant. Safe with stale or inert handles; returns true iff
  /// the event was pending and has been moved.
  bool reschedule(EventHandle h, SimTime delay);

  /// Like reschedule, with an absolute target time (t < now clamps to now).
  bool reschedule_at(EventHandle h, SimTime t);

  /// Execute events until the queue is empty or `limit` events have run.
  void run(std::uint64_t limit = ~0ull);

  /// Execute events with time <= t, then set the clock to exactly t.
  void run_until(SimTime t);

  /// Pop and run the single earliest event; false if none pending.
  bool step();

  std::uint64_t events_executed() const { return executed_; }
  std::size_t events_pending() const { return near_.size() + far_.size(); }
  /// The far tier's share of events_pending() (see the class comment).
  std::size_t events_pending_far() const { return far_.size(); }

 private:
  struct Record {
    std::uint64_t gen = 1;      // bumped on every recycle; a handle pins one
    std::uint64_t live_seq = 0; // seq of the pending queue entry; 0 = none
    std::uint32_t idx = 0;      // slot in slots_, fixed for the record's life
    bool far = false;           // tier of the pending entry: far_ or near_
    Callback fn;
  };

  // Queue entries pack (seq << kIdxBits) | record-index into one 64-bit key
  // following EventQueue's layout contract (the queue's index->position map
  // reads the low bits). Seq in the high bits makes key order equal schedule
  // order, preserving the FIFO same-instant guarantee through a plain
  // integer compare.
  static constexpr unsigned kIdxBits = EventQueue::kIndexBits;
  static constexpr std::uint64_t kIdxMask = EventQueue::kIndexMask;

  Record* allocate();
  void release(Record* r);
  EventQueue& tier_of(const Record* r) { return r->far ? far_ : near_; }
  /// The tier whose top is the earliest pending entry; nullptr when idle.
  EventQueue* next_tier();
  void dispatch(const EventQueue& tier, const EventQueue::Entry& e);

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  // Running sum and count of schedule delays; their ratio is the routing
  // threshold between the tiers.
  SimTime delay_sum_ = 0.0;
  std::uint64_t delay_count_ = 0;
  EventQueue near_;
  EventQueue far_;
  std::vector<Record*> freelist_;
  std::vector<Record*> slots_;  // idx -> record, L1-hot on the pop path
  std::deque<Record> records_;  // stable storage; grows, never shrinks
};

// The schedule/dispatch round trip runs a few hundred thousand times per
// trial; keeping these bodies in the header lets the event loop (run_until,
// step) and every tier's schedule call inline them.

inline Simulator::Record* Simulator::allocate() {
  if (!freelist_.empty()) {
    Record* r = freelist_.back();
    freelist_.pop_back();
    return r;
  }
  assert(records_.size() < (std::size_t{1} << kIdxBits));
  records_.emplace_back();
  Record* r = &records_.back();
  r->idx = static_cast<std::uint32_t>(slots_.size());
  slots_.push_back(r);
  return r;
}

inline void Simulator::release(Record* r) {
  // The generation bump is what retires every outstanding handle to this
  // record: a handle carries the generation it was issued under, and
  // cancel()/reschedule() refuse any mismatch. A record is released exactly
  // when its one queue entry leaves the queue (dispatch or eager cancel),
  // so a live generation match always refers to this scheduling, never a
  // recycled stranger.
  ++r->gen;
  r->fn.reset();
  freelist_.push_back(r);
}

inline EventHandle Simulator::schedule_at(SimTime t, Callback fn) {
  assert(fn);
  Record* r = allocate();
  r->fn = std::move(fn);
  const std::uint64_t seq = next_seq_++;
  assert(seq < (std::uint64_t{1} << (64 - kIdxBits)));
  r->live_seq = seq;
  if (t < now_) t = now_;
  // Route by delay against the running mean of the delays before it
  // (delay > sum / count, kept division-free). The first event goes near.
  const SimTime delay = t - now_;
  r->far = delay * static_cast<double>(delay_count_) > delay_sum_;
  delay_sum_ += delay;
  ++delay_count_;
  tier_of(r).push({t, (seq << kIdxBits) | r->idx});
  return EventHandle(r, r->gen);
}

inline EventQueue* Simulator::next_tier() {
  if (far_.empty()) return near_.empty() ? nullptr : &near_;
  if (near_.empty()) return &far_;
  // EventQueue's own (time, key) order; keys carry the global seq, so a
  // same-instant tie across tiers still fires in schedule order.
  return EventQueue::before(near_.top(), far_.top()) ? &near_ : &far_;
}

inline void Simulator::dispatch([[maybe_unused]] const EventQueue& tier,
                                const EventQueue::Entry& e) {
  SOFTRES_PROF_SCOPE(kDispatch);
  Record* r = slots_[e.key & kIdxMask];
  // Eager cancel/reschedule means every popped entry is the live claim,
  // and a record's entry lives in the tier it was routed to.
  assert(r->live_seq == (e.key >> kIdxBits));
  assert(&tier_of(r) == &tier);
  r->live_seq = 0;
  now_ = e.time;
  ++executed_;
  // Invoke in place: the record is released only after the call returns, so
  // a re-entrant schedule can't recycle it mid-invocation, and skipping the
  // move-out saves a 40-byte callback relocation per event. The capture is
  // destroyed at the same point as before (after the body runs), just by
  // release() instead of a local's destructor. A re-entrant cancel or
  // reschedule of this same handle sees live_seq == 0 and refuses, exactly
  // as it refused a fired event before.
  r->fn();
  release(r);
}

}  // namespace softres::sim
