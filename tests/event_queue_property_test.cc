// Property tests for the four-ary event queue and the simulator's
// cancel/reschedule semantics on top of it: thousands of random
// push/update/erase/pop interleavings are cross-checked against a naive
// sorted-vector oracle. These pin the two contracts the whole engine
// rests on — pops come out in nondecreasing (time, key) order with FIFO
// same-instant tie-break, and the eager in-place re-key/erase paths
// (EventQueue::update / EventQueue::erase plus the index->position map
// behind them) are observationally identical to remove-and-reinsert.
// The simulator keeps its pending set in two queues (near and far tiers);
// the last test mixes both delay classes so every op crosses that split.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace softres::sim {
namespace {

struct OracleEntry {
  double time;
  std::uint64_t key;
  bool operator<(const OracleEntry& o) const {
    return time != o.time ? time < o.time : key < o.key;
  }
};

// Reference model: a flat vector kept unordered; min extraction scans.
class Oracle {
 public:
  void push(double time, std::uint64_t key) { entries_.push_back({time, key}); }
  void erase(std::uint32_t idx) {
    auto it = find(idx);
    ASSERT_NE(it, entries_.end());
    entries_.erase(it);
  }
  void update(std::uint32_t idx, double time, std::uint64_t key) {
    auto it = find(idx);
    ASSERT_NE(it, entries_.end());
    *it = {time, key};
  }
  OracleEntry pop_min() {
    auto it = std::min_element(entries_.begin(), entries_.end());
    OracleEntry e = *it;
    entries_.erase(it);
    return e;
  }
  std::size_t size() const { return entries_.size(); }

 private:
  std::vector<OracleEntry>::iterator find(std::uint32_t idx) {
    return std::find_if(entries_.begin(), entries_.end(), [idx](auto& e) {
      return (e.key & EventQueue::kIndexMask) == idx;
    });
  }
  std::vector<OracleEntry> entries_;
};

// Random push/update/erase/pop over `indices` record indices, every pop
// checked against the oracle, then a full drain. `prefill` pushes come
// first so that a large index space really builds a deep heap. With
// `signed_zeros`, pushes and updates landing on instant 0 alternate between
// 0.0 and -0.0: the two must tie and break by key, as before() orders them.
// Returns the largest queue size reached.
std::size_t random_ops_match_oracle(std::uint64_t seed, std::uint32_t indices,
                                    int prefill, int ops, bool signed_zeros) {
  EventQueue q;
  Oracle oracle;
  Rng rng(seed);

  std::vector<bool> in_queue(indices, false);
  std::vector<std::uint32_t> free_idx, used_idx;
  for (std::uint32_t i = 0; i < indices; ++i) free_idx.push_back(i);
  std::uint64_t seq = 1;
  std::size_t max_size = 0;
  bool negative_zero = false;

  double last_time = 0.0;
  std::uint64_t last_key = 0;
  // Coarse time grid at or after the last pop (a simulator never schedules
  // into the past): with ~16 distinct instants and dozens of pending
  // entries, most pushes collide on time and the tie-break carries the
  // ordering — the case a plain (time < time) heap would get wrong.
  const auto random_time = [&] {
    const double t = last_time + static_cast<double>(rng.uniform_int(0, 15));
    if (signed_zeros && t == 0.0) {
      negative_zero = !negative_zero;
      return negative_zero ? -0.0 : 0.0;
    }
    return t;
  };
  const auto push = [&] {
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(free_idx.size()) - 1));
    const std::uint32_t idx = free_idx[pick];
    free_idx[pick] = free_idx.back();
    free_idx.pop_back();
    used_idx.push_back(idx);
    in_queue[idx] = true;
    const double t = random_time();
    const std::uint64_t key = (seq++ << EventQueue::kIndexBits) | idx;
    q.push({t, key});
    oracle.push(t, key);
  };
  for (int i = 0; i < prefill && !free_idx.empty(); ++i) push();
  for (int op = 0; op < ops; ++op) {
    const auto what = rng.uniform_int(0, 9);
    if (what < 4 && !free_idx.empty()) {  // push
      push();
    } else if (what < 6 && !used_idx.empty()) {  // update (re-key in place)
      const std::uint32_t idx = used_idx[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(used_idx.size()) - 1))];
      const double t = random_time();
      const std::uint64_t key = (seq++ << EventQueue::kIndexBits) | idx;
      q.update(idx, {t, key});
      oracle.update(idx, t, key);
    } else if (what < 7 && !used_idx.empty()) {  // erase
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(used_idx.size()) - 1));
      const std::uint32_t idx = used_idx[pick];
      used_idx[pick] = used_idx.back();
      used_idx.pop_back();
      free_idx.push_back(idx);
      in_queue[idx] = false;
      q.erase(idx);
      oracle.erase(idx);
    } else if (!q.empty()) {  // pop
      const EventQueue::Entry got = q.pop();
      const OracleEntry want = oracle.pop_min();
      EXPECT_EQ(got.time, want.time) << "op " << op;
      EXPECT_EQ(got.key, want.key) << "op " << op;
      // Nondecreasing (time, key) across consecutive pops.
      EXPECT_TRUE(got.time > last_time ||
                  (got.time == last_time && got.key > last_key))
          << "op " << op;
      if (::testing::Test::HasFailure()) return max_size;
      last_time = got.time;
      last_key = got.key;
      const auto idx = static_cast<std::uint32_t>(got.key &
                                                  EventQueue::kIndexMask);
      EXPECT_TRUE(in_queue[idx]);
      in_queue[idx] = false;
      used_idx.erase(std::find(used_idx.begin(), used_idx.end(), idx));
      free_idx.push_back(idx);
    }
    EXPECT_EQ(q.size(), oracle.size());
    if (::testing::Test::HasFailure()) return max_size;
    max_size = std::max(max_size, q.size());
  }

  // Drain: the remaining entries must come out in exact oracle order.
  while (!q.empty()) {
    const EventQueue::Entry got = q.pop();
    const OracleEntry want = oracle.pop_min();
    EXPECT_EQ(got.time, want.time);
    EXPECT_EQ(got.key, want.key);
    if (::testing::Test::HasFailure()) return max_size;
  }
  EXPECT_EQ(oracle.size(), 0u);
  return max_size;
}

class EventQueuePropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EventQueuePropertyTest, RandomOpsMatchSortedOracle) {
  random_ops_match_oracle(GetParam(), /*indices=*/64, /*prefill=*/0,
                          /*ops=*/10000, /*signed_zeros=*/false);
}

// A deep heap: thousands of indices, prefilled so pops walk five or six
// levels of full four-child groups (the tournament) and end in partial last
// groups of one to three children (the scan) at every size the random walk
// visits. Times stay on the coarse grid, so ties still decide most pops,
// and instant 0 mixes 0.0 with -0.0 entries.
TEST_P(EventQueuePropertyTest, DeepHeapRandomOpsMatchSortedOracle) {
  const std::size_t max_size =
      random_ops_match_oracle(GetParam(), /*indices=*/2048, /*prefill=*/1536,
                              /*ops=*/20000, /*signed_zeros=*/true);
  EXPECT_GE(max_size, 1024u);
}

// Entries at 0.0 and -0.0 are one instant: they pop in key order whichever
// zero each was pushed or re-keyed with, and come out as +0.0.
TEST(EventQueueTest, SignedZeroTimesTieBreakByKey) {
  EventQueue q;
  const double zeros[] = {-0.0, 0.0};
  constexpr std::uint32_t kN = 64;
  // Keys pushed in descending seq order so every pop sifts.
  for (std::uint32_t i = 0; i < kN; ++i) {
    const std::uint64_t seq = 2 * kN - i;
    q.push({zeros[i % 2], (seq << EventQueue::kIndexBits) | i});
  }
  // Re-key a few with the other zero and a fresh, lower seq.
  for (std::uint32_t i = 0; i < kN; i += 7) {
    const std::uint64_t seq = kN - i;
    q.update(i, {zeros[(i + 1) % 2], (seq << EventQueue::kIndexBits) | i});
  }
  std::uint64_t last_key = 0;
  for (std::uint32_t n = 0; n < kN; ++n) {
    const EventQueue::Entry e = q.pop();
    EXPECT_EQ(e.time, 0.0);
    EXPECT_FALSE(std::signbit(e.time)) << "pop " << n;
    EXPECT_GT(e.key, last_key) << "pop " << n;
    last_key = e.key;
  }
  EXPECT_TRUE(q.empty());
  // The stored form compares the same way through before().
  const EventQueue::Entry a{0.0, 1}, b{0.0, 2};
  EXPECT_TRUE(EventQueue::before(a, b));
  EXPECT_FALSE(EventQueue::before(b, a));
  EXPECT_FALSE(EventQueue::before(a, a));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueuePropertyTest,
                         ::testing::Values(0x5eed1ull, 0x5eed2ull, 0x5eed3ull,
                                           0x5eed4ull));

// Simulator-level version of the same property: random
// schedule/cancel/reschedule interleavings must fire callbacks in exactly
// the order a naive model predicts — by (time, seq of the last
// (re)schedule), ties FIFO. This exercises the handle/generation layer and
// the record freelist on top of the raw queue ops.
TEST(SimulatorSchedulingPropertyTest, RandomCancelRescheduleMatchesModel) {
  Simulator sim;
  Rng rng(0xabcdefull);

  struct Pending {
    EventHandle handle;
    int id;
  };
  std::vector<Pending> pending;
  std::vector<int> fired;          // ids in firing order
  std::vector<std::pair<double, std::uint64_t>> model_keys(4096);
  std::vector<std::pair<std::pair<double, std::uint64_t>, int>> model;
  std::uint64_t model_seq = 1;
  int next_id = 0;

  const auto random_delay = [&rng] {
    return static_cast<double>(rng.uniform_int(0, 7));  // coarse: forces ties
  };

  for (int op = 0; op < 10000; ++op) {
    const auto what = rng.uniform_int(0, 7);
    if (what < 4) {  // schedule
      const int id = next_id++;
      const double at = sim.now() + random_delay();
      model_keys[id] = {at, model_seq++};
      pending.push_back(
          {sim.schedule(at - sim.now(), [id, &fired] { fired.push_back(id); }),
           id});
    } else if (what < 5 && !pending.empty()) {  // cancel
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pending.size()) - 1));
      if (sim.cancel(pending[pick].handle)) {
        model_keys[pending[pick].id].first = -1.0;  // never fires
      }
      pending[pick] = pending.back();
      pending.pop_back();
    } else if (what < 6 && !pending.empty()) {  // reschedule
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pending.size()) - 1));
      const double at = sim.now() + random_delay();
      if (sim.reschedule(pending[pick].handle, at - sim.now())) {
        model_keys[pending[pick].id] = {at, model_seq++};
      }
    } else {  // let some time pass; fired events leave stale handles behind,
      // and later cancel/reschedule on them must refuse (generation guard)
      sim.run_until(sim.now() + 1.0);
    }
    if (next_id >= 4000) break;  // stay inside model_keys
  }
  sim.run();

  for (int id = 0; id < next_id; ++id) {
    if (model_keys[id].first >= 0.0) {
      model.push_back({model_keys[id], id});
    }
  }
  std::sort(model.begin(), model.end());
  ASSERT_EQ(fired.size(), model.size());
  for (std::size_t i = 0; i < model.size(); ++i) {
    EXPECT_EQ(fired[i], model[i].second) << "position " << i;
  }
}

// Two-tier version of the simulator property: a near class (0-7 ticks of
// 1/1024 s, coarse so ties are common) mixed with a far class (10-1000 s)
// puts entries in both of the simulator's tiers. Every op is checked at
// once against an ordered-set oracle: run_until() must fire exactly the
// oracle's entries with time <= t in (time, seq) order, and
// events_pending() must equal the oracle's size. Tick-grid times are
// dyadic, so sums stay exact and the deliberate same-instant ties between
// a near and a far entry really are ties. cancel()/reschedule() must leave
// a record in the tier it was routed to, even when the new delay belongs
// to the other class.
class SimulatorTwoTierPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorTwoTierPropertyTest, MixedNearFarOpsMatchOracle) {
  constexpr double kTick = 1.0 / 1024.0;
  Simulator sim;
  Rng rng(GetParam());

  struct Live {
    int id;
    double time;
    std::uint64_t seq;
    EventHandle handle;
    bool far;
  };
  std::vector<Live> live;
  std::set<std::tuple<double, std::uint64_t, int>> oracle;
  std::vector<EventHandle> stale;
  std::vector<int> fired;
  std::uint64_t seq = 1;
  int next_id = 0;
  int near_routed = 0, far_routed = 0, cross_tier_ties = 0;

  const auto near_delay = [&rng] {
    return kTick * static_cast<double>(rng.uniform_int(0, 7));
  };
  const auto far_delay = [&rng] {
    return static_cast<double>(rng.uniform_int(10, 1000));
  };
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const auto find_live = [&live](int id) {
    return std::find_if(live.begin(), live.end(),
                        [id](const Live& l) { return l.id == id; });
  };
  const auto schedule = [&](double delay) {
    const int id = next_id++;
    const std::size_t far_before = sim.events_pending_far();
    const EventHandle h =
        sim.schedule(delay, [id, &fired] { fired.push_back(id); });
    const bool far = sim.events_pending_far() == far_before + 1;
    (far ? far_routed : near_routed)++;
    live.push_back({id, sim.now() + delay, seq, h, far});
    oracle.insert({sim.now() + delay, seq++, id});
    return live.back();
  };
  // Reschedule `l` to absolute time t; its tier must not change.
  const auto move_to = [&](Live& l, double t) {
    const std::size_t far_before = sim.events_pending_far();
    ASSERT_TRUE(sim.reschedule_at(l.handle, t));
    ASSERT_EQ(sim.events_pending_far(), far_before);
    oracle.erase({l.time, l.seq, l.id});
    l.time = t;
    l.seq = seq++;
    oracle.insert({l.time, l.seq, l.id});
  };
  const auto run_until = [&](double t) {
    fired.clear();
    sim.run_until(t);
    std::vector<int> want;
    while (!oracle.empty() && std::get<0>(*oracle.begin()) <= t) {
      const int id = std::get<2>(*oracle.begin());
      oracle.erase(oracle.begin());
      want.push_back(id);
      const auto it = find_live(id);
      stale.push_back(it->handle);
      live.erase(it);
    }
    ASSERT_EQ(fired, want);
    ASSERT_EQ(sim.now(), t);
  };
  const auto live_in_tier = [&](bool far) -> Live* {
    std::vector<Live*> in_tier;
    for (Live& l : live) {
      if (l.far == far) in_tier.push_back(&l);
    }
    return in_tier.empty() ? nullptr : in_tier[pick(in_tier.size())];
  };

  for (int op = 0; op < 6000; ++op) {
    const auto what = rng.uniform_int(0, 11);
    if (what < 3) {
      schedule(near_delay());
    } else if (what < 4) {
      schedule(far_delay());
    } else if (what < 5 && !live.empty()) {  // cancel
      const std::size_t i = pick(live.size());
      const std::size_t far_before = sim.events_pending_far();
      ASSERT_TRUE(sim.cancel(live[i].handle));
      ASSERT_EQ(sim.events_pending_far(), far_before - (live[i].far ? 1 : 0));
      oracle.erase({live[i].time, live[i].seq, live[i].id});
      stale.push_back(live[i].handle);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (what < 7 && !live.empty()) {
      // Reschedule with a delay of the *other* class: a far-tier record
      // moves to within a few ticks, a near-tier one out by minutes.
      Live& l = live[pick(live.size())];
      move_to(l, sim.now() + (l.far ? near_delay() : far_delay()));
    } else if (what < 8) {
      // Same-instant tie, far entry first: run up to a few ticks before a
      // far-tier entry, then schedule a near one onto its exact instant.
      if (Live* f = live_in_tier(true)) {
        const double k = static_cast<double>(rng.uniform_int(0, 7));
        const double t = f->time;
        if (t - k * kTick > sim.now()) run_until(t - k * kTick);
        const Live n = schedule(t - sim.now());
        if (!n.far) ++cross_tier_ties;
      }
    } else if (what < 9) {
      // Same-instant tie, near entry first: re-key a far-tier record onto
      // a near-tier record's instant; its fresh seq makes it fire second.
      Live* n = live_in_tier(false);
      Live* f = live_in_tier(true);
      if (n != nullptr && f != nullptr) {
        move_to(*f, n->time);
        ++cross_tier_ties;
      }
    } else if (what < 10 && !stale.empty()) {
      // A fired or cancelled handle must be refused by either tier.
      const EventHandle h = stale[pick(stale.size())];
      ASSERT_FALSE(sim.cancel(h));
      ASSERT_FALSE(sim.reschedule(h, near_delay()));
    } else if (what < 11 && !oracle.empty()) {
      // Boundary: stop exactly on the earliest pending instant.
      run_until(std::get<0>(*oracle.begin()));
    } else {
      run_until(sim.now() + near_delay());
    }
    ASSERT_EQ(sim.events_pending(), oracle.size()) << "op " << op;
  }

  fired.clear();
  sim.run();
  std::vector<int> want;
  for (const auto& e : oracle) want.push_back(std::get<2>(e));
  EXPECT_EQ(fired, want);
  EXPECT_EQ(sim.events_pending(), 0u);
  // The mix really exercised both tiers and ties across them.
  EXPECT_GT(near_routed, 500);
  EXPECT_GT(far_routed, 100);
  EXPECT_GT(cross_tier_ties, 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorTwoTierPropertyTest,
                         ::testing::Values(0x7135ull, 0x7136ull, 0x7137ull));

}  // namespace
}  // namespace softres::sim
