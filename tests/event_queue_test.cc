#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

namespace fragdb {
namespace {

TEST(EventQueueTest, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.NextTime(), kSimTimeMax);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.Schedule(30, [&] { fired.push_back(3); });
  q.Schedule(10, [&] { fired.push_back(1); });
  q.Schedule(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.PopNext().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.Schedule(5, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.PopNext().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueueTest, NextTimeTracksHead) {
  EventQueue q;
  q.Schedule(100, [] {});
  q.Schedule(50, [] {});
  EXPECT_EQ(q.NextTime(), 50);
  q.PopNext();
  EXPECT_EQ(q.NextTime(), 100);
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  EventId id = q.Schedule(10, [&] { fired = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.NextTime(), kSimTimeMax);
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelUnknownIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(999));
}

TEST(EventQueueTest, DoubleCancelReturnsFalse) {
  EventQueue q;
  EventId id = q.Schedule(10, [] {});
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));
}

TEST(EventQueueTest, CancelledHeadSkipped) {
  EventQueue q;
  std::vector<int> fired;
  EventId a = q.Schedule(10, [&] { fired.push_back(1); });
  q.Schedule(20, [&] { fired.push_back(2); });
  q.Cancel(a);
  EXPECT_EQ(q.NextTime(), 20);
  q.PopNext().fn();
  EXPECT_EQ(fired, (std::vector<int>{2}));
}

TEST(EventQueueTest, CancelAfterFireReturnsFalse) {
  EventQueue q;
  EventId id = q.Schedule(10, [] {});
  q.PopNext();
  EXPECT_FALSE(q.Cancel(id));
}

TEST(EventQueueTest, SizeCountsLiveOnly) {
  EventQueue q;
  EventId a = q.Schedule(1, [] {});
  q.Schedule(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.Cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, ManyEventsStressOrder) {
  EventQueue q;
  std::vector<SimTime> fired;
  for (int i = 0; i < 1000; ++i) {
    q.Schedule((i * 7919) % 101, [&fired, i] {
      fired.push_back((i * 7919) % 101);
    });
  }
  SimTime last = -1;
  while (!q.empty()) {
    auto f = q.PopNext();
    EXPECT_GE(f.time, last);
    last = f.time;
    f.fn();
  }
  EXPECT_EQ(fired.size(), 1000u);
}

TEST(EventQueueTest, SlotsAreRecycled) {
  // Fire-and-reschedule churn must not grow the slab: the queue never
  // holds more than `depth` pending events, so the slab's high-water mark
  // stays at `depth` no matter how many events pass through.
  EventQueue q;
  const int depth = 16;
  for (int i = 0; i < depth; ++i) q.Schedule(i, [] {});
  for (int i = 0; i < 100000; ++i) {
    auto f = q.PopNext();
    q.Schedule(f.time + depth, [] {});
  }
  EXPECT_EQ(q.slab_capacity(), static_cast<size_t>(depth));
}

TEST(EventQueueTest, StaleIdFromRecycledSlotIsRejected) {
  // After a slot is reused, the old EventId (same slot, older generation)
  // must not cancel the new occupant.
  EventQueue q;
  EventId old_id = q.Schedule(1, [] {});
  q.PopNext();  // slot released, generation bumped
  bool fired = false;
  q.Schedule(2, [&] { fired = true; });  // recycles the slot
  EXPECT_FALSE(q.Cancel(old_id));
  EXPECT_EQ(q.size(), 1u);
  q.PopNext().fn();
  EXPECT_TRUE(fired);
}

TEST(EventQueueTest, MassCancelCompactsHeap) {
  // Satellite regression for the lazy-reclamation pathology: cancelling
  // nearly everything (a retransmit-timer storm) must shrink the heap via
  // compaction instead of pinning cancelled nodes until they surface.
  EventQueue q;
  std::vector<EventId> ids;
  const int n = 10000;
  ids.reserve(n);
  for (int i = 0; i < n; ++i) ids.push_back(q.Schedule(1000000 + i, [] {}));
  // Keep every 100th event; cancel the rest.
  for (int i = 0; i < n; ++i) {
    if (i % 100 != 0) {
      EXPECT_TRUE(q.Cancel(ids[i]));
    }
  }
  EXPECT_EQ(q.size(), static_cast<size_t>(n / 100));
  // Compaction bounds the heap: at most one dead node per live one (plus
  // the small constant threshold below which compaction never triggers).
  EXPECT_LE(q.heap_size(), 2 * q.size() + 65);
  SimTime last = -1;
  int fired = 0;
  while (!q.empty()) {
    auto f = q.PopNext();
    EXPECT_GE(f.time, last);
    last = f.time;
    ++fired;
  }
  EXPECT_EQ(fired, n / 100);
}

TEST(EventQueueTest, MillionEventScheduleCancelStress) {
  // 1M events through a schedule/cancel/fire mix with bounded memory:
  // the slab's high-water mark tracks the peak number of pending events
  // (~window), not the total event count, and survivors fire in exact
  // (time, insertion-sequence) order.
  EventQueue q;
  const int kTotal = 1000000;
  const int kWindow = 1024;
  std::vector<EventId> window_ids;
  window_ids.reserve(kWindow);
  uint64_t fired_count = 0;
  SimTime last_time = -1;
  uint64_t rng = 12345;
  auto next_rand = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  int scheduled = 0;
  while (scheduled < kTotal) {
    // Fill the window.
    while (static_cast<int>(window_ids.size()) < kWindow &&
           scheduled < kTotal) {
      // Never schedule into the past of what already fired, so the
      // global (time, seq) pop order is monotone across the whole run.
      SimTime when = last_time + 1 + static_cast<SimTime>(next_rand() % 4096);
      window_ids.push_back(q.Schedule(when, [] {}));
      ++scheduled;
    }
    // Cancel a third of the window, fire until half the live events drain.
    for (size_t i = 0; i < window_ids.size(); i += 3) q.Cancel(window_ids[i]);
    window_ids.clear();
    size_t target = q.size() / 2;
    while (q.size() > target) {
      auto f = q.PopNext();
      EXPECT_GE(f.time, last_time);
      last_time = f.time;
      ++fired_count;
    }
  }
  while (!q.empty()) {
    auto f = q.PopNext();
    EXPECT_GE(f.time, last_time);
    last_time = f.time;
    ++fired_count;
  }
  // Every scheduled event either fired or was cancelled exactly once.
  EXPECT_GT(fired_count, 0u);
  EXPECT_LE(fired_count, static_cast<uint64_t>(kTotal));
  // Memory stayed bounded by the window, not the 1M total: the slab and
  // heap high-water marks are a small multiple of the live window.
  EXPECT_LE(q.slab_capacity(), static_cast<size_t>(8 * kWindow));
  EXPECT_LE(q.heap_size(), static_cast<size_t>(8 * kWindow));
}

TEST(EventQueueTest, BroadcastWaveIsOneHeapNode) {
  // One §4.3 broadcast on a 64-node cluster: 63 deliveries at one instant.
  EventQueue q;
  for (int i = 0; i < 63; ++i) q.Schedule(100, [] {});
  EXPECT_EQ(q.heap_size(), 1u);
  EXPECT_EQ(q.size(), 63u);
  for (int i = 0; i < 63; ++i) {
    EXPECT_EQ(q.PopNext().time, 100);
    EXPECT_EQ(q.heap_size(), i < 62 ? 1u : 0u);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, RunFiresInInsertionOrderAmongSameTimeEvents) {
  // Events at times 10 and 20 interleave. Both times keep a remembered
  // tail, so each time is one run (one heap node) and every event at a
  // time fires in insertion order.
  EventQueue q;
  std::vector<int> fired;
  q.Schedule(10, [&] { fired.push_back(-1); });  // before
  q.Schedule(20, [&] { fired.push_back(1000); });
  for (int i = 0; i < 63; ++i) {
    q.Schedule(10, [&fired, i] { fired.push_back(i); });
  }
  q.Schedule(20, [&] { fired.push_back(1001); });
  q.Schedule(10, [&] { fired.push_back(63); });  // after
  EXPECT_EQ(q.heap_size(), 2u);
  while (!q.empty()) q.PopNext().fn();
  std::vector<int> want = {-1};
  for (int i = 0; i <= 63; ++i) want.push_back(i);
  want.push_back(1000);
  want.push_back(1001);
  EXPECT_EQ(fired, want);
}

TEST(EventQueueTest, InterleavedDeliveryAndTimerWavesAreTwoHeapNodes) {
  // 32 Paxos acceptors each answer at +5 ms and arm a recovery timer at
  // +100 ms: the two alternating times each form one run.
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 32; ++i) {
    q.Schedule(5, [&fired, i] { fired.push_back(i); });
    q.Schedule(100, [&fired, i] { fired.push_back(100 + i); });
  }
  EXPECT_EQ(q.heap_size(), 2u);
  EXPECT_EQ(q.size(), 64u);
  while (!q.empty()) q.PopNext().fn();
  std::vector<int> want;
  for (int i = 0; i < 32; ++i) want.push_back(i);
  for (int i = 0; i < 32; ++i) want.push_back(100 + i);
  EXPECT_EQ(fired, want);
}

TEST(EventQueueTest, EvictedTailStartsANewRunThatFiresAfterTheOldOne) {
  // Five interleaved times against four remembered tails: every round of
  // schedules evicts the oldest time, so each event starts a new run.
  // Runs at one time still fire in insertion order, and times in order.
  EventQueue q;
  std::vector<std::pair<SimTime, int>> fired;
  const int kTimes = 5;
  int n = 0;
  for (int round = 0; round < 3; ++round) {
    for (int t = 0; t < kTimes; ++t) {
      const SimTime when = 10 * (t + 1);
      q.Schedule(when, [&fired, when, n] { fired.emplace_back(when, n); });
      ++n;
    }
  }
  EXPECT_EQ(q.heap_size(), static_cast<size_t>(3 * kTimes));
  // A time that is still remembered joins its run.
  q.Schedule(50, [&fired, n] { fired.emplace_back(50, n); });
  EXPECT_EQ(q.heap_size(), static_cast<size_t>(3 * kTimes));
  while (!q.empty()) q.PopNext().fn();
  std::vector<std::pair<SimTime, int>> want;
  for (int t = 0; t < kTimes; ++t) {
    for (int round = 0; round < 3; ++round) {
      want.emplace_back(10 * (t + 1), round * kTimes + t);
    }
  }
  want.emplace_back(50, n);
  EXPECT_EQ(fired, want);
}

TEST(EventQueueTest, SameInstantSchedulesWhileDrainingJoinTheRun) {
  // Each delivery of a wave schedules a follow-up at the same instant
  // while the wave is still draining: the follow-ups extend the run and
  // fire after every original member, in the order they were scheduled.
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 8; ++i) {
    q.Schedule(5, [&q, &fired, i] {
      fired.push_back(i);
      q.Schedule(5, [&fired, i] { fired.push_back(100 + i); });
    });
  }
  while (!q.empty()) {
    EXPECT_EQ(q.heap_size(), 1u);
    auto f = q.PopNext();
    EXPECT_EQ(f.time, 5);
    f.fn();
  }
  std::vector<int> want;
  for (int i = 0; i < 8; ++i) want.push_back(i);
  for (int i = 0; i < 8; ++i) want.push_back(100 + i);
  EXPECT_EQ(fired, want);
}

TEST(EventQueueTest, CancelHeadMiddleAndTailOfRun) {
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(q.Schedule(7, [&fired, i] { fired.push_back(i); }));
  }
  EXPECT_TRUE(q.Cancel(ids[0]));  // head
  EXPECT_TRUE(q.Cancel(ids[2]));  // middle
  EXPECT_TRUE(q.Cancel(ids[4]));  // tail
  EXPECT_EQ(q.size(), 2u);
  // The cancelled tail is still linked, so a new same-time event joins
  // the run behind it.
  q.Schedule(7, [&] { fired.push_back(5); });
  EXPECT_EQ(q.heap_size(), 1u);
  EXPECT_EQ(q.NextTime(), 7);
  while (!q.empty()) q.PopNext().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 3, 5}));
  EXPECT_EQ(q.heap_size(), 0u);
  EXPECT_EQ(q.NextTime(), kSimTimeMax);
}

TEST(EventQueueTest, FullyCancelledRunIsSkipped) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(q.Schedule(3, [] {}));
  q.Schedule(4, [] {});
  for (EventId id : ids) EXPECT_TRUE(q.Cancel(id));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.NextTime(), 4);
  EXPECT_EQ(q.heap_size(), 1u);
  EXPECT_EQ(q.PopNext().time, 4);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, MassCancelInsideWideRunsStaysBoundedAndReleases) {
  // Each round schedules a wide run far in the future and cancels every
  // member but its first and last: the dead middles sit behind a live
  // head that never reaches the root, so only compaction can reclaim
  // them. The slab must stay bounded by the live events plus one round,
  // not grow with the total, and cancelled captures die at once.
  EventQueue q;
  auto token = std::make_shared<int>(0);
  const int kWidth = 500;
  const int kRounds = 200;
  std::vector<EventId> ids;
  for (int r = 0; r < kRounds; ++r) {
    ids.clear();
    for (int i = 0; i < kWidth; ++i) {
      ids.push_back(q.Schedule(1000000 + r, [token] {}));
    }
    EXPECT_EQ(token.use_count(), static_cast<long>(q.size()) + 1);
    for (int i = 1; i + 1 < kWidth; ++i) EXPECT_TRUE(q.Cancel(ids[i]));
    EXPECT_EQ(q.size(), static_cast<size_t>(2 * (r + 1)));
    EXPECT_EQ(token.use_count(), static_cast<long>(q.size()) + 1);
  }
  EXPECT_LE(q.slab_capacity(), static_cast<size_t>(4 * kWidth + 2 * kRounds));
  EXPECT_EQ(q.heap_size(), static_cast<size_t>(kRounds));
  SimTime last = -1;
  while (!q.empty()) {
    auto f = q.PopNext();
    EXPECT_GE(f.time, last);
    last = f.time;
  }
  EXPECT_EQ(token.use_count(), 1);
}

// Reference-model fuzz: random Schedule/Cancel/PopNext sequences with
// heavy same-time collisions, same-instant schedules made by events of a
// draining run, cancels aimed at run heads, tails and random members, and
// cancel storms that force compaction over partly dead runs. The model is
// the specification: a std::set of pending (time, insertion sequence).
class EventQueueModelFuzz {
 public:
  explicit EventQueueModelFuzz(uint64_t seed) : rng_(seed * 2654435761u + 1) {}

  void Run(int steps) {
    for (int step = 0; step < steps; ++step) {
      const uint64_t r = Rand(100);
      if (r < 38 || model_.empty()) {
        ScheduleOne(PickTime());
      } else if (r < 73) {
        Pop();
      } else if (r < 83) {
        CancelLive(Rand(3));
      } else if (r < 88) {
        CancelStale();
      } else if (r < 89) {
        Storm();
      } else if (pending_.size() > 200) {
        Pop();
      } else {
        // Extend one of the recently scheduled times' runs, or not: more
        // distinct times than the queue remembers tails for, so joins and
        // evictions interleave.
        ScheduleOne(recent_[Rand(kRecent)]);
      }
      if (Rand(2) == 0) Check();
      if (::testing::Test::HasFatalFailure()) return;
      ASSERT_EQ(q_.size(), model_.size());
    }
    while (!model_.empty()) Pop();
    Check();
    EXPECT_TRUE(q_.empty());
  }

 private:
  struct Pending {
    SimTime time;
    EventId id;
  };

  uint64_t Rand(uint64_t bound) {
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return rng_ % bound;
  }

  // Times cluster on a handful of instants near the clock (more than the
  // queue's remembered tails), so runs form, break, get evicted and
  // interleave constantly.
  SimTime PickTime() { return now_ + static_cast<SimTime>(Rand(7)); }

  void ScheduleOne(SimTime when) {
    const uint64_t seq = next_seq_++;
    EventId id = q_.Schedule(when, [this, seq] { OnFire(seq); });
    model_.emplace(when, seq);
    pending_[seq] = Pending{when, id};
    if (std::find(recent_.begin(), recent_.end(), when) == recent_.end()) {
      std::rotate(recent_.rbegin(), recent_.rbegin() + 1, recent_.rend());
      recent_[0] = when;
    }
  }

  void OnFire(uint64_t seq) {
    fired_seq_ = seq;
    // Same-instant schedules while the run is draining.
    if (Rand(4) == 0) {
      const int n = 1 + static_cast<int>(Rand(3));
      for (int i = 0; i < n; ++i) ScheduleOne(now_);
    }
  }

  void Pop() {
    ASSERT_FALSE(model_.empty());
    auto [time, seq] = *model_.begin();
    model_.erase(model_.begin());
    const EventId id = pending_.at(seq).id;
    pending_.erase(seq);
    EventQueue::Fired f = q_.PopNext();
    ASSERT_EQ(f.time, time);
    ASSERT_EQ(f.id, id);
    now_ = time;
    fired_seq_ = UINT64_MAX;
    f.fn();
    ASSERT_EQ(fired_seq_, seq);
    retired_.push_back(id);
  }

  // how: 0 = earliest pending (the head of the root's run), 1 = the most
  // recently scheduled pending event (a run tail), 2 = a random one.
  void CancelLive(uint64_t how) {
    if (pending_.empty()) return;
    uint64_t seq;
    if (how == 0) {
      seq = model_.begin()->second;
    } else if (how == 1) {
      seq = pending_.rbegin()->first;
    } else {
      auto it = pending_.begin();
      std::advance(it, static_cast<long>(Rand(pending_.size())));
      seq = it->first;
    }
    const Pending p = pending_.at(seq);
    ASSERT_TRUE(q_.Cancel(p.id));
    ASSERT_FALSE(q_.Cancel(p.id));
    model_.erase({p.time, seq});
    pending_.erase(seq);
    retired_.push_back(p.id);
    // Compaction counts events: cancelled ones never outnumber the live
    // ones (beyond a small constant) once a Cancel returns.
    ASSERT_LE(q_.heap_size(), 2 * q_.size() + 64);
  }

  // A stale id (fired or cancelled, its slot most likely recycled) must
  // not cancel the slot's new occupant.
  void CancelStale() {
    if (retired_.empty()) return;
    EventId id = retired_[Rand(retired_.size())];
    ASSERT_FALSE(q_.Cancel(id));
  }

  // A wide same-time run, most of it cancelled again: pushes cancelled
  // events past the live ones so compaction runs over partly dead runs.
  void Storm() {
    const SimTime when = now_ + static_cast<SimTime>(Rand(4));
    const uint64_t first = next_seq_;
    const int width = 100 + static_cast<int>(Rand(200));
    for (int i = 0; i < width; ++i) ScheduleOne(when);
    for (uint64_t seq = first; seq < next_seq_; ++seq) {
      if (Rand(10) != 0 && pending_.count(seq) != 0) {
        const Pending p = pending_.at(seq);
        ASSERT_TRUE(q_.Cancel(p.id));
        model_.erase({p.time, seq});
        pending_.erase(seq);
        retired_.push_back(p.id);
      }
    }
    for (int i = 0; i < 60; ++i) CancelLive(2);
  }

  void Check() {
    ASSERT_EQ(q_.size(), model_.size());
    ASSERT_EQ(q_.empty(), model_.empty());
    ASSERT_EQ(q_.NextTime(),
              model_.empty() ? kSimTimeMax : model_.begin()->first);
  }

  uint64_t rng_;
  EventQueue q_;
  std::set<std::pair<SimTime, uint64_t>> model_;
  std::map<uint64_t, Pending> pending_;
  std::vector<EventId> retired_;
  uint64_t next_seq_ = 0;
  uint64_t fired_seq_ = UINT64_MAX;
  SimTime now_ = 0;
  // The last kRecent distinct times scheduled at, most recent first.
  static constexpr size_t kRecent = 6;
  std::array<SimTime, kRecent> recent_{};
};

TEST(EventQueueTest, ReferenceModelFuzz) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    EventQueueModelFuzz fuzz(seed);
    fuzz.Run(5000);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace fragdb
