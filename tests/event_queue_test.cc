#include "sim/event_queue.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace fragdb
