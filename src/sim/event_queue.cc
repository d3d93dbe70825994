#include "sim/event_queue.h"

#include <algorithm>

#include "common/logging.h"

namespace fragdb {

uint32_t EventQueue::AllocSlot() {
  if (!free_.empty()) {
    uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  if (slab_size_ == chunks_.size() * kChunkSize) {
    // Default-init, not make_unique: value-initialization would zero every
    // slot's 80-byte inline buffer (~53KB per chunk); the member
    // initializers on Slot/EventFn already set all the state that matters.
    chunks_.emplace_back(new Slot[kChunkSize]);
  }
  return slab_size_++;
}

void EventQueue::ReleaseSlot(uint32_t slot) {
  Slot& s = SlotAt(slot);
  s.fn.Reset();
  s.live = false;
  ++s.gen;
  free_.push_back(slot);
  // A remembered tail is the last event of its run: only such a slot can
  // be one.
  if (s.next == kNoSlot) {
    for (Tail& t : tails_) {
      if (t.slot == slot) t.slot = kNoSlot;
    }
  }
  s.next = kNoSlot;
}

void EventQueue::HeapPush(HeapNode node) {
  // Hole-based insert: move parents down into the hole instead of
  // swapping, one 16-byte copy per level.
  size_t hole = heap_.size();
  heap_.push_back(node);
  while (hole > 0) {
    size_t parent = (hole - 1) / 4;
    if (!node.FiresBefore(heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = node;
}

void EventQueue::SiftDown(size_t i) {
  // Floyd's bottom-up variant: sink the hole to a leaf along the min-child
  // path (no compare against the sinking value), then bubble the value
  // back up. The value comes from the heap's last position, so it almost
  // always belongs near the bottom and the bubble-up is short — this
  // trades the per-level value compare + 3-copy swap of the textbook loop
  // for one copy per level.
  const size_t n = heap_.size();
  HeapNode value = heap_[i];
  size_t hole = i;
  for (;;) {
    size_t first = 4 * hole + 1;
    if (first >= n) break;
    size_t best = first;
    size_t last = std::min(first + 4, n);
    for (size_t c = first + 1; c < last; ++c) {
      if (heap_[c].FiresBefore(heap_[best])) best = c;
    }
#if defined(__GNUC__) || defined(__clang__)
    // Pull the likely next child group into cache while this level's
    // copy retires; large heaps are bound by these misses.
    if (4 * best + 1 < n) __builtin_prefetch(&heap_[4 * best + 1]);
#endif
    heap_[hole] = heap_[best];
    hole = best;
  }
  while (hole > i) {
    size_t parent = (hole - 1) / 4;
    if (!value.FiresBefore(heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = value;
}

void EventQueue::HeapPop() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0);
}

void EventQueue::Heapify() {
  if (heap_.size() < 2) return;
  for (size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) SiftDown(i);
}

EventId EventQueue::Schedule(SimTime when, EventFn fn) {
  uint32_t slot = AllocSlot();
  FRAGDB_CHECK(slot <= kSlotMask);
  FRAGDB_CHECK(next_seq_ < kMaxSeq);
  Slot& s = SlotAt(slot);
  s.fn = std::move(fn);
  s.live = true;
  size_t i = 0;
  while (i < kTails && (tails_[i].time != when || tails_[i].slot == kNoSlot)) {
    ++i;
  }
  if (i < kTails) {
    // The latest event queued at this very time: join its run.
    SlotAt(tails_[i].slot).next = slot;
  } else {
    HeapPush(HeapNode{when, (next_seq_ << kSlotBits) | slot});
    // Evict the least recently used time; its run is never extended again.
    i = kTails - 1;
  }
  for (; i > 0; --i) tails_[i] = tails_[i - 1];
  tails_[0] = Tail{when, slot};
  ++next_seq_;
  ++live_count_;
  return MakeId(s.gen, slot);
}

bool EventQueue::Cancel(EventId id) {
  uint32_t slot = static_cast<uint32_t>(id & 0xffffffff);
  uint32_t gen = static_cast<uint32_t>(static_cast<uint64_t>(id) >> 32);
  if (slot >= slab_size_) return false;
  Slot& s = SlotAt(slot);
  if (!s.live || s.gen != gen) return false;
  s.live = false;
  // Release the captures now — a cancelled retransmit timer must not pin
  // its payload until it happens to reach the head of the queue. The slot
  // itself stays linked in its run until then.
  s.fn.Reset();
  --live_count_;
  ++cancelled_in_heap_;
  MaybeCompact();
  return true;
}

void EventQueue::MaybeCompact() {
  // Counts events, not heap nodes: a run is one node however many of its
  // events are cancelled.
  if (cancelled_in_heap_ <= 64 || cancelled_in_heap_ <= live_count_) return;
  size_t out = 0;
  for (HeapNode node : heap_) {
    // Relink the run's live events in order; the node keeps the run's
    // first sequence, which still precedes every survivor.
    uint32_t head = kNoSlot;
    uint32_t* link = &head;
    for (uint32_t slot = node.slot(); slot != kNoSlot;) {
      Slot& s = SlotAt(slot);
      uint32_t next = s.next;
      if (s.live) {
        *link = slot;
        link = &s.next;
      } else {
        ReleaseSlot(slot);
      }
      slot = next;
    }
    *link = kNoSlot;
    if (head != kNoSlot) {
      node.key = (node.key & ~kSlotMask) | head;
      heap_[out++] = node;
    }
  }
  heap_.resize(out);
  Heapify();
  cancelled_in_heap_ = 0;
}

void EventQueue::AdvanceRoot(uint32_t next) {
  if (next == kNoSlot) {
    HeapPop();
  } else {
    heap_.front().key = (heap_.front().key & ~kSlotMask) | next;
  }
}

void EventQueue::DropCancelledHead() {
  // With no cancellations outstanding every queued event is live, so the
  // head probe into the slab (a likely cache miss) can be skipped.
  if (cancelled_in_heap_ == 0) return;
  while (!heap_.empty()) {
    uint32_t slot = heap_.front().slot();
    Slot& s = SlotAt(slot);
    if (s.live) return;
    uint32_t next = s.next;
    ReleaseSlot(slot);
    --cancelled_in_heap_;
    AdvanceRoot(next);
  }
}

SimTime EventQueue::NextTime() {
  DropCancelledHead();
  if (heap_.empty()) return kSimTimeMax;
  return heap_.front().time;
}

EventQueue::Fired EventQueue::PopNext() {
  DropCancelledHead();
  FRAGDB_CHECK(!heap_.empty());
  const HeapNode& root = heap_.front();
  const SimTime time = root.time;
  const uint32_t slot = root.slot();
  Slot& s = SlotAt(slot);
  Fired fired{time, MakeId(s.gen, slot), std::move(s.fn)};
  const uint32_t next = s.next;
  ReleaseSlot(slot);
  AdvanceRoot(next);
  --live_count_;
  return fired;
}

}  // namespace fragdb
