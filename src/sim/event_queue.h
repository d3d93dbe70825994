#ifndef FRAGDB_SIM_EVENT_QUEUE_H_
#define FRAGDB_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "sim/event_fn.h"

namespace fragdb {

/// Handle for cancelling a scheduled event. Encodes (generation, slot) so
/// a recycled slot cannot be cancelled through a stale handle.
using EventId = int64_t;

/// Priority queue of timed callbacks with deterministic ordering: events
/// fire in (time, insertion sequence) order, so two events scheduled for
/// the same instant fire in the order they were scheduled. This is the
/// root of the whole library's reproducibility.
///
/// Storage layout (the simulation fast path, see docs/PERFORMANCE.md):
/// callbacks live in a slab of reusable slots threaded on a free list, so
/// steady-state scheduling performs no allocation once the slab has grown
/// to the simulation's high-water mark of pending events; the heap is a
/// flat array of 16-byte (time, seq, slot) nodes rather than pointers.
///
/// Same-time runs: the queue remembers the tails of the kTails most
/// recently scheduled distinct times. A Schedule at one of those times is
/// linked behind that time's tail instead of getting a heap node, so a
/// broadcast wave (one delivery per replica at one instant) costs one heap
/// push and one heap pop, not one per recipient — even when every member
/// also arms a timer at another instant (Paxos acceptors answer at +5 ms
/// and arm recovery at +100 ms). A run's node keeps its first sequence as
/// its key while the head advances in place, and the pop order stays
/// exactly (time, insertion sequence): a run is only ever extended from
/// the latest queued event at its time, so every event at that time
/// scheduled after the run's head joins the run, and an event that finds
/// no remembered tail starts a run whose sequence exceeds every member of
/// the older runs at its time, which are never extended again.
///
/// Cancelled events are reclaimed lazily when they reach the head of their
/// run at the heap root, with a compaction pass once they outnumber the
/// live events, so mass cancellation (retransmit timers, ack timeouts)
/// cannot pin memory.
class EventQueue {
 public:
  EventQueue() = default;

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` to fire at absolute time `when`. Returns a handle that
  /// can be passed to Cancel().
  EventId Schedule(SimTime when, EventFn fn);

  /// Cancels a pending event. Cancelling an already-fired or unknown event
  /// is a no-op returning false. The callback (and its captures) is
  /// destroyed immediately; the heap node is reclaimed lazily or by the
  /// next compaction pass.
  bool Cancel(EventId id);

  bool empty() const { return live_count_ == 0; }
  size_t size() const { return live_count_; }

  /// Time of the earliest pending event; kSimTimeMax if empty.
  SimTime NextTime();

  /// The earliest pending event, popped. Requires !empty().
  struct Fired {
    SimTime time;
    EventId id;
    EventFn fn;
  };
  Fired PopNext();

  /// Introspection for tests and benches: current heap length (one node
  /// per same-time run, including runs whose events are all cancelled but
  /// not yet reclaimed), and slab high-water mark.
  size_t heap_size() const { return heap_.size(); }
  size_t slab_capacity() const { return slab_size_; }

 private:
  // 16-byte heap node for one same-time run: `key` packs (the run's first
  // insertion sequence << 24 | the slot of the run's head), so comparing
  // keys compares sequences (sequences are unique) and the slot rides
  // along for free. Advancing the head rewrites only the slot bits, which
  // leaves the node's place in the heap valid. The (time, key) order is
  // total, which makes the pop sequence independent of heap arity or
  // layout — determinism does not rest on any heap implementation detail.
  struct HeapNode {
    SimTime time;
    uint64_t key;

    uint32_t slot() const { return static_cast<uint32_t>(key & kSlotMask); }
    bool FiresBefore(const HeapNode& o) const {
      return time != o.time ? time < o.time : key < o.key;
    }
  };
  static constexpr uint64_t kSlotBits = 24;  // ≤16.7M concurrently pending
  static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;
  static constexpr uint64_t kMaxSeq = uint64_t{1} << (64 - kSlotBits);
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  /// Remembered run tails: enough for a wave's deliveries, its members'
  /// timers and a stray event or two to interleave without splitting.
  static constexpr size_t kTails = 4;
  struct Slot {
    EventFn fn;
    uint32_t gen = 0;
    uint32_t next = kNoSlot;  // next event of the same-time run
    bool live = false;        // scheduled, not yet fired or cancelled
  };

  static EventId MakeId(uint32_t gen, uint32_t slot) {
    return (static_cast<int64_t>(gen) << 32) | static_cast<int64_t>(slot);
  }

  // The slab is chunked so slots have stable addresses: growing it never
  // move-relocates existing EventFns (whose moves go through an indirect
  // manage call), it just appends a chunk.
  static constexpr uint32_t kChunkBits = 9;
  static constexpr uint32_t kChunkSize = 1u << kChunkBits;

  Slot& SlotAt(uint32_t i) {
    return chunks_[i >> kChunkBits][i & (kChunkSize - 1)];
  }

  uint32_t AllocSlot();
  void ReleaseSlot(uint32_t slot);
  /// Moves the root's run past its head slot (which the caller has
  /// consumed), popping the node once the run is exhausted. No sift: the
  /// node's key keeps the run's first sequence.
  void AdvanceRoot(uint32_t next);
  /// Drops cancelled events sitting at the head of the root's run.
  void DropCancelledHead();
  /// Unlinks cancelled events from every run, and drops the nodes of
  /// runs left empty, once cancelled events outnumber live ones.
  void MaybeCompact();

  // 4-ary min-heap: half the depth of a binary heap and four children per
  // cache line of nodes, which is what the large-queue case is bound by.
  void HeapPush(HeapNode node);
  void HeapPop();
  void SiftDown(size_t i);
  void Heapify();

  std::vector<HeapNode> heap_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  uint32_t slab_size_ = 0;  // slots handed out at least once
  std::vector<uint32_t> free_;
  uint64_t next_seq_ = 0;
  size_t live_count_ = 0;
  size_t cancelled_in_heap_ = 0;  // cancelled events still linked in runs
  // For each of the kTails most recently scheduled distinct times, most
  // recent first: the latest event scheduled at that time while it is
  // still queued (live or cancelled but not reclaimed) — the tail of the
  // only run at that time a Schedule may extend. kNoSlot once reclaimed.
  struct Tail {
    SimTime time = 0;
    uint32_t slot = kNoSlot;
  };
  Tail tails_[kTails];
};

}  // namespace fragdb

#endif  // FRAGDB_SIM_EVENT_QUEUE_H_
