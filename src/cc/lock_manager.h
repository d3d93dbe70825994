#ifndef FRAGDB_CC_LOCK_MANAGER_H_
#define FRAGDB_CC_LOCK_MANAGER_H_

#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "cc/transaction.h"
#include "sim/event_fn.h"

namespace fragdb {

enum class LockMode { kShared, kExclusive };

/// Strict two-phase lock table for one node (the paper's per-node "local
/// concurrency control mechanism", §2.2). Shared/exclusive modes, FIFO wait
/// queues, lock upgrade for a sole shared holder, waits-for deadlock
/// detection with youngest-transaction victim selection.
///
/// The lock manager is asynchronous: Acquire() invokes the callback
/// immediately if the lock is granted, otherwise queues the request and
/// invokes the callback when it is granted, cancelled, or chosen as a
/// deadlock victim (Status::Aborted).
///
/// An uncontended acquire/release pair allocates nothing: callbacks are
/// stored inline, holders and waiters are flat vectors, and the table
/// entry of a resource that falls idle is parked for reuse instead of
/// being freed (every replica install takes and drops a fragment lock).
class LockManager {
 public:
  using GrantCallback = InlineFn<void(Status)>;

  /// Observation hooks for the observability layer. `now` supplies the
  /// clock (the simulator's, injected so this layer stays sim-agnostic);
  /// on_grant fires at every grant with the time the request waited,
  /// on_release at every voluntary release with the time the lock was
  /// held. With no observer installed the manager does no timestamping.
  /// Clear() (crash semantics) releases nothing and observes nothing.
  struct Observer {
    std::function<SimTime()> now;
    std::function<void(ResourceId, LockMode, SimTime waited)> on_grant;
    std::function<void(ResourceId, SimTime held)> on_release;
  };

  LockManager() = default;

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Requests `mode` on `resource` for `txn`. Re-acquiring a held lock in
  /// the same or weaker mode grants immediately; requesting kExclusive
  /// while being the sole kShared holder upgrades (waiting if needed).
  void Acquire(TxnId txn, ResourceId resource, LockMode mode,
               GrantCallback cb);

  /// Releases every lock held by `txn` and cancels its waiting requests
  /// (their callbacks fire with Status::Aborted). Grants any now-eligible
  /// waiters, in FIFO order.
  void ReleaseAll(TxnId txn);

  /// Releases one lock held by `txn`. No-op if not held.
  void Release(TxnId txn, ResourceId resource);

  /// Cancels a pending (not yet granted) request; its callback fires with
  /// Status::TimedOut. Returns false if no such waiting request exists.
  bool CancelWait(TxnId txn, ResourceId resource);

  /// Builds the waits-for graph and, if it has a cycle, aborts the
  /// youngest (largest-id) transaction on the cycle by cancelling all its
  /// waits with Status::Aborted and releasing its held locks. Returns the
  /// victim, or kInvalidTxn if no deadlock exists.
  ///
  /// The built-in cluster strategies acquire resources in globally sorted
  /// order and never deadlock; this exists for standalone library use and
  /// is exercised by tests.
  TxnId DetectAndResolveDeadlock();

  /// Drops the entire lock table without invoking any waiter callbacks —
  /// the semantics of a node crash, where pending requests simply die with
  /// the process. Continuations that would have fired are the caller's
  /// problem (the scheduler invalidates its own in the same wipe).
  void Clear() {
    table_.clear();
    spare_.clear();
  }

  /// True if `txn` currently holds `resource` in at least `mode`.
  bool Holds(TxnId txn, ResourceId resource, LockMode mode) const;

  size_t waiting_count() const;
  size_t held_count() const;

  void SetObserver(Observer observer) { observer_ = std::move(observer); }

 private:
  struct Request {
    TxnId txn;
    LockMode mode;
    GrantCallback cb;
    SimTime enqueued = 0;  // meaningful only while an observer is set
  };
  struct Holder {
    LockMode mode;
    // Stamped at grant while an observer is set (0 otherwise); upgrades
    // keep the original stamp so hold time covers the whole S->X span.
    SimTime granted_at = 0;
  };
  using HolderList = std::vector<std::pair<TxnId, Holder>>;
  struct Entry {
    // Current holders, in grant order. Invariant: either one exclusive
    // holder or any number of shared holders.
    HolderList holders;
    // FIFO wait queue (front = next to grant); short in practice.
    std::vector<Request> waiters;
  };
  using Table = std::map<ResourceId, Entry>;

  static HolderList::iterator FindHolder(Entry& e, TxnId txn);
  static HolderList::const_iterator FindHolder(const Entry& e, TxnId txn);

  /// The entry for `resource`, reusing a parked node when one is free.
  Entry& EntryFor(ResourceId resource);
  /// Removes an idle entry from the table, parking its node (and the
  /// capacity of its vectors) for the next resource that needs one.
  void Park(Table::iterator it);

  /// Grants eligible waiters at the front of the queue.
  void PumpQueue(ResourceId resource);
  bool Compatible(const Entry& e, TxnId txn, LockMode mode) const;

  SimTime ObservedNow() const { return observer_.now ? observer_.now() : 0; }
  /// Stamps the fresh hold (when given) and reports the wait; `enqueued`
  /// is the queue-entry time, or negative for an immediate grant (zero
  /// wait, no second clock read).
  void ObserveGrant(Holder* fresh, ResourceId resource, LockMode mode,
                    SimTime enqueued);
  void ObserveRelease(const Holder& h, ResourceId resource);

  Table table_;
  std::vector<Table::node_type> spare_;
  /// ReleaseAll's list of held resources, kept between calls for its
  /// capacity (a reentrant call works on a fresh vector).
  std::vector<ResourceId> release_scratch_;
  Observer observer_;
};

}  // namespace fragdb

#endif  // FRAGDB_CC_LOCK_MANAGER_H_
