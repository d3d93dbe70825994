#ifndef FRAGDB_CC_SCHEDULER_H_
#define FRAGDB_CC_SCHEDULER_H_

#include <functional>
#include <memory>

#include "cc/lock_manager.h"
#include "cc/transaction.h"
#include "common/logging.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/engine.h"
#include "storage/object_store.h"

namespace fragdb {

/// One node's local transaction scheduler (paper §2.2): executes locally
/// initiated transactions under strict 2PL at fragment granularity, and
/// installs quasi-transactions from remote agents atomically. The caller
/// (the core node runtime) is responsible for submitting a fragment's
/// quasi-transactions in sequence order; the scheduler guarantees each
/// install is atomic with respect to local transactions.
class Scheduler {
 public:
  struct Config {
    /// Simulated latency of executing a transaction body (lock grant to
    /// commit).
    SimTime exec_time = Micros(100);
    /// Simulated latency of installing one quasi-transaction.
    SimTime install_time = Micros(50);
  };

  /// Observation hooks, wired to the verification history by the cluster.
  struct Hooks {
    /// A local transaction body observed `seen` for `object`.
    std::function<void(TxnId txn, ObjectId object, const VersionInfo& seen,
                       SimTime at)>
        on_read;
    /// A (quasi-)transaction's writes were installed in this replica.
    /// Fires at the home node for the original commit and at every remote
    /// node when the quasi-transaction is applied. Every replica passes
    /// the same shared object for one commit.
    std::function<void(NodeId node, const QuasiRef& quasi, SimTime at)>
        on_install;
  };

  Scheduler(NodeId node, SimEngine* engine, ObjectStore* store,
            LockManager* locks, Config config, Hooks hooks);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Executes a locally initiated transaction:
  ///  1. acquires the exclusive fragment lock for update transactions
  ///     (unless `write_lock_preacquired` — the §4.1 lock-plan path
  ///     acquires every lock up front in global order);
  ///  2. after Config::exec_time, reads the declared read set from the
  ///     local replica and runs the body;
  ///  3. on success validates the initiation requirement (writes confined
  ///     to `spec.write_fragment`), assigns the fragment sequence via
  ///     `seq_alloc`, applies the writes, and reports the install hook
  ///     with the commit's quasi-transaction (also in TxnResult::quasi);
  ///  4. releases locks it acquired itself and invokes `done`.
  /// Locks acquired by the caller stay held (strict 2PL: the caller
  /// releases after commit).
  void RunLocal(TxnId id, TxnSpec spec, bool write_lock_preacquired,
                std::function<SeqNum()> seq_alloc,
                std::function<void(TxnResult)> done);

  /// Atomically installs a quasi-transaction: exclusive fragment lock,
  /// Config::install_time, apply, hook, release, then `done(quasi)`.
  /// `install_id` is a fresh transaction id naming the install in the lock
  /// table (the paper's "write-only transaction local to the receiving
  /// node"). `done` is any callable taking `const QuasiRef&`, of at most
  /// two words: it rides inside the lock-grant callback and the install
  /// event, which then both stay in InlineFn's inline buffer, so a replica
  /// install allocates nothing here (enforced at compile time).
  template <typename Done>
  void Install(QuasiRef quasi, TxnId install_id, Done done);

  /// Two-phase variant for the §4.4.1 majority-commit protocol: performs
  /// the read/execute part of RunLocal but neither applies writes nor
  /// releases locks. `prepared` receives the tentative result (body
  /// status, computed writes, observed reads; frag_seq unset). The caller
  /// must follow with CommitPrepared or AbortPrepared.
  void Prepare(TxnId id, TxnSpec spec, bool write_lock_preacquired,
               std::function<void(TxnResult)> prepared);

  /// Applies a prepared transaction's writes (`quasi`, the value the
  /// replicas were sent) under its sequence, fires the install hook, and
  /// releases the transaction's local locks if `release_locks`.
  void CommitPrepared(TxnId id, const QuasiRef& quasi, bool release_locks);

  /// Drops a prepared transaction, releasing its local locks if requested.
  void AbortPrepared(TxnId id, bool release_locks);

  /// Amnesia crash: invalidates every in-flight continuation (pending
  /// exec/install events keyed to the old generation become no-ops when
  /// they fire). The caller is responsible for also clearing the lock
  /// table and the store; `done` callbacks of invalidated work never fire.
  void Reset() { ++generation_; }

  NodeId node() const { return node_; }
  ObjectStore* store() { return store_; }
  LockManager* locks() { return locks_; }
  const Config& config() const { return config_; }

 private:
  void ExecuteBody(TxnId id, const TxnSpec& spec, bool owns_write_lock,
                   const std::function<SeqNum()>& seq_alloc,
                   const std::function<void(TxnResult)>& done);
  /// Writes `quasi` into the store and fires the install hook.
  void Apply(const QuasiRef& quasi);

  NodeId node_;
  SimEngine* engine_;
  ObjectStore* store_;
  LockManager* locks_;
  Config config_;
  Hooks hooks_;
  /// Bumped by Reset(); scheduled continuations carry the generation they
  /// were created under and skip themselves if it no longer matches.
  uint64_t generation_ = 0;
};

template <typename Done>
void Scheduler::Install(QuasiRef quasi, TxnId install_id, Done done) {
  const ResourceId resource = FragmentResource(quasi->fragment);
  auto granted = [this, quasi = std::move(quasi), install_id,
                  done = std::move(done)](Status st) mutable {
    // Quasi-transactions are never deadlock victims: they request a
    // single resource, so they cannot close a waits-for cycle.
    FRAGDB_CHECK(st.ok());
    auto apply = [this, gen = generation_, quasi = std::move(quasi),
                  install_id, done = std::move(done)]() mutable {
      if (gen != generation_) return;  // node crashed meanwhile
      Apply(quasi);
      locks_->ReleaseAll(install_id);
      done(quasi);
    };
    static_assert(EventFn::kStoresInline<decltype(apply)>,
                  "the install event must not allocate");
    engine_->AfterNode(node_, config_.install_time, std::move(apply));
  };
  static_assert(LockManager::GrantCallback::kStoresInline<decltype(granted)>,
                "the install's lock-grant callback must not allocate");
  locks_->Acquire(install_id, resource, LockMode::kExclusive,
                  std::move(granted));
}

}  // namespace fragdb

#endif  // FRAGDB_CC_SCHEDULER_H_
