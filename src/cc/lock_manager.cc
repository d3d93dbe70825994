#include "cc/lock_manager.h"

#include <algorithm>
#include <set>

#include "common/logging.h"

namespace fragdb {

LockManager::HolderList::iterator LockManager::FindHolder(Entry& e,
                                                          TxnId txn) {
  return std::find_if(e.holders.begin(), e.holders.end(),
                      [txn](const auto& h) { return h.first == txn; });
}

LockManager::HolderList::const_iterator LockManager::FindHolder(
    const Entry& e, TxnId txn) {
  return std::find_if(e.holders.begin(), e.holders.end(),
                      [txn](const auto& h) { return h.first == txn; });
}

LockManager::Entry& LockManager::EntryFor(ResourceId resource) {
  auto it = table_.lower_bound(resource);
  if (it != table_.end() && it->first == resource) return it->second;
  if (spare_.empty()) return table_.emplace_hint(it, resource, Entry{})->second;
  Table::node_type node = std::move(spare_.back());
  spare_.pop_back();
  node.key() = resource;
  return table_.insert(it, std::move(node))->second;
}

void LockManager::Park(Table::iterator it) {
  spare_.push_back(table_.extract(it));
}

bool LockManager::Compatible(const Entry& e, TxnId txn, LockMode mode) const {
  for (const auto& [holder, h] : e.holders) {
    if (holder == txn) continue;  // own locks never conflict
    if (mode == LockMode::kExclusive || h.mode == LockMode::kExclusive) {
      return false;
    }
  }
  return true;
}

void LockManager::ObserveGrant(Holder* fresh, ResourceId resource,
                               LockMode mode, SimTime enqueued) {
  if (!observer_.now) return;
  SimTime now = observer_.now();
  if (fresh != nullptr) fresh->granted_at = now;
  if (observer_.on_grant) {
    observer_.on_grant(resource, mode, enqueued < 0 ? 0 : now - enqueued);
  }
}

void LockManager::ObserveRelease(const Holder& h, ResourceId resource) {
  if (!observer_.now || !observer_.on_release) return;
  observer_.on_release(resource, observer_.now() - h.granted_at);
}

void LockManager::Acquire(TxnId txn, ResourceId resource, LockMode mode,
                          GrantCallback cb) {
  Entry& e = EntryFor(resource);
  auto held = FindHolder(e, txn);
  if (held != e.holders.end()) {
    // Already held. Same or stronger mode => immediate grant.
    if (held->second.mode == LockMode::kExclusive ||
        mode == LockMode::kShared) {
      cb(Status::Ok());
      return;
    }
    // Upgrade S -> X: immediate if sole holder and nothing incompatible.
    if (e.holders.size() == 1 && Compatible(e, txn, mode)) {
      held->second.mode = LockMode::kExclusive;
      ObserveGrant(nullptr, resource, mode, -1);
      cb(Status::Ok());
      return;
    }
    // Queue the upgrade. It is granted when the other holders drain.
    e.waiters.push_back(Request{txn, mode, std::move(cb), ObservedNow()});
    return;
  }
  // FIFO fairness: do not jump over existing waiters even if compatible,
  // except that a fresh shared request may join shared holders when no
  // exclusive waiter is queued ahead (prevents needless serialization).
  bool exclusive_waiter_ahead =
      std::any_of(e.waiters.begin(), e.waiters.end(), [](const Request& r) {
        return r.mode == LockMode::kExclusive;
      });
  if (Compatible(e, txn, mode) &&
      (e.waiters.empty() ||
       (mode == LockMode::kShared && !exclusive_waiter_ahead))) {
    Holder& h = e.holders.emplace_back(txn, Holder{mode, 0}).second;
    ObserveGrant(&h, resource, mode, -1);
    cb(Status::Ok());
    return;
  }
  e.waiters.push_back(Request{txn, mode, std::move(cb), ObservedNow()});
}

void LockManager::PumpQueue(ResourceId resource) {
  // Grant callbacks may reenter the lock manager (commit handlers release
  // other locks, drains capture state, ...), so never hold an iterator
  // across a callback: mutate first, fire, then re-find the entry.
  while (true) {
    auto it = table_.find(resource);
    if (it == table_.end()) return;
    Entry& e = it->second;
    if (e.waiters.empty()) {
      if (e.holders.empty()) Park(it);
      return;
    }
    Request& front = e.waiters.front();
    TxnId txn = front.txn;
    LockMode mode = front.mode;
    SimTime enqueued = front.enqueued;
    GrantCallback cb;
    auto held = FindHolder(e, txn);
    if (held != e.holders.end()) {
      // Upgrade request: grantable when requester is the sole holder.
      if (e.holders.size() != 1) return;
      held->second.mode = LockMode::kExclusive;
      cb = std::move(front.cb);
      e.waiters.erase(e.waiters.begin());
      ObserveGrant(nullptr, resource, mode, enqueued);
    } else if (Compatible(e, txn, mode)) {
      Holder& h = e.holders.emplace_back(txn, Holder{mode, 0}).second;
      cb = std::move(front.cb);
      e.waiters.erase(e.waiters.begin());
      ObserveGrant(&h, resource, mode, enqueued);
    } else {
      return;
    }
    cb(Status::Ok());
  }
}

void LockManager::Release(TxnId txn, ResourceId resource) {
  auto it = table_.find(resource);
  if (it == table_.end()) return;
  auto h = FindHolder(it->second, txn);
  if (h == it->second.holders.end()) return;
  ObserveRelease(h->second, resource);
  it->second.holders.erase(h);
  PumpQueue(resource);
}

void LockManager::ReleaseAll(TxnId txn) {
  // Collect affected resources first; PumpQueue may erase entries.
  std::vector<ResourceId> held = std::move(release_scratch_);
  held.clear();
  std::vector<std::pair<ResourceId, GrantCallback>> cancelled;
  for (auto& [resource, e] : table_) {
    if (FindHolder(e, txn) != e.holders.end()) held.push_back(resource);
    for (auto wit = e.waiters.begin(); wit != e.waiters.end();) {
      if (wit->txn == txn) {
        cancelled.emplace_back(resource, std::move(wit->cb));
        wit = e.waiters.erase(wit);
      } else {
        ++wit;
      }
    }
  }
  for (ResourceId r : held) {
    Entry& e = EntryFor(r);
    auto h = FindHolder(e, txn);
    if (h != e.holders.end()) {
      ObserveRelease(h->second, r);
      e.holders.erase(h);
    }
    PumpQueue(r);
  }
  release_scratch_ = std::move(held);
  for (auto& [resource, cb] : cancelled) {
    (void)resource;
    cb(Status::Aborted("lock request cancelled by ReleaseAll"));
  }
}

bool LockManager::CancelWait(TxnId txn, ResourceId resource) {
  auto it = table_.find(resource);
  if (it == table_.end()) return false;
  Entry& e = it->second;
  for (auto wit = e.waiters.begin(); wit != e.waiters.end(); ++wit) {
    if (wit->txn == txn) {
      GrantCallback cb = std::move(wit->cb);
      e.waiters.erase(wit);
      PumpQueue(resource);
      cb(Status::TimedOut("lock wait cancelled"));
      return true;
    }
  }
  return false;
}

TxnId LockManager::DetectAndResolveDeadlock() {
  // Build waits-for edges: waiter -> every incompatible current holder.
  std::map<TxnId, std::set<TxnId>> waits_for;
  for (const auto& [resource, e] : table_) {
    (void)resource;
    for (const auto& w : e.waiters) {
      for (const auto& [holder, h] : e.holders) {
        if (holder == w.txn) continue;
        bool conflict = w.mode == LockMode::kExclusive ||
                        h.mode == LockMode::kExclusive;
        if (conflict) waits_for[w.txn].insert(holder);
      }
    }
  }
  // Iterative DFS cycle detection; collect the cycle to pick a victim.
  std::map<TxnId, int> color;  // 0 white, 1 gray, 2 black
  std::vector<TxnId> stack;
  TxnId victim = kInvalidTxn;

  std::function<bool(TxnId)> dfs = [&](TxnId t) -> bool {
    color[t] = 1;
    stack.push_back(t);
    auto it = waits_for.find(t);
    if (it != waits_for.end()) {
      for (TxnId next : it->second) {
        if (color[next] == 1) {
          // Cycle: everything on the stack from `next` onward.
          auto pos = std::find(stack.begin(), stack.end(), next);
          victim = *std::max_element(pos, stack.end());
          return true;
        }
        if (color[next] == 0 && dfs(next)) return true;
      }
    }
    stack.pop_back();
    color[t] = 2;
    return false;
  };
  for (const auto& [t, edges] : waits_for) {
    (void)edges;
    if (color[t] == 0 && dfs(t)) break;
  }
  if (victim == kInvalidTxn) return kInvalidTxn;

  // Abort the victim: cancel its waits (with kAborted) and free its locks.
  std::vector<std::pair<ResourceId, GrantCallback>> cancelled;
  std::vector<ResourceId> held;
  for (auto& [resource, e] : table_) {
    for (auto wit = e.waiters.begin(); wit != e.waiters.end();) {
      if (wit->txn == victim) {
        cancelled.emplace_back(resource, std::move(wit->cb));
        wit = e.waiters.erase(wit);
      } else {
        ++wit;
      }
    }
    if (FindHolder(e, victim) != e.holders.end()) held.push_back(resource);
  }
  for (ResourceId r : held) {
    Entry& e = EntryFor(r);
    auto h = FindHolder(e, victim);
    if (h != e.holders.end()) {
      ObserveRelease(h->second, r);
      e.holders.erase(h);
    }
    PumpQueue(r);
  }
  for (auto& [resource, cb] : cancelled) {
    (void)resource;
    cb(Status::Aborted("deadlock victim"));
  }
  return victim;
}

bool LockManager::Holds(TxnId txn, ResourceId resource, LockMode mode) const {
  auto it = table_.find(resource);
  if (it == table_.end()) return false;
  auto h = FindHolder(it->second, txn);
  if (h == it->second.holders.end()) return false;
  return mode == LockMode::kShared || h->second.mode == LockMode::kExclusive;
}

size_t LockManager::waiting_count() const {
  size_t n = 0;
  for (const auto& [r, e] : table_) {
    (void)r;
    n += e.waiters.size();
  }
  return n;
}

size_t LockManager::held_count() const {
  size_t n = 0;
  for (const auto& [r, e] : table_) {
    (void)r;
    n += e.holders.size();
  }
  return n;
}

}  // namespace fragdb
