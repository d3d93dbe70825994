#include "verify/history_index.h"

#include <set>

namespace fragdb {

HistoryIndex::HistoryIndex(const History& history) : history_(&history) {
  // Version chains: installs replicate the same version at several nodes,
  // so collect distinct (seq, writer) pairs per object, in seq order —
  // identical to History::VersionsOf.
  std::map<ObjectId, std::set<std::pair<SeqNum, TxnId>>> seen;
  // Nearly always a single fragment per object, but nothing in the
  // record format forbids several fragments' updaters writing one
  // object, so file such an object (and its reads) under each.
  std::map<ObjectId, std::set<FragmentId>> fragments_of;
  for (const InstallRecord& rec : history.installs()) {
    auto [it, fresh] = writes_.try_emplace(rec.writer, &rec.writes());
    // The replicas of one commit share its quasi-transaction: a record
    // whose write set is the very one already indexed adds nothing.
    if (!fresh && it->second == &rec.writes()) continue;
    for (const WriteOp& w : rec.writes()) {
      seen[w.object].emplace(rec.seq, rec.writer);
      fragments_of[w.object].insert(rec.fragment);
    }
  }
  for (const auto& [object, chain] : seen) {
    std::vector<std::pair<TxnId, SeqNum>>& out = versions_[object];
    out.reserve(chain.size());
    for (const auto& [seq, writer] : chain) out.emplace_back(writer, seq);
    for (FragmentId f : fragments_of[object]) {
      objects_of_[f].push_back(object);
    }
  }
  for (const auto& [id, rec] : history.txns()) {
    if (rec.committed && !rec.read_only) {
      updaters_[rec.type_fragment].push_back(id);
    }
  }
  for (const ReadRecord& r : history.reads()) {
    auto it = fragments_of.find(r.object);
    if (it == fragments_of.end()) {
      reads_on_[kInvalidFragment].push_back(&r);
      continue;
    }
    for (FragmentId f : it->second) reads_on_[f].push_back(&r);
  }
}

const std::vector<std::pair<TxnId, SeqNum>>& HistoryIndex::VersionsOf(
    ObjectId object) const {
  static const std::vector<std::pair<TxnId, SeqNum>> kEmpty;
  auto it = versions_.find(object);
  return it == versions_.end() ? kEmpty : it->second;
}

const std::vector<WriteOp>& HistoryIndex::WritesOf(TxnId writer) const {
  static const std::vector<WriteOp> kEmpty;
  auto it = writes_.find(writer);
  return it == writes_.end() ? kEmpty : *it->second;
}

const std::vector<TxnId>& HistoryIndex::UpdatersOf(FragmentId fragment) const {
  static const std::vector<TxnId> kEmpty;
  auto it = updaters_.find(fragment);
  return it == updaters_.end() ? kEmpty : it->second;
}

const std::vector<ObjectId>& HistoryIndex::ObjectsOf(
    FragmentId fragment) const {
  static const std::vector<ObjectId> kEmpty;
  auto it = objects_of_.find(fragment);
  return it == objects_of_.end() ? kEmpty : it->second;
}

const std::vector<const ReadRecord*>& HistoryIndex::ReadsOn(
    FragmentId fragment) const {
  static const std::vector<const ReadRecord*> kEmpty;
  auto it = reads_on_.find(fragment);
  return it == reads_on_.end() ? kEmpty : it->second;
}

}  // namespace fragdb
