#ifndef FRAGDB_RECOVERY_CHECKPOINT_H_
#define FRAGDB_RECOVERY_CHECKPOINT_H_

#include <string>
#include <vector>

#include "cc/transaction.h"
#include "common/types.h"
#include "storage/object_store.h"

namespace fragdb {

/// Durable position of one fragment's update stream at checkpoint time.
struct StreamCheckpoint {
  FragmentId fragment = kInvalidFragment;
  Epoch epoch = 0;
  SeqNum epoch_base = 0;
  SeqNum applied_seq = 0;
  SeqNum next_seq = 1;
  /// The applied lineage at checkpoint time. Without it, a revived node
  /// could no longer serve catch-up suffixes to replicas that fell behind
  /// before its crash (recovery replies and gap repair both read the
  /// stream log, which is otherwise volatile). Captured entries share the
  /// live log's quasi-transactions; decoded ones are fresh.
  std::vector<QuasiRef> log;
};

/// A full snapshot of one node's recoverable state: every object version
/// of the replica plus every fragment stream's position. Restoring the
/// image and replaying the WAL records appended after `taken_at`
/// reconstructs the replica exactly.
struct CheckpointImage {
  SimTime taken_at = 0;
  /// Dense by ObjectId (the catalog's object numbering).
  std::vector<VersionInfo> versions;
  std::vector<StreamCheckpoint> streams;

  /// Stream positions keyed by fragment; defaults if absent.
  StreamCheckpoint StreamFor(FragmentId fragment) const;

  /// [u32 magic][payload][u32 fnv1a(payload)]; returns empty-decode on any
  /// mismatch so a torn checkpoint write can never be mistaken for a valid
  /// image.
  std::string Encode() const;
  static bool Decode(const std::string& bytes, CheckpointImage* out);
};

}  // namespace fragdb

#endif  // FRAGDB_RECOVERY_CHECKPOINT_H_
