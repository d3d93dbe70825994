#ifndef FRAGDB_CORE_MESSAGES_H_
#define FRAGDB_CORE_MESSAGES_H_

#include <cstdint>
#include <vector>

#include "cc/transaction.h"
#include "common/types.h"
#include "net/message.h"

namespace fragdb {

/// Dispatch tag of each core protocol payload below (MessagePayload::
/// Kind()). NodeRuntime::HandleMessage switches on it, so a message costs
/// one virtual call to route instead of a dynamic_cast per payload type.
enum class MessageKind : uint8_t {
  kOther = 0,  // not a core payload: MessagePayload's default
  kQuasiTxn,
  kReadLockRequest,
  kReadLockGrant,
  kReadLockRelease,
  kQuasiPrepare,
  kQuasiAck,
  kQuasiCommit,
  kSeqQuery,
  kSeqReply,
  kFetchMissing,
  kMissingData,
  kM0,
  kForwardMissing,
  kQuorumReadRequest,
  kQuorumReadReply,
  kQuorumAppliedAck,
  kPaxosAccept,
  kPaxosAccepted,
  kPaxosOutcome,
  kRecoveryQuery,
  kRecoveryReply,
};

/// Base of every core payload: ties the type to its tag, so a dispatcher
/// can use `T::kKind` as a case label and `static_cast` to T.
template <MessageKind K>
struct CorePayload : MessagePayload {
  static constexpr MessageKind kKind = K;
  MessageKind Kind() const final { return K; }
};

/// Wire size of one quasi-transaction as carried by any message type:
/// fixed header (ids, sequence, origin, timestamps) plus 16 bytes per
/// write. Every ByteSize() below goes through this helper so the
/// accounting cannot drift between message types.
inline size_t QuasiTxnWireSize(const QuasiTxn& q) {
  return 48 + q.writes.size() * 16;
}

/// A quasi-transaction plus its stream position, as broadcast by the home
/// node (§2.2: "(T; d1,v1; d2,v2; ...)"). Messages carry the commit's
/// shared QuasiRef: the wire size is that of the full quasi-transaction,
/// but no replica copies it.
struct QuasiTxnMsg : CorePayload<MessageKind::kQuasiTxn> {
  const char* TypeName() const override { return "quasi"; }
  QuasiRef quasi;
  Epoch epoch = 0;

  size_t ByteSize() const override { return QuasiTxnWireSize(*quasi); }
};

/// §4.1 remote read-lock protocol.
struct ReadLockRequest : CorePayload<MessageKind::kReadLockRequest> {
  const char* TypeName() const override { return "lock-request"; }
  TxnId txn = kInvalidTxn;
  FragmentId fragment = kInvalidFragment;
  NodeId requester = kInvalidNode;
};
struct ReadLockGrant : CorePayload<MessageKind::kReadLockGrant> {
  const char* TypeName() const override { return "lock-grant"; }
  TxnId txn = kInvalidTxn;
  FragmentId fragment = kInvalidFragment;
};
struct ReadLockRelease : CorePayload<MessageKind::kReadLockRelease> {
  const char* TypeName() const override { return "lock-release"; }
  TxnId txn = kInvalidTxn;
  FragmentId fragment = kInvalidFragment;
};

/// §4.4.1 majority-commit protocol: prepare / ack / commit.
struct QuasiPrepare : CorePayload<MessageKind::kQuasiPrepare> {
  const char* TypeName() const override { return "prepare"; }
  QuasiRef quasi;
  Epoch epoch = 0;
  size_t ByteSize() const override { return QuasiTxnWireSize(*quasi); }
};
struct QuasiAck : CorePayload<MessageKind::kQuasiAck> {
  const char* TypeName() const override { return "ack"; }
  TxnId txn = kInvalidTxn;  // the prepared transaction being acknowledged
  FragmentId fragment = kInvalidFragment;
  SeqNum seq = 0;
  NodeId acker = kInvalidNode;
};
struct QuasiCommit : CorePayload<MessageKind::kQuasiCommit> {
  const char* TypeName() const override { return "commit"; }
  FragmentId fragment = kInvalidFragment;
  SeqNum seq = 0;
};

/// §4.4.1 move catch-up: the new home asks everyone how far the fragment's
/// stream goes and fetches what it misses.
struct SeqQuery : CorePayload<MessageKind::kSeqQuery> {
  const char* TypeName() const override { return "seq-query"; }
  FragmentId fragment = kInvalidFragment;
  NodeId requester = kInvalidNode;
  int64_t move_id = 0;
};
struct SeqReply : CorePayload<MessageKind::kSeqReply> {
  const char* TypeName() const override { return "seq-reply"; }
  FragmentId fragment = kInvalidFragment;
  SeqNum applied_seq = 0;
  NodeId replier = kInvalidNode;
  int64_t move_id = 0;
};
struct FetchMissing : CorePayload<MessageKind::kFetchMissing> {
  const char* TypeName() const override { return "fetch-missing"; }
  FragmentId fragment = kInvalidFragment;
  SeqNum from_seq = 0;  // exclusive
  SeqNum to_seq = 0;    // inclusive
  NodeId requester = kInvalidNode;
  int64_t move_id = 0;
};
struct MissingData : CorePayload<MessageKind::kMissingData> {
  const char* TypeName() const override { return "missing-data"; }
  FragmentId fragment = kInvalidFragment;
  std::vector<QuasiRef> quasis;
  int64_t move_id = 0;
  size_t ByteSize() const override {
    size_t n = 32;
    for (const auto& q : quasis) n += QuasiTxnWireSize(*q);
    return n;
  }
};

/// §4.4.3 move announcement: "M0 = (T1, ..., Ti)", carrying the prefix of
/// the old stream the new home has, so behind nodes can catch up, plus the
/// new epoch metadata.
struct M0Msg : CorePayload<MessageKind::kM0> {
  const char* TypeName() const override { return "m0"; }
  FragmentId fragment = kInvalidFragment;
  NodeId new_home = kInvalidNode;
  Epoch new_epoch = 0;
  SeqNum base_seq = 0;  // "i": last old-stream txn installed at new home
  std::vector<QuasiRef> old_stream;  // T1..Ti
  size_t ByteSize() const override {
    size_t n = 48;
    for (const auto& q : old_stream) n += QuasiTxnWireSize(*q);
    return n;
  }
};

/// §4.4.3: a third node forwards a missing old-stream transaction to the
/// new home instead of processing it (protocol step B(2)).
struct ForwardMissing : CorePayload<MessageKind::kForwardMissing> {
  const char* TypeName() const override { return "forward-missing"; }
  QuasiRef quasi;
  Epoch old_epoch = 0;
  size_t ByteSize() const override { return QuasiTxnWireSize(*quasi); }
};

/// Quorum reads (ControlOption::kQuorum): the reading node asks each
/// replica of a fragment for its current versions of the objects it wants.
struct QuorumReadRequest : CorePayload<MessageKind::kQuorumReadRequest> {
  const char* TypeName() const override { return "quorum-read"; }
  TxnId txn = kInvalidTxn;
  FragmentId fragment = kInvalidFragment;
  NodeId requester = kInvalidNode;
  std::vector<ObjectId> objects;
  size_t ByteSize() const override { return 24 + objects.size() * 8; }
};

/// One replica's versions: parallel arrays over the requested objects.
struct QuorumReadReply : CorePayload<MessageKind::kQuorumReadReply> {
  const char* TypeName() const override { return "quorum-read-reply"; }
  TxnId txn = kInvalidTxn;
  FragmentId fragment = kInvalidFragment;
  NodeId replier = kInvalidNode;
  std::vector<ObjectId> objects;
  std::vector<Value> values;
  std::vector<SeqNum> seqs;
  std::vector<TxnId> writers;
  size_t ByteSize() const override { return 24 + objects.size() * 32; }
};

/// Quorum writes: a replica acknowledges that it has *installed* (not
/// merely buffered) a quasi-transaction, so the origin can count it
/// toward the write quorum W.
struct QuorumAppliedAck : CorePayload<MessageKind::kQuorumAppliedAck> {
  const char* TypeName() const override { return "quorum-applied-ack"; }
  TxnId txn = kInvalidTxn;
  FragmentId fragment = kInvalidFragment;
  SeqNum seq = 0;
  NodeId acker = kInvalidNode;
};

/// Paxos Commit (MoveProtocol::kPaxosCommit): the proposer (ballot 0 =
/// the coordinating home; higher ballots = recovery rounds) asks the
/// fragment's replica set to accept the quasi-transaction at its slot.
struct PaxosAccept : CorePayload<MessageKind::kPaxosAccept> {
  const char* TypeName() const override { return "paxos-accept"; }
  uint64_t ballot = 0;
  QuasiRef quasi;
  Epoch epoch = 0;
  NodeId proposer = kInvalidNode;
  size_t ByteSize() const override { return 16 + QuasiTxnWireSize(*quasi); }
};

struct PaxosAccepted : CorePayload<MessageKind::kPaxosAccepted> {
  const char* TypeName() const override { return "paxos-accepted"; }
  FragmentId fragment = kInvalidFragment;
  SeqNum seq = 0;
  uint64_t ballot = 0;
  NodeId acceptor = kInvalidNode;
};

/// The learned outcome, broadcast by whichever proposer first assembled an
/// F+1 majority (and unicast to late proposers by already-decided
/// acceptors).
struct PaxosOutcome : CorePayload<MessageKind::kPaxosOutcome> {
  const char* TypeName() const override { return "paxos-outcome"; }
  FragmentId fragment = kInvalidFragment;
  SeqNum seq = 0;
  bool commit = true;
};

/// Crash-recovery peer catch-up (recovery subsystem): where the recovering
/// node stands on one fragment after replaying its local WAL.
struct RecoveryPosition {
  FragmentId fragment = kInvalidFragment;
  Epoch epoch = 0;
  SeqNum applied_seq = 0;
};

/// The recovering node asks every live peer for the stream suffix its
/// durable state misses.
struct RecoveryQuery : CorePayload<MessageKind::kRecoveryQuery> {
  const char* TypeName() const override { return "recovery-query"; }
  NodeId requester = kInvalidNode;
  int64_t recovery_id = 0;
  std::vector<RecoveryPosition> have;
  size_t ByteSize() const override { return 24 + have.size() * 16; }
};

/// One fragment's stream state at the replying peer, with the log entries
/// past the requester's position.
struct RecoveryFragmentState {
  FragmentId fragment = kInvalidFragment;
  Epoch epoch = 0;
  SeqNum epoch_base = 0;
  SeqNum applied_seq = 0;
  std::vector<QuasiRef> quasis;
};

struct RecoveryReply : CorePayload<MessageKind::kRecoveryReply> {
  const char* TypeName() const override { return "recovery-reply"; }
  NodeId replier = kInvalidNode;
  int64_t recovery_id = 0;
  std::vector<RecoveryFragmentState> fragments;
  size_t ByteSize() const override {
    size_t n = 24;
    for (const auto& f : fragments) {
      n += 28;
      for (const auto& q : f.quasis) n += QuasiTxnWireSize(*q);
    }
    return n;
  }
};

}  // namespace fragdb

#endif  // FRAGDB_CORE_MESSAGES_H_
