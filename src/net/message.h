#ifndef FRAGDB_NET_MESSAGE_H_
#define FRAGDB_NET_MESSAGE_H_

#include <cstddef>
#include <memory>

#include "common/types.h"

namespace fragdb {

/// Base class for everything sent through the simulated network. Each
/// protocol defines its own payload structs; receivers dispatch with a
/// dynamic_cast chain (NodeRuntime::HandleMessage). That chain is not
/// free: on the 32-node Paxos/quorum benchmark workload (`consensus`),
/// __dynamic_cast, __do_dyncast and strcmp take about 15% of sampled CPU,
/// since late entries in the chain pay up to 21 RTTI probes. ROADMAP's
/// "one dispatcher" item replaces the chain with a type tag and a switch.
struct MessagePayload {
  virtual ~MessagePayload() = default;

  /// Approximate wire size in bytes, for overhead accounting in the
  /// experiments. Payloads carrying variable data override this.
  virtual size_t ByteSize() const { return 64; }

  /// Short stable type tag for per-type traffic metrics
  /// (messages_sent_total{label=<type>}). Protocol payloads override this.
  virtual const char* TypeName() const { return "other"; }
};

/// A message in flight (or queued while its destination is unreachable).
struct Message {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  SimTime sent_at = 0;
  std::shared_ptr<const MessagePayload> payload;
};

}  // namespace fragdb

#endif  // FRAGDB_NET_MESSAGE_H_
