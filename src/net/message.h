#ifndef FRAGDB_NET_MESSAGE_H_
#define FRAGDB_NET_MESSAGE_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/types.h"

namespace fragdb {

/// Dispatch tag of a payload. The enumerators belong to the protocol that
/// dispatches on them (core/messages.h); every other payload reports the
/// zero value, MessageKind::kOther.
enum class MessageKind : uint8_t;

/// Base class for everything sent through the simulated network. Each
/// protocol defines its own payload structs; NodeRuntime::HandleMessage
/// routes core payloads with one `switch` on Kind() rather than a
/// dynamic_cast per payload type, whose RTTI probes took about 19% of
/// sampled CPU on the 32-node Paxos/quorum workload (`consensus`).
struct MessagePayload {
  virtual ~MessagePayload() = default;

  /// Routing tag; core protocol payloads override this (CorePayload).
  virtual MessageKind Kind() const { return MessageKind{}; }

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
