#include "checks.h"

namespace perfbench {

using fragdb::Catalog;
using fragdb::NodeId;
using fragdb::ObjectId;
using fragdb::Value;

CellFacts CollectFacts(fragdb::Cluster& cluster,
                       const fragdb::ScenarioCellReport& report) {
  CellFacts f;
  f.nodes = cluster.node_count();
  const fragdb::WorkloadMetrics& m = report.metrics;
  f.submitted = m.submitted;
  f.committed = m.committed;
  f.declined = m.declined;
  f.unavailable = m.unavailable;
  f.rejected = m.rejected;
  f.other_failed = m.other_failed;
  const fragdb::NetworkStats net = cluster.net_stats();
  f.messages_sent = net.messages_sent;
  f.messages_delivered = net.messages_delivered;
  f.messages_dropped = net.messages_dropped;
  f.messages_pending = cluster.network().pending_count();
  f.fifo_observed = report.fifo_deliveries;
  f.installs = cluster.history().installs().size();

  const Catalog& catalog = cluster.catalog();
  f.replica_values.resize(static_cast<size_t>(catalog.object_count()));
  for (ObjectId o = 0; o < catalog.object_count(); ++o) {
    const std::vector<NodeId>& set =
        catalog.ReplicaSet(catalog.FragmentOf(o));
    std::vector<Value>& values = f.replica_values[o];
    if (set.empty()) {  // empty replica set = replicated everywhere
      for (NodeId n = 0; n < f.nodes; ++n) {
        values.push_back(cluster.ReadAt(n, o));
      }
    } else {
      for (NodeId n : set) values.push_back(cluster.ReadAt(n, o));
    }
  }
  return f;
}

std::vector<std::string> IndependentFailures(const CellFacts& f,
                                             const CellPromises& promises) {
  std::vector<std::string> out;
  auto fail = [&out](std::string what) { out.push_back(std::move(what)); };
  const std::string n = std::to_string(f.nodes);

  for (size_t o = 0; o < f.replica_values.size(); ++o) {
    const std::vector<Value>& v = f.replica_values[o];
    for (size_t r = 1; r < v.size(); ++r) {
      if (v[r] != v[0]) {
        fail("mutual consistency: object " + std::to_string(o) +
             " reads " + std::to_string(v[0]) + " at its first replica but " +
             std::to_string(v[r]) + " at replica " + std::to_string(r));
        break;
      }
    }
    if (!out.empty()) break;  // one witness is enough
  }

  if (f.messages_delivered + f.messages_dropped != f.messages_sent) {
    fail("conservation: delivered " + std::to_string(f.messages_delivered) +
         " + dropped " + std::to_string(f.messages_dropped) + " != sent " +
         std::to_string(f.messages_sent));
  }
  if (f.messages_pending != 0) {
    fail("conservation: " + std::to_string(f.messages_pending) +
         " messages still queued at quiescence");
  }
  if (f.fifo_observed != f.messages_delivered) {
    fail("conservation: FIFO observer saw " +
         std::to_string(f.fifo_observed) + " deliveries, network counted " +
         std::to_string(f.messages_delivered));
  }

  if (f.committed + f.declined + f.unavailable != f.submitted ||
      f.rejected != 0 || f.other_failed != 0) {
    fail("outcomes: committed " + std::to_string(f.committed) +
         " + declined " + std::to_string(f.declined) + " + unavailable " +
         std::to_string(f.unavailable) + " != submitted " +
         std::to_string(f.submitted) + " (rejected " +
         std::to_string(f.rejected) + ", other " +
         std::to_string(f.other_failed) + ")");
  }

  if (promises.full_propagation) {
    const uint64_t nodes = static_cast<uint64_t>(f.nodes);
    if (f.messages_sent != f.committed * (nodes - 1)) {
      fail("propagation: sent " + std::to_string(f.messages_sent) +
           " messages for " + std::to_string(f.committed) + " commits on " +
           n + " nodes, expected committed x (nodes - 1)");
    }
    if (f.installs != f.committed * nodes) {
      fail("propagation: " + std::to_string(f.installs) + " installs for " +
           std::to_string(f.committed) + " commits on " + n +
           " nodes, expected committed x nodes");
    }
  }

  if (promises.updates_never_block && f.committed != f.submitted) {
    fail("non-blocking: " + std::to_string(f.submitted - f.committed) +
         " of " + std::to_string(f.submitted) +
         " fragmentwise updates did not commit under a partition");
  }
  return out;
}

}  // namespace perfbench
