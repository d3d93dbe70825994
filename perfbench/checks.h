#ifndef FRAGDB_PERFBENCH_CHECKS_H_
#define FRAGDB_PERFBENCH_CHECKS_H_

// Correctness checks the benchmark computes itself from what a finished
// cell exposes publicly, independent of the cell's own checkers
// (ScenarioCellReport::ok). Gathering (CollectFacts) is kept apart from
// judging (IndependentFailures) so a test can hand the judge a
// deliberately wrong fact and see each check fail.

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/cluster.h"
#include "scenario/runner.h"

namespace perfbench {

/// Which of the workload-specific identities a cell promises.
struct CellPromises {
  /// §4.3 propagation under full replication with no loss and no crash:
  /// one quasi-transaction per other replica, one install per replica.
  bool full_propagation = false;
  /// §4.3 fixed agents never block an update on a partition: every
  /// submitted update commits.
  bool updates_never_block = false;
};

/// What the checks judge, gathered from a cell after quiescence.
struct CellFacts {
  int nodes = 0;
  uint64_t submitted = 0;
  uint64_t committed = 0;
  uint64_t declined = 0;
  uint64_t unavailable = 0;
  uint64_t rejected = 0;
  uint64_t other_failed = 0;
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t messages_dropped = 0;
  /// Messages still waiting for a route when the run ended.
  uint64_t messages_pending = 0;
  /// Deliveries the FIFO observer saw.
  uint64_t fifo_observed = 0;
  uint64_t installs = 0;
  /// replica_values[o] holds Cluster::ReadAt of object o at every node of
  /// its fragment's replica set, in node order.
  std::vector<std::vector<fragdb::Value>> replica_values;
};

CellFacts CollectFacts(fragdb::Cluster& cluster,
                       const fragdb::ScenarioCellReport& report);

/// One line per failed check; empty when every check holds.
std::vector<std::string> IndependentFailures(const CellFacts& facts,
                                             const CellPromises& promises);

}  // namespace perfbench

#endif  // FRAGDB_PERFBENCH_CHECKS_H_
