// One commit, one quasi-transaction object. The home creates it when the
// update commits; the broadcast payload, every replica's holdback and
// stream log, the install continuation and every InstallRecord of the
// verification history share it. These tests pin that sharing by pointer
// identity after a fragmentwise run with partitions, on the serial engine
// and on the parallel one.

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "core/cluster.h"
#include "core/node.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace fragdb {
namespace {

void ExpectOneObjectPerCommit(EngineKind engine) {
  Result<Scenario> s = ParseScenario(
      "scenario shared_quasi\n"
      "flap at=40ms for=200ms period=60ms down=30ms groups=0,1|rest\n");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  ScenarioRunOptions opt;
  opt.nodes = 6;
  opt.duration = Millis(300);
  opt.seed = 5;
  opt.engine.kind = engine;
  opt.engine.threads = engine == EngineKind::kParallel ? 2 : 1;
  ScenarioRunner runner(*s, opt);
  ASSERT_TRUE(runner.Start().ok());
  ScenarioCellReport report = runner.Run();
  ASSERT_TRUE(report.ok()) << report.failure_detail;
  ASSERT_GT(report.metrics.committed, 0u);

  Cluster& c = runner.cluster();
  std::map<std::pair<FragmentId, SeqNum>, const QuasiTxn*> by_slot;
  std::map<std::pair<FragmentId, SeqNum>, int> replicas_of_slot;
  std::map<TxnId, const QuasiTxn*> by_txn;
  size_t log_entries = 0;
  for (NodeId n = 0; n < c.node_count(); ++n) {
    for (FragmentId f = 0; f < c.catalog().fragment_count(); ++f) {
      for (const auto& [seq, quasi] : c.runtime(n).stream(f).log) {
        ASSERT_NE(quasi, nullptr);
        ++log_entries;
        auto slot = by_slot.emplace(std::make_pair(f, seq), quasi.get());
        EXPECT_EQ(slot.first->second, quasi.get())
            << "N" << n << " F" << f << " seq " << seq
            << " holds its own copy of the quasi-transaction";
        ++replicas_of_slot[{f, seq}];
        by_txn.emplace(quasi->origin_txn, quasi.get());
      }
    }
  }
  // Full replication, no moves: every slot is applied at every node.
  for (const auto& [slot, count] : replicas_of_slot) {
    EXPECT_EQ(count, c.node_count())
        << "F" << slot.first << " seq " << slot.second;
  }
  EXPECT_EQ(by_slot.size(), report.metrics.committed);

  // Every install (home and replica) records the logged object itself.
  const std::vector<InstallRecord>& installs = c.history().installs();
  EXPECT_EQ(installs.size(), log_entries);
  for (const InstallRecord& rec : installs) {
    auto it = by_txn.find(rec.writer);
    ASSERT_NE(it, by_txn.end()) << "T" << rec.writer;
    EXPECT_EQ(rec.quasi.get(), it->second)
        << "T" << rec.writer << " at N" << rec.node;
    EXPECT_EQ(&rec.writes(), &it->second->writes);
  }
}

TEST(SharedQuasiTest, OneObjectPerCommitOnSerialEngine) {
  ExpectOneObjectPerCommit(EngineKind::kSerial);
}

TEST(SharedQuasiTest, OneObjectPerCommitOnParallelEngine) {
  ExpectOneObjectPerCommit(EngineKind::kParallel);
}

}  // namespace
}  // namespace fragdb
