// Deep coverage of the §4.4.3 omit-preparatory-actions machinery: epoch
// transitions, M0 catch-up content, repackaging rules, forwarding chains
// across repeated moves, and corrective actions.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/strings.h"
#include "core/cluster.h"
#include "verify/checkers.h"

namespace fragdb {
namespace {

struct OmitPrepFixture : ::testing::Test {
  void Build(int nodes = 4) {
    ClusterConfig config;
    config.control = ControlOption::kFragmentwise;
    config.move_protocol = MoveProtocol::kOmitPrep;
    config.agent_travel_time = Millis(10);
    cluster = std::make_unique<Cluster>(
        config, Topology::FullMesh(nodes, Millis(5)));
    frag = cluster->DefineFragment("F");
    for (int i = 0; i < 3; ++i) {
      objs.push_back(*cluster->DefineObject(frag, Numbered("o", i), 0));
    }
    agent = cluster->DefineUserAgent("mover");
    ASSERT_TRUE(cluster->AssignToken(frag, agent).ok());
    ASSERT_TRUE(cluster->SetAgentHome(agent, 0).ok());
    ASSERT_TRUE(cluster->Start().ok());
  }

  void Update(int idx, Value v, TxnResult* out = nullptr) {
    TxnSpec spec;
    spec.agent = agent;
    spec.write_fragment = frag;
    ObjectId obj = objs[idx];
    spec.body = [obj, v](const std::vector<Value>&)
        -> Result<std::vector<WriteOp>> {
      return std::vector<WriteOp>{{obj, v}};
    };
    cluster->Submit(spec, [out](const TxnResult& r) {
      if (out) *out = r;
    });
  }

  std::unique_ptr<Cluster> cluster;
  FragmentId frag;
  std::vector<ObjectId> objs;
  AgentId agent;
};

TEST_F(OmitPrepFixture, EpochBumpsOnEveryMove) {
  Build();
  EXPECT_EQ(cluster->runtime(0).stream(frag).epoch, 0);
  ASSERT_TRUE(cluster->MoveAgent(agent, 1, nullptr).ok());
  cluster->RunToQuiescence();
  EXPECT_EQ(cluster->runtime(1).stream(frag).epoch, 1);
  ASSERT_TRUE(cluster->MoveAgent(agent, 2, nullptr).ok());
  cluster->RunToQuiescence();
  EXPECT_EQ(cluster->runtime(2).stream(frag).epoch, 2);
  // Every replica converged on the final epoch.
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(cluster->runtime(n).stream(frag).epoch, 2) << "node " << n;
  }
}

TEST_F(OmitPrepFixture, M0ContentCatchesUpLaggingReplica) {
  Build();
  // Node 3 misses two committed updates (partitioned), but node 1 has
  // them. The agent moves to node 1; its M0 carries the old stream, so
  // node 3 catches up from M0 content alone even before the original
  // broadcasts arrive.
  ASSERT_TRUE(cluster->Partition({{0, 1, 2}, {3}}).ok());
  Update(0, 10);
  Update(1, 20);
  cluster->RunFor(Millis(20));
  EXPECT_EQ(cluster->ReadAt(3, objs[0]), 0);
  // Move to node 1 (same side); then connect ONLY node 1 and node 3.
  ASSERT_TRUE(cluster->MoveAgent(agent, 1, nullptr).ok());
  cluster->RunFor(Millis(30));
  ASSERT_TRUE(cluster->Partition({{1, 3}, {0, 2}}).ok());
  cluster->RunFor(Millis(50));
  // M0 flowed 1 -> 3 and carried T1, T2.
  EXPECT_EQ(cluster->ReadAt(3, objs[0]), 10);
  EXPECT_EQ(cluster->ReadAt(3, objs[1]), 20);
  cluster->HealAll();
  cluster->RunToQuiescence();
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
}

TEST_F(OmitPrepFixture, ForwardChainsAcrossTwoMoves) {
  Build();
  // T1 commits at node 0 while isolated; the agent then moves twice
  // (0 -> 1 -> 2) before the partition heals. The straggler must chase
  // the agent through forwards and still be repackaged exactly once.
  ASSERT_TRUE(cluster->Partition({{0}, {1, 2, 3}}).ok());
  TxnResult t1;
  Update(0, 111, &t1);
  cluster->RunFor(Millis(10));
  ASSERT_TRUE(t1.status.ok());
  ASSERT_TRUE(cluster->MoveAgent(agent, 1, nullptr).ok());
  cluster->RunFor(Millis(30));
  ASSERT_TRUE(cluster->MoveAgent(agent, 2, nullptr).ok());
  cluster->RunFor(Millis(30));
  EXPECT_EQ(*cluster->catalog().HomeOf(agent), 2);
  EXPECT_EQ(cluster->runtime(2).stream(frag).epoch, 2);
  cluster->HealAll();
  cluster->RunToQuiescence();
  // The missing write survives (never overwritten in the new epochs).
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, objs[0]), 111) << "node " << n;
  }
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
}

TEST_F(OmitPrepFixture, RepackagingDedupsAcrossDuplicateForwards) {
  Build();
  // The straggler reaches the new home both directly (origin's own
  // broadcast) and via forwards from third nodes; it must be repackaged
  // once. Detect double-repackaging through the update count: objs[0]
  // written twice would consume two sequence numbers.
  ASSERT_TRUE(cluster->Partition({{0}, {1, 2, 3}}).ok());
  Update(0, 5);
  cluster->RunFor(Millis(10));
  ASSERT_TRUE(cluster->MoveAgent(agent, 2, nullptr).ok());
  cluster->RunFor(Millis(30));
  SeqNum before = cluster->runtime(2).stream(frag).next_seq;
  cluster->HealAll();
  cluster->RunToQuiescence();
  SeqNum after = cluster->runtime(2).stream(frag).next_seq;
  EXPECT_EQ(after, before + 1);  // exactly one repackaged transaction
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
}

TEST_F(OmitPrepFixture, PartiallyOverwrittenMissingTxnSplits) {
  Build();
  // The missing transaction wrote objs[0] AND objs[1]; the new epoch
  // overwrote only objs[1]. Repackaging must keep the objs[0] write and
  // drop the objs[1] write (§4.4.3 A(2)).
  ASSERT_TRUE(cluster->Partition({{0}, {1, 2, 3}}).ok());
  {
    TxnSpec spec;
    spec.agent = agent;
    spec.write_fragment = frag;
    ObjectId o0 = objs[0], o1 = objs[1];
    spec.body = [o0, o1](const std::vector<Value>&)
        -> Result<std::vector<WriteOp>> {
      return std::vector<WriteOp>{{o0, 100}, {o1, 100}};
    };
    cluster->Submit(spec, nullptr);
  }
  cluster->RunFor(Millis(10));
  ASSERT_TRUE(cluster->MoveAgent(agent, 2, nullptr).ok());
  cluster->RunFor(Millis(30));
  Update(1, 999);  // new epoch overwrites objs[1]
  cluster->RunFor(Millis(30));
  cluster->HealAll();
  cluster->RunToQuiescence();
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, objs[0]), 100) << "node " << n;  // kept
    EXPECT_EQ(cluster->ReadAt(n, objs[1]), 999) << "node " << n;  // dropped
  }
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
  // Fragmentwise serializability is genuinely gone: readers can observe
  // the split transaction's partial effect — the §4.4.3 price.
}

TEST_F(OmitPrepFixture, CorrectiveActionSeesDroppedWrites) {
  Build();
  // Register a corrective action that tallies compensation for dropped
  // writes into objs[2].
  ObjectId tally = objs[2];
  cluster->SetCorrectiveAction(
      frag, [tally](const QuasiTxn& missing,
                    const std::vector<WriteOp>& applied,
                    const ObjectStore& store) -> std::vector<WriteOp> {
        Value dropped = 0;
        for (const WriteOp& w : missing.writes) {
          bool was_applied = false;
          for (const WriteOp& a : applied) {
            if (a.object == w.object) was_applied = true;
          }
          if (!was_applied && w.object != tally) dropped += 1;
        }
        if (dropped == 0) return {};
        return {{tally, store.Read(tally) + dropped}};
      });
  ASSERT_TRUE(cluster->Partition({{0}, {1, 2, 3}}).ok());
  Update(0, 7);   // this write will be overwritten -> dropped -> tallied
  cluster->RunFor(Millis(10));
  ASSERT_TRUE(cluster->MoveAgent(agent, 2, nullptr).ok());
  cluster->RunFor(Millis(30));
  Update(0, 8);
  cluster->RunFor(Millis(30));
  cluster->HealAll();
  cluster->RunToQuiescence();
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, objs[0]), 8) << "node " << n;
    EXPECT_EQ(cluster->ReadAt(n, tally), 1) << "node " << n;  // one dropped
  }
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
}

TEST_F(OmitPrepFixture, ReplicaAheadOfNewHomeConverges) {
  Build();
  // Node 3 receives T1 and T2 from node 0 (they share a side), but the
  // new home (node 2, other side) never saw them. After the move, node
  // 3's extra installs leave the official lineage; the repackaged stream
  // overwrites and everyone converges.
  ASSERT_TRUE(cluster->Partition({{0, 3}, {1, 2}}).ok());
  Update(0, 11);
  Update(1, 22);
  cluster->RunFor(Millis(20));
  EXPECT_EQ(cluster->ReadAt(3, objs[0]), 11);  // node 3 is ahead
  EXPECT_EQ(cluster->ReadAt(2, objs[0]), 0);   // node 2 is not
  ASSERT_TRUE(cluster->MoveAgent(agent, 2, nullptr).ok());
  cluster->RunFor(Millis(30));
  Update(0, 33);  // new epoch writes objs[0]
  cluster->RunFor(Millis(30));
  cluster->HealAll();
  cluster->RunToQuiescence();
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, objs[0]), 33) << "node " << n;
    EXPECT_EQ(cluster->ReadAt(n, objs[1]), 22) << "node " << n;  // repackaged
  }
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
}

TEST_F(OmitPrepFixture, AvailabilityNeverDropsDuringMoves) {
  Build();
  // Updates submitted around the move: only the in-transit window (10ms)
  // rejects; everything before/after is served.
  int served = 0, unavailable = 0;
  auto count = [&](const TxnResult& r) {
    if (r.status.ok()) {
      ++served;
    } else if (r.status.IsUnavailable()) {
      ++unavailable;
    }
  };
  TxnSpec spec;
  spec.agent = agent;
  spec.write_fragment = frag;
  ObjectId obj = objs[0];
  spec.body = [obj](const std::vector<Value>&)
      -> Result<std::vector<WriteOp>> {
    return std::vector<WriteOp>{{obj, 1}};
  };
  cluster->Submit(spec, count);
  cluster->RunToQuiescence();
  ASSERT_TRUE(cluster->MoveAgent(agent, 3, nullptr).ok());
  cluster->Submit(spec, count);  // during travel: rejected
  cluster->RunToQuiescence();
  cluster->Submit(spec, count);  // after arrival: served at node 3
  cluster->RunToQuiescence();
  EXPECT_EQ(served, 2);
  EXPECT_EQ(unavailable, 1);
}

}  // namespace
}  // namespace fragdb
