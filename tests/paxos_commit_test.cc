// MoveProtocol::kPaxosCommit: every commit is decided by an acceptor
// majority (Gray & Lamport's Paxos Commit), so a coordinator crash between
// prepare and decision never strands a replica — the recovery rounds finish
// the commit that 2PC/kMajorityCommit would leave blocked.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/messages.h"
#include "recovery/wal.h"
#include "scenario/library.h"
#include "scenario/runner.h"
#include "sim/engine.h"
#include "verify/checkers.h"

namespace fragdb {
namespace {

EngineConfig Pdes(int threads) {
  EngineConfig e;
  e.kind = EngineKind::kParallel;
  e.threads = threads;
  return e;
}

QuasiTxn MakeQuasi(SeqNum seq, std::vector<WriteOp> writes) {
  QuasiTxn q;
  q.fragment = 3;
  q.origin_txn = 40 + seq;
  q.seq = seq;
  q.origin_node = 1;
  q.origin_time = Millis(seq);
  q.writes = std::move(writes);
  return q;
}

TEST(PaxosWalTest, PaxosSlotRecordRoundTrips) {
  // The coordinator's BeginCommit record: carries the full value, so a
  // revived home can drive the decision even when the crash beat the
  // accept broadcast.
  WalRecord slot;
  slot.type = WalRecord::Type::kPaxosSlot;
  slot.fragment = 3;
  slot.epoch = 2;
  slot.quasi = MakeQuasi(7, {{100, 41}, {101, 42}});
  WalRecord quasi;
  quasi.type = WalRecord::Type::kQuasi;
  quasi.fragment = 3;
  quasi.epoch = 2;
  quasi.quasi = MakeQuasi(7, {{100, 41}, {101, 42}});
  std::string bytes = EncodeWalRecord(slot) + EncodeWalRecord(quasi);
  WalScan scan = ScanWal(bytes);
  EXPECT_FALSE(scan.torn);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0].type, WalRecord::Type::kPaxosSlot);
  EXPECT_EQ(scan.records[1].type, WalRecord::Type::kQuasi);
  for (const WalRecord& r : scan.records) {
    EXPECT_EQ(r.fragment, 3);
    EXPECT_EQ(r.epoch, 2);
    EXPECT_EQ(r.quasi.seq, 7);
    EXPECT_EQ(r.quasi.origin_txn, 47);
    ASSERT_EQ(r.quasi.writes.size(), 2u);
    EXPECT_EQ(r.quasi.writes[1].object, 101);
    EXPECT_EQ(r.quasi.writes[1].value, 42);
  }
}

struct PaxosCommitFixture : ::testing::Test {
  void Build(MoveProtocol protocol, bool durable = false,
             EngineConfig engine = EngineConfig{},
             SimTime gap_repair_interval = 0) {
    ClusterConfig config;
    config.control = ControlOption::kFragmentwise;
    config.move_protocol = protocol;
    config.durability.enabled = durable;
    config.engine = engine;
    config.gap_repair_interval = gap_repair_interval;
    cluster =
        std::make_unique<Cluster>(config, Topology::FullMesh(5, Millis(5)));
    frag = cluster->DefineFragment("F");
    x = *cluster->DefineObject(frag, "x", 0);
    agent = cluster->DefineUserAgent("owner");
    ASSERT_TRUE(cluster->AssignToken(frag, agent).ok());
    ASSERT_TRUE(cluster->SetAgentHome(agent, 0).ok());
    ASSERT_TRUE(cluster->Start().ok());
  }
  void Update(Value v, TxnResult* out = nullptr) {
    TxnSpec spec;
    spec.agent = agent;
    spec.write_fragment = frag;
    ObjectId obj = x;
    spec.read_set = {obj};
    spec.body = [obj, v](const std::vector<Value>& reads)
        -> Result<std::vector<WriteOp>> {
      return std::vector<WriteOp>{{obj, reads[0] + v}};
    };
    cluster->Submit(spec, [out](const TxnResult& r) {
      if (out) *out = r;
    });
  }
  // Sends a Paxos message as if `from` had sent it.
  void Inject(NodeId from, NodeId to,
              std::shared_ptr<const MessagePayload> payload) {
    ASSERT_TRUE(cluster->network().Send(from, to, std::move(payload)).ok());
  }
  // A recovery-round re-proposal, by `proposer`, of the first slot the
  // home proposed since WatchReplies().
  std::shared_ptr<PaxosAccept> RecoveryAccept(NodeId proposer) {
    EXPECT_NE(first_accept, nullptr);
    auto accept = std::make_shared<PaxosAccept>(*first_accept);
    accept->ballot = 7;
    accept->proposer = proposer;
    return accept;
  }
  // Records the first accept and the Paxos replies each node receives.
  void WatchReplies() {
    outcomes.clear();
    accepteds.clear();
    cluster->network().SetDeliveryObserver([this](const Message& m) {
      if (m.payload->Kind() == MessageKind::kPaxosAccept && !first_accept) {
        first_accept = std::static_pointer_cast<const PaxosAccept>(m.payload);
      } else if (m.payload->Kind() == MessageKind::kPaxosOutcome) {
        outcomes.push_back(m.to);
      } else if (m.payload->Kind() == MessageKind::kPaxosAccepted) {
        accepteds.push_back(m.to);
      }
    });
  }
  size_t MaxLiveSlots() const {
    size_t most = 0;
    for (NodeId n = 0; n < 5; ++n) {
      most = std::max(most, cluster->PaxosLiveSlots(n));
    }
    return most;
  }
  std::unique_ptr<Cluster> cluster;
  std::vector<NodeId> outcomes;
  std::vector<NodeId> accepteds;
  std::shared_ptr<const PaxosAccept> first_accept;
  FragmentId frag;
  ObjectId x;
  AgentId agent;
};

TEST_F(PaxosCommitFixture, AgentMovesAreRejected) {
  Build(MoveProtocol::kPaxosCommit);
  Status st = cluster->MoveAgent(agent, 3, [](Status) {});
  EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
  EXPECT_NE(st.ToString().find("do not move agents"), std::string::npos)
      << st.ToString();
}

TEST_F(PaxosCommitFixture, CommitsWithAcceptorMajority) {
  Build(MoveProtocol::kPaxosCommit);
  // The home's side holds 3 of 5 nodes: enough acceptors.
  ASSERT_TRUE(cluster->Partition({{0, 1, 2}, {3, 4}}).ok());
  TxnResult out;
  Update(7, &out);
  cluster->RunToQuiescence();
  EXPECT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_EQ(cluster->ReadAt(1, x), 7);
  cluster->HealAll();
  cluster->RunToQuiescence();
  EXPECT_EQ(cluster->ReadAt(4, x), 7);
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
  EXPECT_TRUE(CheckCommitAtomicity(cluster->history()).ok);
  EXPECT_TRUE(cluster->CheckCommitNonBlocking().ok);
}

TEST_F(PaxosCommitFixture, MinoritySideTimesOutButCommitIsNeverAbandoned) {
  Build(MoveProtocol::kPaxosCommit);
  // Home side has 2 of 5: no majority, so the *client* times out — but the
  // value stays with the acceptors and the recovery rounds finish the
  // commit once connectivity returns.
  ASSERT_TRUE(cluster->Partition({{0, 1}, {2, 3, 4}}).ok());
  TxnResult out;
  Update(7, &out);
  cluster->RunToQuiescence();
  EXPECT_TRUE(out.status.IsUnavailable()) << out.status.ToString();
  EXPECT_NE(out.status.ToString().find("pending recovery"), std::string::npos);
  cluster->HealAll();
  cluster->RunToQuiescence();
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 7) << "node " << n;
  }
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
  EXPECT_TRUE(CheckCommitAtomicity(cluster->history()).ok);
  EXPECT_TRUE(cluster->CheckCommitNonBlocking().ok);
}

TEST_F(PaxosCommitFixture, CoordinatorCrashMidCommitDoesNotBlock) {
  Build(MoveProtocol::kPaxosCommit);
  Update(7);
  // One-way latency is 5ms: at t=7ms the accepts have landed at every
  // acceptor but the accepted-replies have not reached the home. Killing
  // the coordinator here is 2PC's classic blocking window.
  cluster->RunFor(Millis(7));
  ASSERT_TRUE(cluster->SetNodeUp(0, false).ok());
  cluster->RunToQuiescence();
  // The surviving acceptors' recovery rounds decide commit on their own.
  for (NodeId n = 1; n < 5; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 7) << "node " << n;
  }
  EXPECT_TRUE(cluster->CheckCommitNonBlocking().ok)
      << cluster->CheckCommitNonBlocking().detail;
  EXPECT_TRUE(CheckCommitAtomicity(cluster->history()).ok);
}

TEST_F(PaxosCommitFixture, SameCrashBlocksMajorityCommit) {
  // Control experiment for the test above: identical crash under
  // kMajorityCommit leaves replicas holding a prepared update whose
  // outcome only the dead coordinator knew.
  Build(MoveProtocol::kMajorityCommit);
  Update(7);
  cluster->RunFor(Millis(7));
  ASSERT_TRUE(cluster->SetNodeUp(0, false).ok());
  cluster->RunToQuiescence();
  CheckReport blocked = cluster->CheckCommitNonBlocking();
  EXPECT_FALSE(blocked.ok);
  EXPECT_NE(blocked.detail.find("prepared"), std::string::npos)
      << blocked.detail;
}

TEST_F(PaxosCommitFixture, CoordinatorAmnesiaCrashConvergesAfterRevival) {
  Build(MoveProtocol::kPaxosCommit, /*durable=*/true);
  TxnResult out;
  Update(7, &out);
  // With durability on, the accept broadcast waits out the 500us fsync
  // window; accepts land at ~5.5ms. Crash at 7ms wipes the home's memory.
  cluster->RunFor(Millis(7));
  ASSERT_TRUE(cluster->CrashNode(0, CrashMode::kAmnesia).ok());
  cluster->RunFor(Millis(200));  // acceptors decide via recovery rounds
  for (NodeId n = 1; n < 5; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 7) << "node " << n;
  }
  bool recovered = false;
  ASSERT_TRUE(
      cluster->ReviveNode(0, [&](const RecoveryStats&) { recovered = true; })
          .ok());
  cluster->RunToQuiescence();
  EXPECT_TRUE(recovered);
  EXPECT_EQ(cluster->ReadAt(0, x), 7);
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
  EXPECT_TRUE(cluster->CheckCommitNonBlocking().ok);
}

TEST_F(PaxosCommitFixture, AmnesiaInsideFsyncWindowForgetsCleanly) {
  Build(MoveProtocol::kPaxosCommit, /*durable=*/true);
  TxnResult out;
  Update(7, &out);
  // Crash before the 500us fsync: the staged BeginCommit record is lost,
  // and — critically — the accept broadcast was deferred past the fsync
  // window, so no acceptor ever saw the slot. The sequence number is
  // genuinely free for reuse; nothing can resurface.
  cluster->RunFor(Micros(200));
  ASSERT_TRUE(cluster->CrashNode(0, CrashMode::kAmnesia).ok());
  ASSERT_TRUE(cluster->ReviveNode(0).ok());
  cluster->RunToQuiescence();
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 0) << "node " << n;
  }
  // The slot's seq is reused by fresh work without divergence.
  TxnResult again;
  Update(3, &again);
  cluster->RunToQuiescence();
  ASSERT_TRUE(again.status.ok()) << again.status.ToString();
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 3) << "node " << n;
  }
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
  EXPECT_TRUE(cluster->CheckCommitNonBlocking().ok);
  EXPECT_TRUE(CheckCommitAtomicity(cluster->history()).ok);
}

TEST_F(PaxosCommitFixture, InDoubtSlotBlocksNewWorkUntilDecided) {
  Build(MoveProtocol::kPaxosCommit, /*durable=*/true);
  Update(7);
  cluster->RunFor(Millis(7));  // accepts delivered, outcome undecided
  ASSERT_TRUE(cluster->CrashNode(0, CrashMode::kAmnesia).ok());
  cluster->RunFor(Millis(1));
  ASSERT_TRUE(cluster->ReviveNode(0).ok());
  // Let local replay + peer catch-up finish, but stop short of the 100ms
  // paxos recovery tick: the replayed BeginCommit record marks the slot
  // in doubt, and its locks died with the crash, so new conflicting work
  // must be declined rather than risk reading past the pending write.
  cluster->RunFor(Millis(50));
  TxnResult blocked;
  Update(3, &blocked);
  cluster->RunFor(Millis(1));
  EXPECT_TRUE(blocked.status.IsUnavailable()) << blocked.status.ToString();
  EXPECT_NE(blocked.status.ToString().find("in doubt"), std::string::npos)
      << blocked.status.ToString();
  // Recovery rounds decide the slot; the fragment then accepts new work.
  cluster->RunToQuiescence();
  TxnResult after;
  Update(3, &after);
  cluster->RunToQuiescence();
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 10) << "node " << n;
  }
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
  EXPECT_TRUE(cluster->CheckCommitNonBlocking().ok);
  EXPECT_TRUE(CheckCommitAtomicity(cluster->history()).ok);
}

TEST_F(PaxosCommitFixture, PaxosCommitRunsOnParallelEngine) {
  Build(MoveProtocol::kPaxosCommit, /*durable=*/false, Pdes(2));
  ASSERT_TRUE(cluster->Partition({{0, 1, 2}, {3, 4}}).ok());
  for (int i = 0; i < 3; ++i) Update(1);
  cluster->RunToQuiescence();
  cluster->HealAll();
  cluster->RunToQuiescence();
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 3) << "node " << n;
  }
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
  EXPECT_TRUE(CheckCommitAtomicity(cluster->history()).ok);
  EXPECT_TRUE(cluster->CheckCommitNonBlocking().ok);
}

// --- The slot table: decided slots collapse to one bit -------------------

TEST_F(PaxosCommitFixture, DecidedSlotsLeaveNoLiveInstance) {
  Build(MoveProtocol::kPaxosCommit);
  for (int i = 0; i < 20; ++i) Update(1);
  cluster->RunToQuiescence();
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 20) << "node " << n;
    EXPECT_EQ(cluster->PaxosLiveSlots(n), 0u) << "node " << n;
  }
}

TEST_F(PaxosCommitFixture, LiveTableIsBoundedByInFlightSlots) {
  // Steady load: the live table holds the slots in flight, so a run ten
  // times longer peaks no higher. (Before decided slots were erased, the
  // peak was every slot the run ever saw.)
  auto peak = [this](int updates) {
    Build(MoveProtocol::kPaxosCommit);
    size_t most = 0;
    for (int i = 0; i < updates; ++i) {
      Update(1);
      cluster->RunFor(Millis(3));
      most = std::max(most, MaxLiveSlots());
    }
    cluster->RunToQuiescence();
    EXPECT_EQ(cluster->ReadAt(4, x), updates);
    EXPECT_EQ(MaxLiveSlots(), 0u);
    return most;
  };
  const size_t short_peak = peak(30);
  const size_t long_peak = peak(300);
  EXPECT_GT(short_peak, 0u);
  EXPECT_LT(short_peak, 30u);
  EXPECT_LE(long_peak, short_peak);
}

TEST(PaxosSlotTableTest, FlappingSplitLeavesNoLiveSlots) {
  Result<Scenario> scenario = NamedScenario("flapping_split");
  ASSERT_TRUE(scenario.ok());
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    ScenarioRunOptions opt;
    opt.seed = seed;
    opt.move_protocol = MoveProtocol::kPaxosCommit;
    ScenarioRunner runner(*scenario, opt);
    ASSERT_TRUE(runner.Start().ok());
    ScenarioCellReport report = runner.Run();
    EXPECT_TRUE(report.ok()) << report.failure_detail;
    EXPECT_GT(report.metrics.committed, 0);
    for (NodeId n = 0; n < opt.nodes; ++n) {
      EXPECT_EQ(runner.cluster().PaxosLiveSlots(n), 0u)
          << "seed " << seed << " node " << n;
    }
  }
}

TEST_F(PaxosCommitFixture, RecoveryAcceptForPrunedSlotGetsTheOutcome) {
  Build(MoveProtocol::kPaxosCommit);
  WatchReplies();
  Update(7);
  cluster->RunToQuiescence();
  // A late recovery proposer re-proposes the decided, pruned slot at
  // every other node: each still knows it decided.
  auto accept = RecoveryAccept(3);
  WatchReplies();
  for (NodeId n : {0, 1, 2, 4}) Inject(3, n, accept);
  cluster->RunToQuiescence();
  EXPECT_EQ(outcomes, std::vector<NodeId>(4, 3));
  EXPECT_TRUE(accepteds.empty());
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(cluster->PaxosLiveSlots(n), 0u) << "node " << n;
    EXPECT_EQ(cluster->ReadAt(n, x), 7) << "node " << n;
  }
  EXPECT_TRUE(cluster->CheckCommitNonBlocking().ok);
}

TEST_F(PaxosCommitFixture, OutcomeBeforeValueThenCatchUpInstalls) {
  Build(MoveProtocol::kPaxosCommit, /*durable=*/false, EngineConfig{},
        /*gap_repair_interval=*/Millis(20));
  // The majority side decides slot 1; the accepts for nodes 3 and 4 wait
  // in the network until the heal.
  ASSERT_TRUE(cluster->Partition({{0, 1, 2}, {3, 4}}).ok());
  Update(7);
  cluster->RunToQuiescence();
  ASSERT_EQ(cluster->ReadAt(0, x), 7);
  // Node 4 learns the outcome before it ever sees the value: one bit, no
  // live instance, nothing installed yet.
  auto outcome = std::make_shared<PaxosOutcome>();
  outcome->fragment = frag;
  outcome->seq = 1;
  Inject(3, 4, outcome);
  cluster->RunToQuiescence();
  EXPECT_EQ(cluster->PaxosLiveSlots(4), 0u);
  EXPECT_EQ(cluster->ReadAt(4, x), 0);
  // The queued ballot-0 accepts now arrive. Node 3 accepts; node 4 knows
  // the slot decided, so it answers the home with the outcome and makes
  // no entry. The next commit's gap brings slot 1's contents.
  WatchReplies();
  cluster->HealAll();
  cluster->RunToQuiescence();
  EXPECT_EQ(cluster->PaxosLiveSlots(4), 0u);
  EXPECT_EQ(std::count(outcomes.begin(), outcomes.end(), 0), 1);
  EXPECT_EQ(std::count(accepteds.begin(), accepteds.end(), 0), 1);
  TxnResult next;
  Update(3, &next);
  cluster->RunToQuiescence();
  ASSERT_TRUE(next.status.ok()) << next.status.ToString();
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(cluster->ReadAt(n, x), 10) << "node " << n;
    EXPECT_EQ(cluster->PaxosLiveSlots(n), 0u) << "node " << n;
  }
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
  EXPECT_TRUE(CheckCommitAtomicity(cluster->history()).ok);
  EXPECT_TRUE(cluster->CheckCommitNonBlocking().ok);
}

TEST_F(PaxosCommitFixture, AmnesiaClearsTheDecidedSet) {
  Build(MoveProtocol::kPaxosCommit, /*durable=*/true);
  WatchReplies();
  Update(7);
  cluster->RunToQuiescence();
  ASSERT_TRUE(cluster->CrashNode(2, CrashMode::kAmnesia).ok());
  EXPECT_EQ(cluster->PaxosLiveSlots(2), 0u);
  ASSERT_TRUE(cluster->ReviveNode(2).ok());
  cluster->RunToQuiescence();
  EXPECT_EQ(cluster->ReadAt(2, x), 7);
  // The wiped acceptor treats a late recovery accept as new: it accepts
  // (a node that kept its decided bit answers with the outcome), and its
  // own recovery round then learns the outcome again.
  auto accept = RecoveryAccept(3);
  WatchReplies();
  Inject(3, 2, accept);
  cluster->RunFor(Millis(6));  // one 5 ms hop
  EXPECT_EQ(cluster->PaxosLiveSlots(2), 1u);
  cluster->RunToQuiescence();
  EXPECT_EQ(accepteds, std::vector<NodeId>{3});
  EXPECT_EQ(std::count(outcomes.begin(), outcomes.end(), 3), 0);
  WatchReplies();
  Inject(3, 2, accept);
  cluster->RunToQuiescence();
  EXPECT_EQ(outcomes, std::vector<NodeId>{3});
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(cluster->PaxosLiveSlots(n), 0u) << "node " << n;
    EXPECT_EQ(cluster->ReadAt(n, x), 7) << "node " << n;
  }
  EXPECT_TRUE(CheckMutualConsistency(cluster->Replicas()).ok);
  EXPECT_TRUE(cluster->CheckCommitNonBlocking().ok);
}

}  // namespace
}  // namespace fragdb
