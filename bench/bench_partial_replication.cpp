// E11 (extension ablation) — partial replication: propagation cost vs
// read availability as the replication factor shrinks.
//
// The paper's Conclusions name non-full replication as a generalization.
// The trade it implies: each committed update costs one message per
// remote replica, while a read can be served only where a copy lives.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_harness.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/cluster.h"
#include "verify/checkers.h"

using namespace fragdb;
using namespace fragdb_bench;

namespace {

constexpr int kNodes = 8;

struct RowResult {
  double msgs_per_commit = 0;
  double read_avail = 0;  // reads at uniformly random nodes
  bool consistent = false;
};

RowResult RunOnce(int replication_factor) {
  ClusterConfig config;
  config.control = ControlOption::kFragmentwise;
  Cluster cluster(config, Topology::FullMesh(kNodes, Millis(5)));
  std::vector<FragmentId> frags;
  std::vector<ObjectId> objs;
  std::vector<AgentId> agents;
  Rng rng(13);
  for (int i = 0; i < kNodes; ++i) {
    FragmentId f = cluster.DefineFragment(Numbered("F", i));
    frags.push_back(f);
    objs.push_back(*cluster.DefineObject(f, Numbered("o", i), 0));
    AgentId a = cluster.DefineUserAgent(Numbered("a", i));
    agents.push_back(a);
    if (!cluster.AssignToken(f, a).ok()) std::abort();
    if (!cluster.SetAgentHome(a, i).ok()) std::abort();
    if (replication_factor < kNodes) {
      // Home plus (factor - 1) random other nodes.
      std::vector<NodeId> members{static_cast<NodeId>(i)};
      std::vector<NodeId> pool;
      for (NodeId n = 0; n < kNodes; ++n) {
        if (n != i) pool.push_back(n);
      }
      rng.Shuffle(pool);
      for (int k = 0; k + 1 < replication_factor; ++k) {
        members.push_back(pool[k]);
      }
      if (!cluster.SetReplicaSet(f, members).ok()) std::abort();
    }
  }
  if (!cluster.Start().ok()) std::abort();

  // 20 updates per agent.
  uint64_t committed = 0;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < kNodes; ++i) {
      TxnSpec spec;
      spec.agent = agents[i];
      spec.write_fragment = frags[i];
      ObjectId obj = objs[i];
      spec.read_set = {obj};
      spec.body = [obj](const std::vector<Value>& reads)
          -> Result<std::vector<WriteOp>> {
        return std::vector<WriteOp>{{obj, reads[0] + 1}};
      };
      cluster.Submit(spec, [&committed](const TxnResult& r) {
        if (r.status.ok()) ++committed;
      });
    }
    cluster.RunFor(Millis(20));
  }
  cluster.RunToQuiescence();
  uint64_t update_msgs = cluster.net_stats().messages_sent;

  // 200 reads at uniformly random nodes of uniformly random fragments.
  uint64_t reads_ok = 0, reads_total = 0;
  for (int k = 0; k < 200; ++k) {
    NodeId node = static_cast<NodeId>(rng.NextBelow(kNodes));
    ObjectId obj = objs[rng.NextBelow(kNodes)];
    TxnSpec probe;
    probe.agent = kInvalidAgent;
    probe.read_set = {obj};
    ++reads_total;
    cluster.SubmitReadOnlyAt(node, probe, [&reads_ok](const TxnResult& r) {
      if (r.status.ok()) ++reads_ok;
    });
  }
  cluster.RunToQuiescence();

  RowResult row;
  row.msgs_per_commit =
      committed ? double(update_msgs) / double(committed) : 0;
  row.read_avail = double(reads_ok) / double(reads_total);
  row.consistent = cluster.CheckReplicaSetConsistency().ok;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  // Uniform bench CLI: --threads / --seeds are accepted everywhere;
  // this driver runs a single deterministic scenario, so only the
  // first seed (if given) is meaningful.
  BenchOptions opts = ParseBenchOptions(&argc, argv);
  (void)opts;
  std::printf(
      "E11 (extension) — partial replication: cost vs read coverage\n"
      "%d nodes, one fragment per node, replication factor swept\n\n",
      kNodes);
  std::vector<int> widths = {22, 18, 18, 14};
  PrintRow({"replication factor", "msgs/commit", "read availability",
            "consistent"},
           widths);
  PrintRule(widths);
  for (int factor : {8, 6, 4, 2, 1}) {
    RowResult row = RunOnce(factor);
    PrintRow({Int(factor) + "/" + Int(kNodes), Num(row.msgs_per_commit, 2),
              Pct(row.read_avail), row.consistent ? "yes" : "NO"},
             widths);
  }
  std::printf(
      "\nexpected shape: messages per commit fall linearly with the\n"
      "replication factor (one per remote replica) while the fraction of\n"
      "random reads that can be served locally falls with it — the\n"
      "paper's implied trade for non-full replication.\n");
  return 0;
}
