// E10 (ablation) — how long should a §4.1 transaction wait for a remote
// read lock before giving up?
//
// The paper treats blocking as the availability loss of conservative
// schemes but never quantifies the knob. With partitions that heal after
// ~150ms, a short bound fails fast (low availability, low latency); a
// bound longer than the outage rides it out (high availability, high
// tail latency). The crossover sits at the partition duration — which is
// exactly why "prompt and correct detection of partitions" is hard to
// rely on, the paper's point (3) in §1.

#include <cstdio>
#include <cstdlib>

#include "bench_harness.h"
#include "common/rng.h"
#include "common/strings.h"
#include "scenario/compile.h"
#include "scenario/library.h"
#include "verify/checkers.h"
#include "workload/metrics.h"

#include "core/cluster.h"

using namespace fragdb;
using namespace fragdb_bench;

namespace {

struct RowResult {
  WorkloadMetrics metrics;
  bool serializable = false;
};

RowResult RunOnce(SimTime lock_timeout) {
  ClusterConfig config;
  config.control = ControlOption::kReadLocks;
  config.remote_lock_timeout = lock_timeout;
  Cluster cluster(config, Topology::FullMesh(4, Millis(5)));
  std::vector<FragmentId> frags;
  std::vector<ObjectId> objs;
  std::vector<AgentId> agents;
  for (int i = 0; i < 4; ++i) {
    FragmentId f = cluster.DefineFragment(Numbered("F", i));
    frags.push_back(f);
    objs.push_back(*cluster.DefineObject(f, Numbered("o", i), 0));
    AgentId a = cluster.DefineUserAgent(Numbered("a", i));
    agents.push_back(a);
    if (!cluster.AssignToken(f, a).ok()) std::abort();
    if (!cluster.SetAgentHome(a, i).ok()) std::abort();
  }
  if (!cluster.Start().ok()) std::abort();

  // Fixed schedule from the scenario library: 150ms outages every 300ms;
  // every transaction reads one foreign fragment (the §4.1 worst case).
  const SimTime kDuration = Seconds(3);
  if (!ApplyScenario(AblationOutageSchedule(), cluster, ApplyOptions{}).ok()) {
    std::abort();
  }
  RowResult row;
  Rng rng(5);
  for (SimTime t = 0; t < kDuration; t += Millis(20)) {
    for (int i = 0; i < 4; ++i) {
      int foreign = static_cast<int>(rng.NextBelow(4));
      if (foreign == i) foreign = (i + 1) % 4;
      cluster.sim().At(t, [&cluster, &row, &agents, &frags, &objs, i,
                           foreign] {
        TxnSpec spec;
        spec.agent = agents[i];
        spec.write_fragment = frags[i];
        ObjectId own = objs[i];
        spec.read_set = {own, objs[foreign]};
        spec.body = [own](const std::vector<Value>& reads)
            -> Result<std::vector<WriteOp>> {
          return std::vector<WriteOp>{{own, reads[0] + reads[1] + 1}};
        };
        SimTime submitted_at = cluster.Now();
        cluster.Submit(spec, [&row, submitted_at](const TxnResult& r) {
          row.metrics.Record(r, submitted_at);
        });
      });
    }
  }
  cluster.RunUntil(kDuration);
  cluster.HealAll();
  cluster.RunToQuiescence();
  row.serializable = CheckGlobalSerializability(cluster.history()).ok;
  if (!CheckMutualConsistency(cluster.Replicas()).ok) std::abort();
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
      "E10 (ablation) — §4.1 remote-lock wait bound vs 150ms outages\n"
      "4 nodes, every update reads one foreign fragment\n\n");
  std::vector<int> widths = {16, 12, 14, 14, 18, 16, 14};
  PrintRow({"timeout (ms)", "served", "unavailable", "availability",
            "mean commit (ms)", "p99 commit (ms)", "serializable"},
           widths);
  PrintRule(widths);
  for (SimTime timeout : {Millis(10), Millis(50), Millis(100), Millis(200),
                          Millis(400), Millis(1000)}) {
    RowResult row = RunOnce(timeout);
    PrintRow({Int(timeout / 1000), Int((long long)row.metrics.served()),
              Int((long long)row.metrics.unavailable),
              Pct(row.metrics.Availability()),
              Num(row.metrics.MeanCommitLatency() / 1000.0, 1),
              Num(double(row.metrics.CommitLatencyPercentile(0.99)) / 1000.0,
                  1),
              row.serializable ? "yes" : "NO"},
             widths);
  }
  std::printf(
      "\nexpected shape: availability climbs as the bound passes the\n"
      "outage length (~150ms) — a transaction that waits long enough is\n"
      "served after the heal — while mean commit latency climbs with it.\n"
      "Global serializability holds at every setting; only availability\n"
      "and latency trade. Choosing the bound requires knowing partition\n"
      "durations — the detection problem the paper's approach avoids.\n");
  return 0;
}
