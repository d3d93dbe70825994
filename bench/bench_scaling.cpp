// E12 (scaling) — how the fragments-and-agents design scales with cluster
// size, in two regimes.
//
// Legacy mode: the full-protocol Cluster vs the mutual-exclusion
// baseline at small n. The propagation cost of a commit is one message
// per remote replica (linear in n); commit latency at the home node is
// CONSTANT in n — the paper's availability story is also a latency
// story: an agent never waits for anyone to update its own fragment.
//
// PDES mode: the partition-confined ShardedCluster kernel on the
// parallel scheduler, which is what lets one instance reach 1,000 nodes
// and 10M clients (see docs/PERFORMANCE.md for the recipe). Output is
// split on purpose:
//   * "pdes" BENCH_JSON lines carry only simulation-determined fields —
//     byte-identical at any --sim_threads, which CI enforces by diffing.
//   * "pdes_wall" lines carry wall clock and speedup, the only fields a
//     thread count may legitimately change.
// With --sim_threads > 1 the driver also re-runs each config serially
// in-process and aborts on any fingerprint mismatch, so a determinism
// regression cannot produce a plausible-looking table.

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "baselines/mutual_exclusion.h"
#include "bench_harness.h"
#include "common/logging.h"
#include "common/strings.h"
#include "core/sharded_cluster.h"
#include "verify/checkers.h"
#include "workload/metrics.h"

#include "core/cluster.h"

using namespace fragdb;
using namespace fragdb_bench;

namespace {

double WallSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// --- Legacy mode (unchanged experiment) -----------------------------------

struct RowResult {
  double frag_commit_ms = 0;   // mean commit latency, fragments+agents
  double frag_msgs = 0;        // messages per commit
  double mutex_commit_ms = 0;  // mean commit latency, mutual exclusion
  double mutex_msgs = 0;
  double wall_ms = 0;          // host wall-clock for this instance
};

RowResult RunOnce(int nodes) {
  RowResult row;
  const int kTxnsPerNode = 30;
  {
    ClusterConfig config;
    config.control = ControlOption::kFragmentwise;
    Cluster cluster(config, Topology::FullMesh(nodes, Millis(5)));
    std::vector<ObjectId> objs;
    std::vector<AgentId> agents;
    std::vector<FragmentId> frags;
    for (int i = 0; i < nodes; ++i) {
      FragmentId f = cluster.DefineFragment(Numbered("F", i));
      frags.push_back(f);
      objs.push_back(*cluster.DefineObject(f, Numbered("o", i), 0));
      AgentId a = cluster.DefineUserAgent(Numbered("a", i));
      agents.push_back(a);
      if (!cluster.AssignToken(f, a).ok()) std::abort();
      if (!cluster.SetAgentHome(a, i).ok()) std::abort();
    }
    if (!cluster.Start().ok()) std::abort();
    WorkloadMetrics metrics;
    for (int k = 0; k < kTxnsPerNode; ++k) {
      for (int i = 0; i < nodes; ++i) {
        TxnSpec spec;
        spec.agent = agents[i];
        spec.write_fragment = frags[i];
        ObjectId obj = objs[i];
        spec.read_set = {obj};
        spec.body = [obj](const std::vector<Value>& reads)
            -> Result<std::vector<WriteOp>> {
          return std::vector<WriteOp>{{obj, reads[0] + 1}};
        };
        SimTime at = cluster.Now();
        cluster.Submit(spec, [&metrics, at](const TxnResult& r) {
          metrics.Record(r, at);
        });
      }
      cluster.RunFor(Millis(5));
    }
    cluster.RunToQuiescence();
    if (!CheckMutualConsistency(cluster.Replicas()).ok) std::abort();
    row.frag_commit_ms = metrics.MeanCommitLatency() / 1000.0;
    row.frag_msgs = double(cluster.net_stats().messages_sent) /
                    double(metrics.committed);
  }
  {
    Catalog catalog;
    FragmentId f = catalog.AddFragment("ALL");
    std::vector<ObjectId> objs;
    for (int i = 0; i < nodes; ++i) {
      objs.push_back(*catalog.AddObject(f, Numbered("o", i), 0));
    }
    MutualExclusionEngine eng(&catalog,
                              Topology::FullMesh(nodes, Millis(5)));
    WorkloadMetrics metrics;
    for (int k = 0; k < kTxnsPerNode; ++k) {
      for (NodeId i = 0; i < nodes; ++i) {
        TxnSpec spec;
        ObjectId obj = objs[i];
        spec.read_set = {obj};
        spec.body = [obj](const std::vector<Value>& reads)
            -> Result<std::vector<WriteOp>> {
          return std::vector<WriteOp>{{obj, reads[0] + 1}};
        };
        SimTime at = eng.Now();
        eng.Submit(i, spec, [&metrics, at](const TxnResult& r) {
          metrics.Record(r, at);
        });
      }
      eng.RunFor(Millis(5));
    }
    eng.RunToQuiescence();
    if (!CheckMutualConsistency(eng.Replicas()).ok) std::abort();
    row.mutex_commit_ms = metrics.MeanCommitLatency() / 1000.0;
    row.mutex_msgs = double(eng.net_stats().messages_sent) /
                     double(metrics.committed);
  }
  return row;
}

void RunLegacy(const BenchOptions& opts, const std::vector<int>& node_counts,
               const std::vector<uint64_t>& seeds) {
  std::printf(
      "E12 (scaling) — cluster size vs commit latency and message cost\n"
      "per-site updates to own data, healthy network, 5ms links\n"
      "threads=%d seeds=%zu\n\n",
      opts.threads, seeds.size());

  // One simulation instance per (nodes, seed), run across the harness;
  // results come back in configuration order, so output is identical for
  // any thread count.
  struct Job {
    int nodes;
    uint64_t seed;
  };
  std::vector<Job> jobs;
  for (int nodes : node_counts) {
    for (uint64_t seed : seeds) jobs.push_back({nodes, seed});
  }
  auto start = std::chrono::steady_clock::now();
  std::vector<RowResult> results = RunIndexed<Job, RowResult>(
      jobs,
      [](const Job& job) {
        auto t0 = std::chrono::steady_clock::now();
        RowResult row = RunOnce(job.nodes);
        row.wall_ms = WallSince(t0);
        return row;
      },
      opts.threads);
  double total_ms = WallSince(start);

  std::vector<int> widths = {10, 20, 16, 20, 16, 12};
  PrintRow({"nodes", "f+a commit (ms)", "f+a msgs", "mutex commit (ms)",
            "mutex msgs", "wall (ms)"},
           widths);
  PrintRule(widths);
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].seed != seeds.front()) continue;  // table: one row per size
    const RowResult& row = results[i];
    PrintRow({Int(jobs[i].nodes), Num(row.frag_commit_ms, 2),
              Num(row.frag_msgs, 1), Num(row.mutex_commit_ms, 2),
              Num(row.mutex_msgs, 1), Num(row.wall_ms, 1)},
             widths);
  }
  for (size_t i = 0; i < jobs.size(); ++i) {
    const RowResult& row = results[i];
    char json[256];
    std::snprintf(
        json, sizeof(json),
        "{\"bench\":\"scaling\",\"nodes\":%d,\"seed\":%llu,"
        "\"threads\":%d,\"frag_commit_ms\":%.3f,\"frag_msgs\":%.2f,"
        "\"mutex_commit_ms\":%.3f,\"mutex_msgs\":%.2f,\"wall_ms\":%.1f}",
        jobs[i].nodes, (unsigned long long)jobs[i].seed, opts.threads,
        row.frag_commit_ms, row.frag_msgs, row.mutex_commit_ms, row.mutex_msgs,
        row.wall_ms);
    PrintJsonLine(json);
  }
  {
    char json[128];
    std::snprintf(json, sizeof(json),
                  "{\"bench\":\"scaling_total\",\"threads\":%d,"
                  "\"instances\":%zu,\"wall_ms\":%.1f}",
                  opts.threads, jobs.size(), total_ms);
    PrintJsonLine(json);
  }
  std::printf(
      "\nexpected shape: fragments+agents commit latency is flat in n\n"
      "(the agent commits locally; propagation is asynchronous) while its\n"
      "message cost grows linearly (n-1 replicas). Mutual exclusion's\n"
      "commit latency includes the sequencer round trip and its sequencer\n"
      "serializes everyone, so latency grows with contention.\n");
}

// --- PDES mode ------------------------------------------------------------

struct PdesConfig {
  int nodes = 0;
  uint64_t clients = 0;
  uint64_t ops_per_client = 0;
  int replication = 3;
  int partitions = 0;  // 0 = kernel default: min(nodes, 16)
  uint64_t seed = 1;
  SimTime mean_interarrival = Millis(3);
  bool faults = true;
};

ShardedClusterOptions ToOptions(const PdesConfig& config, int sim_threads) {
  ShardedClusterOptions o;
  o.nodes = config.nodes;
  o.replication = config.replication;
  o.partitions = config.partitions;
  o.sim_threads = sim_threads;
  o.workload.seed = config.seed;
  o.workload.clients = config.clients;
  o.workload.ops_per_client = config.ops_per_client;
  o.workload.mean_interarrival = config.mean_interarrival;
  return o;
}

ShardedReport RunPdesOnce(const PdesConfig& config, int sim_threads) {
  ShardedCluster cluster(ToOptions(config, sim_threads),
                         ChannelTable::UniformMesh(config.nodes, Millis(5)));
  if (config.faults && config.nodes >= 4) {
    // Fixed fault plan: one crash that reshuffles the plan on revive, one
    // that doesn't — both fully determined by the config.
    cluster.ScheduleCrash(1, Millis(20), Millis(80), /*reshuffle=*/true);
    cluster.ScheduleCrash(config.nodes / 2, Millis(50), Millis(110),
                          /*reshuffle=*/false);
  }
  return cluster.Run();
}

void RunPdes(const BenchOptions& opts, const std::vector<PdesConfig>& configs,
             bool verify_serial) {
  std::printf(
      "\nPDES scaling — ShardedCluster on the parallel scheduler\n"
      "sim_threads=%d verify_serial=%d (5ms mesh)\n\n",
      opts.sim_threads, verify_serial ? 1 : 0);
  std::vector<int> widths = {8, 12, 12, 12, 10, 12, 10, 12, 12};
  PrintRow({"nodes", "clients", "ops", "events", "windows", "mailbox",
            "speedup", "wall (ms)", "consistent"},
           widths);
  PrintRule(widths);

  for (const PdesConfig& config : configs) {
    auto t0 = std::chrono::steady_clock::now();
    ShardedReport report = RunPdesOnce(config, opts.sim_threads);
    double wall_ms = WallSince(t0);
    FRAGDB_CHECK(report.consistent);

    double serial_wall_ms = 0;
    double speedup = 1.0;
    if (opts.sim_threads != 1 && verify_serial) {
      auto t1 = std::chrono::steady_clock::now();
      ShardedReport serial = RunPdesOnce(config, 1);
      serial_wall_ms = WallSince(t1);
      // The whole point: a parallel run must be indistinguishable from
      // the serial one. Abort, don't footnote.
      FRAGDB_CHECK(serial.fingerprint == report.fingerprint);
      FRAGDB_CHECK(serial.end_time == report.end_time);
      FRAGDB_CHECK(serial.sched.events_executed ==
                   report.sched.events_executed);
      speedup = wall_ms > 0 ? serial_wall_ms / wall_ms : 1.0;
    }

    PrintRow({Int(config.nodes), Int((long long)config.clients),
              Int((long long)report.ops),
              Int((long long)report.sched.events_executed),
              Int((long long)report.sched.windows),
              Int((long long)report.sched.mailbox_envelopes),
              serial_wall_ms > 0 ? Num(speedup, 2) : "-", Num(wall_ms, 1),
              report.consistent ? "yes" : "NO"},
             widths);

    double lag_mean_us =
        report.installs > 0
            ? double(report.lag_sum) / double(report.installs)
            : 0;
    // Deterministic line: nothing here may depend on --sim_threads.
    char json[512];
    std::snprintf(
        json, sizeof(json),
        "{\"bench\":\"pdes\",\"nodes\":%d,\"partitions\":%d,"
        "\"replication\":%d,\"seed\":%llu,\"clients\":%llu,"
        "\"ops\":%llu,\"installs\":%llu,\"deferred\":%llu,"
        "\"end_time_us\":%lld,\"lag_mean_us\":%.3f,\"lag_max_us\":%lld,"
        "\"events\":%llu,\"windows\":%llu,\"serial_steps\":%llu,"
        "\"mailbox\":%llu,\"direct\":%llu,\"reassign\":%llu,"
        "\"fingerprint\":\"%016llx\",\"consistent\":%s}",
        config.nodes, config.partitions, config.replication,
        (unsigned long long)config.seed, (unsigned long long)config.clients,
        (unsigned long long)report.ops, (unsigned long long)report.installs,
        (unsigned long long)report.deferred, (long long)report.end_time,
        lag_mean_us, (long long)report.lag_max,
        (unsigned long long)report.sched.events_executed,
        (unsigned long long)report.sched.windows,
        (unsigned long long)report.sched.serial_steps,
        (unsigned long long)report.sched.mailbox_envelopes,
        (unsigned long long)report.sched.direct_posts,
        (unsigned long long)report.sched.reassignments,
        (unsigned long long)report.fingerprint,
        report.consistent ? "true" : "false");
    PrintJsonLine(json);

    // Wall-clock line: the only place sim_threads and timing may appear.
    char wall_json[256];
    std::snprintf(
        wall_json, sizeof(wall_json),
        "{\"bench\":\"pdes_wall\",\"nodes\":%d,\"sim_threads\":%d,"
        "\"wall_ms\":%.1f,\"serial_wall_ms\":%.1f,\"speedup\":%.2f}",
        config.nodes, opts.sim_threads, wall_ms, serial_wall_ms, speedup);
    PrintJsonLine(wall_json);
  }
}

uint64_t ExtraU64(const BenchOptions& opts, const char* key,
                  uint64_t fallback) {
  std::string v = opts.ExtraOr(key, "");
  return v.empty() ? fallback : std::strtoull(v.c_str(), nullptr, 10);
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opts = ParseBenchOptions(&argc, argv);
  // The workloads are deterministic; --seeds replicates identical
  // instances (extra parallel work for the harness, identical tables).
  std::vector<uint64_t> seeds = opts.SeedsOr(1);
  std::vector<int> legacy_nodes = {3, 5, 9, 17, 33};
  std::vector<int> pdes_nodes = {16, 64, 256};
  std::string nodes_flag = opts.ExtraOr("nodes", "");
  if (!nodes_flag.empty()) {
    int n = std::atoi(nodes_flag.c_str());
    legacy_nodes = {n};
    pdes_nodes = {n};
  }
  std::string mode = opts.ExtraOr("mode", "both");

  if (mode == "legacy" || mode == "both") RunLegacy(opts, legacy_nodes, seeds);

  if (mode == "pdes" || mode == "both") {
    std::vector<PdesConfig> configs;
    for (int nodes : pdes_nodes) {
      PdesConfig config;
      config.nodes = nodes;
      // Default sizing keeps the smoke runs quick; override for the big
      // runs (docs/PERFORMANCE.md has the 1,000-node/10M-client recipe).
      config.clients = ExtraU64(opts, "clients",
                                static_cast<uint64_t>(nodes) * 16);
      config.ops_per_client = ExtraU64(opts, "ops_per_client", 50);
      config.replication =
          static_cast<int>(ExtraU64(opts, "replication", 3));
      config.mean_interarrival = static_cast<SimTime>(
          ExtraU64(opts, "mean_us", static_cast<uint64_t>(Millis(3))));
      config.partitions = opts.sim_partitions;
      config.seed = seeds.front();
      config.faults = ExtraU64(opts, "faults", 1) != 0;
      configs.push_back(config);
    }
    RunPdes(opts, configs, ExtraU64(opts, "verify_serial", 1) != 0);
  }
  return 0;
}
