#include "scenario/runner.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"

namespace fragdb {

ScenarioRunner::ScenarioRunner(Scenario scenario,
                               const ScenarioRunOptions& options)
    : scenario_(std::move(scenario)),
      options_(options),
      profile_(LoadProfile::FromScenario(scenario_)),
      rng_(options.seed) {
  ClusterConfig config;
  config.control = options_.control;
  config.move_protocol = options_.move_protocol;
  config.read_quorum = options_.read_quorum;
  config.write_quorum = options_.write_quorum;
  config.observability = options_.observability;
  config.engine = options_.engine;
  parallel_ = options_.engine.kind == EngineKind::kParallel;
  // Amnesia crashes need a durable copy to come back from.
  config.durability.enabled = scenario_.HasAmnesia();
  config.gap_repair_interval =
      options_.gap_repair_interval != 0
          ? options_.gap_repair_interval
          : (scenario_.HasLoss() ? Millis(50) : 0);
  cluster_ = std::make_unique<Cluster>(
      config, Topology::FullMesh(options_.nodes, options_.link_latency));
  if (parallel_) {
    // One workload stream per agent, each derived from the cell seed but
    // disjoint from the shared stream and the loss stream.
    for (int i = 0; i < options_.nodes; ++i) {
      agent_rngs_.emplace_back(options_.seed * 0x9e3779b97f4a7c15ULL + 2 +
                               static_cast<uint64_t>(i));
    }
    metrics_shards_.resize(options_.nodes);
    fifo_shards_.resize(options_.nodes);
  }
}

Rng& ScenarioRunner::WorkloadRng(int agent_index) {
  return parallel_ ? agent_rngs_[agent_index] : rng_;
}

WorkloadMetrics& ScenarioRunner::MetricsSink() {
  if (!parallel_) return metrics_;
  NodeId node = cluster_->engine()->CurrentNode();
  if (node < 0 || node >= static_cast<NodeId>(metrics_shards_.size())) {
    return metrics_shards_[0];  // global-context completions (rare)
  }
  return metrics_shards_[node];
}

FifoOrderChecker& ScenarioRunner::FifoSink(NodeId to) {
  if (!parallel_) return fifo_;
  FRAGDB_CHECK(to >= 0 && to < static_cast<NodeId>(fifo_shards_.size()));
  return fifo_shards_[to];
}

Status ScenarioRunner::Start() {
  Cluster& c = *cluster_;
  for (int i = 0; i < options_.nodes; ++i) {
    FragmentId frag = c.DefineFragment(Numbered("F", i));
    fragments_.push_back(frag);
    AgentId agent = c.DefineUserAgent("agent" + std::to_string(i));
    agents_.push_back(agent);
    FRAGDB_RETURN_IF_ERROR(c.AssignToken(frag, agent));
    FRAGDB_RETURN_IF_ERROR(c.SetAgentHome(agent, i));
    objects_.emplace_back();
    for (int k = 0; k < options_.objects_per_fragment; ++k) {
      Result<ObjectId> obj = c.DefineObject(
          frag, Numbered("o", i) + "_" + std::to_string(k), 0);
      if (!obj.ok()) return obj.status();
      objects_[i].push_back(*obj);
    }
  }
  readable_.resize(options_.nodes);
  if (options_.control == ControlOption::kAcyclicReads) {
    // Random elementarily-acyclic tree (same construction as the
    // synthetic workload): fragment i reads one random earlier fragment.
    for (int i = 1; i < options_.nodes; ++i) {
      FragmentId parent = fragments_[static_cast<int>(rng_.NextBelow(i))];
      FRAGDB_RETURN_IF_ERROR(c.DeclareRead(fragments_[i], parent));
      readable_[i].push_back(parent);
    }
  } else {
    for (int i = 0; i < options_.nodes; ++i) {
      for (int j = 0; j < options_.nodes; ++j) {
        if (i == j) continue;
        FRAGDB_RETURN_IF_ERROR(c.DeclareRead(fragments_[i], fragments_[j]));
        readable_[i].push_back(fragments_[j]);
      }
    }
  }
  return c.Start();
}

void ScenarioRunner::SubmitOne(int agent_index) {
  int i = agent_index;
  Rng& rng = WorkloadRng(i);
  TxnSpec spec;
  spec.agent = agents_[i];
  spec.write_fragment = fragments_[i];
  spec.label = "cell" + std::to_string(i);
  double theta = profile_.zipf_theta();
  // The extra draw is gated behind the option so every pre-existing cell
  // keeps its golden RNG stream byte-for-byte.
  if (options_.read_only_fraction > 0 &&
      rng.NextBool(options_.read_only_fraction)) {
    spec.write_fragment = kInvalidFragment;  // quorum-assembled read
    spec.label += "-ro";
  }
  ObjectId own = objects_[i][rng.NextZipf(objects_[i].size(), theta)];
  spec.read_set.push_back(own);
  if (!readable_[i].empty() && options_.read_fan > 0) {
    int fan = 0;
    double expect = options_.read_fan;
    while (expect >= 1.0) {
      ++fan;
      expect -= 1.0;
    }
    if (rng.NextBool(expect)) ++fan;
    fan = std::min<int>(fan, static_cast<int>(readable_[i].size()));
    std::vector<FragmentId> pool = readable_[i];
    rng.Shuffle(pool);
    for (int k = 0; k < fan; ++k) {
      const std::vector<ObjectId>& objs = objects_[pool[k]];
      spec.read_set.push_back(objs[rng.NextZipf(objs.size(), theta)]);
    }
  }
  if (!spec.read_only()) {
    ObjectId target = own;
    spec.body = [target](const std::vector<Value>& reads)
        -> Result<std::vector<WriteOp>> {
      // Modular: values compound over a long run, and a signed sum
      // would overflow.
      uint64_t sum = 1;
      for (Value v : reads) sum += static_cast<uint64_t>(v);
      return std::vector<WriteOp>{{target, static_cast<Value>(sum)}};
    };
  }
  SimTime submitted_at = cluster_->Now();
  cluster_->Submit(spec, [this, submitted_at](const TxnResult& r) {
    MetricsSink().Record(r, submitted_at);
  });
}

void ScenarioRunner::ScheduleArrival(int agent_index) {
  // The profile's rate curve divides the mean inter-arrival time: a 4x
  // flash crowd quarters the wait, a diurnal trough stretches it.
  double rate = profile_.RateAt(cluster_->Now());
  SimTime wait = static_cast<SimTime>(
      WorkloadRng(agent_index).NextExponential(
          double(options_.base_interarrival)) /
      rate);
  // Agent i homes at node i, so its whole arrival->submit->complete chain
  // stays inside node i's partition — under pdes this is what lets cells
  // run multi-core without cross-partition draws from a shared RNG.
  cluster_->engine()->AfterNode(agent_index, std::max<SimTime>(wait, 1),
                                [this, agent_index] {
                                  if (!traffic_open_) return;
                                  SubmitOne(agent_index);
                                  ScheduleArrival(agent_index);
                                });
}

ScenarioCellReport ScenarioRunner::Run() {
  Cluster& c = *cluster_;
  // Deliveries run in the receiving node's event context under pdes, so
  // the observation routes to the destination's shard.
  c.network().SetDeliveryObserver(
      [this](const Message& m) { FifoSink(m.to).Observe(m); });

  ApplyOptions apply;
  // Distinct stream from the workload RNG, still seed-deterministic.
  apply.loss_seed = options_.seed * 0x9e3779b97f4a7c15ULL + 1;
  apply.on_recovery = [this](NodeId, const RecoveryStats& s) {
    ++revives_completed_;
    if (s.ran) ++recoveries_ran_;
  };
  Status applied = ApplyScenario(scenario_, c, apply, &fault_stats_);
  FRAGDB_CHECK(applied.ok());

  for (int i = 0; i < options_.nodes; ++i) ScheduleArrival(i);
  c.RunUntil(options_.duration);
  traffic_open_ = false;

  // End-of-run settling: stop losing messages (same seed keeps the drop
  // stream parked), reconnect everything, bring every down node back,
  // and let recoveries finish.
  c.network().SetLossProbability(0.0, apply.loss_seed);
  c.HealAll();
  int end_revives = 0;
  for (NodeId n = 0; n < c.node_count(); ++n) {
    if (c.topology().IsNodeUp(n)) continue;
    if (c.ReviveNode(n, [this](const RecoveryStats& s) {
           ++revives_completed_;
           if (s.ran) ++recoveries_ran_;
         }).ok()) {
      ++end_revives;
    }
  }
  c.RunToQuiescence();
  if (scenario_.HasLoss()) {
    // Anti-entropy for trailing drops (a lost quasi with no successors
    // leaves no holdback gap for the periodic repairer to notice).
    c.StartGapRepairSweep();
    c.RunToQuiescence();
  }

  ScenarioCellReport report;
  report.metrics = metrics_;
  // Shard merge order is node-index order: deterministic at any thread
  // count (all shards empty under the serial engine).
  for (const WorkloadMetrics& shard : metrics_shards_) {
    report.metrics += shard;
  }
  report.net = c.net_stats();
  report.faults = fault_stats_;
  report.fifo_deliveries = fifo_.observed();
  report.revives_completed = revives_completed_;
  report.recoveries_ran = recoveries_ran_;

  CheckReport fifo = fifo_.Report();
  for (const FifoOrderChecker& shard : fifo_shards_) {
    report.fifo_deliveries += shard.observed();
    if (fifo.ok) fifo = shard.Report();
  }
  AuditReport audit = AuditRun(c);
  report.fifo_ok = fifo.ok;
  report.property_ok = audit.configured_property.ok;
  report.fragmentwise_ok = audit.fragmentwise.ok;
  report.consistent_ok = audit.replica_consistency.ok;
  report.quorum_ok = audit.quorum_freshness.ok;
  report.paxos_ok = audit.commit_atomicity.ok && audit.commit_nonblocking.ok;
  // Recovery audit: every compiled revive must have completed, and every
  // amnesia crash must have run the recovery pipeline.
  report.recovery_ok = fault_stats_.failures == 0 &&
                       revives_completed_ >= fault_stats_.revives &&
                       (!scenario_.HasAmnesia() || recoveries_ran_ > 0 ||
                        fault_stats_.crashes == 0);
  CheckReport timeline = CheckReport::Pass();
  if (AvailabilityTracker* av = c.availability()) {
    // The horizon is the post-drain instant: deterministic, and every
    // interval the tracker closed lies inside it.
    const SimTime horizon = c.Now();
    av->Finalize(horizon);
    timeline = CheckAvailabilityIntervals(av->intervals(), horizon);
    report.timeline_ok = timeline.ok;
    report.availability = BuildAvailabilityReport(
        *av, BuildFaultWindows(scenario_, options_.nodes), horizon);
    report.availability_fingerprint = report.availability.Fingerprint();
  }
  if (ClusterTimelines* tl = c.timelines()) {
    report.timeline_fingerprint = tl->Fingerprint();
  }
  report.forced_failure = options_.force_verify_failure;

  if (!fifo.ok) {
    report.failure_detail = "fifo: " + fifo.detail;
  } else if (!audit.configured_property.ok) {
    report.failure_detail = "property: " + audit.configured_property.detail;
  } else if (!audit.replica_consistency.ok) {
    report.failure_detail = "consistency: " + audit.replica_consistency.detail;
  } else if (!report.quorum_ok) {
    report.failure_detail = "quorum: " + audit.quorum_freshness.detail;
  } else if (!report.paxos_ok) {
    report.failure_detail =
        "paxos: " + (audit.commit_atomicity.ok
                         ? audit.commit_nonblocking.detail
                         : audit.commit_atomicity.detail);
  } else if (!report.recovery_ok) {
    report.failure_detail = "recovery: a compiled crash window failed";
  } else if (!timeline.ok) {
    report.failure_detail = "timeline: " + timeline.detail;
  } else if (report.forced_failure) {
    report.failure_detail = "forced: verify failure injected by options";
  }

  if (!report.ok()) {
    if (FlightRecorder* fr = c.flight_recorder()) {
      report.flight_dump = fr->DumpJsonl();
    }
  }

  if (options_.observability.metrics) {
    report.metrics_snapshot = c.SnapshotMetrics().Relabeled(
        scenario_.name.empty() ? "unnamed" : scenario_.name);
  }
  return report;
}

}  // namespace fragdb
