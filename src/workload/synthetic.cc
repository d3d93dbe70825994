#include "workload/synthetic.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "verify/checkers.h"

namespace fragdb {

SyntheticWorkload::SyntheticWorkload(const SyntheticOptions& options)
    : options_(options), rng_(options.seed) {
  ClusterConfig config;
  config.control = options_.control;
  config.move_protocol = options_.move_protocol;
  config.read_quorum = options_.read_quorum;
  config.write_quorum = options_.write_quorum;
  config.observability = options_.observability;
  cluster_ = std::make_unique<Cluster>(
      config, Topology::FullMesh(options_.nodes, options_.link_latency));
}

Status SyntheticWorkload::Start() {
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
    // Random tree: fragment i > 0 reads a random earlier fragment, and
    // that is the only foreign read it may perform. Elementarily acyclic
    // by construction.
    for (int i = 1; i < options_.nodes; ++i) {
      FragmentId parent =
          fragments_[static_cast<int>(rng_.NextBelow(i))];
      FRAGDB_RETURN_IF_ERROR(c.DeclareRead(fragments_[i], parent));
      readable_[i].push_back(parent);
    }
  } else {
    // Anything may read anything; declare the full graph for the tooling.
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

void SyntheticWorkload::SubmitOne(int agent_index) {
  int i = agent_index;
  TxnSpec spec;
  spec.agent = agents_[i];
  spec.write_fragment = fragments_[i];
  spec.label = "syn" + std::to_string(i);
  // Gated behind the option: no extra draw on pre-existing golden streams.
  if (options_.read_only_fraction > 0 &&
      rng_.NextBool(options_.read_only_fraction)) {
    spec.write_fragment = kInvalidFragment;  // quorum-assembled read
    spec.label += "-ro";
  }

  // Reads: one zipf-chosen object of the own fragment plus a Poisson-ish
  // number of foreign objects drawn from the readable set.
  ObjectId own = objects_[i][rng_.NextZipf(objects_[i].size(),
                                           options_.zipf_theta)];
  spec.read_set.push_back(own);
  if (!readable_[i].empty() && options_.read_fan > 0) {
    int fan = 0;
    double expect = options_.read_fan;
    while (expect >= 1.0) {
      ++fan;
      expect -= 1.0;
    }
    if (rng_.NextBool(expect)) ++fan;
    fan = std::min<int>(fan, static_cast<int>(readable_[i].size()));
    std::vector<FragmentId> pool = readable_[i];
    rng_.Shuffle(pool);
    for (int k = 0; k < fan; ++k) {
      const std::vector<ObjectId>& objs = objects_[pool[k]];
      spec.read_set.push_back(
          objs[rng_.NextZipf(objs.size(), options_.zipf_theta)]);
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
    metrics_.Record(r, submitted_at);
  });
}

void SyntheticWorkload::ScheduleArrival(int agent_index) {
  SimTime wait = static_cast<SimTime>(
      rng_.NextExponential(double(options_.mean_interarrival)));
  cluster_->sim().After(std::max<SimTime>(wait, 1), [this, agent_index] {
    if (!traffic_open_) return;
    SubmitOne(agent_index);
    ScheduleArrival(agent_index);
  });
}

void SyntheticWorkload::SchedulePartitionCycle() {
  if (options_.mean_up_time <= 0) return;
  SimTime up = static_cast<SimTime>(
      rng_.NextExponential(double(options_.mean_up_time)));
  cluster_->sim().After(std::max<SimTime>(up, 1), [this] {
    if (!traffic_open_) return;
    // Random bipartition: each node flips a fair coin; degenerate splits
    // (everyone on one side) simply keep the network whole.
    std::vector<NodeId> left, right;
    for (NodeId n = 0; n < options_.nodes; ++n) {
      (rng_.NextBool(0.5) ? left : right).push_back(n);
    }
    if (!left.empty() && !right.empty()) {
      Status st = cluster_->Partition({left, right});
      FRAGDB_CHECK(st.ok());
      ++partitions_injected_;
    }
    SimTime down = static_cast<SimTime>(
        rng_.NextExponential(double(options_.mean_partition_time)));
    cluster_->sim().After(std::max<SimTime>(down, 1), [this] {
      cluster_->HealAll();
      if (traffic_open_) SchedulePartitionCycle();
    });
  });
}

SyntheticReport SyntheticWorkload::Run() {
  for (int i = 0; i < options_.nodes; ++i) ScheduleArrival(i);
  SchedulePartitionCycle();
  cluster_->RunUntil(options_.duration);
  traffic_open_ = false;
  cluster_->HealAll();
  cluster_->RunToQuiescence();

  SyntheticReport report;
  report.metrics = metrics_;
  report.net = cluster_->net_stats();
  report.mutually_consistent =
      CheckMutualConsistency(cluster_->Replicas()).ok;
  CheckReport property = cluster_->CheckConfiguredProperty();
  report.property_ok = property.ok;
  report.property_detail = property.detail;
  if (options_.move_protocol == MoveProtocol::kPaxosCommit) {
    report.commit_atomic = CheckCommitAtomicity(cluster_->history()).ok &&
                           cluster_->CheckCommitNonBlocking().ok;
  }
  report.partitions_injected = partitions_injected_;
  return report;
}

}  // namespace fragdb
