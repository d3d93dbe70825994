#include "workload/airline.h"

#include <memory>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"

namespace fragdb {

AirlineWorkload::AirlineWorkload(const Options& options) : options_(options) {
  ClusterConfig config;
  config.control = options_.control;
  config.move_protocol = options_.move_protocol;
  config.remote_lock_timeout = options_.remote_lock_timeout;
  int nodes = options_.customers + options_.flights;
  cluster_ = std::make_unique<Cluster>(
      config, Topology::FullMesh(nodes, options_.link_latency));
}

Status AirlineWorkload::Start() {
  Cluster& c = *cluster_;
  request_.resize(options_.customers);
  grant_.resize(options_.customers);
  for (int i = 0; i < options_.customers; ++i) {
    std::string name = Numbered("C", i);
    FragmentId frag = c.DefineFragment(name);
    c_frag_.push_back(frag);
    AgentId agent = c.DefineUserAgent("customer/" + std::to_string(i));
    c_agent_.push_back(agent);
    FRAGDB_RETURN_IF_ERROR(c.AssignToken(frag, agent));
    FRAGDB_RETURN_IF_ERROR(c.SetAgentHome(agent, customer_node(i)));
    for (int j = 0; j < options_.flights; ++j) {
      Result<ObjectId> obj = c.DefineObject(
          frag, "c/" + std::to_string(i) + "/" + std::to_string(j), 0);
      if (!obj.ok()) return obj.status();
      request_[i].push_back(*obj);
    }
  }
  for (int j = 0; j < options_.flights; ++j) {
    std::string name = "F" + std::to_string(j);
    FragmentId frag = c.DefineFragment(name);
    f_frag_.push_back(frag);
    AgentId agent = c.DefineUserAgent("flight/" + std::to_string(j));
    f_agent_.push_back(agent);
    FRAGDB_RETURN_IF_ERROR(c.AssignToken(frag, agent));
    FRAGDB_RETURN_IF_ERROR(c.SetAgentHome(agent, flight_node(j)));
    for (int i = 0; i < options_.customers; ++i) {
      Result<ObjectId> obj = c.DefineObject(
          frag, "f/" + std::to_string(i) + "/" + std::to_string(j), 0);
      if (!obj.ok()) return obj.status();
      grant_[i].push_back(*obj);
    }
    // Fig. 4.3.3: every flight fragment reads every customer fragment.
    for (int i = 0; i < options_.customers; ++i) {
      FRAGDB_RETURN_IF_ERROR(c.DeclareRead(frag, c_frag_[i]));
    }
  }
  return c.Start();
}

void AirlineWorkload::Request(int customer, int flight, Value seats,
                              Callback done) {
  FRAGDB_CHECK(seats > 0);
  TxnSpec spec;
  spec.agent = c_agent_[customer];
  spec.write_fragment = c_frag_[customer];
  spec.label = "request/" + std::to_string(customer) + "/" +
               std::to_string(flight);
  // Read and rewrite the whole row (see the header's modeling note).
  spec.read_set = request_[customer];
  std::vector<ObjectId> row = request_[customer];
  spec.body = [row, flight, seats](const std::vector<Value>& reads)
      -> Result<std::vector<WriteOp>> {
    if (reads[flight] != 0) {
      return Status::FailedPrecondition("request already made");
    }
    std::vector<WriteOp> writes;
    for (size_t j = 0; j < row.size(); ++j) {
      writes.push_back({row[j], static_cast<int>(j) == flight
                                    ? seats
                                    : reads[j]});
    }
    return writes;
  };
  SimTime submitted_at = cluster_->Now();
  cluster_->Submit(spec, [this, submitted_at,
                          done = std::move(done)](const TxnResult& r) {
    metrics_.Record(r, submitted_at);
    if (done) done(r);
  });
}

void AirlineWorkload::RunFlightScan(int flight, std::function<void()> done) {
  TxnSpec spec;
  spec.agent = f_agent_[flight];
  spec.write_fragment = f_frag_[flight];
  spec.label = "scan/F" + std::to_string(flight);
  // Reads: all requests for this flight plus this flight's own grant row.
  for (int i = 0; i < options_.customers; ++i) {
    spec.read_set.push_back(request_[i][flight]);
  }
  for (int i = 0; i < options_.customers; ++i) {
    spec.read_set.push_back(grant_[i][flight]);
  }
  int customers = options_.customers;
  Value capacity = options_.seats_per_flight;
  std::vector<ObjectId> grant_col;
  for (int i = 0; i < customers; ++i) grant_col.push_back(grant_[i][flight]);
  spec.body = [customers, capacity, grant_col](const std::vector<Value>& reads)
      -> Result<std::vector<WriteOp>> {
    Value total = 0;
    for (int i = 0; i < customers; ++i) total += reads[customers + i];
    std::vector<WriteOp> writes;
    for (int i = 0; i < customers; ++i) {
      Value requested = reads[i];
      Value granted = reads[customers + i];
      if (requested != 0 && granted == 0) {
        if (total + requested <= capacity) {  // no overbooking, ever
          writes.push_back({grant_col[i], requested});
          total += requested;
        }
      }
    }
    if (writes.empty()) {
      return Status::FailedPrecondition("nothing to grant");
    }
    return writes;
  };
  SimTime submitted_at = cluster_->Now();
  cluster_->Submit(spec, [this, submitted_at,
                          done = std::move(done)](const TxnResult& r) {
    scan_metrics_.Record(r, submitted_at);
    if (done) done();
  });
}

void AirlineWorkload::RunAllScans(std::function<void()> done) {
  auto next = std::make_shared<std::function<void(int)>>();
  std::weak_ptr<std::function<void(int)>> weak = next;
  *next = [this, weak, done = std::move(done)](int flight) {
    if (flight >= options_.flights) {
      if (done) done();
      return;
    }
    auto self = weak.lock();
    RunFlightScan(flight, [self, flight] { (*self)(flight + 1); });
  };
  (*next)(0);
}

Value AirlineWorkload::Granted(NodeId node, int customer, int flight) const {
  return cluster_->ReadAt(node, grant_[customer][flight]);
}

Value AirlineWorkload::TotalGranted(int flight) const {
  Value total = 0;
  for (int i = 0; i < options_.customers; ++i) {
    total += cluster_->ReadAt(flight_node(flight), grant_[i][flight]);
  }
  return total;
}

bool AirlineWorkload::AnyOverbooking() const {
  for (NodeId node = 0; node < cluster_->node_count(); ++node) {
    for (int j = 0; j < options_.flights; ++j) {
      Value total = 0;
      for (int i = 0; i < options_.customers; ++i) {
        total += cluster_->ReadAt(node, grant_[i][j]);
      }
      if (total > options_.seats_per_flight) return true;
    }
  }
  return false;
}

}  // namespace fragdb
