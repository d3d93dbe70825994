#include "cells.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/audit.h"
#include "scenario/compile.h"
#include "scenario/library.h"

namespace perfbench {

using fragdb::Cluster;
using fragdb::ScenarioCellReport;
using fragdb::ScenarioRunner;
using fragdb::ScenarioRunOptions;

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"grid", "dense",
                                                 "consensus", "dense_pdes"};
  return names;
}

namespace {

/// The control column of the torture grid (bench_scenario_matrix's
/// --controls vocabulary): the control option plus the commit protocol and
/// quorum shape that go with it.
void ApplyControl(const std::string& control, ScenarioRunOptions* opt) {
  if (control == "acyclic") {
    opt->control = fragdb::ControlOption::kAcyclicReads;
  } else if (control == "quorum") {
    // Majority R and W, a quarter of arrivals as assembled quorum reads.
    opt->control = fragdb::ControlOption::kQuorum;
    opt->read_only_fraction = 0.25;
  } else if (control == "paxos") {
    opt->move_protocol = fragdb::MoveProtocol::kPaxosCommit;
  }
}

CellSpec MakeCell(const std::string& scenario, const std::string& profile,
                  const std::string& control, int nodes, uint64_t seed) {
  CellSpec c;
  c.scenario = scenario;
  c.profile = profile;
  c.control = control;
  c.options.nodes = nodes;
  c.options.seed = seed;
  ApplyControl(control, &c.options);
  // Fixed agents never block an update on a partition (§4.3).
  c.promises.updates_never_block =
      control == "fragmentwise" && scenario == "flapping_split";
  return c;
}

/// The smallest seed at which both `amnesia_crash` cells of `control`
/// fail their checker (seeds 1-60 searched with bench_scenario_matrix).
uint64_t AmnesiaDefectSeed(const std::string& control) {
  if (control == "fragmentwise") return 25;
  if (control == "acyclic") return 51;
  return 27;  // quorum
}

/// The dense cell: §4.3 propagation at 64 nodes, observability off.
CellSpec DenseCell(uint64_t seed) {
  CellSpec c = MakeCell("flapping_split", "flash_hotkey", "fragmentwise", 64,
                        seed);
  c.promises.full_propagation = true;
  return c;
}

}  // namespace

fragdb::Result<fragdb::Scenario> CompileScenario(const CellSpec& spec) {
  fragdb::Result<fragdb::Scenario> fault = fragdb::NamedScenario(spec.scenario);
  if (!fault.ok()) return fault.status();
  fragdb::Result<fragdb::Scenario> load = fragdb::NamedScenario(spec.profile);
  if (!load.ok()) return load.status();
  fragdb::Scenario merged = std::move(*fault);
  merged.Merge(*load);
  merged.name = spec.scenario;
  return merged;
}

namespace {

SimCounts CountsOf(Cluster& c, const ScenarioCellReport& report) {
  SimCounts s;
  s.submitted = report.metrics.submitted;
  s.committed = report.metrics.committed;
  s.unavailable = report.metrics.unavailable;
  s.messages_sent = report.net.messages_sent;
  s.bytes_sent = report.net.bytes_sent;
  s.events = c.engine()->events_executed();
  s.installs = c.history().installs().size();
  s.commit_latencies = report.metrics.commit_latencies;
  return s;
}

/// The cell's own checkers plus the independent ones.
void Judge(const CellSpec& spec, Cluster& c, const ScenarioCellReport& report,
           const std::string& prefix, std::vector<std::string>* failures) {
  if (!report.ok()) {
    failures->push_back(prefix + "cell checker: " + report.failure_detail);
  }
  for (std::string& f :
       IndependentFailures(CollectFacts(c, report), spec.promises)) {
    failures->push_back(prefix + f);
  }
}

/// Compiles, builds, starts and runs one cell with `options` and judges
/// it, prefixing each failure line with `prefix`. Hands the runner (and the
/// finished cluster) out through `keep` when asked.
CellResult RunWith(const CellSpec& spec, const ScenarioRunOptions& options,
                   const std::string& prefix,
                   std::unique_ptr<ScenarioRunner>* keep = nullptr) {
  CellResult result;
  const Clock::time_point t0 = Clock::now();
  fragdb::Result<fragdb::Scenario> merged = CompileScenario(spec);
  if (!merged.ok()) {
    result.failures.push_back(prefix + "compile: " +
                              merged.status().ToString());
    return result;
  }
  auto runner = std::make_unique<ScenarioRunner>(std::move(*merged), options);
  fragdb::Status st = runner->Start();
  result.setup_s = SecondsSince(t0);
  if (!st.ok()) {
    result.failures.push_back(prefix + "start: " + st.ToString());
    return result;
  }
  const Clock::time_point t1 = Clock::now();
  ScenarioCellReport report = runner->Run();
  result.run_s = SecondsSince(t1);
  Judge(spec, runner->cluster(), report, prefix, &result.failures);
  result.sim = CountsOf(runner->cluster(), report);
  if (keep != nullptr) *keep = std::move(runner);
  return result;
}

}  // namespace

std::vector<CellSpec> WorkloadCells(const std::string& workload,
                                    uint64_t seed, int pdes_threads) {
  std::vector<CellSpec> cells;
  if (workload == "grid") {
    // The default torture grid, with bench_scenario_matrix's
    // observability: timelines + availability tracker + flight recorder.
    for (const std::string& s : fragdb::ScenarioNames()) {
      for (const char* w : {"steady_uniform", "flash_hotkey"}) {
        for (const std::string c :
             {"fragmentwise", "acyclic", "quorum", "paxos"}) {
          CellSpec cell = MakeCell(s, w, c, 5, seed);
          if (s == "amnesia_crash" && c != "paxos") {
            // After node 3's amnesia recovery these cells fail their
            // serializability checker on about one seed in five
            // (CHANGES.md, FOUND). They run at a fixed seed that shows the
            // fault, the smallest at which both load profiles fail, so
            // every run fails the same cells whatever its --seed.
            cell.options.seed = AmnesiaDefectSeed(c);
            cell.known_defect = true;
          }
          cell.options.observability.timelines = true;
          cell.options.observability.flight_recorder = true;
          cells.push_back(std::move(cell));
        }
      }
    }
  } else if (workload == "dense") {
    cells.push_back(DenseCell(seed));
  } else if (workload == "consensus") {
    for (const char* c : {"paxos", "quorum"}) {
      cells.push_back(MakeCell("flapping_split", "flash_hotkey", c, 32, seed));
    }
  } else if (workload == "dense_pdes") {
    CellSpec cell = DenseCell(seed);
    cell.options.engine.kind = fragdb::EngineKind::kParallel;
    cell.options.engine.threads = pdes_threads;
    cells.push_back(std::move(cell));
  }
  return cells;
}

CellResult RunCell(const CellSpec& spec) {
  return RunWith(spec, spec.options, "");
}

namespace {

/// The traced primary run with the workload's own settings. The runner
/// (and the history it retains) is gone when this returns, so neither
/// twin runs beside it.
void RunPrimary(const CellSpec& spec, uint64_t cell_id, uint64_t cell,
                SpanLog* spans, LayerSample* out, CellResult* result) {
  uint64_t span = spans->Begin("compile", cell, cell_id);
  fragdb::Result<fragdb::Scenario> merged = CompileScenario(spec);
  if (merged.ok()) {
    // The attribution view the report step joins against.
    fragdb::BuildFaultWindows(*merged, spec.options.nodes);
  }
  out->compile_s += spans->End(span);
  if (!merged.ok()) {
    result->failures.push_back("compile: " + merged.status().ToString());
    return;
  }

  const int64_t live_before = heap::Live();
  span = spans->Begin("build", cell, cell_id);
  ScenarioRunner runner(std::move(*merged), spec.options);
  fragdb::Status st = runner.Start();
  out->build_s += spans->End(span);
  if (!st.ok()) {
    result->failures.push_back("start: " + st.ToString());
    return;
  }
  Cluster& c = runner.cluster();

  // Run() bundles traffic, drain, AuditRun and the availability report;
  // the read-only audit and report are re-timed below and subtracted.
  span = spans->Begin("simulate", cell, cell_id);
  ScenarioCellReport report = runner.Run();
  const double run_s = spans->End(span);
  out->core_heap_growth =
      std::max(out->core_heap_growth, heap::Live() - live_before);

  span = spans->Begin("audit", cell, cell_id);
  heap::ResetPeak();
  const int64_t live_audit = heap::Live();
  const bool audit_ok = fragdb::AuditRun(c).ok();
  out->verify_heap_growth =
      std::max(out->verify_heap_growth, heap::Peak() - live_audit);
  const double audit_s = spans->End(span);

  span = spans->Begin("report", cell, cell_id);
  if (fragdb::AvailabilityTracker* av = c.availability()) {
    const fragdb::SimTime horizon = c.Now();
    fragdb::CheckAvailabilityIntervals(av->intervals(), horizon);
    fragdb::BuildAvailabilityReport(
        *av, fragdb::BuildFaultWindows(runner.scenario(), spec.options.nodes),
        horizon)
        .Fingerprint();
  }
  if (fragdb::ClusterTimelines* tl = c.timelines()) tl->Fingerprint();
  const double report_s = spans->End(span);
  out->audit_s += audit_s;
  out->report_s += report_s;
  out->simulate_s += run_s - audit_s - report_s;

  span = spans->Begin("checks", cell, cell_id);
  if (!audit_ok) result->failures.push_back("re-timed audit failed");
  Judge(spec, c, report, "", &result->failures);
  result->sim = CountsOf(c, report);
  out->checks_s += spans->End(span);

  out->events += result->sim.events;
  out->committed += result->sim.committed;
  out->installs += result->sim.installs;
  if (fragdb::PdesScheduler* p = c.pdes_scheduler()) {
    out->pdes_windows += p->stats().windows;
    out->pdes_events += p->stats().events_executed;
    out->mailbox_envelopes += p->stats().mailbox_envelopes;
    out->global_events += p->stats().global_events;
  }
  const fragdb::NetworkStats net = c.net_stats();
  out->messages_sent += net.messages_sent;
  out->bytes_sent += net.bytes_sent;
  out->messages_queued += net.messages_queued;
  for (fragdb::NodeId n = 0; n < c.node_count(); ++n) {
    if (fragdb::NodeDurability* d = c.durability(n)) {
      out->wal_records += d->stats().wal_records;
      out->wal_fsyncs += d->wal().syncs();
    }
  }
  for (const fragdb::InstallRecord& r : c.history().installs()) {
    if (r.node != r.origin_node) {
      out->replication_lags.push_back(r.at - r.origin_time);
    }
  }
}

/// Reads the counts only the metrics registry and timelines expose.
void ReadMetricsTwin(Cluster& m, LayerSample* out) {
  for (const fragdb::MetricEntry& e : m.SnapshotMetrics().entries) {
    if (e.key.name == "lock_wait_us") {
      const fragdb::Histogram& h = e.histogram;
      // The first bucket (<= 10us) holds the grants that did not queue.
      out->lock_waits += h.count() - h.buckets().front();
      out->lock_wait_us.Merge(h);
    } else if (e.key.name == "recovery_duration_us") {
      out->recovery_us.Merge(e.histogram);
    } else if (e.key.name == "peer_quasis_fetched_total") {
      out->peer_quasis_fetched += e.counter;
    }
  }
  if (fragdb::ClusterTimelines* tl = m.timelines()) {
    for (fragdb::NodeId n = 0; n < tl->nodes(); ++n) {
      for (const fragdb::TimeBucket& b : tl->HoldbackDepth(n).buckets()) {
        if (b.count > 0) {
          out->holdback_depth_max = std::max(out->holdback_depth_max, b.max);
        }
      }
    }
  }
}

}  // namespace

CellResult RunCellTraced(const CellSpec& spec, uint64_t cell_id,
                         bool off_first, SpanLog* spans, LayerSample* out) {
  CellResult result;
  auto keep_failures = [&result](const CellResult& twin) {
    result.failures.insert(result.failures.end(), twin.failures.begin(),
                           twin.failures.end());
  };
  // The off twin only differs from the primary when the workload turns
  // some observability on.
  const bool off_twin = spec.options.observability.enabled();
  ScenarioRunOptions off_options = spec.options;
  off_options.observability = fragdb::ObservabilityConfig{};
  CellResult off;
  auto run_off_twin = [&] {
    const uint64_t span = spans->Begin("off_twin", 0, cell_id);
    off = RunWith(spec, off_options, "off twin: ");
    spans->End(span);
    keep_failures(off);
  };
  if (off_twin && off_first) run_off_twin();

  const uint64_t cell = spans->Begin("cell", 0, cell_id);
  const double before = out->simulate_s + out->audit_s;
  RunPrimary(spec, cell_id, cell, spans, out, &result);
  out->cell_wall_s += spans->End(cell);

  if (off_twin) {
    if (!off_first) run_off_twin();
    out->obs_overhead_s += out->simulate_s + out->audit_s - before - off.run_s;
    // Observability never changes the simulation.
    if (off.sim != result.sim) {
      result.failures.push_back("off twin: simulated counts differ");
    }
  }

  // Metrics twin: the registry only exists on the serial engine.
  ScenarioRunOptions metrics_options = spec.options;
  metrics_options.engine = fragdb::EngineConfig{};
  metrics_options.observability.metrics = true;
  metrics_options.observability.timelines = true;
  const uint64_t span = spans->Begin("metrics_twin", 0, cell_id);
  std::unique_ptr<ScenarioRunner> twin;
  const CellResult metrics =
      RunWith(spec, metrics_options, "metrics twin: ", &twin);
  keep_failures(metrics);
  if (twin != nullptr) {
    if (spec.options.engine.kind == fragdb::EngineKind::kSerial &&
        metrics.sim != result.sim) {
      result.failures.push_back("metrics twin: simulated counts differ");
    }
    ReadMetricsTwin(twin->cluster(), out);
  }
  twin.reset();
  spans->End(span);
  return result;
}

}  // namespace perfbench
