#ifndef FRAGDB_PERFBENCH_CELLS_H_
#define FRAGDB_PERFBENCH_CELLS_H_

// The benchmark's workloads as lists of scenario cells, and the two ways
// of running a cell: untraced (the end-to-end measurement) and traced (the
// per-layer split). Every cell runs through the public ScenarioRunner /
// Cluster API and is judged by its own checkers plus the benchmark's
// independent checks (checks.h).

#include <cstdint>
#include <string>
#include <vector>

#include "checks.h"
#include "scenario/runner.h"
#include "trace.h"

namespace perfbench {

struct CellSpec {
  std::string scenario;  // fault scenario from the library
  std::string profile;   // load-shaping profile from the library
  std::string control;   // fragmentwise | acyclic | quorum | paxos
  fragdb::ScenarioRunOptions options;
  CellPromises promises;
  /// The cell runs at a fixed seed on which a known program fault makes it
  /// fail its own checker (CHANGES.md, FOUND). It still counts in
  /// `attempted` and, while the fault stands, in `failed`, but its failure
  /// does not make the run incorrect.
  bool known_defect = false;

  std::string Tag() const { return scenario + "/" + profile + "/" + control; }
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// The cells of `workload` for `seed`; empty for an unknown name.
/// `pdes_threads` is the worker count of PDES cells.
std::vector<CellSpec> WorkloadCells(const std::string& workload,
                                    uint64_t seed, int pdes_threads);

/// Parses the cell's two library entries and merges them: the benchmark's
/// "scenario compile" (ApplyScenario's event scheduling runs inside Run).
fragdb::Result<fragdb::Scenario> CompileScenario(const CellSpec& spec);

/// Simulated outputs of a cell: identical on every run of the same spec,
/// and (under PDES) at any worker count.
struct SimCounts {
  uint64_t submitted = 0;
  uint64_t committed = 0;
  uint64_t unavailable = 0;
  uint64_t messages_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t events = 0;
  uint64_t installs = 0;
  std::vector<fragdb::SimTime> commit_latencies;

  bool operator==(const SimCounts&) const = default;
};

struct CellResult {
  /// Empty when the cell ran to its end and every check passed.
  std::vector<std::string> failures;
  SimCounts sim;
  double setup_s = 0;  // scenario compile + cluster build + Start
  double run_s = 0;    // ScenarioRunner::Run

  bool ok() const { return failures.empty(); }
};

/// One untraced cell: the measured path of the end-to-end metrics.
CellResult RunCell(const CellSpec& spec);

/// What a traced cell adds for the per-layer metrics. Times in seconds;
/// counts summed over the cell.
struct LayerSample {
  double compile_s = 0;
  double build_s = 0;
  double simulate_s = 0;  // ScenarioRunner::Run minus re-timed audit/report
  double audit_s = 0;
  double report_s = 0;
  double checks_s = 0;
  /// The primary's Run() minus the re-timed report, minus the
  /// observability-off twin's Run(); 0 when the workload's observability is
  /// already off and no twin runs.
  double obs_overhead_s = 0;
  double cell_wall_s = 0;   // the traced primary cell, first to last span
  uint64_t events = 0;
  uint64_t committed = 0;
  uint64_t pdes_windows = 0;
  uint64_t pdes_events = 0;
  uint64_t mailbox_envelopes = 0;
  uint64_t global_events = 0;
  uint64_t messages_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t messages_queued = 0;
  uint64_t installs = 0;
  uint64_t wal_records = 0;
  uint64_t wal_fsyncs = 0;
  int64_t core_heap_growth = 0;    // live bytes retained by build+simulate
  int64_t verify_heap_growth = 0;  // peak extra live bytes during the audit
  /// Replica install delays (origin commit to install), microseconds.
  std::vector<fragdb::SimTime> replication_lags;
  /// From the metrics twin (serial engine, metrics + timelines on).
  uint64_t lock_waits = 0;
  fragdb::Histogram lock_wait_us{fragdb::Histogram::DefaultTimeBounds()};
  uint64_t peer_quasis_fetched = 0;
  fragdb::Histogram recovery_us{fragdb::Histogram::DefaultTimeBounds()};
  int64_t holdback_depth_max = 0;
};

/// One traced cell: the primary run with the workload's own settings under
/// spans, then its observability-off twin (for obs.overhead_s; skipped when
/// the workload's observability is already off) and its metrics twin (for
/// the counts only the metrics registry and timelines expose). `off_first`
/// runs the off twin before the primary, so rounds can alternate which
/// side pays for a cold cache.
CellResult RunCellTraced(const CellSpec& spec, uint64_t cell_id,
                         bool off_first, SpanLog* spans, LayerSample* out);

}  // namespace perfbench

#endif  // FRAGDB_PERFBENCH_CELLS_H_
