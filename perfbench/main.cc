// FragDB end-to-end benchmark program. One process runs one workload for
// --seconds of wall time, in whole rounds (every cell of the workload, one
// after another), and prints one JSON result as its last stdout line:
//
//   fragdb_perfbench --workload grid --seed 7 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured with nothing but
// clocks around whole cells and scaled to a nominal host speed by
// reference passes in a child process between rounds (see
// ReferenceSeconds). --trace 1 first runs one untraced reference round,
// then traced rounds that split each cell into spans (compile, build,
// simulate, audit, report, checks) plus up to two twins per cell, and
// reports the per-layer metrics. See README.md for what each metric means.

#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cells.h"
#include "trace.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      a->trace = value == "1";
    } else if (key == "--trace_out") {
      a->trace_out = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // Linux reports KiB
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<int64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  return static_cast<double>(v[std::max<size_t>(rank, 1) - 1]);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Failed runs of cells not marked known_defect: any makes the run
  /// incorrect.
  uint64_t unexpected = 0;
  /// Round 0's simulated counts per cell: every later run of the same
  /// cell must reproduce them exactly.
  std::vector<SimCounts> reference;
  /// Sums of the reference counts over the workload's cells.
  SimCounts first_round;

  /// Records one run of cell `i`.
  void Record(size_t i, const CellSpec& spec, const CellResult& r) {
    ++attempted;
    std::vector<std::string> failures = r.failures;
    const bool first = reference.size() <= i;
    if (first) {
      reference.resize(i + 1);
      reference[i] = r.sim;
      first_round.submitted += r.sim.submitted;
      first_round.committed += r.sim.committed;
      first_round.unavailable += r.sim.unavailable;
    } else if (reference[i] != r.sim) {
      failures.push_back("simulated counts differ from the first round");
    }
    if (failures.empty()) return;
    ++failed;
    if (!spec.known_defect) {
      ++unexpected;
    } else if (!first) {
      return;  // reported on its first run; it repeats exactly
    }
    for (const std::string& f : failures) {
      std::fprintf(stderr, "%s %s seed %llu: %s\n",
                   spec.known_defect ? "FAILED (known defect)" : "FAILED",
                   spec.Tag().c_str(),
                   static_cast<unsigned long long>(spec.options.seed),
                   f.c_str());
    }
  }
};

/// Seconds one pass of a fixed reference workload takes: hash-map
/// updates, small allocations and a sort over a seeded xorshift stream.
/// It shares no code with FragDB.
double ReferencePass() {
  const Clock::time_point t0 = Clock::now();
  uint64_t x = 88172645463325252ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::unordered_map<uint64_t, uint64_t> map;
  std::vector<uint64_t> sorted;
  for (int i = 0; i < 200000; ++i) {
    map[next() % 50000] += static_cast<uint64_t>(i);
    sorted.push_back(next());
  }
  std::sort(sorted.begin(), sorted.end());
  const double s = SecondsSince(t0);
  // Keep the work observable so the compiler cannot drop it.
  if (map.size() + sorted[sorted.size() / 2] == 0) std::abort();
  return s;
}

/// Reference passes per child process; the child reports their median.
constexpr int kReferencePasses = 5;
constexpr const char* kReferenceFlag = "--reference_passes";

/// Pins the calling thread to `cpu`; best effort.
void PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

double MedianOfPasses() {
  std::vector<double> passes;
  for (int i = 0; i < kReferencePasses; ++i) passes.push_back(ReferencePass());
  return Median(passes);
}

/// The child process's side. With one thread it pins itself to `cpu` (the
/// CPU the parent last ran on, so both see the same neighbours) and prints
/// the median of kReferencePasses passes. With more, as the PDES workers
/// do, it runs that many threads at once on CPUs 0, 1, ... and prints the
/// slowest thread's median: like a PDES window, the round waits for its
/// slowest worker.
int ReferenceMain(int cpu, int threads) {
  if (threads <= 1) {
    PinTo(cpu);
    std::printf("%.9f\n", MedianOfPasses());
    return 0;
  }
  std::vector<double> medians(threads);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([t, &medians] {
      PinTo(t);
      medians[t] = MedianOfPasses();
    });
  }
  for (std::thread& w : workers) w.join();
  std::printf("%.9f\n", *std::max_element(medians.begin(), medians.end()));
  return 0;
}

/// The median reference pass on `threads` CPUs, timed in a fresh child
/// process (this binary run with kReferenceFlag) so that nothing FragDB
/// leaves in this process's heap or allocator can move it; only the host's
/// speed does. Exits the program when the child cannot be run.
double ReferenceSeconds(const std::string& self, int threads) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("perfbench: pipe");
    std::exit(1);
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::string flag = kReferenceFlag;
  std::string path = self;
  std::string cpu = std::to_string(std::max(sched_getcpu(), 0));
  std::string count = std::to_string(threads);
  char* child_argv[] = {path.data(), flag.data(), cpu.data(), count.data(),
                        nullptr};
  pid_t pid = 0;
  const int err = posix_spawn(&pid, self.c_str(), &actions, nullptr,
                              child_argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[64];
  ssize_t n = 0;
  while (err == 0 && (n = read(fds[0], buf, sizeof buf)) > 0) out.append(buf, n);
  close(fds[0]);
  int status = 0;
  if (err != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "perfbench: reference child %s failed\n",
                 self.c_str());
    std::exit(1);
  }
  char* end = nullptr;
  const double s = std::strtod(out.c_str(), &end);
  if (end == out.c_str() || !(s > 0)) {
    std::fprintf(stderr, "perfbench: reference child printed '%s'\n",
                 out.c_str());
    std::exit(1);
  }
  return s;
}

/// The median reference pass on an undisturbed vCPU of the machine the
/// benchmark was tuned on (2.0 GHz Xeon, 26-27 ms; neighbours stretch it
/// past 40 ms). Wall and CPU times are scaled by nominal / measured, i.e.
/// expressed in seconds of a host running at this speed.
constexpr double kNominalReferenceSeconds = 0.026;

struct Round {
  double wall_s = 0;
  double cpu_s = 0;
  double setup_s = 0;
  uint64_t committed = 0;
};

Round RunRound(const std::vector<CellSpec>& cells, Tally* tally,
               std::vector<int64_t>* latencies) {
  Round round;
  const double cpu0 = CpuSeconds();
  const Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < cells.size(); ++i) {
    CellResult r = RunCell(cells[i]);
    tally->Record(i, cells[i], r);
    round.setup_s += r.setup_s;
    round.committed += r.sim.committed;
    if (latencies != nullptr) {
      latencies->insert(latencies->end(), r.sim.commit_latencies.begin(),
                        r.sim.commit_latencies.end());
    }
  }
  round.wall_s = SecondsSince(t0);
  round.cpu_s = CpuSeconds() - cpu0;
  return round;
}

std::vector<Metric> EndToEnd(const std::vector<CellSpec>& cells,
                             double seconds, const std::string& self,
                             int reference_threads, Tally* tally) {
  std::vector<Round> rounds;
  std::vector<int64_t> latencies;  // round 0's, identical in every round
  const Clock::time_point start = Clock::now();
  // Reference passes before every round and after the last: a round's
  // host speed is the mean of the medians on either side of it.
  std::vector<double> reference = {ReferenceSeconds(self, reference_threads)};
  do {
    rounds.push_back(
        RunRound(cells, tally, rounds.empty() ? &latencies : nullptr));
    reference.push_back(ReferenceSeconds(self, reference_threads));
  } while (SecondsSince(start) < seconds);

  std::vector<double> setup, per_s, per_cpu_s, raw_per_s;
  for (size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    const double scale =
        kNominalReferenceSeconds / ((reference[i] + reference[i + 1]) / 2);
    setup.push_back(r.setup_s * scale);
    per_s.push_back(r.committed / (r.wall_s * scale));
    per_cpu_s.push_back(r.committed / (r.cpu_s * scale));
    raw_per_s.push_back(r.committed / r.wall_s);
  }
  std::printf("unscaled: %.0f commits/s (median round), reference pass "
              "%.3f ms (median)\n",
              Median(raw_per_s), Median(reference) * 1000);
  std::printf("%zu rounds; per round: %llu submitted, %llu committed, "
              "%llu refused as unavailable, %llu declined\n",
              rounds.size(),
              static_cast<unsigned long long>(tally->first_round.submitted),
              static_cast<unsigned long long>(tally->first_round.committed),
              static_cast<unsigned long long>(tally->first_round.unavailable),
              static_cast<unsigned long long>(tally->first_round.submitted -
                                              tally->first_round.committed -
                                              tally->first_round.unavailable));
  return {
      {"setup_s", Median(setup), "s"},
      {"commits_per_s", Median(per_s), "1/s"},
      {"commits_per_cpu_s", Median(per_cpu_s), "1/s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"sim_commit_p99_ms", Percentile(latencies, 0.99) / 1000.0, "ms"},
  };
}

std::vector<Metric> PerLayer(const std::vector<CellSpec>& cells,
                             double seconds, const std::string& trace_out,
                             Tally* tally) {
  const Clock::time_point start = Clock::now();
  const Round reference = RunRound(cells, tally, nullptr);

  heap::Enable();
  SpanLog spans;
  std::vector<LayerSample> rounds;
  uint64_t cell_id = 0;
  do {
    LayerSample s;
    const bool off_first = rounds.size() % 2 == 1;
    for (size_t i = 0; i < cells.size(); ++i) {
      tally->Record(i, cells[i],
                    RunCellTraced(cells[i], ++cell_id, off_first, &spans, &s));
    }
    rounds.push_back(std::move(s));
  } while (SecondsSince(start) < seconds);
  if (!trace_out.empty() && !spans.WriteJsonl(trace_out)) {
    std::fprintf(stderr, "cannot write spans to %s\n", trace_out.c_str());
  }
  std::fprintf(stderr, "1 reference + %zu traced rounds, %zu spans\n",
               rounds.size(), spans.spans().size());

  // Every metric is a median over the traced rounds (counts repeat
  // exactly, so their median is their value).
  auto med = [&rounds](auto f) {
    std::vector<double> v;
    for (const LayerSample& s : rounds) v.push_back(f(s));
    return Median(v);
  };
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double mb = 1024.0 * 1024.0;
  const LayerSample& first = rounds.front();
  return {
      {"sim.events_per_commit", per(first.events, first.committed), "count"},
      {"sim.ns_per_event",
       med([&](const LayerSample& s) {
         return per(s.simulate_s * 1e9, s.events);
       }),
       "ns"},
      {"sim.events_per_window", per(first.pdes_events, first.pdes_windows),
       "count"},
      {"sim.mailbox_envelopes_per_commit",
       per(first.mailbox_envelopes, first.committed), "count"},
      {"sim.global_events", static_cast<double>(first.global_events), "count"},
      {"net.messages_per_commit", per(first.messages_sent, first.committed),
       "count"},
      {"net.bytes_per_commit", per(first.bytes_sent, first.committed), "B"},
      {"net.messages_queued", static_cast<double>(first.messages_queued),
       "count"},
      {"core.build_s", med([](const LayerSample& s) { return s.build_s; }),
       "s"},
      {"core.simulate_s",
       med([](const LayerSample& s) { return s.simulate_s; }), "s"},
      {"core.rss_growth_mb",
       med([&](const LayerSample& s) { return s.core_heap_growth / mb; }),
       "MB"},
      {"core.replication_lag_p99_ms",
       Percentile(first.replication_lags, 0.99) / 1000.0, "sim_ms"},
      {"core.holdback_depth_max",
       static_cast<double>(first.holdback_depth_max), "count"},
      {"cc.lock_waits", static_cast<double>(first.lock_waits), "count"},
      {"cc.lock_wait_p99_ms", first.lock_wait_us.Percentile(0.99) / 1000.0,
       "sim_ms"},
      {"recovery.wal_records", static_cast<double>(first.wal_records), "count"},
      {"recovery.wal_fsyncs", static_cast<double>(first.wal_fsyncs), "count"},
      {"recovery.peer_quasis_fetched",
       static_cast<double>(first.peer_quasis_fetched), "count"},
      {"recovery.duration_p99_ms", first.recovery_us.Percentile(0.99) / 1000.0,
       "sim_ms"},
      {"scenario.compile_s",
       med([](const LayerSample& s) { return s.compile_s; }), "s"},
      {"verify.audit_s", med([](const LayerSample& s) { return s.audit_s; }),
       "s"},
      {"verify.ns_per_install",
       med([&](const LayerSample& s) {
         return per(s.audit_s * 1e9, s.installs);
       }),
       "ns"},
      {"verify.history_installs", static_cast<double>(first.installs), "count"},
      {"verify.rss_growth_mb",
       med([&](const LayerSample& s) { return s.verify_heap_growth / mb; }),
       "MB"},
      {"obs.overhead_s",
       med([](const LayerSample& s) { return s.obs_overhead_s; }), "s"},
      {"obs.report_s", med([](const LayerSample& s) { return s.report_s; }),
       "s"},
      {"bench.checks_s", med([](const LayerSample& s) { return s.checks_s; }),
       "s"},
      // The traced cells without the re-timed audit and report, which the
      // untraced round runs once (inside Run) rather than twice.
      {"trace.overhead_s",
       med([](const LayerSample& s) {
         return s.cell_wall_s - s.audit_s - s.report_s;
       }) - reference.wall_s,
       "s"},
  };
}

void PrintResult(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally.unexpected == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// CPUs the reference passes run on: the most PDES workers of any cell,
/// else 1.
int ReferenceThreads(const std::vector<CellSpec>& cells) {
  int threads = 1;
  for (const CellSpec& c : cells) {
    if (c.options.engine.kind == fragdb::EngineKind::kParallel) {
      threads = std::max(threads, c.options.engine.threads);
    }
  }
  return threads;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 4 && std::string(argv[1]) == kReferenceFlag) {
    return ReferenceMain(std::atoi(argv[2]), std::atoi(argv[3]));
  }
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <%s> --seed N --seconds S --trace 0|1"
                 " [--trace_out spans.jsonl]\n",
                 argv[0], "grid|dense|consensus|dense_pdes");
    return 2;
  }
  // PDES cells use up to four workers, never more than the machine has.
  const int threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  const std::vector<CellSpec> cells =
      WorkloadCells(args.workload, args.seed, threads);
  if (cells.empty()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("workload %s: %zu cells, seed %llu, %g s%s\n",
              args.workload.c_str(), cells.size(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? ", traced" : "");
  // This binary's own path, to run the reference passes in a child.
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof self - 1);
  if (len <= 0) {
    std::perror("perfbench: readlink /proc/self/exe");
    return 1;
  }
  self[len] = '\0';
  Tally tally;
  const std::vector<Metric> metrics =
      args.trace ? PerLayer(cells, args.seconds, args.trace_out, &tally)
                 : EndToEnd(cells, args.seconds, self,
                            ReferenceThreads(cells), &tally);
  PrintResult(tally, metrics);
  return 0;
}
