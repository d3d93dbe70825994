// The benchmark's own test: its simulated counts repeat exactly (so any
// change in them is the program's, not noise), and each independent check
// fails when handed a deliberately wrong fact (so none passes vacuously).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cells.h"
#include "checks.h"

namespace perfbench {
namespace {

constexpr uint64_t kSeed = 3;

void ExpectRepeats(const std::string& workload, int threads_a,
                   int threads_b) {
  const std::vector<CellSpec> a = WorkloadCells(workload, kSeed, threads_a);
  const std::vector<CellSpec> b = WorkloadCells(workload, kSeed, threads_b);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const CellResult first = RunCell(a[i]);
    const CellResult second = RunCell(b[i]);
    // A known-defect cell runs at the fixed seed that shows its fault.
    EXPECT_EQ(first.ok(), !a[i].known_defect)
        << a[i].Tag() << ": "
        << (first.ok() ? std::string("passed") : first.failures.front());
    EXPECT_EQ(second.ok(), !b[i].known_defect) << b[i].Tag();
    EXPECT_GT(first.sim.committed, 0u) << a[i].Tag();
    EXPECT_EQ(first.sim.committed, second.sim.committed) << a[i].Tag();
    EXPECT_EQ(first.sim.messages_sent, second.sim.messages_sent) << a[i].Tag();
    EXPECT_EQ(first.sim.events, second.sim.events) << a[i].Tag();
    EXPECT_EQ(first.sim.commit_latencies, second.sim.commit_latencies)
        << a[i].Tag();
    EXPECT_TRUE(first.sim == second.sim) << a[i].Tag();
  }
}

TEST(PerfbenchDeterminism, GridRepeats) { ExpectRepeats("grid", 1, 1); }
TEST(PerfbenchDeterminism, DenseRepeats) { ExpectRepeats("dense", 1, 1); }
TEST(PerfbenchDeterminism, ConsensusRepeats) {
  ExpectRepeats("consensus", 1, 1);
}
TEST(PerfbenchDeterminism, DensePdesSameAtOneAndFourWorkers) {
  ExpectRepeats("dense_pdes", 1, 4);
}

TEST(PerfbenchWorkloads, UnknownWorkloadHasNoCells) {
  EXPECT_TRUE(WorkloadCells("nope", kSeed, 1).empty());
  for (const std::string& w : WorkloadNames()) {
    EXPECT_FALSE(WorkloadCells(w, kSeed, 1).empty()) << w;
  }
}

TEST(PerfbenchWorkloads, CellCheckerFailureFailsTheCell) {
  CellSpec spec = WorkloadCells("grid", kSeed, 1).front();
  ASSERT_TRUE(RunCell(spec).ok());
  spec.options.force_verify_failure = true;
  const CellResult r = RunCell(spec);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.failures.front().rfind("cell checker:", 0), 0u)
      << r.failures.front();
}

/// Facts of a finished §4.3 cell that keeps both promises: the dense cell
/// shrunk to 8 nodes.
class IndependentChecks : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_ = WorkloadCells("dense", kSeed, 1).front();
    spec_.options.nodes = 8;
    fragdb::Result<fragdb::Scenario> scenario = CompileScenario(spec_);
    ASSERT_TRUE(scenario.ok());
    fragdb::ScenarioRunner runner(std::move(*scenario), spec_.options);
    ASSERT_TRUE(runner.Start().ok());
    fragdb::ScenarioCellReport report = runner.Run();
    ASSERT_TRUE(report.ok()) << report.failure_detail;
    facts_ = CollectFacts(runner.cluster(), report);
    ASSERT_TRUE(spec_.promises.full_propagation);
    ASSERT_TRUE(spec_.promises.updates_never_block);
  }

  /// Asserts `facts` fails exactly the check named `check`.
  void ExpectOnly(const CellFacts& facts, const std::string& check) {
    std::vector<std::string> failures =
        IndependentFailures(facts, spec_.promises);
    ASSERT_FALSE(failures.empty()) << check << " passed a wrong fact";
    for (const std::string& f : failures) {
      EXPECT_EQ(f.rfind(check + ":", 0), 0u) << f;
    }
  }

  CellSpec spec_;
  CellFacts facts_;
};

TEST_F(IndependentChecks, RealFactsPass) {
  EXPECT_TRUE(IndependentFailures(facts_, spec_.promises).empty());
  EXPECT_GT(facts_.committed, 0u);
  EXPECT_EQ(facts_.replica_values.size(), 8u * 3u);
  EXPECT_EQ(facts_.replica_values.front().size(), 8u);
}

TEST_F(IndependentChecks, MutualConsistencyCatchesADivergentReplica) {
  CellFacts f = facts_;
  f.replica_values[5][3] += 1;
  ExpectOnly(f, "mutual consistency");
}

TEST_F(IndependentChecks, ConservationCatchesEachWrongCount) {
  CellFacts lost = facts_;
  lost.messages_delivered -= 1;
  lost.fifo_observed -= 1;
  ExpectOnly(lost, "conservation");
  CellFacts queued = facts_;
  queued.messages_pending = 1;
  ExpectOnly(queued, "conservation");
  CellFacts fifo = facts_;
  fifo.fifo_observed += 1;
  ExpectOnly(fifo, "conservation");
}

TEST_F(IndependentChecks, OutcomesCatchALostTransaction) {
  CellFacts f = facts_;
  f.submitted += 1;
  f.unavailable += 1;
  f.declined += 1;  // one more outcome than submissions
  // submitted - committed changes too, so the non-blocking promise fails
  // alongside; check the outcome line alone with that promise off.
  CellPromises promises = spec_.promises;
  promises.updates_never_block = false;
  std::vector<std::string> failures = IndependentFailures(f, promises);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].rfind("outcomes:", 0), 0u) << failures[0];
  CellFacts rejected = facts_;
  rejected.rejected = 1;
  ExpectOnly(rejected, "outcomes");
}

TEST_F(IndependentChecks, PropagationCatchesAMissingMessageOrInstall) {
  CellFacts sent = facts_;
  sent.messages_sent -= 1;
  sent.messages_delivered -= 1;
  sent.fifo_observed -= 1;
  ExpectOnly(sent, "propagation");
  CellFacts installs = facts_;
  installs.installs += 1;
  ExpectOnly(installs, "propagation");
}

TEST_F(IndependentChecks, NonBlockingCatchesAnUncommittedUpdate) {
  CellFacts f = facts_;
  f.committed -= 1;
  f.unavailable += 1;
  // Propagation is judged against the committed count, so keep its
  // identities true for the new count.
  const uint64_t n = static_cast<uint64_t>(f.nodes);
  f.messages_sent -= n - 1;
  f.messages_delivered -= n - 1;
  f.fifo_observed -= n - 1;
  f.installs -= n;
  ExpectOnly(f, "non-blocking");
}

}  // namespace
}  // namespace perfbench
