// The §4.3 consistency-predicate claim, verified over whole runs:
// "it is an immediate consequence of this correctness criterion that
//  single-fragment predicates are never violated. Thus the only kind of
//  data inconsistency one can encounter is that characterized by
//  violation of multi-fragment predicates."

#include <gtest/gtest.h>

#include "verify/checkers.h"
#include "workload/airline.h"
#include "workload/warehouse.h"

namespace fragdb {
namespace {

// ---------------------------------------------------------------------------
// TracePredicate unit behavior on a hand-built history
// ---------------------------------------------------------------------------

TEST(TracePredicateTest, TracksFlipsInInstallOrder) {
  Catalog catalog;
  FragmentId f = catalog.AddFragment("F");
  ObjectId x = *catalog.AddObject(f, "x", 5);
  History h;
  auto install = [&](TxnId id, SeqNum seq, Value v, SimTime at) {
    QuasiTxn q;
    q.origin_txn = id;
    q.fragment = f;
    q.seq = seq;
    q.writes = {{x, v}};
    h.RecordInstall(0, MakeQuasiRef(q), at);
  };
  install(1, 1, -3, 10);  // violates x >= 0
  install(2, 2, 7, 20);   // restores it
  ConsistencyPredicate nonneg{
      "x>=0", {x}, [](const std::vector<Value>& v) { return v[0] >= 0; }};
  PredicateTimeline t = TracePredicate(h, catalog, nonneg, 0);
  EXPECT_EQ(t.evaluations, 3);  // initial + 2 installs
  EXPECT_EQ(t.violations, 1);
  EXPECT_TRUE(t.holds_at_end);
  ASSERT_EQ(t.transitions.size(), 2u);
  EXPECT_EQ(t.transitions[0], (std::pair<SimTime, bool>{10, false}));
  EXPECT_EQ(t.transitions[1], (std::pair<SimTime, bool>{20, true}));
}

TEST(TracePredicateTest, OtherNodesUnaffected) {
  Catalog catalog;
  FragmentId f = catalog.AddFragment("F");
  ObjectId x = *catalog.AddObject(f, "x", 5);
  History h;
  QuasiTxn q;
  q.origin_txn = 1;
  q.fragment = f;
  q.seq = 1;
  q.writes = {{x, -1}};
  h.RecordInstall(0, MakeQuasiRef(q), 10);  // only node 0
  ConsistencyPredicate nonneg{
      "x>=0", {x}, [](const std::vector<Value>& v) { return v[0] >= 0; }};
  EXPECT_EQ(TracePredicate(h, catalog, nonneg, 0).violations, 1);
  EXPECT_EQ(TracePredicate(h, catalog, nonneg, 1).violations, 0);
}

TEST(TracePredicateTest, InitiallyViolatedPredicateCounts) {
  Catalog catalog;
  FragmentId f = catalog.AddFragment("F");
  ObjectId x = *catalog.AddObject(f, "x", -1);
  History h;
  ConsistencyPredicate nonneg{
      "x>=0", {x}, [](const std::vector<Value>& v) { return v[0] >= 0; }};
  PredicateTimeline t = TracePredicate(h, catalog, nonneg, 0);
  EXPECT_EQ(t.violations, 1);
  EXPECT_FALSE(t.holds_at_end);
}

// ---------------------------------------------------------------------------
// The §4.3 claim on real workloads
// ---------------------------------------------------------------------------

TEST(Sec43PredicateTest, AirlineNoOverbookingIsSingleFragmentAndNeverBreaks) {
  AirlineWorkload::Options opt;
  opt.customers = 4;
  opt.flights = 2;
  opt.seats_per_flight = 5;
  AirlineWorkload air(opt);
  ASSERT_TRUE(air.Start().ok());
  Cluster& cluster = air.cluster();

  // Heavy over-demand across partitions.
  ASSERT_TRUE(cluster.Partition({{0, 1, 4}, {2, 3, 5}}).ok());
  for (int c = 0; c < 4; ++c) {
    air.Request(c, 0, 3, nullptr);
    air.Request(c, 1, 3, nullptr);
  }
  cluster.RunFor(Millis(50));
  air.RunAllScans(nullptr);
  cluster.RunFor(Millis(50));
  cluster.HealAll();
  cluster.RunToQuiescence();
  air.RunAllScans(nullptr);
  cluster.RunToQuiescence();

  const Catalog& catalog = cluster.catalog();
  for (int j = 0; j < opt.flights; ++j) {
    // sum_i f_{i,j} <= capacity — all inputs live in F_j.
    ConsistencyPredicate no_overbook;
    no_overbook.name = "no-overbooking/F" + std::to_string(j);
    no_overbook.inputs = catalog.ObjectsIn(air.flight_fragment(j));
    Value cap = opt.seats_per_flight;
    no_overbook.fn = [cap](const std::vector<Value>& v) {
      Value total = 0;
      for (Value x : v) total += x;
      return total <= cap;
    };
    ASSERT_TRUE(IsSingleFragment(no_overbook, catalog));
    EXPECT_TRUE(CheckPredicateNeverViolated(cluster.history(), catalog,
                                            no_overbook,
                                            cluster.node_count())
                    .ok)
        << "flight " << j;
  }
}

TEST(Sec43PredicateTest, MultiFragmentPredicateViolatedOnlyTransiently) {
  // Warehouse: "the plan equals the shortfall implied by current stocks"
  // spans C and every W_i — a multi-fragment predicate. During partitioned
  // operation it breaks transiently (the central office planned on stale
  // stocks); after quiescence plus a fresh plan it holds again.
  WarehouseWorkload::Options opt;
  opt.warehouses = 2;
  opt.products = 1;
  opt.initial_stock = 100;
  opt.restock_target = 300;
  opt.control = ControlOption::kAcyclicReads;
  WarehouseWorkload wh(opt);
  ASSERT_TRUE(wh.Start().ok());
  Cluster& cluster = wh.cluster();
  const Catalog& catalog = cluster.catalog();

  ConsistencyPredicate plan_matches;
  plan_matches.name = "plan-matches-stocks";
  ObjectId plan_obj = catalog.ObjectsIn(wh.central_fragment())[0];
  ObjectId s0 = catalog.ObjectsIn(wh.warehouse_fragment(0))[0];
  ObjectId s1 = catalog.ObjectsIn(wh.warehouse_fragment(1))[0];
  plan_matches.inputs = {plan_obj, s0, s1};
  Value target = opt.restock_target;
  plan_matches.fn = [target](const std::vector<Value>& v) {
    Value shortfall = v[1] + v[2] < target ? target - (v[1] + v[2]) : 0;
    return v[0] == shortfall;
  };
  ASSERT_FALSE(IsSingleFragment(plan_matches, catalog));

  // Establish the predicate (it starts violated: the initial plan of 0
  // does not match the initial shortfall), then sell behind a partition
  // and re-plan on stale data.
  wh.RunCentralPlan(nullptr);
  cluster.RunToQuiescence();
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    EXPECT_TRUE(
        TracePredicate(cluster.history(), catalog, plan_matches, n)
            .holds_at_end)
        << "node " << n;
  }
  ASSERT_TRUE(cluster.Partition({{0, 1}, {2}}).ok());
  TxnResult sale;
  wh.Sell(1, 0, 50, [&](const TxnResult& r) { sale = r; });
  cluster.RunFor(Millis(50));
  ASSERT_TRUE(sale.status.ok());
  wh.RunCentralPlan(nullptr);  // stale: does not see warehouse 1's sale
  cluster.RunFor(Millis(50));
  cluster.HealAll();
  cluster.RunToQuiescence();

  // The multi-fragment predicate WAS violated somewhere along the way...
  CheckReport transient = CheckPredicateNeverViolated(
      cluster.history(), catalog, plan_matches, cluster.node_count());
  EXPECT_FALSE(transient.ok);
  // ...but a fresh plan on converged data restores it at every node.
  wh.RunCentralPlan(nullptr);
  cluster.RunToQuiescence();
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    PredicateTimeline t =
        TracePredicate(cluster.history(), catalog, plan_matches, n);
    EXPECT_TRUE(t.holds_at_end) << "node " << n;
  }
}

}  // namespace
}  // namespace fragdb
