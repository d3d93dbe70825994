#include <gtest/gtest.h>

#include "verify/history.h"
#include "verify/serialization_graph.h"

namespace fragdb {
namespace {

struct DiagHistory {
  History h;
  DiagHistory() {
    TxnRecord a;
    a.id = 1;
    a.type_fragment = 0;
    a.home = 0;
    a.label = "deposit";
    h.RegisterTxn(a);
    TxnRecord b;
    b.id = 2;
    b.type_fragment = 1;
    b.home = 1;
    b.read_only = true;
    h.RegisterTxn(b);
    h.MarkCommitted(1, 3);
    QuasiTxn q;
    q.origin_txn = 1;
    q.fragment = 0;
    q.seq = 3;
    q.writes = {{0, 7}, {1, 8}};
    h.RecordInstall(0, MakeQuasiRef(q), 10);
  }
};

TEST(HistoryDebugStringTest, ListsTransactions) {
  DiagHistory d;
  std::string dump = d.h.DebugString();
  EXPECT_NE(dump.find("T1 \"deposit\" tp=F0 home=N0 committed seq=3"),
            std::string::npos);
  EXPECT_NE(dump.find("writes=2"), std::string::npos);
  EXPECT_NE(dump.find("T2"), std::string::npos);
  EXPECT_NE(dump.find("[ro]"), std::string::npos);
  EXPECT_NE(dump.find("uncommitted"), std::string::npos);
}

TEST(TxnGraphDotTest, RendersVerticesAndEdges) {
  TxnGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  std::string dot = g.ToDot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("T1 -> T2"), std::string::npos);
  EXPECT_NE(dot.find("T2 -> T3"), std::string::npos);
  EXPECT_EQ(dot.find("color=red"), std::string::npos);  // acyclic: no hot set
}

TEST(TxnGraphDotTest, HighlightsCycle) {
  TxnGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 1);
  g.AddVertex(5);
  std::string dot = g.ToDot();
  EXPECT_NE(dot.find("color=red"), std::string::npos);
  EXPECT_NE(dot.find("T5"), std::string::npos);
}

TEST(TxnGraphDotTest, UsesHistoryLabels) {
  DiagHistory d;
  TxnGraph g;
  g.AddVertex(1);
  std::string dot = g.ToDot(&d.h);
  EXPECT_NE(dot.find("deposit"), std::string::npos);
  EXPECT_NE(dot.find("tp=F0"), std::string::npos);
}

}  // namespace
}  // namespace fragdb
