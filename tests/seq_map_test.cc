// SeqMap: the sorted-vector map behind every fragment stream's holdback,
// log and prepared set. Lookups answer "absent" without a binary search
// for a seq past the back; these cases pin that the shortcut and the
// search agree on every edge.

#include "core/seq_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/seq_bitset.h"

namespace fragdb {
namespace {

SeqMap<int> Make(const std::vector<SeqNum>& seqs) {
  SeqMap<int> m;
  for (SeqNum s : seqs) m.Put(s, static_cast<int>(s * 10));
  return m;
}

TEST(SeqMapTest, EmptyMapFindsNothing) {
  SeqMap<int> m;
  EXPECT_FALSE(m.Contains(0));
  EXPECT_FALSE(m.Contains(1));
  EXPECT_EQ(m.Find(1), nullptr);
  EXPECT_FALSE(m.Erase(1));
  EXPECT_EQ(m.UpperBound(0), m.end());
}

TEST(SeqMapTest, SeqPastTheBackIsAbsent) {
  SeqMap<int> m = Make({1, 2, 3});
  EXPECT_FALSE(m.Contains(4));
  EXPECT_FALSE(m.Contains(1000));
  EXPECT_EQ(m.Find(4), nullptr);
  ASSERT_NE(m.Find(3), nullptr);  // the back itself is present
  EXPECT_EQ(*m.Find(3), 30);
}

TEST(SeqMapTest, SeqBelowTheFrontIsAbsent) {
  SeqMap<int> m = Make({5, 6, 7});
  EXPECT_FALSE(m.Contains(4));
  EXPECT_FALSE(m.Contains(0));
  EXPECT_FALSE(m.Contains(-3));
  EXPECT_EQ(m.Find(4), nullptr);
  ASSERT_NE(m.Find(5), nullptr);
  EXPECT_EQ(*m.Find(5), 50);
}

TEST(SeqMapTest, SeqIntoAHoleIsAbsent) {
  SeqMap<int> m = Make({1, 2, 5, 9});
  for (SeqNum hole : {3, 4, 6, 7, 8}) {
    EXPECT_FALSE(m.Contains(hole)) << hole;
    EXPECT_EQ(m.Find(hole), nullptr) << hole;
  }
  for (SeqNum present : {1, 2, 5, 9}) {
    ASSERT_NE(m.Find(present), nullptr) << present;
    EXPECT_EQ(*m.Find(present), present * 10);
  }
  // Out-of-order insertion into the hole keeps the order and is found.
  m.Put(4, 44);
  ASSERT_NE(m.Find(4), nullptr);
  EXPECT_EQ(*m.Find(4), 44);
  std::vector<SeqNum> order;
  for (const auto& [seq, v] : m) order.push_back(seq);
  EXPECT_EQ(order, (std::vector<SeqNum>{1, 2, 4, 5, 9}));
}

TEST(SeqMapTest, EraseGreaterThanMovesTheBack) {
  SeqMap<int> m = Make({1, 2, 3, 4, 5});
  m.EraseGreaterThan(3);
  EXPECT_EQ(m.size(), 3u);
  EXPECT_TRUE(m.Contains(3));
  EXPECT_FALSE(m.Contains(4));  // now past the back
  EXPECT_FALSE(m.Contains(5));
  EXPECT_EQ(m.Find(4), nullptr);
  // Appending past the new back works and is found again.
  m.Put(4, 400);
  ASSERT_NE(m.Find(4), nullptr);
  EXPECT_EQ(*m.Find(4), 400);
  m.EraseGreaterThan(0);
  EXPECT_TRUE(m.empty());
  EXPECT_FALSE(m.Contains(1));
}

TEST(SeqMapTest, EraseLessEqualMovesTheFront) {
  SeqMap<int> m = Make({1, 2, 3, 4, 5});
  m.EraseLessEqual(2);
  EXPECT_EQ(m.size(), 3u);
  EXPECT_FALSE(m.Contains(1));
  EXPECT_FALSE(m.Contains(2));  // now below the front
  ASSERT_NE(m.Find(3), nullptr);
  EXPECT_EQ(*m.Find(5), 50);
  EXPECT_FALSE(m.Contains(6));
  m.EraseLessEqual(5);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.Find(5), nullptr);
}

TEST(SeqMapTest, EraseOfTheBackKeepsLookupsExact) {
  SeqMap<int> m = Make({1, 2, 3});
  EXPECT_TRUE(m.Erase(3));
  EXPECT_FALSE(m.Contains(3));
  EXPECT_TRUE(m.Contains(2));
  EXPECT_FALSE(m.Erase(3));
  EXPECT_EQ(m.UpperBound(1)->seq, 2);
  EXPECT_EQ(m.UpperBound(2), m.end());
}

// SeqBitset: the decided set of a Paxos slot table, one bit per seq with
// the fully set prefix dropped.
TEST(SeqBitsetTest, TestsExactlyTheSetSeqs) {
  SeqBitset b;
  EXPECT_FALSE(b.Test(1));
  for (SeqNum s : {3, 64, 65, 200}) b.Set(s);
  for (SeqNum s = 1; s <= 300; ++s) {
    const bool want = s == 3 || s == 64 || s == 65 || s == 200;
    EXPECT_EQ(b.Test(s), want) << s;
  }
  b.Clear();
  EXPECT_FALSE(b.Test(3));
  EXPECT_EQ(b.words(), 0u);
}

TEST(SeqBitsetTest, InOrderPrefixIsDroppedAndAGapPinsTheRest) {
  SeqBitset b;
  for (SeqNum s = 1; s <= 100000; ++s) b.Set(s);
  EXPECT_LE(b.words(), 1u);
  EXPECT_TRUE(b.Test(1));
  EXPECT_TRUE(b.Test(100000));
  EXPECT_FALSE(b.Test(100001));
  // A seq never set stops the drop: one bit per later seq.
  for (SeqNum s = 100002; s <= 110000; ++s) b.Set(s);
  EXPECT_FALSE(b.Test(100001));
  EXPECT_TRUE(b.Test(100002));
  EXPECT_LE(b.words(), 10000u / 64 + 2);
  b.Set(100001);  // filled: everything before the last word drops again
  EXPECT_LE(b.words(), 1u);
  for (SeqNum s = 99990; s <= 110000; ++s) EXPECT_TRUE(b.Test(s)) << s;
  EXPECT_FALSE(b.Test(110001));
}

TEST(SeqBitsetTest, OutOfOrderSetsMatchAReferenceSet) {
  SeqBitset b;
  std::vector<bool> want(5000, false);
  uint64_t r = 7;
  for (int i = 0; i < 20000; ++i) {
    r ^= r << 13;
    r ^= r >> 7;
    r ^= r << 17;
    // Mostly near an advancing front, sometimes far behind it.
    const SeqNum s = 1 + static_cast<SeqNum>((i / 5 + r % 64) % 4999);
    b.Set(s);
    want[s] = true;
  }
  for (SeqNum s = 1; s < 5000; ++s) EXPECT_EQ(b.Test(s), want[s]) << s;
}

}  // namespace
}  // namespace fragdb
