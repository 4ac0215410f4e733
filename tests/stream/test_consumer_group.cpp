#include "pa/stream/consumer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <thread>

namespace pa::stream {
namespace {

class ConsumerGroupTest : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_.create_topic("t", 6);
    for (int i = 0; i < 60; ++i) {
      broker_.produce_to("t", i % 6, "", std::to_string(i));
    }
  }

  Broker broker_;
};

TEST_F(ConsumerGroupTest, SingleConsumerOwnsAllPartitions) {
  GroupCoordinator coord(broker_);
  Consumer c(broker_, coord, "t", "g", "m1");
  const auto batch = c.poll(1000);
  EXPECT_EQ(batch.size(), 60u);
  EXPECT_EQ(c.assigned_partitions().size(), 6u);
}

TEST_F(ConsumerGroupTest, TwoConsumersSplitPartitions) {
  GroupCoordinator coord(broker_);
  Consumer a(broker_, coord, "t", "g", "m1");
  Consumer b(broker_, coord, "t", "g", "m2");
  const auto batch_a = a.poll(1000);
  const auto batch_b = b.poll(1000);
  EXPECT_EQ(a.assigned_partitions().size(), 3u);
  EXPECT_EQ(b.assigned_partitions().size(), 3u);
  EXPECT_EQ(batch_a.size() + batch_b.size(), 60u);
  // Disjoint assignments.
  std::set<int> pa(a.assigned_partitions().begin(),
                   a.assigned_partitions().end());
  for (int p : b.assigned_partitions()) {
    EXPECT_EQ(pa.count(p), 0u);
  }
}

TEST_F(ConsumerGroupTest, UnevenPartitionSplit) {
  GroupCoordinator coord(broker_);
  Consumer a(broker_, coord, "t", "g", "m1");
  Consumer b(broker_, coord, "t", "g", "m2");
  Consumer c(broker_, coord, "t", "g", "m3");
  Consumer d(broker_, coord, "t", "g", "m4");
  // Assignments materialize on the first poll.
  a.poll(1);
  b.poll(1);
  c.poll(1);
  d.poll(1);
  // 6 partitions over 4 members: sizes 2,2,1,1.
  std::vector<std::size_t> sizes = {a.assigned_partitions().size(),
                                    b.assigned_partitions().size(),
                                    c.assigned_partitions().size(),
                                    d.assigned_partitions().size()};
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 1, 2, 2}));
}

TEST_F(ConsumerGroupTest, NoMessageLostOrDuplicatedAcrossGroup) {
  GroupCoordinator coord(broker_);
  Consumer a(broker_, coord, "t", "g", "m1");
  Consumer b(broker_, coord, "t", "g", "m2");
  std::multiset<std::string> seen;
  for (const auto& m : a.poll(1000)) {
    seen.insert(m.payload);
  }
  for (const auto& m : b.poll(1000)) {
    seen.insert(m.payload);
  }
  EXPECT_EQ(seen.size(), 60u);
  for (int i = 0; i < 60; ++i) {
    EXPECT_EQ(seen.count(std::to_string(i)), 1u) << i;
  }
}

TEST_F(ConsumerGroupTest, CommitPersistsAcrossRebalance) {
  GroupCoordinator coord(broker_);
  {
    Consumer a(broker_, coord, "t", "g", "m1");
    a.poll(1000);
    a.commit();
  }  // m1 leaves; generation bumps
  Consumer b(broker_, coord, "t", "g", "m2");
  const auto batch = b.poll(1000);
  EXPECT_TRUE(batch.empty());  // everything was committed by m1
  EXPECT_EQ(coord.lag("t", "g"), 0u);
}

TEST_F(ConsumerGroupTest, UncommittedMessagesRedelivered) {
  GroupCoordinator coord(broker_);
  {
    Consumer a(broker_, coord, "t", "g", "m1");
    const auto batch = a.poll(1000);
    EXPECT_EQ(batch.size(), 60u);
    // no commit: at-least-once means redelivery after the member leaves
  }
  Consumer b(broker_, coord, "t", "g", "m2");
  EXPECT_EQ(b.poll(1000).size(), 60u);
}

TEST_F(ConsumerGroupTest, RebalanceFencesCommitOfInFlightBatch) {
  // m1 polls everything, then m2 joins before m1 commits. The stale
  // commit must not land: m2 now owns half the partitions and re-reads
  // them, so each message is committed by exactly one member.
  GroupCoordinator coord(broker_);
  Consumer a(broker_, coord, "t", "g", "m1");
  EXPECT_EQ(a.poll(1000).size(), 60u);
  Consumer b(broker_, coord, "t", "g", "m2");
  EXPECT_FALSE(a.commit());
  EXPECT_EQ(coord.lag("t", "g"), 60u);
  std::size_t committed = 0;
  for (Consumer* c : {&a, &b}) {
    const auto batch = c->poll(1000);
    ASSERT_TRUE(c->commit());
    committed += batch.size();
  }
  EXPECT_EQ(committed, 60u);
  EXPECT_EQ(coord.lag("t", "g"), 0u);
}

TEST_F(ConsumerGroupTest, LagTracksConsumption) {
  GroupCoordinator coord(broker_);
  EXPECT_EQ(coord.lag("t", "g"), 60u);
  Consumer a(broker_, coord, "t", "g", "m1");
  a.poll(25);
  a.commit();
  EXPECT_EQ(coord.lag("t", "g"), 35u);
  a.poll(1000);
  a.commit();
  EXPECT_EQ(coord.lag("t", "g"), 0u);
}

TEST_F(ConsumerGroupTest, GenerationBumpsOnMembershipChange) {
  GroupCoordinator coord(broker_);
  const auto g0 = coord.generation("t", "g");
  Consumer a(broker_, coord, "t", "g", "m1");
  const auto g1 = coord.generation("t", "g");
  EXPECT_GT(g1, g0);
  {
    Consumer b(broker_, coord, "t", "g", "m2");
    EXPECT_GT(coord.generation("t", "g"), g1);
  }
  EXPECT_GT(coord.generation("t", "g"), g1 + 1);  // leave also bumps
}

TEST_F(ConsumerGroupTest, ConsumerPicksUpNewAssignmentAfterRebalance) {
  GroupCoordinator coord(broker_);
  Consumer a(broker_, coord, "t", "g", "m1");
  a.poll(1);  // assignment: all 6 partitions
  EXPECT_EQ(a.assigned_partitions().size(), 6u);
  Consumer b(broker_, coord, "t", "g", "m2");
  a.poll(1);  // refresh
  EXPECT_EQ(a.assigned_partitions().size(), 3u);
}

TEST_F(ConsumerGroupTest, IndependentGroupsSeeAllMessages) {
  GroupCoordinator coord(broker_);
  Consumer a(broker_, coord, "t", "g1", "m1");
  Consumer b(broker_, coord, "t", "g2", "m1");
  EXPECT_EQ(a.poll(1000).size(), 60u);
  EXPECT_EQ(b.poll(1000).size(), 60u);
}

TEST_F(ConsumerGroupTest, DuplicateMemberRejected) {
  GroupCoordinator coord(broker_);
  coord.join("t", "g", "m1");
  EXPECT_THROW(coord.join("t", "g", "m1"), pa::InvalidArgument);
}

TEST_F(ConsumerGroupTest, PollZeroReturnsEmpty) {
  GroupCoordinator coord(broker_);
  Consumer a(broker_, coord, "t", "g", "m1");
  EXPECT_TRUE(a.poll(0).empty());
}

TEST_F(ConsumerGroupTest, MessagesConsumedCounter) {
  GroupCoordinator coord(broker_);
  Consumer a(broker_, coord, "t", "g", "m1");
  a.poll(10);
  a.poll(10);
  EXPECT_EQ(a.messages_consumed(), 20u);
}

TEST_F(ConsumerGroupTest, ConcurrentConsumersDrainEverythingOnce) {
  GroupCoordinator coord(broker_);
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t]() {
      Consumer c(broker_, coord, "t", "g", "m" + std::to_string(t));
      // Poll until quiet; count consumed.
      int quiet = 0;
      while (quiet < 3) {
        const auto batch = c.poll(16);
        if (batch.empty()) {
          ++quiet;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        } else {
          quiet = 0;
          total.fetch_add(batch.size());
          c.commit();
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  // With rebalances mid-run, at-least-once semantics permit re-delivery of
  // uncommitted batches, but never loss.
  EXPECT_GE(total.load(), 60u);
}

}  // namespace
}  // namespace pa::stream
