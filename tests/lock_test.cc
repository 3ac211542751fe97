// Lock manager: 2PL modes, queuing, upgrades, timeouts, statistics.

#include <gtest/gtest.h>

#include "lock/lock_manager.h"
#include "sim/sim_context.h"
#include "util/format.h"

namespace tpc::lock {
namespace {

class LockManagerTest : public ::testing::Test {
 protected:
  Status Acquire(uint64_t txn, const std::string& key, LockMode mode) {
    Status out = Status::Internal("callback never ran");
    locks_.Acquire(txn, key, mode, [&](Status st) { out = std::move(st); });
    return out;
  }

  sim::SimContext ctx_;
  LockManager locks_{&ctx_, "node", 10 * sim::kSecond};
};

TEST_F(LockManagerTest, SharedLocksAreCompatible) {
  EXPECT_TRUE(Acquire(1, "k", LockMode::kShared).ok());
  EXPECT_TRUE(Acquire(2, "k", LockMode::kShared).ok());
  EXPECT_TRUE(locks_.Holds(1, "k", LockMode::kShared));
  EXPECT_TRUE(locks_.Holds(2, "k", LockMode::kShared));
}

TEST_F(LockManagerTest, ExclusiveConflictsQueue) {
  EXPECT_TRUE(Acquire(1, "k", LockMode::kExclusive).ok());
  bool granted = false;
  locks_.Acquire(2, "k", LockMode::kExclusive,
                 [&](Status st) { granted = st.ok(); });
  EXPECT_FALSE(granted);
  EXPECT_EQ(locks_.WaiterCount(), 1u);
  locks_.ReleaseAll(1);
  EXPECT_TRUE(granted);
  EXPECT_TRUE(locks_.Holds(2, "k", LockMode::kExclusive));
}

TEST_F(LockManagerTest, ReacquireHeldLockIsNoOp) {
  EXPECT_TRUE(Acquire(1, "k", LockMode::kExclusive).ok());
  EXPECT_TRUE(Acquire(1, "k", LockMode::kExclusive).ok());
  EXPECT_TRUE(Acquire(1, "k", LockMode::kShared).ok());  // weaker: ok
  locks_.ReleaseAll(1);
  EXPECT_FALSE(locks_.Holds(1, "k", LockMode::kShared));
}

TEST_F(LockManagerTest, UpgradeWhenSoleHolder) {
  EXPECT_TRUE(Acquire(1, "k", LockMode::kShared).ok());
  EXPECT_TRUE(Acquire(1, "k", LockMode::kExclusive).ok());
  EXPECT_TRUE(locks_.Holds(1, "k", LockMode::kExclusive));
}

TEST_F(LockManagerTest, UpgradeWaitsForOtherSharers) {
  EXPECT_TRUE(Acquire(1, "k", LockMode::kShared).ok());
  EXPECT_TRUE(Acquire(2, "k", LockMode::kShared).ok());
  bool upgraded = false;
  locks_.Acquire(1, "k", LockMode::kExclusive,
                 [&](Status st) { upgraded = st.ok(); });
  EXPECT_FALSE(upgraded);
  locks_.ReleaseAll(2);
  EXPECT_TRUE(upgraded);
  EXPECT_TRUE(locks_.Holds(1, "k", LockMode::kExclusive));
}

TEST_F(LockManagerTest, UpgradeJumpsQueue) {
  // txn1 holds S; txn3 queues for X; txn1's upgrade must not deadlock
  // behind txn3.
  EXPECT_TRUE(Acquire(1, "k", LockMode::kShared).ok());
  bool writer = false;
  locks_.Acquire(3, "k", LockMode::kExclusive,
                 [&](Status st) { writer = st.ok(); });
  bool upgraded = false;
  locks_.Acquire(1, "k", LockMode::kExclusive,
                 [&](Status st) { upgraded = st.ok(); });
  EXPECT_TRUE(upgraded);  // sole holder: immediate
  EXPECT_FALSE(writer);
  locks_.ReleaseAll(1);
  EXPECT_TRUE(writer);
}

TEST_F(LockManagerTest, WaitTimesOut) {
  EXPECT_TRUE(Acquire(1, "k", LockMode::kExclusive).ok());
  Status waited = Status::OK();
  bool fired = false;
  locks_.Acquire(2, "k", LockMode::kExclusive, [&](Status st) {
    fired = true;
    waited = std::move(st);
  });
  ctx_.events().RunUntil(11 * sim::kSecond);
  EXPECT_TRUE(fired);
  EXPECT_TRUE(waited.IsTimedOut());
  EXPECT_EQ(locks_.stats().timeouts, 1u);
  // The holder is unaffected.
  EXPECT_TRUE(locks_.Holds(1, "k", LockMode::kExclusive));
}

TEST_F(LockManagerTest, FifoGrantOrderAmongWaiters) {
  EXPECT_TRUE(Acquire(1, "k", LockMode::kExclusive).ok());
  std::vector<int> order;
  locks_.Acquire(2, "k", LockMode::kExclusive,
                 [&](Status st) { if (st.ok()) order.push_back(2); });
  locks_.Acquire(3, "k", LockMode::kExclusive,
                 [&](Status st) { if (st.ok()) order.push_back(3); });
  locks_.ReleaseAll(1);
  EXPECT_EQ(order, (std::vector<int>{2}));
  locks_.ReleaseAll(2);
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
}

TEST_F(LockManagerTest, SharedWaitersGrantTogether) {
  EXPECT_TRUE(Acquire(1, "k", LockMode::kExclusive).ok());
  int granted = 0;
  locks_.Acquire(2, "k", LockMode::kShared, [&](Status st) {
    if (st.ok()) ++granted;
  });
  locks_.Acquire(3, "k", LockMode::kShared, [&](Status st) {
    if (st.ok()) ++granted;
  });
  locks_.ReleaseAll(1);
  EXPECT_EQ(granted, 2);
}

TEST_F(LockManagerTest, NewRequestQueuesBehindExistingWaiters) {
  // Fairness: a compatible S request must not starve a queued X waiter.
  EXPECT_TRUE(Acquire(1, "k", LockMode::kShared).ok());
  bool writer = false;
  locks_.Acquire(2, "k", LockMode::kExclusive,
                 [&](Status st) { writer = st.ok(); });
  bool reader = false;
  locks_.Acquire(3, "k", LockMode::kShared,
                 [&](Status st) { reader = st.ok(); });
  EXPECT_FALSE(reader);  // queued behind the writer despite compatibility
  locks_.ReleaseAll(1);
  EXPECT_TRUE(writer);
  EXPECT_FALSE(reader);
  locks_.ReleaseAll(2);
  EXPECT_TRUE(reader);
}

TEST_F(LockManagerTest, HoldTimeStatisticsRecorded) {
  EXPECT_TRUE(Acquire(1, "k", LockMode::kExclusive).ok());
  ctx_.events().RunUntil(5 * sim::kSecond);
  locks_.ReleaseAll(1);
  ASSERT_EQ(locks_.stats().hold_time.count(), 1u);
  EXPECT_DOUBLE_EQ(locks_.stats().hold_time.Mean(),
                   static_cast<double>(5 * sim::kSecond));
}

TEST_F(LockManagerTest, WaitTimeStatisticsRecorded) {
  EXPECT_TRUE(Acquire(1, "k", LockMode::kExclusive).ok());
  locks_.Acquire(2, "k", LockMode::kExclusive, [](Status) {});
  ctx_.events().RunUntil(3 * sim::kSecond);
  locks_.ReleaseAll(1);
  ASSERT_EQ(locks_.stats().wait_time.count(), 1u);
  EXPECT_DOUBLE_EQ(locks_.stats().wait_time.Mean(),
                   static_cast<double>(3 * sim::kSecond));
}

TEST_F(LockManagerTest, ReleaseAllCoversManyKeys) {
  for (int i = 0; i < 10; ++i)
    EXPECT_TRUE(Acquire(1, StringPrintf("k%d", i), LockMode::kExclusive).ok());
  locks_.ReleaseAll(1);
  for (int i = 0; i < 10; ++i)
    EXPECT_TRUE(Acquire(2, StringPrintf("k%d", i), LockMode::kExclusive).ok());
}

TEST_F(LockManagerTest, ReleaseUnknownTxnIsNoOp) {
  locks_.ReleaseAll(99);  // must not crash or disturb stats
  EXPECT_EQ(locks_.stats().hold_time.count(), 0u);
}

}  // namespace
}  // namespace tpc::lock
