// Write-ahead log: record encoding, forced/non-forced semantics, crash
// durability boundaries, group commit batching, recovery scans.

#include <gtest/gtest.h>

#include "sim/sim_context.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace tpc::wal {
namespace {

LogRecord MakeRecord(RecordType type, uint64_t txn, std::string owner = "tm",
                     std::string body = "") {
  LogRecord rec;
  rec.type = type;
  rec.txn = txn;
  rec.owner = std::move(owner);
  rec.body = std::move(body);
  return rec;
}

TEST(LogRecordTest, EncodeDecodeRoundTrip) {
  LogRecord rec = MakeRecord(RecordType::kTmPrepared, 42, "node1.tm", "body");
  std::string encoded = rec.Encode();
  size_t offset = 0;
  auto decoded = DecodeRecord(encoded, &offset);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, RecordType::kTmPrepared);
  EXPECT_EQ(decoded->txn, 42u);
  EXPECT_EQ(decoded->owner, "node1.tm");
  EXPECT_EQ(decoded->body, "body");
  EXPECT_EQ(offset, encoded.size());
}

TEST(LogRecordTest, CorruptedCrcIsDetected) {
  std::string encoded = MakeRecord(RecordType::kTmCommitted, 7).Encode();
  encoded[encoded.size() - 1] ^= 0x01;  // flip a bit in the body
  size_t offset = 0;
  EXPECT_TRUE(DecodeRecord(encoded, &offset).status().IsCorruption());
  EXPECT_EQ(offset, 0u);  // offset untouched on failure
}

TEST(LogRecordTest, TruncatedTailIsDetected) {
  std::string encoded = MakeRecord(RecordType::kTmCommitted, 7).Encode();
  encoded.resize(encoded.size() - 3);
  size_t offset = 0;
  EXPECT_TRUE(DecodeRecord(encoded, &offset).status().IsCorruption());
}

TEST(LogRecordTest, ScanStopsAtTornTail) {
  std::string log;
  log += MakeRecord(RecordType::kTmPrepared, 1).Encode();
  log += MakeRecord(RecordType::kTmCommitted, 1).Encode();
  std::string torn = MakeRecord(RecordType::kTmEnd, 1).Encode();
  log += torn.substr(0, torn.size() / 2);
  std::vector<LogRecord> records = ScanLog(log);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].type, RecordType::kTmPrepared);
  EXPECT_EQ(records[1].type, RecordType::kTmCommitted);
}

TEST(LogRecordTest, TmRecordClassification) {
  EXPECT_TRUE(IsTmRecord(RecordType::kTmPrepared));
  EXPECT_TRUE(IsTmRecord(RecordType::kTmEnd));
  EXPECT_FALSE(IsTmRecord(RecordType::kRmUpdate));
  EXPECT_FALSE(IsTmRecord(RecordType::kCheckpoint));
}

class LogManagerTest : public ::testing::Test {
 protected:
  sim::SimContext ctx_;
  LogManager log_{&ctx_, "node1", 2 * sim::kMillisecond};
};

TEST_F(LogManagerTest, NonForcedAppendCompletesImmediately) {
  bool done = false;
  log_.Append(MakeRecord(RecordType::kTmEnd, 1), /*force=*/false,
              [&] { done = true; });
  EXPECT_TRUE(done);  // before any simulated time passes
  EXPECT_EQ(log_.stats().writes, 1u);
  EXPECT_EQ(log_.stats().forced_writes, 0u);
}

TEST_F(LogManagerTest, ForcedAppendWaitsForDeviceLatency) {
  bool done = false;
  log_.Append(MakeRecord(RecordType::kTmCommitted, 1), /*force=*/true,
              [&] { done = true; });
  EXPECT_FALSE(done);
  ctx_.events().RunUntil(1 * sim::kMillisecond);
  EXPECT_FALSE(done);  // device takes 2ms
  ctx_.events().RunUntil(2 * sim::kMillisecond);
  EXPECT_TRUE(done);
  EXPECT_EQ(log_.device_forces(), 1u);
}

TEST_F(LogManagerTest, ForceCoversEarlierNonForcedRecords) {
  log_.Append(MakeRecord(RecordType::kRmUpdate, 1, "rm"), /*force=*/false);
  log_.Append(MakeRecord(RecordType::kTmPrepared, 1), /*force=*/true);
  ctx_.events().Run();
  std::vector<LogRecord> recovered = log_.Recover();
  ASSERT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered[0].type, RecordType::kRmUpdate);
  EXPECT_EQ(recovered[1].type, RecordType::kTmPrepared);
}

TEST_F(LogManagerTest, UnforcedTailLostOnCrash) {
  log_.Append(MakeRecord(RecordType::kTmPrepared, 1), /*force=*/true);
  ctx_.events().Run();
  log_.Append(MakeRecord(RecordType::kTmCommitted, 1), /*force=*/false);
  log_.Crash();
  std::vector<LogRecord> recovered = log_.Recover();
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].type, RecordType::kTmPrepared);
}

TEST_F(LogManagerTest, InFlightForceLostOnCrash) {
  bool done = false;
  log_.Append(MakeRecord(RecordType::kTmCommitted, 1), /*force=*/true,
              [&] { done = true; });
  ctx_.events().RunUntil(1 * sim::kMillisecond);  // write still in flight
  log_.Crash();
  ctx_.events().Run();
  EXPECT_FALSE(done);  // callback dropped
  EXPECT_TRUE(log_.Recover().empty());
}

TEST_F(LogManagerTest, PerOwnerStats) {
  log_.Append(MakeRecord(RecordType::kTmPrepared, 1, "a"), true);
  log_.Append(MakeRecord(RecordType::kTmCommitted, 1, "a"), true);
  log_.Append(MakeRecord(RecordType::kTmEnd, 1, "a"), false);
  log_.Append(MakeRecord(RecordType::kTmCommitted, 2, "b"), true);
  ctx_.events().Run();
  EXPECT_EQ(log_.StatsForOwner("a").writes, 3u);
  EXPECT_EQ(log_.StatsForOwner("a").forced_writes, 2u);
  EXPECT_EQ(log_.StatsForOwner("b").forced_writes, 1u);
  EXPECT_EQ(log_.StatsForOwner("absent").writes, 0u);
}

TEST_F(LogManagerTest, LsnAdvancesByEncodedSize) {
  Lsn first = log_.Append(MakeRecord(RecordType::kTmEnd, 1), false);
  Lsn second = log_.Append(MakeRecord(RecordType::kTmEnd, 2), false);
  EXPECT_EQ(first, 0u);
  EXPECT_GT(second, first);
}

class GroupCommitTest : public ::testing::Test {
 protected:
  GroupCommitTest() {
    GroupCommitOptions group;
    group.enabled = true;
    group.group_size = 4;
    group.group_timeout = 5 * sim::kMillisecond;
    log_.set_group_commit(group);
  }
  sim::SimContext ctx_;
  LogManager log_{&ctx_, "node1", 2 * sim::kMillisecond};
};

TEST_F(GroupCommitTest, BatchesUpToGroupSizeIntoOneDeviceWrite) {
  int completions = 0;
  for (int i = 0; i < 4; ++i) {
    log_.Append(MakeRecord(RecordType::kTmCommitted, i + 1), true,
                [&] { ++completions; });
  }
  ctx_.events().Run();
  EXPECT_EQ(completions, 4);
  EXPECT_EQ(log_.stats().forced_writes, 4u);  // logical forces
  EXPECT_EQ(log_.device_forces(), 1u);        // one physical write
}

TEST_F(GroupCommitTest, TimerFlushesPartialGroup) {
  int completions = 0;
  log_.Append(MakeRecord(RecordType::kTmCommitted, 1), true,
              [&] { ++completions; });
  log_.Append(MakeRecord(RecordType::kTmCommitted, 2), true,
              [&] { ++completions; });
  ctx_.events().RunUntil(4 * sim::kMillisecond);
  EXPECT_EQ(completions, 0);  // still gathering
  ctx_.events().Run();
  EXPECT_EQ(completions, 2);  // timeout at 5ms + 2ms device
  EXPECT_EQ(log_.device_forces(), 1u);
}

TEST_F(GroupCommitTest, SuccessiveGroupsUseSeparateWrites) {
  int completions = 0;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) {
      log_.Append(MakeRecord(RecordType::kTmCommitted, round * 4 + i + 1),
                  true, [&] { ++completions; });
    }
    ctx_.events().Run();
  }
  EXPECT_EQ(completions, 12);
  EXPECT_EQ(log_.device_forces(), 3u);
}

TEST_F(GroupCommitTest, RecordsDurableAfterGroupFlush) {
  for (int i = 0; i < 4; ++i)
    log_.Append(MakeRecord(RecordType::kTmCommitted, i + 1), true);
  ctx_.events().Run();
  EXPECT_EQ(log_.Recover().size(), 4u);
}

TEST(StableStorageTest, WritesAreFifoAndQueued) {
  sim::SimContext ctx;
  StableStorage storage(&ctx, 2 * sim::kMillisecond);
  std::vector<int> order;
  storage.Write("a", [&] { order.push_back(1); });
  storage.Write("b", [&] { order.push_back(2); });
  ctx.events().RunUntil(2 * sim::kMillisecond);
  EXPECT_EQ(order, (std::vector<int>{1}));  // second write queued behind
  ctx.events().Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(storage.durable(), "ab");
  EXPECT_EQ(storage.completed_writes(), 2u);
}

TEST(StableStorageTest, CrashDropsQueuedAndInFlight) {
  sim::SimContext ctx;
  StableStorage storage(&ctx, 2 * sim::kMillisecond);
  bool first = false, second = false;
  storage.Write("a", [&] { first = true; });
  storage.Write("b", [&] { second = true; });
  ctx.events().RunUntil(1 * sim::kMillisecond);
  storage.Crash();
  ctx.events().Run();
  EXPECT_FALSE(first);
  EXPECT_FALSE(second);
  EXPECT_TRUE(storage.durable().empty());
}

}  // namespace
}  // namespace tpc::wal
