// Pipelined group-commit WAL: the size-aware log device model (latency +
// bandwidth + queue depth), the flush-policy ladder (pipelining, workers-
// write-log, WILO steal), crash hygiene across mid-group crashes, and a
// counting-allocator proof that the steady-state flush loop never touches
// the heap.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/sim_context.h"
#include "support/counting_allocator.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace tpc::wal {
namespace {

using test_support::AllocationCount;

LogRecord MakeRecord(RecordType type, uint64_t txn, std::string owner = "tm",
                     std::string body = "") {
  LogRecord rec;
  rec.type = type;
  rec.txn = txn;
  rec.owner = std::move(owner);
  rec.body = std::move(body);
  return rec;
}

// --- device model ------------------------------------------------------------

TEST(DeviceModelTest, ServiceTimeAddsBytesOverBandwidth) {
  DeviceOptions device;
  device.write_latency = 1 * sim::kMillisecond;
  device.bandwidth_bytes_per_sec = 1'000'000;  // 1 MB/s -> 1us per byte
  EXPECT_EQ(device.ServiceTime(0), 1 * sim::kMillisecond);
  EXPECT_EQ(device.ServiceTime(1000), 2 * sim::kMillisecond);
  device.bandwidth_bytes_per_sec = 0;  // infinite: size never matters
  EXPECT_EQ(device.ServiceTime(1 << 20), 1 * sim::kMillisecond);
}

TEST(DeviceModelTest, QueueDepthOverlapsService) {
  sim::SimContext ctx;
  DeviceOptions device;
  device.write_latency = 2 * sim::kMillisecond;
  device.queue_depth = 2;
  StableStorage storage(&ctx, device);
  std::vector<int> order;
  storage.Write("a", [&] { order.push_back(1); });
  storage.Write("b", [&] { order.push_back(2); });
  // Depth 2: both serve concurrently and retire together at 2ms (a serial
  // device would finish "b" at 4ms).
  ctx.events().RunUntil(2 * sim::kMillisecond);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(storage.durable(), "ab");
}

TEST(DeviceModelTest, RetirementIsFifoDespiteOutOfOrderService) {
  sim::SimContext ctx;
  DeviceOptions device;
  device.write_latency = 1 * sim::kMillisecond;
  device.bandwidth_bytes_per_sec = 1'000'000;  // 1us per byte
  device.queue_depth = 2;
  StableStorage storage(&ctx, device);
  std::vector<int> order;
  // "a..." (2000 bytes -> 3ms) finishes after "b" (1ms), but "b" must wait:
  // the durable log is always a prefix of what was submitted.
  storage.Write(std::string(2000, 'a'), [&] { order.push_back(1); });
  storage.Write("b", [&] { order.push_back(2); });
  ctx.events().RunUntil(2 * sim::kMillisecond);
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(storage.durable_bytes(), 0u);
  ctx.events().Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(storage.durable_bytes(), 2001u);
}

TEST(DeviceModelTest, BandwidthStretchesLargeWrites) {
  sim::SimContext ctx;
  DeviceOptions device;
  device.write_latency = 1 * sim::kMillisecond;
  device.bandwidth_bytes_per_sec = 500'000;  // 2us per byte
  StableStorage storage(&ctx, device);
  bool done = false;
  storage.Write(std::string(1000, 'x'), [&] { done = true; });
  ctx.events().RunUntil(2 * sim::kMillisecond);
  EXPECT_FALSE(done);  // 1ms op + 2ms transfer
  ctx.events().RunUntil(3 * sim::kMillisecond);
  EXPECT_TRUE(done);
  EXPECT_EQ(storage.bytes_written(), 1000u);
}

// --- flush-policy ladder -----------------------------------------------------

GroupCommitOptions PolicyOptions(FlushPolicy policy) {
  GroupCommitOptions group;
  group.enabled = true;
  group.policy = policy;
  group.group_size = 4;
  group.group_timeout = 5 * sim::kMillisecond;
  group.max_pipeline_depth = 2;
  group.daemon_interval = 1 * sim::kMillisecond;
  group.worker_buffer_bytes = 4096;
  return group;
}

TEST(FlushPolicyTest, NamesRoundTrip) {
  for (FlushPolicy p :
       {FlushPolicy::kCountTimer, FlushPolicy::kFlushPipelining,
        FlushPolicy::kWorkersWriteLog, FlushPolicy::kWiloSteal}) {
    FlushPolicy parsed;
    ASSERT_TRUE(ParseFlushPolicy(FlushPolicyName(p), &parsed));
    EXPECT_EQ(parsed, p);
  }
  FlushPolicy parsed;
  EXPECT_FALSE(ParseFlushPolicy("bogus", &parsed));
}

TEST(FlushPolicyTest, PipeliningSubmitsWithoutWaitingForGroup) {
  sim::SimContext ctx;
  DeviceOptions device;
  device.write_latency = 2 * sim::kMillisecond;
  device.queue_depth = 2;
  LogManager log(&ctx, "n1", device);
  log.set_group_commit(PolicyOptions(FlushPolicy::kFlushPipelining));
  bool done = false;
  log.Append(MakeRecord(RecordType::kTmCommitted, 1), true,
             [&] { done = true; });
  // A lone force submits immediately — no count trigger, no group timer.
  ctx.events().RunUntil(2 * sim::kMillisecond);
  EXPECT_TRUE(done);
  EXPECT_EQ(log.device_forces(), 1u);
}

TEST(FlushPolicyTest, PipeliningBatchesBeyondDepth) {
  sim::SimContext ctx;
  DeviceOptions device;
  device.write_latency = 2 * sim::kMillisecond;
  device.queue_depth = 1;
  LogManager log(&ctx, "n1", device);
  GroupCommitOptions group = PolicyOptions(FlushPolicy::kFlushPipelining);
  group.max_pipeline_depth = 1;
  log.set_group_commit(group);
  int completions = 0;
  // First force occupies the single pipeline slot; the next three accumulate
  // and the device completion submits them as one batch.
  for (int i = 0; i < 4; ++i)
    log.Append(MakeRecord(RecordType::kTmCommitted, i + 1), true,
               [&] { ++completions; });
  ctx.events().RunUntil(2 * sim::kMillisecond);
  EXPECT_EQ(completions, 1);
  ctx.events().Run();
  EXPECT_EQ(completions, 4);
  EXPECT_EQ(log.device_forces(), 2u);  // 1 + batched 3
}

TEST(FlushPolicyTest, WorkersWriteLogKeepsLsnOrderAcrossOwners) {
  sim::SimContext ctx;
  LogManager log(&ctx, "n1", 2 * sim::kMillisecond);
  log.set_group_commit(PolicyOptions(FlushPolicy::kWorkersWriteLog));
  // Interleaved appends from two owners: per-owner buffers must gather back
  // into exact LSN (arrival) order, byte for byte.
  std::vector<Lsn> lsns;
  lsns.push_back(log.Append(MakeRecord(RecordType::kRmUpdate, 1, "rm"), false));
  lsns.push_back(log.Append(MakeRecord(RecordType::kTmPrepared, 1, "tm"), false));
  lsns.push_back(log.Append(MakeRecord(RecordType::kRmUpdate, 2, "rm"), false));
  bool done = false;
  log.Append(MakeRecord(RecordType::kTmCommitted, 1, "tm"), true,
             [&] { done = true; });
  ctx.events().Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(log.durable_lsn(), log.next_lsn());
  std::vector<LogRecord> recovered = log.Recover();
  ASSERT_EQ(recovered.size(), 4u);
  EXPECT_EQ(recovered[0].type, RecordType::kRmUpdate);
  EXPECT_EQ(recovered[0].txn, 1u);
  EXPECT_EQ(recovered[1].type, RecordType::kTmPrepared);
  EXPECT_EQ(recovered[2].txn, 2u);
  EXPECT_EQ(recovered[3].type, RecordType::kTmCommitted);
  // LSNs are exact byte offsets even with per-owner buffering.
  EXPECT_EQ(lsns[0], 0u);
  EXPECT_LT(lsns[1], lsns[2]);
}

TEST(FlushPolicyTest, WiloStealSubmitsPeerBuffers) {
  sim::SimContext ctx;
  LogManager log(&ctx, "n1", 2 * sim::kMillisecond);
  GroupCommitOptions group = PolicyOptions(FlushPolicy::kWiloSteal);
  group.worker_buffer_bytes = 64;
  group.group_size = 100;  // count trigger out of the way
  log.set_group_commit(group);
  // "rm" fills its buffer past the threshold; the overflowing worker steals
  // the daemon's job and submits every owner's buffer.
  log.Append(MakeRecord(RecordType::kTmPrepared, 1, "tm"), false);
  for (int i = 0; i < 4; ++i)
    log.Append(
        MakeRecord(RecordType::kRmUpdate, 2, "rm", std::string(32, 'x')),
        false);
  ctx.events().Run();
  EXPECT_GE(log.steals(), 1u);
  EXPECT_EQ(log.durable_lsn(), log.next_lsn());
  EXPECT_EQ(log.Recover().size(), 5u);
}

TEST(FlushPolicyTest, OwnerBuffersCountedInApproxBytes) {
  sim::SimContext ctx;
  LogManager log(&ctx, "n1", 2 * sim::kMillisecond);
  log.set_group_commit(PolicyOptions(FlushPolicy::kWorkersWriteLog));
  const uint64_t before = log.ApproxBytes();
  for (int i = 0; i < 16; ++i)
    log.Append(
        MakeRecord(RecordType::kRmUpdate, 1, "rm", std::string(256, 'x')),
        false);
  // Unflushed per-owner buffers are real heap held by the log.
  EXPECT_GT(log.ApproxBytes(), before + 16 * 256);
}

// --- crash hygiene -----------------------------------------------------------

TEST(WalCrashTest, CrashMidGroupThenRecoverTwice) {
  sim::SimContext ctx;
  LogManager log(&ctx, "n1", 2 * sim::kMillisecond);
  GroupCommitOptions group;
  group.enabled = true;
  group.group_size = 8;
  group.group_timeout = 5 * sim::kMillisecond;
  log.set_group_commit(group);

  // Round 1: one record durable, then crash while the next group is still
  // gathering (its timer armed). The armed timer must be cancelled — a
  // stale pop after recovery would flush buffers from the previous life.
  log.Append(MakeRecord(RecordType::kTmPrepared, 1), true);
  ctx.events().Run();
  bool lost1 = false;
  log.Append(MakeRecord(RecordType::kTmCommitted, 1), true,
             [&] { lost1 = true; });
  ctx.events().RunUntil(ctx.events().now() + 1 * sim::kMillisecond);
  log.Crash();
  ctx.events().Run();
  EXPECT_FALSE(lost1);
  ASSERT_EQ(log.Recover().size(), 1u);
  EXPECT_EQ(log.durable_lsn(), log.next_lsn());

  // Round 2: same dance after the first recovery — the second crash must
  // find the same clean timer state the first one did.
  log.Append(MakeRecord(RecordType::kTmPrepared, 2), true);
  ctx.events().Run();
  ASSERT_EQ(log.Recover().size(), 2u);
  bool lost2 = false;
  log.Append(MakeRecord(RecordType::kTmCommitted, 2), true,
             [&] { lost2 = true; });
  ctx.events().RunUntil(ctx.events().now() + 1 * sim::kMillisecond);
  log.Crash();
  ctx.events().Run();
  EXPECT_FALSE(lost2);
  EXPECT_EQ(log.Recover().size(), 2u);

  // And the log still works after two mid-group crashes.
  bool done = false;
  log.Append(MakeRecord(RecordType::kTmEnd, 3), true, [&] { done = true; });
  ctx.events().Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(log.Recover().size(), 3u);
}

TEST(WalCrashTest, CrashWithFlushInFlightDropsAcks) {
  sim::SimContext ctx;
  DeviceOptions device;
  device.write_latency = 2 * sim::kMillisecond;
  LogManager log(&ctx, "n1", device);
  log.set_group_commit(PolicyOptions(FlushPolicy::kFlushPipelining));
  bool acked = false;
  log.Append(MakeRecord(RecordType::kTmCommitted, 1), true,
             [&] { acked = true; });
  ctx.events().RunUntil(1 * sim::kMillisecond);  // flush in flight
  log.Crash();
  ctx.events().Run();
  EXPECT_FALSE(acked);
  EXPECT_TRUE(log.Recover().empty());
  EXPECT_EQ(log.durable_lsn(), log.next_lsn());
}

TEST(WalCrashTest, WorkersWriteLogCrashLosesOwnerBuffers) {
  sim::SimContext ctx;
  LogManager log(&ctx, "n1", 2 * sim::kMillisecond);
  log.set_group_commit(PolicyOptions(FlushPolicy::kWorkersWriteLog));
  log.Append(MakeRecord(RecordType::kTmPrepared, 1, "tm"), true);
  ctx.events().Run();
  ASSERT_EQ(log.Recover().size(), 1u);
  // Buffered-only records (owner buffers, no force completed) die with the
  // node; the gathered flush after recovery must not resurrect them.
  log.Append(MakeRecord(RecordType::kRmUpdate, 2, "rm"), false);
  log.Append(MakeRecord(RecordType::kTmPrepared, 2, "tm"), false);
  log.Crash();
  ctx.events().Run();
  EXPECT_EQ(log.Recover().size(), 1u);
  log.Append(MakeRecord(RecordType::kTmPrepared, 3, "tm"), true);
  ctx.events().Run();
  std::vector<LogRecord> recovered = log.Recover();
  ASSERT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered[1].txn, 3u);
}

// --- allocation-free steady state --------------------------------------------

TEST(WalAllocationTest, SteadyStateFlushLoopDoesNotAllocate) {
  sim::SimContext ctx;
  ctx.trace().set_capture(false);
  DeviceOptions device;
  // Power-of-two service time: each iteration advances sim time by exactly
  // one service, so completions land on wheel buckets at a fixed stride. 2048
  // divides the event wheel's 2^14us span, giving 8 recurring bucket
  // positions that spin(64) fully warms; a non-dividing stride (say 2000us)
  // would walk cold buckets for 1024 iterations and the wheel's first-touch
  // vector growth would pollute the WAL's allocation proof.
  device.write_latency = 2048;
  device.queue_depth = 2;
  LogManager log(&ctx, "n1", device);
  log.set_group_commit(PolicyOptions(FlushPolicy::kFlushPipelining));

  const LogRecord rec =
      MakeRecord(RecordType::kTmCommitted, 7, "tm", "steady-state-body");
  int acks = 0;
  int* acks_ptr = &acks;  // pointer capture fits std::function's SBO

  auto spin = [&](int iterations) {
    for (int i = 0; i < iterations; ++i) {
      log.Append(rec, /*force=*/true, [acks_ptr] { ++*acks_ptr; });
      log.Append(rec, /*force=*/true, [acks_ptr] { ++*acks_ptr; });
      ctx.events().Run();
      // Keep the durable image bounded so its backing string never regrows:
      // the simulated disk contents are workload bytes, not flush overhead.
      log.DiscardPrefix(log.durable_lsn());
    }
  };

  spin(64);  // warm every pool: flush buffers, cb vectors, ring, wheel
  const uint64_t before = AllocationCount();
  spin(256);
  const uint64_t allocations = AllocationCount() - before;
  EXPECT_EQ(allocations, 0u)
      << "steady-state append->flush->ack loop must not allocate";
  EXPECT_EQ(acks, 2 * (64 + 256));
}

}  // namespace
}  // namespace tpc::wal
