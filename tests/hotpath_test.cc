// Hot-path rework regressions: O(held) release with no string hashing,
// the S->X upgrade-ahead-of-waiters policy, WAL torn-tail robustness
// under truncation and byte flips, group commit across Crash(), and
// schedule/byte equivalence of the reworked lock and WAL layers against
// the frozen seed copies.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "lock/legacy_lock_manager.h"
#include "lock/lock_manager.h"
#include "sim/sim_context.h"
#include "wal/legacy_log_manager.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace tpc {
namespace {

using lock::LegacyLockManager;
using lock::LockManager;
using lock::LockMode;

// --- O(held) release --------------------------------------------------------

TEST(LockHotPathTest, ReleaseAllPerformsNoStringHashing) {
  sim::SimContext ctx;
  LockManager locks(&ctx, "node");

  // Intern once up front, the pattern the resource manager uses.
  std::vector<lock::KeyId> keys;
  for (int i = 0; i < 64; ++i)
    keys.push_back(locks.InternKey("key-" + std::to_string(i)));

  // KeyId acquires perform no string hashing at all.
  const uint64_t before_acquire = locks.string_lookups();
  for (lock::KeyId key : keys)
    locks.Acquire(7, key, LockMode::kExclusive,
                  [](Status st) { EXPECT_TRUE(st.ok()); });
  EXPECT_EQ(locks.string_lookups(), before_acquire);

  // Release walks the per-txn held list: O(held), zero hash lookups.
  const uint64_t before_release = locks.string_lookups();
  locks.ReleaseAll(7);
  EXPECT_EQ(locks.string_lookups(), before_release);

  for (lock::KeyId key : keys)
    EXPECT_FALSE(locks.Holds(7, key, LockMode::kIntentShared));
  EXPECT_EQ(locks.stats().acquisitions, keys.size());

  // The freed slab nodes are reusable: a second transaction takes the
  // same keys without conflict.
  for (lock::KeyId key : keys)
    locks.Acquire(8, key, LockMode::kExclusive,
                  [](Status st) { EXPECT_TRUE(st.ok()); });
  EXPECT_EQ(locks.string_lookups(), before_release);
  locks.ReleaseAll(8);
}

// --- S->X upgrade policy ----------------------------------------------------

TEST(LockUpgradeTest, UpgradeJumpsAheadOfQueuedWriter) {
  // Holder 1 and holder 2 share the key, writer 3 queues for X, then
  // holder 1 upgrades. The upgrade waits only for holder 2 — not for
  // writer 3, which arrived later and would otherwise starve (and
  // deadlock) the upgrader.
  sim::SimContext ctx;
  LockManager locks(&ctx, "node");
  locks.Acquire(1, "k", LockMode::kShared, [](Status st) { EXPECT_TRUE(st.ok()); });
  locks.Acquire(2, "k", LockMode::kShared, [](Status st) { EXPECT_TRUE(st.ok()); });

  std::vector<int> grants;
  locks.Acquire(3, "k", LockMode::kExclusive,
                [&](Status st) { if (st.ok()) grants.push_back(3); });
  locks.Acquire(1, "k", LockMode::kExclusive,
                [&](Status st) { if (st.ok()) grants.push_back(1); });
  EXPECT_TRUE(grants.empty());  // holder 2 still blocks the upgrade

  locks.ReleaseAll(2);
  EXPECT_EQ(grants, (std::vector<int>{1}));  // upgrade granted before writer 3
  EXPECT_TRUE(locks.Holds(1, "k", LockMode::kExclusive));

  locks.ReleaseAll(1);
  EXPECT_EQ(grants, (std::vector<int>{1, 3}));
}

TEST(LockUpgradeTest, DualUpgradeDeadlockResolvedByTimeout) {
  // Two sharers upgrading the same key deadlock against each other's S
  // hold; the wait timeout resolves it, as documented in lock_manager.h.
  sim::SimContext ctx;
  LockManager locks(&ctx, "node", 10 * sim::kSecond);
  locks.Acquire(1, "k", LockMode::kShared, [](Status st) { EXPECT_TRUE(st.ok()); });
  locks.Acquire(2, "k", LockMode::kShared, [](Status st) { EXPECT_TRUE(st.ok()); });

  Status up1 = Status::OK(), up2 = Status::OK();
  locks.Acquire(1, "k", LockMode::kExclusive, [&](Status st) { up1 = std::move(st); });
  locks.Acquire(2, "k", LockMode::kExclusive, [&](Status st) { up2 = std::move(st); });
  ctx.events().RunUntil(11 * sim::kSecond);

  EXPECT_TRUE(up1.IsTimedOut());
  EXPECT_TRUE(up2.IsTimedOut());
  EXPECT_EQ(locks.stats().timeouts, 2u);

  // Both still hold S (the caller aborts on timeout); releasing frees
  // the key for a fresh X request.
  locks.ReleaseAll(1);
  locks.ReleaseAll(2);
  bool granted = false;
  locks.Acquire(3, "k", LockMode::kExclusive, [&](Status st) { granted = st.ok(); });
  EXPECT_TRUE(granted);
}

// --- WAL torn-tail fuzz -----------------------------------------------------

struct EncodedLog {
  std::vector<wal::LogRecord> records;
  std::vector<size_t> ends;  // byte offset one past each record
  std::string bytes;
};

EncodedLog MakeFuzzLog(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  EncodedLog log;
  for (size_t i = 0; i < n; ++i) {
    wal::LogRecord rec;
    rec.type = (i % 2) ? wal::RecordType::kRmPrepared
                       : wal::RecordType::kTmCommitted;
    rec.txn = rng() % 100000;
    rec.owner = (i % 3) ? "n1.tm" : "n1.rm";
    rec.body.assign(rng() % 64, static_cast<char>('a' + i % 26));
    rec.EncodeTo(log.bytes);
    log.ends.push_back(log.bytes.size());
    log.records.push_back(std::move(rec));
  }
  return log;
}

void ExpectPrefixOf(const std::vector<wal::LogRecord>& got,
                    const std::vector<wal::LogRecord>& want, size_t n) {
  ASSERT_EQ(got.size(), n);
  for (size_t i = 0; i < n; ++i)
    EXPECT_EQ(got[i].Encode(), want[i].Encode()) << "record " << i;
}

TEST(WalTornTailTest, TruncationNeverYieldsPartialRecords) {
  const EncodedLog log = MakeFuzzLog(1000, /*seed=*/1);
  std::mt19937_64 rng(2);
  std::vector<size_t> lens = {0, 1, 7, 8, log.bytes.size()};
  for (int i = 0; i < 300; ++i) lens.push_back(rng() % (log.bytes.size() + 1));

  for (size_t len : lens) {
    std::vector<wal::LogRecord> got;
    EXPECT_NO_THROW(got = wal::ScanLog({log.bytes.data(), len}));
    // Exactly the records that fit entirely within the prefix.
    size_t complete = 0;
    while (complete < log.ends.size() && log.ends[complete] <= len) ++complete;
    ExpectPrefixOf(got, log.records, complete);
  }
}

TEST(WalTornTailTest, ByteFlipStopsScanAtFirstCorruption) {
  const EncodedLog log = MakeFuzzLog(1000, /*seed=*/3);
  std::mt19937_64 rng(4);

  for (int i = 0; i < 300; ++i) {
    const size_t pos = rng() % log.bytes.size();
    std::string corrupted = log.bytes;
    corrupted[pos] = static_cast<char>(
        static_cast<uint8_t>(corrupted[pos]) ^ (1 + rng() % 255));

    std::vector<wal::LogRecord> got;
    EXPECT_NO_THROW(got = wal::ScanLog(corrupted));
    // Every record before the corrupted one decodes intact; the CRC (or a
    // bounds check, if the flip hit a length field) stops the scan there.
    size_t hit = 0;
    while (log.ends[hit] <= pos) ++hit;
    ExpectPrefixOf(got, log.records, hit);
  }
}

// --- Group commit across Crash() --------------------------------------------

wal::LogRecord TmRecord(uint64_t txn) {
  wal::LogRecord rec;
  rec.type = wal::RecordType::kTmCommitted;
  rec.txn = txn;
  rec.owner = "n1.tm";
  rec.body = "payload";
  return rec;
}

TEST(GroupCommitCrashTest, PreCrashTimerDoesNotForcePostCrashRecords) {
  sim::SimContext ctx;
  wal::LogManager log(&ctx, "n1");
  wal::GroupCommitOptions group;
  group.enabled = true;
  group.group_size = 8;
  group.group_timeout = 5 * sim::kMillisecond;
  log.set_group_commit(group);

  bool pre_acked = false;
  log.Append(TmRecord(1), /*force=*/true, [&] { pre_acked = true; });  // arms timer
  ctx.events().RunUntil(1 * sim::kMillisecond);
  log.Crash();

  bool post_acked = false;
  log.Append(TmRecord(2), /*force=*/true, [&] { post_acked = true; });

  // The pre-crash timer would have fired at t=5ms; the post-crash group
  // window runs 1ms..6ms. At 5.5ms nothing may have been forced.
  ctx.events().RunUntil(5 * sim::kMillisecond + sim::kMillisecond / 2);
  EXPECT_FALSE(pre_acked);
  EXPECT_FALSE(post_acked);
  EXPECT_EQ(log.device_forces(), 0u);

  ctx.events().Run();
  EXPECT_FALSE(pre_acked);  // lost in the crash, never acked
  EXPECT_TRUE(post_acked);

  // Only the post-crash record is durable.
  std::vector<wal::LogRecord> recovered = log.Recover();
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].txn, 2u);
}

TEST(GroupCommitCrashTest, CrashDropsInFlightForceCallbacks) {
  sim::SimContext ctx;
  wal::LogManager log(&ctx, "n1");  // no group commit: force flushes at once
  bool acked = false;
  log.Append(TmRecord(1), /*force=*/true, [&] { acked = true; });
  ctx.events().RunUntil(1 * sim::kMillisecond);  // device completes at 2ms
  log.Crash();
  ctx.events().Run();
  EXPECT_FALSE(acked);
  EXPECT_EQ(log.durable_lsn(), 0u);
}

TEST(GroupCommitCrashTest, ForceAllOnEmptyBufferStillAcks) {
  sim::SimContext ctx;
  wal::LogManager log(&ctx, "n1");
  bool acked = false;
  log.RequestForce([&] { acked = true; });
  EXPECT_FALSE(acked);  // durable only after the device round trip
  ctx.events().Run();
  EXPECT_TRUE(acked);
}

// --- Equivalence against the frozen seed copies -----------------------------

// One grant-log line per callback invocation, in order.
std::vector<std::string> RunLockWorkload(auto&& acquire, auto&& release_all,
                                         auto&& drive) {
  std::vector<std::string> log;
  auto record = [&log](uint64_t txn, int key, Status st) {
    log.push_back(std::to_string(txn) + ":" + std::to_string(key) + ":" +
                  (st.ok() ? "ok" : st.IsTimedOut() ? "timeout" : "err"));
  };

  std::mt19937_64 rng(99);
  constexpr LockMode kModes[] = {LockMode::kIntentShared,
                                 LockMode::kIntentExclusive, LockMode::kShared,
                                 LockMode::kExclusive};
  std::vector<uint64_t> live;
  for (uint64_t txn = 1; txn <= 200; ++txn) {
    const int locks_wanted = 1 + rng() % 4;
    for (int i = 0; i < locks_wanted; ++i) {
      const int key = rng() % 32;
      acquire(txn, "key-" + std::to_string(key), kModes[rng() % 4],
              [&record, txn, key](Status st) { record(txn, key, std::move(st)); });
    }
    live.push_back(txn);
    if (rng() % 2 == 0 && !live.empty()) {
      const size_t victim = rng() % live.size();
      release_all(live[victim]);
      live.erase(live.begin() + victim);
    }
  }
  for (uint64_t txn : live) release_all(txn);
  drive();  // fire any remaining timeouts
  return log;
}

TEST(HotPathEquivalenceTest, LockScheduleMatchesSeed) {
  sim::SimContext new_ctx, old_ctx;
  LockManager locks(&new_ctx, "node");
  LegacyLockManager legacy(&old_ctx, "node");

  std::vector<std::string> new_log = RunLockWorkload(
      [&](uint64_t txn, const std::string& key, LockMode mode, auto cb) {
        locks.Acquire(txn, key, mode, std::move(cb));
      },
      [&](uint64_t txn) { locks.ReleaseAll(txn); },
      [&] { new_ctx.events().Run(); });
  std::vector<std::string> old_log = RunLockWorkload(
      [&](uint64_t txn, const std::string& key, LockMode mode, auto cb) {
        legacy.Acquire(txn, key, mode, std::move(cb));
      },
      [&](uint64_t txn) { legacy.ReleaseAll(txn); },
      [&] { old_ctx.events().Run(); });

  EXPECT_EQ(new_log, old_log);
  EXPECT_EQ(locks.stats().acquisitions, legacy.stats().acquisitions);
  EXPECT_EQ(locks.stats().waits, legacy.stats().waits);
  EXPECT_EQ(locks.stats().timeouts, legacy.stats().timeouts);
}

TEST(HotPathEquivalenceTest, WalBytesAndStatsMatchSeed) {
  sim::SimContext new_ctx, old_ctx;
  wal::LogManager log(&new_ctx, "n1");
  wal::LegacyLogManager legacy(&old_ctx, "n1");

  std::mt19937_64 rng(5);
  for (int i = 0; i < 1000; ++i) {
    wal::LogRecord rec;
    rec.type = (i % 2) ? wal::RecordType::kRmUpdate : wal::RecordType::kTmPrepared;
    rec.txn = 1 + rng() % 64;
    rec.owner = (i % 2) ? "n1.rm" : "n1.tm";
    rec.body.assign(rng() % 48, 'x');
    const bool force = (i % 16) == 15;
    EXPECT_EQ(log.Append(rec, force), legacy.Append(rec, force));
  }
  log.RequestForce(nullptr);
  legacy.ForceAll(nullptr);
  new_ctx.events().Run();
  old_ctx.events().Run();

  EXPECT_EQ(log.next_lsn(), legacy.next_lsn());
  EXPECT_EQ(log.durable_lsn(), legacy.durable_lsn());
  EXPECT_EQ(log.storage().durable(), legacy.storage().durable());
  EXPECT_EQ(log.stats().writes, legacy.stats().writes);
  EXPECT_EQ(log.stats().forced_writes, legacy.stats().forced_writes);
  for (const char* owner : {"n1.tm", "n1.rm"}) {
    EXPECT_EQ(log.StatsForOwner(owner).writes, legacy.StatsForOwner(owner).writes);
    EXPECT_EQ(log.StatsForOwner(owner).forced_writes,
              legacy.StatsForOwner(owner).forced_writes);
  }
}

}  // namespace
}  // namespace tpc
