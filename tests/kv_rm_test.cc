// KV resource manager: transactional reads/writes, undo/redo, votes,
// crash recovery, in-doubt resolution.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/network.h"
#include "rm/kv_resource_manager.h"
#include "runtime/sim_runtime.h"
#include "sim/sim_context.h"
#include "tm/transaction_manager.h"
#include "wal/log_manager.h"

namespace tpc::rm {
namespace {

class KvRmTest : public ::testing::Test {
 protected:
  KvRmTest() : log_(&ctx_, "node"), rm_(&ctx_, "node.rm0", &log_) {}

  void Write(uint64_t txn, const std::string& key, const std::string& value) {
    bool done = false;
    rm_.Write(txn, key, value, [&](Status st) {
      ASSERT_TRUE(st.ok());
      done = true;
    });
    ctx_.events().Run();
    ASSERT_TRUE(done);
  }

  VoteInfo Prepare(uint64_t txn) {
    VoteInfo out;
    bool done = false;
    rm_.Prepare(txn, [&](VoteInfo info) {
      out = info;
      done = true;
    });
    ctx_.events().Run();
    EXPECT_TRUE(done);
    return out;
  }

  void Commit(uint64_t txn) {
    bool done = false;
    rm_.Commit(txn, [&](Status st) {
      ASSERT_TRUE(st.ok());
      done = true;
    });
    ctx_.events().Run();
    ASSERT_TRUE(done);
  }

  void Abort(uint64_t txn) {
    bool done = false;
    rm_.Abort(txn, [&](Status st) {
      ASSERT_TRUE(st.ok());
      done = true;
    });
    ctx_.events().Run();
    ASSERT_TRUE(done);
  }

  sim::SimContext ctx_;
  wal::LogManager log_;
  KVResourceManager rm_;
};

TEST_F(KvRmTest, WriteCommitPersists) {
  Write(1, "k", "v1");
  EXPECT_EQ(Prepare(1).vote, Vote::kYes);
  Commit(1);
  EXPECT_EQ(rm_.Peek("k").value_or(""), "v1");
}

TEST_F(KvRmTest, AbortUndoesInReverseOrder) {
  Write(1, "k", "original");
  EXPECT_EQ(Prepare(1).vote, Vote::kYes);
  Commit(1);
  Write(2, "k", "second");
  Write(2, "k", "third");
  Abort(2);
  EXPECT_EQ(rm_.Peek("k").value_or(""), "original");
}

TEST_F(KvRmTest, AbortOfInsertRemovesKey) {
  Write(1, "fresh", "v");
  Abort(1);
  EXPECT_TRUE(rm_.Peek("fresh").status().IsNotFound());
}

TEST_F(KvRmTest, ReadOnlyTxnVotesReadOnly) {
  bool read_done = false;
  rm_.Read(1, "absent", [&](Result<std::string> r) {
    EXPECT_TRUE(r.status().IsNotFound());
    read_done = true;
  });
  ctx_.events().Run();
  ASSERT_TRUE(read_done);
  EXPECT_EQ(Prepare(1).vote, Vote::kReadOnly);
  EXPECT_FALSE(rm_.HasUpdates(1));
}

TEST_F(KvRmTest, VoteCarriesConfiguredAttributes) {
  KVOptions options;
  options.reliable = true;
  options.ok_to_leave_out = true;
  KVResourceManager reliable_rm(&ctx_, "node.rm1", &log_, options);
  bool done = false;
  reliable_rm.Write(1, "k", "v", [&](Status st) {
    ASSERT_TRUE(st.ok());
    done = true;
  });
  ctx_.events().Run();
  ASSERT_TRUE(done);
  VoteInfo info;
  reliable_rm.Prepare(1, [&](VoteInfo v) { info = v; });
  ctx_.events().Run();
  EXPECT_EQ(info.vote, Vote::kYes);
  EXPECT_TRUE(info.reliable);
  EXPECT_TRUE(info.ok_to_leave_out);
}

TEST_F(KvRmTest, ReadsSeeOwnUncommittedWrites) {
  Write(1, "k", "mine");
  std::string seen;
  rm_.Read(1, "k", [&](Result<std::string> r) {
    ASSERT_TRUE(r.ok());
    seen = *r;
  });
  ctx_.events().Run();
  EXPECT_EQ(seen, "mine");
}

TEST_F(KvRmTest, WriteConflictBlocksUntilRelease) {
  Write(1, "k", "v1");
  bool granted = false;
  rm_.Write(2, "k", "v2", [&](Status st) { granted = st.ok(); });
  ctx_.events().RunUntil(ctx_.now() + 10 * sim::kMillisecond);
  EXPECT_FALSE(granted);
  // Prepare + commit without draining the queue past the waiter's
  // deadlock timeout.
  rm_.Prepare(1, [this](VoteInfo info) {
    EXPECT_EQ(info.vote, Vote::kYes);
    rm_.Commit(1, [](Status st) { ASSERT_TRUE(st.ok()); });
  });
  ctx_.events().RunUntil(ctx_.now() + sim::kSecond);
  EXPECT_TRUE(granted);
}

TEST_F(KvRmTest, CommittedStateRebuiltFromLogAfterCrash) {
  Write(1, "a", "1");
  Write(1, "b", "2");
  Prepare(1);
  Commit(1);
  rm_.Crash();
  EXPECT_TRUE(rm_.Peek("a").status().IsNotFound());  // volatile image gone
  std::vector<uint64_t> in_doubt = rm_.Recover(log_.Recover());
  EXPECT_TRUE(in_doubt.empty());
  EXPECT_EQ(rm_.Peek("a").value_or(""), "1");
  EXPECT_EQ(rm_.Peek("b").value_or(""), "2");
}

TEST_F(KvRmTest, PreparedTxnRecoversInDoubtAndResolvesCommit) {
  Write(1, "k", "v");
  Prepare(1);
  rm_.Crash();
  std::vector<uint64_t> in_doubt = rm_.Recover(log_.Recover());
  ASSERT_EQ(in_doubt, (std::vector<uint64_t>{1}));
  EXPECT_TRUE(rm_.InDoubt(1));
  // The in-doubt data is invisible and its locks are held.
  EXPECT_TRUE(rm_.Peek("k").status().IsNotFound());
  bool blocked_granted = false;
  rm_.Write(2, "k", "other", [&](Status st) { blocked_granted = st.ok(); });
  ctx_.events().RunUntil(sim::kSecond);
  EXPECT_FALSE(blocked_granted);

  rm_.ResolveRecovered(1, /*commit=*/true);
  ctx_.events().Run();
  EXPECT_EQ(rm_.Peek("k").value_or(""), "other");  // waiter wrote after us
  EXPECT_FALSE(rm_.InDoubt(1));
}

TEST_F(KvRmTest, PreparedTxnResolvesAbortWithoutEffects) {
  Write(1, "k", "v");
  Prepare(1);
  rm_.Crash();
  std::vector<uint64_t> in_doubt = rm_.Recover(log_.Recover());
  ASSERT_EQ(in_doubt.size(), 1u);
  rm_.ResolveRecovered(1, /*commit=*/false);
  ctx_.events().Run();
  EXPECT_TRUE(rm_.Peek("k").status().IsNotFound());
}

TEST_F(KvRmTest, UnpreparedTxnLostOnCrash) {
  Write(1, "k", "v");  // update record non-forced, nothing durable
  rm_.Crash();
  log_.Crash();
  EXPECT_TRUE(rm_.Recover(log_.Recover()).empty());
  EXPECT_TRUE(rm_.Peek("k").status().IsNotFound());
}

TEST_F(KvRmTest, CommitViaRecoveredFlagAppliesUpdates) {
  // TM-style resolution: Commit() on a recovered in-doubt transaction must
  // apply the redo images.
  Write(1, "k", "v");
  Prepare(1);
  rm_.Crash();
  ASSERT_EQ(rm_.Recover(log_.Recover()).size(), 1u);
  Commit(1);
  EXPECT_EQ(rm_.Peek("k").value_or(""), "v");
}

TEST_F(KvRmTest, EndReadOnlyReleasesLocks) {
  bool read_done = false;
  rm_.Read(1, "k", [&](Result<std::string>) { read_done = true; });
  ctx_.events().Run();
  ASSERT_TRUE(read_done);
  rm_.EndReadOnly(1);
  bool granted = false;
  rm_.Write(2, "k", "v", [&](Status st) { granted = st.ok(); });
  ctx_.events().Run();
  EXPECT_TRUE(granted);
}

// Sharing the log is derived, not configured: AttachRm tells an RM that
// writes into the TM's own log that the TM's forces cover its records.
class SharedLogRmTest : public KvRmTest {
 protected:
  SharedLogRmTest() : network_(&ctx_) {}

  /// Runs one update transaction through `rm`; returns the forced writes
  /// its prepared and committed records cost.
  uint64_t ForcesOfOneCommit(KVResourceManager& rm) {
    const uint64_t before = log_.StatsForOwner(rm.name()).forced_writes;
    bool wrote = false;
    rm.Write(7, "k", "v", [&](Status st) { wrote = st.ok(); });
    ctx_.events().Run();
    EXPECT_TRUE(wrote);
    Vote vote = Vote::kNo;
    rm.Prepare(7, [&](VoteInfo info) { vote = info.vote; });
    ctx_.events().Run();
    EXPECT_EQ(vote, Vote::kYes);
    bool committed = false;
    rm.Commit(7, [&](Status st) { committed = st.ok(); });
    ctx_.events().Run();
    EXPECT_TRUE(committed);
    EXPECT_EQ(rm.Peek("k").value_or(""), "v");
    return log_.StatsForOwner(rm.name()).forced_writes - before;
  }

  tm::TransactionManager& Tm(wal::LogManager* log, tm::ProtocolKind kind) {
    tm::TmConfig config;
    config.protocol = kind;
    tms_.push_back(std::make_unique<tm::TransactionManager>(
        &ctx_, &network_, log, "tm" + std::to_string(tms_.size()), config));
    return *tms_.back();
  }

  net::Network network_;
  std::vector<std::unique_ptr<tm::TransactionManager>> tms_;
};

TEST_F(SharedLogRmTest, RmOnItsTmsLogSkipsItsForces) {
  KVResourceManager shared_rm(&ctx_, "node.rm1", &log_);
  Tm(&log_, tm::ProtocolKind::kPresumedAbort).AttachRm(&shared_rm);
  EXPECT_EQ(ForcesOfOneCommit(shared_rm), 0u);
  EXPECT_GE(log_.StatsForOwner("node.rm1").writes, 3u);  // update, prepared,
                                                          // committed
}

TEST_F(SharedLogRmTest, StandaloneOrForeignLogRmKeepsItsForces) {
  EXPECT_EQ(ForcesOfOneCommit(rm_), 2u);  // no TM at all

  wal::LogManager tm_log(&ctx_, "other");
  KVResourceManager foreign_rm(&ctx_, "node.rm1", &log_);
  Tm(&tm_log, tm::ProtocolKind::kPresumedAbort).AttachRm(&foreign_rm);
  EXPECT_EQ(ForcesOfOneCommit(foreign_rm), 2u);
}

TEST_F(SharedLogRmTest, LoglessFamilyKeepsOnlyThePreparedForce) {
  // No TM force follows a logless one-phase vote: the RM's prepared force
  // is the one that makes it durable. The committed record still rides.
  KVResourceManager logless_rm(&ctx_, "node.rm1", &log_);
  Tm(&log_, tm::ProtocolKind::kOnePhaseLogless).AttachRm(&logless_rm);
  EXPECT_EQ(ForcesOfOneCommit(logless_rm), 1u);
}

TEST_F(SharedLogRmTest, ResolvedRecoveredCommitRidesTheTmsForces) {
  KVResourceManager shared_rm(&ctx_, "node.rm1", &log_);
  Tm(&log_, tm::ProtocolKind::kPresumedAbort).AttachRm(&shared_rm);
  bool wrote = false;
  shared_rm.Write(9, "k", "v", [&](Status st) { wrote = st.ok(); });
  shared_rm.Prepare(9, [](VoteInfo) {});
  bool forced = false;
  log_.ForceAll([&] { forced = true; });  // a TM force covers the prepare
  ctx_.events().Run();
  ASSERT_TRUE(wrote && forced);

  shared_rm.Crash();
  log_.Crash();
  ASSERT_EQ(shared_rm.Recover(log_.Recover()), std::vector<uint64_t>{9});
  shared_rm.ResolveRecovered(9, /*commit=*/true);
  EXPECT_EQ(log_.StatsForOwner("node.rm1").forced_writes, 0u);
  EXPECT_EQ(shared_rm.Peek("k").value_or(""), "v");
}

// Crash() rebuilds the lock table on the runtime the RM was built with, not
// on a fresh adapter over its context: a live node's RM runs on the node's
// mailbox runtime, whose timers the context's event queue never sees.
TEST_F(KvRmTest, CrashKeepsTheLockManagerOnItsRuntime) {
  sim::SimContext timers;  // stands in for a runtime distinct from ctx_
  runtime::SimRuntime rt(&timers);
  KVOptions options;
  options.lock_timeout = 50 * sim::kMillisecond;
  KVResourceManager rm(&rt, &ctx_, "node.rm1", &log_, options);
  rm.Crash();

  bool first = false;
  rm.Write(1, "k", "v1", [&](Status st) { first = st.ok(); });
  ASSERT_TRUE(first);  // granted at once: the table is empty
  Status second = Status::OK();
  bool second_done = false;
  rm.Write(2, "k", "v2", [&](Status st) {
    second = st;
    second_done = true;
  });
  ASSERT_FALSE(second_done);  // waits behind txn 1
  EXPECT_EQ(ctx_.events().pending(), 0u);
  EXPECT_EQ(timers.events().pending(), 1u);  // the wait's timeout
  timers.events().Run();
  ASSERT_TRUE(second_done);
  EXPECT_TRUE(second.IsTimedOut()) << second.ToString();
}

}  // namespace
}  // namespace tpc::rm
