#include "rm/kv_resource_manager.h"

#include <memory>
#include <utility>

#include "runtime/sim_runtime.h"
#include "tm/crash_points.h"
#include "util/binary_io.h"
#include "util/logging.h"

namespace tpc::rm {
namespace {

// Indices into tm::kRmCrashPoints (and fi_points_).
enum RmCrashIdx : size_t {
  kBeforePreparedLog = 0,
  kAfterPreparedLog = 1,
  kBeforeCommittedLog = 2,
  kAfterCommittedLog = 3,
  kBeforeAbortLog = 4,
  kAfterAbortLog = 5,
};

std::string EncodeUpdateBody(const std::string& key, const std::string& old_value,
                             bool had_old, const std::string& new_value) {
  Encoder enc;
  enc.PutString(key);
  enc.PutString(old_value);
  enc.PutBool(had_old);
  enc.PutString(new_value);
  return enc.Release();
}

Status DecodeUpdateBody(std::string_view body, std::string* key,
                        std::string* old_value, bool* had_old,
                        std::string* new_value) {
  Decoder dec(body);
  TPC_RETURN_IF_ERROR(dec.GetString(key));
  TPC_RETURN_IF_ERROR(dec.GetString(old_value));
  TPC_RETURN_IF_ERROR(dec.GetBool(had_old));
  TPC_RETURN_IF_ERROR(dec.GetString(new_value));
  return Status::OK();
}

// The container resource for hierarchical (intent) locking. The name uses
// a control character so it cannot collide with user keys.
const char kStoreLock[] = "\x01store";

}  // namespace

std::string_view VoteToString(Vote vote) {
  switch (vote) {
    case Vote::kYes: return "YES";
    case Vote::kNo: return "NO";
    case Vote::kReadOnly: return "READ-ONLY";
  }
  return "?";
}

KVResourceManager::KVResourceManager(sim::SimContext* ctx, std::string name,
                                     wal::LogManager* log, KVOptions options)
    : owned_rt_(std::make_unique<runtime::SimRuntime>(ctx)),
      rt_(owned_rt_.get()),
      ctx_(ctx),
      name_(std::move(name)),
      log_(log),
      options_(options),
      locks_(rt_, ctx, name_, options.lock_timeout),
      store_lock_id_(locks_.InternKey(kStoreLock)) {}

KVResourceManager::KVResourceManager(runtime::Runtime* rt,
                                     sim::SimContext* ctx, std::string name,
                                     wal::LogManager* log, KVOptions options)
    : rt_(rt),
      ctx_(ctx),
      name_(std::move(name)),
      log_(log),
      options_(options),
      locks_(rt, ctx, name_, options.lock_timeout),
      store_lock_id_(locks_.InternKey(kStoreLock)) {}

void KVResourceManager::EnableCrashPoints(const std::string& node) {
  fi_node_ = ctx_->failures().InternNode(node);
  for (size_t i = 0; i < tm::kRmCrashPointCount; ++i)
    fi_points_[i] = ctx_->failures().InternPoint(tm::kRmCrashPoints[i]);
  fi_armed_ = true;
}

bool KVResourceManager::CrashHere(size_t point) {
  if (!fi_armed_) return false;
  return ctx_->failures().CrashPoint(fi_node_, fi_points_[point]);
}

void KVResourceManager::Read(uint64_t txn, std::string_view key,
                             ReadCallback done) {
  // Lock grants can be deferred (waits), so the capture owns the key.
  locks_.Acquire(txn, store_lock_id_, lock::LockMode::kIntentShared,
                 [this, txn, key = std::string(key),
                  done = std::move(done)](Status st) mutable {
    if (!st.ok()) {
      done(std::move(st));
      return;
    }
    // Intern once; the grant path then works entirely in dense ids.
    locks_.Acquire(txn, locks_.InternKey(key), lock::LockMode::kShared,
                   [this, key = std::move(key), done = std::move(done)](Status st) {
      if (!st.ok()) {
        done(std::move(st));
        return;
      }
      auto it = store_.find(key);
      if (it == store_.end()) {
        done(Status::NotFound("no such key: " + key));
      } else {
        done(it->second);
      }
    });
  });
}

void KVResourceManager::Scan(uint64_t txn, std::string_view prefix,
                             ScanCallback done) {
  locks_.Acquire(txn, store_lock_id_, lock::LockMode::kShared,
                 [this, prefix = std::string(prefix),
                  done = std::move(done)](Status st) {
    if (!st.ok()) {
      done(std::move(st));
      return;
    }
    std::vector<std::pair<std::string, std::string>> rows;
    for (auto it = store_.lower_bound(prefix); it != store_.end(); ++it) {
      if (it->first.compare(0, prefix.size(), prefix) != 0) break;
      rows.emplace_back(it->first, it->second);
    }
    done(std::move(rows));
  });
}

void KVResourceManager::Write(uint64_t txn, std::string_view key,
                              std::string value, WriteCallback done) {
  locks_.Acquire(txn, store_lock_id_, lock::LockMode::kIntentExclusive,
                 [this, txn, key = std::string(key), value = std::move(value),
                  done = std::move(done)](Status st) mutable {
    if (!st.ok()) {
      done(std::move(st));
      return;
    }
    DoWrite(txn, key, std::move(value), std::move(done));
  });
}

void KVResourceManager::DoWrite(uint64_t txn, std::string_view key,
                                std::string value, WriteCallback done) {
  locks_.Acquire(txn, locks_.InternKey(key), lock::LockMode::kExclusive,
                 [this, txn, key = std::string(key), value = std::move(value),
                  done = std::move(done)](Status st) mutable {
    if (!st.ok()) {
      done(std::move(st));
      return;
    }
    TxnState& state = active_[txn];
    TPC_CHECK(!state.prepared);  // strict 2PC: no updates after prepare
    Update update;
    update.key = key;
    auto it = store_.find(key);
    update.had_old = it != store_.end();
    if (update.had_old) update.old_value = it->second;
    update.new_value = value;
    LogUpdate(txn, update);
    store_[key] = std::move(value);
    state.updates.push_back(std::move(update));
    done(Status::OK());
  });
}

void KVResourceManager::LogUpdate(uint64_t txn, const Update& update) {
  wal::LogRecord rec;
  rec.type = wal::RecordType::kRmUpdate;
  rec.txn = txn;
  rec.owner = name_;
  rec.body = EncodeUpdateBody(update.key, update.old_value, update.had_old,
                              update.new_value);
  log_->Append(rec, /*force=*/false);
}

void KVResourceManager::Prepare(uint64_t txn, VoteCallback done) {
  if (fail_next_prepare_) {
    fail_next_prepare_ = false;
    VoteInfo info;
    info.vote = Vote::kNo;
    done(info);
    return;
  }
  auto it = active_.find(txn);
  if (it == active_.end() || it->second.updates.empty()) {
    // No updates: read-only vote. (Early lock release — the serialization
    // hazard the paper warns about — is the caller's decision via
    // EndReadOnly.)
    VoteInfo info;
    info.vote = Vote::kReadOnly;
    info.reliable = options_.reliable;
    info.ok_to_leave_out = options_.ok_to_leave_out;
    done(info);
    return;
  }
  if (CrashHere(kBeforePreparedLog)) return;
  it->second.prepared = true;
  wal::LogRecord rec;
  rec.type = wal::RecordType::kRmPrepared;
  rec.txn = txn;
  rec.owner = name_;
  log_->Append(rec, force_prepared_, [this, done = std::move(done)] {
    if (CrashHere(kAfterPreparedLog)) return;
    VoteInfo info;
    info.vote = Vote::kYes;
    info.reliable = options_.reliable;
    info.ok_to_leave_out = options_.ok_to_leave_out;
    done(info);
  });
}

void KVResourceManager::Commit(uint64_t txn, DoneCallback done) {
  auto it = active_.find(txn);
  if (it == active_.end()) {
    // Nothing local (e.g. read-only already ended). A reader that voted
    // without ending its read-only work (the paxos path) still holds its
    // read locks.
    locks_.ReleaseAll(txn);
    done(Status::OK());
    return;
  }
  if (CrashHere(kBeforeCommittedLog)) return;
  if (it->second.recovered) {
    // Recovered in-doubt transaction: the redo phase skipped its updates
    // because the outcome was unknown; apply them now.
    for (const auto& u : it->second.updates) store_[u.key] = u.new_value;
  }
  wal::LogRecord rec;
  rec.type = wal::RecordType::kRmCommitted;
  rec.txn = txn;
  rec.owner = name_;
  log_->Append(rec, force_committed_, [this, txn, done = std::move(done)] {
    if (CrashHere(kAfterCommittedLog)) return;
    active_.erase(txn);
    locks_.ReleaseAll(txn);
    done(Status::OK());
  });
}

void KVResourceManager::Abort(uint64_t txn, DoneCallback done) {
  auto it = active_.find(txn);
  if (it == active_.end()) {
    locks_.ReleaseAll(txn);  // a reader's locks, as in Commit
    done(Status::OK());
    return;
  }
  if (CrashHere(kBeforeAbortLog)) return;
  if (!it->second.recovered) ApplyUndo(it->second);
  wal::LogRecord rec;
  rec.type = wal::RecordType::kRmAborted;
  rec.txn = txn;
  rec.owner = name_;
  // Presumed-abort reasoning: losing an abort record is harmless (recovery
  // re-derives abort), so it is never forced.
  log_->Append(rec, /*force=*/false);
  if (CrashHere(kAfterAbortLog)) return;
  active_.erase(it);
  locks_.ReleaseAll(txn);
  done(Status::OK());
}

void KVResourceManager::EndReadOnly(uint64_t txn) {
  active_.erase(txn);
  locks_.ReleaseAll(txn);
}

bool KVResourceManager::HasUpdates(uint64_t txn) const {
  auto it = active_.find(txn);
  return it != active_.end() && !it->second.updates.empty();
}

void KVResourceManager::ApplyUndo(const TxnState& state) {
  for (auto it = state.updates.rbegin(); it != state.updates.rend(); ++it) {
    if (it->had_old) {
      store_[it->key] = it->old_value;
    } else {
      store_.erase(it->key);
    }
  }
}

void KVResourceManager::Crash() {
  store_.clear();
  active_.clear();
  locks_ = lock::LockManager(rt_, ctx_, name_, options_.lock_timeout);
  store_lock_id_ = locks_.InternKey(kStoreLock);
}

std::vector<uint64_t> KVResourceManager::Recover(
    const std::vector<wal::LogRecord>& records) {
  struct RecoveredTxn {
    std::vector<Update> updates;
    bool prepared = false;
    bool committed = false;
    bool aborted = false;
    size_t first_seen = 0;  // log order for deterministic redo
  };
  std::unordered_map<uint64_t, RecoveredTxn> txns;
  std::vector<uint64_t> order;  // txn ids in first-appearance order

  for (const auto& rec : records) {
    if (rec.owner != name_) continue;
    if (rec.type == wal::RecordType::kCheckpoint) {
      // Snapshot: everything earlier is superseded (checkpoints are only
      // taken with no transactions in flight).
      store_.clear();
      txns.clear();
      order.clear();
      Decoder dec(rec.body);
      uint64_t n = 0;
      TPC_CHECK_OK(dec.GetVarint(&n));
      for (uint64_t i = 0; i < n; ++i) {
        std::string key, value;
        TPC_CHECK_OK(dec.GetString(&key));
        TPC_CHECK_OK(dec.GetString(&value));
        store_[key] = std::move(value);
      }
      continue;
    }
    auto [it, inserted] = txns.try_emplace(rec.txn);
    if (inserted) order.push_back(rec.txn);
    RecoveredTxn& t = it->second;
    switch (rec.type) {
      case wal::RecordType::kRmUpdate: {
        Update u;
        TPC_CHECK_OK(DecodeUpdateBody(rec.body, &u.key, &u.old_value,
                                      &u.had_old, &u.new_value));
        t.updates.push_back(std::move(u));
        break;
      }
      case wal::RecordType::kRmPrepared: t.prepared = true; break;
      case wal::RecordType::kRmCommitted: t.committed = true; break;
      case wal::RecordType::kRmAborted: t.aborted = true; break;
      default: break;
    }
  }

  // Redo phase: committed transactions' updates, in log order.
  for (uint64_t id : order) {
    const RecoveredTxn& t = txns[id];
    if (!t.committed) continue;
    for (const auto& u : t.updates) store_[u.key] = u.new_value;
  }

  // In-doubt: prepared, unresolved. Re-acquire exclusive locks and keep the
  // redo images until the TM resolves the outcome.
  std::vector<uint64_t> in_doubt;
  for (uint64_t id : order) {
    RecoveredTxn& t = txns[id];
    if (!t.prepared || t.committed || t.aborted) continue;
    in_doubt.push_back(id);
    TxnState state;
    state.prepared = true;
    state.recovered = true;
    state.updates = std::move(t.updates);
    for (const auto& u : state.updates) {
      locks_.Acquire(id, u.key, lock::LockMode::kExclusive, [](Status st) {
        TPC_CHECK(st.ok());  // fresh lock table: grants are immediate
      });
    }
    active_[id] = std::move(state);
  }
  return in_doubt;
}

void KVResourceManager::ResolveRecovered(uint64_t txn, bool commit) {
  auto it = active_.find(txn);
  TPC_CHECK(it != active_.end());
  if (commit) {
    // Updates were not re-applied during redo (outcome was unknown): apply
    // them now, then write the committed record.
    for (const auto& u : it->second.updates) store_[u.key] = u.new_value;
    wal::LogRecord rec;
    rec.type = wal::RecordType::kRmCommitted;
    rec.txn = txn;
    rec.owner = name_;
    log_->Append(rec, force_committed_);
  } else {
    wal::LogRecord rec;
    rec.type = wal::RecordType::kRmAborted;
    rec.txn = txn;
    rec.owner = name_;
    log_->Append(rec, /*force=*/false);
  }
  active_.erase(it);
  locks_.ReleaseAll(txn);
}

Status KVResourceManager::Checkpoint(std::function<void(wal::Lsn)> done) {
  if (!active_.empty())
    return Status::FailedPrecondition(name_ + ": transactions in flight");
  Encoder enc;
  enc.PutVarint(store_.size());
  for (const auto& [key, value] : store_) {
    enc.PutString(key);
    enc.PutString(value);
  }
  wal::LogRecord rec;
  rec.type = wal::RecordType::kCheckpoint;
  rec.txn = 0;
  rec.owner = name_;
  rec.body = enc.Release();
  auto lsn_holder = std::make_shared<wal::Lsn>(0);
  wal::Lsn lsn = log_->Append(rec, /*force=*/true,
                              [lsn_holder, done = std::move(done)] {
    done(*lsn_holder);
  });
  // Forced-append completion is always asynchronous (device I/O), so the
  // holder is filled before the callback can run.
  *lsn_holder = lsn;
  return Status::OK();
}

Result<std::string> KVResourceManager::Peek(std::string_view key) const {
  auto it = store_.find(key);
  if (it == store_.end())
    return Status::NotFound("no such key: " + std::string(key));
  return it->second;
}

bool KVResourceManager::InDoubt(uint64_t txn) const {
  auto it = active_.find(txn);
  return it != active_.end() && it->second.prepared;
}

}  // namespace tpc::rm
