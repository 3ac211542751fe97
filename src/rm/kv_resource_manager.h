// Key-value resource manager: a small transactional store that plays the
// LRM role — strict 2PL through a LockManager, undo/redo logging through a
// LogManager, real prepare/commit/abort/recovery.
//
// Logging policy (the shared-log optimization, Section 4 "Sharing the Log"):
// a standalone RM, or one on a log of its own, forces its prepared and
// committed records. An RM attached to a TransactionManager that writes into
// the same LogManager is told so by TransactionManager::AttachRm, and from
// then on appends both records *non-forced* — the TM's forces cover them:
//   * prepared: the TM's next force (its prepared record, or the decision
//     record a coordinator forces) lands after ours, and a log force makes
//     every earlier record durable. A lost RM prepared record therefore
//     means the TM never voted and no coordinator can have committed.
//   * committed: the TM decided before telling us, so a lost RM committed
//     record is re-derived from the TM's decision at recovery (its forced
//     decision record, or the in-doubt inquiry its prepared record leads to).
// The one exception is the prepared record under a family whose presumption
// row has `prepared_force == false` (logless one-phase): no TM force follows
// that vote, so the RM's prepared force stays — and the TM's own unforced
// prepared record rides it. Abort records are never forced either way.

#ifndef TPC_RM_KV_RESOURCE_MANAGER_H_
#define TPC_RM_KV_RESOURCE_MANAGER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "lock/lock_manager.h"
#include "rm/resource_manager.h"
#include "runtime/runtime.h"
#include "sim/sim_context.h"
#include "util/result.h"
#include "wal/log_manager.h"

namespace tpc::tm {
class TransactionManager;
}  // namespace tpc::tm

namespace tpc::rm {

/// Construction options.
struct KVOptions {
  /// Advertised on YES votes: heuristic decisions effectively impossible.
  bool reliable = false;
  /// Advertised on YES votes: may be suspended / left out of later 2PCs.
  bool ok_to_leave_out = false;
  /// Lock-wait deadlock timeout.
  sim::Time lock_timeout = 10 * sim::kSecond;
};

/// Transactional key-value store.
class KVResourceManager : public ResourceManager {
 public:
  using ReadCallback = std::function<void(Result<std::string>)>;
  using WriteCallback = std::function<void(Status)>;

  /// `log` is the node's WAL (in the common single-log deployment, the
  /// TM's own, which AttachRm detects). The sim-path compatibility
  /// constructor runs the lock manager on a SimRuntime over `ctx`.
  KVResourceManager(sim::SimContext* ctx, std::string name,
                    wal::LogManager* log, KVOptions options = {});

  /// Backend-explicit constructor: `rt` drives the lock manager's clock and
  /// wait-timeout timers; `ctx` supplies the trace and failure injector.
  KVResourceManager(runtime::Runtime* rt, sim::SimContext* ctx,
                    std::string name, wal::LogManager* log,
                    KVOptions options = {});

  const std::string& name() const override { return name_; }

  // --- transactional data operations -------------------------------------
  // Keys are views so callers can address bytes parsed straight out of a
  // delivered network payload; the RM copies a key exactly once (into the
  // deferred lock-grant capture), never per call layer.

  /// Reads `key` under a shared lock. NotFound if absent.
  void Read(uint64_t txn, std::string_view key, ReadCallback done);

  /// Writes `key` under an exclusive lock; undo/redo is logged (non-forced).
  void Write(uint64_t txn, std::string_view key, std::string value,
             WriteCallback done);

  /// Scans every key with the given prefix under a store-level shared lock
  /// (hierarchical locking: readers/writers of individual keys take IS/IX
  /// on the store, so a scan waits out all writers and blocks new ones
  /// until the transaction ends).
  using ScanCallback =
      std::function<void(Result<std::vector<std::pair<std::string, std::string>>>)>;
  void Scan(uint64_t txn, std::string_view prefix, ScanCallback done);

  // --- commit protocol ----------------------------------------------------

  void Prepare(uint64_t txn, VoteCallback done) override;
  void Commit(uint64_t txn, DoneCallback done) override;
  void Abort(uint64_t txn, DoneCallback done) override;
  void EndReadOnly(uint64_t txn) override;
  bool HasUpdates(uint64_t txn) const override;

  // --- failure & recovery --------------------------------------------------

  /// Wipes volatile state (store image, active transactions, locks).
  void Crash();

  /// Rebuilds the store from the given durable log records (the node's
  /// recovery pass hands each RM the records it owns). Returns the
  /// transactions left in doubt (prepared, outcome unknown): the TM must
  /// resolve each via ResolveRecovered().
  std::vector<uint64_t> Recover(const std::vector<wal::LogRecord>& records);

  /// Applies the outcome for a transaction reported in doubt by Recover().
  void ResolveRecovered(uint64_t txn, bool commit);

  // --- introspection -------------------------------------------------------

  /// Current value lookup outside any transaction (tests/verification).
  /// Writes apply in place and are undone on abort, so this is the live
  /// image: it includes uncommitted writes of active and in-doubt
  /// transactions, not only committed ones.
  Result<std::string> Peek(std::string_view key) const;

  /// The whole live store, with the same uncommitted writes as Peek
  /// (oracle/verification use only).
  const std::map<std::string, std::string, std::less<>>& store() const {
    return store_;
  }

  /// Writes a checkpoint record (a full store snapshot) to the log,
  /// forced. Requires no active transactions (returns FailedPrecondition
  /// otherwise). `done` receives the checkpoint record's LSN: records
  /// before it are no longer needed to recover this RM.
  Status Checkpoint(std::function<void(wal::Lsn)> done);

  /// Number of transactions with live state (for checkpoint safety).
  size_t ActiveCount() const { return active_.size(); }

  /// Makes the next Prepare() vote NO (fault injection for abort paths).
  void FailNextPrepare() { fail_next_prepare_ = true; }

  /// Registers this RM's crash points (`rm.before_prepared_log` etc., see
  /// tm/crash_points.h) with the failure injector under `node`'s identity:
  /// an armed point crashes the whole node mid-call, exactly as a machine
  /// failure between two log writes would. Called by the harness; until
  /// then the points are never consulted.
  void EnableCrashPoints(const std::string& node);

  lock::LockManager& locks() { return locks_; }
  const KVOptions& options() const { return options_; }
  /// True while the RM holds prepared state for `txn`.
  bool InDoubt(uint64_t txn) const;

 private:
  struct Update {
    std::string key;
    std::string old_value;
    bool had_old = false;
    std::string new_value;
  };
  struct TxnState {
    std::vector<Update> updates;
    bool prepared = false;
    /// Rebuilt by Recover(): updates are redo images not yet applied to the
    /// store, so Commit must apply them and Abort must not undo them.
    bool recovered = false;
  };

  void DoWrite(uint64_t txn, std::string_view key, std::string value,
               WriteCallback done);
  void LogUpdate(uint64_t txn, const Update& update);
  void ApplyUndo(const TxnState& state);

  /// True means the node crashed inside this call: unwind without invoking
  /// any callback. `point` indexes tm::kRmCrashPoints.
  bool CrashHere(size_t point);

  std::unique_ptr<runtime::Runtime> owned_rt_;  ///< compat-ctor SimRuntime
  /// Drives the lock manager; Crash() rebuilds the lock table on it.
  runtime::Runtime* rt_;
  sim::SimContext* ctx_;
  std::string name_;
  wal::LogManager* log_;
  KVOptions options_;
  // The forces a TM writing into our log makes redundant (see the header
  // comment). Only TransactionManager::AttachRm clears them.
  friend class tm::TransactionManager;
  bool force_prepared_ = true;
  bool force_committed_ = true;
  lock::LockManager locks_;
  lock::KeyId store_lock_id_;  ///< interned once; refreshed on Crash()
  // Transparent comparator: lookups by string_view probe without building a
  // temporary key string.
  std::map<std::string, std::string, std::less<>> store_;
  std::unordered_map<uint64_t, TxnState> active_;
  bool fail_next_prepare_ = false;

  // Crash-point interning (EnableCrashPoints); disabled by default.
  bool fi_armed_ = false;
  uint32_t fi_node_ = 0;
  std::array<uint32_t, 6> fi_points_{};
};

}  // namespace tpc::rm

#endif  // TPC_RM_KV_RESOURCE_MANAGER_H_
