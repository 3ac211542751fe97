// Log manager: append-only WAL with forced / non-forced writes and a
// policy-composable group-commit pipeline.
//
// Semantics (matching Section 2 of the paper):
//  * A non-forced append returns immediately; the record sits in the log
//    buffer and reaches stable storage when the next force (or any later
//    device flush) covers it. It is lost if the node crashes first.
//  * A forced append suspends the caller (its continuation runs only once
//    the record is durable).
//  * Group commit (Section 4) delays the physical force until either
//    `group_size` force requests have accumulated or `group_timeout`
//    expires, amortizing one device write across many transactions.
//
// Two flush policies share one central log buffer:
//  * kCountTimer       — the paper's count+timer scheme; the seed behavior
//    and trace-frozen default.
//  * kFlushPipelining  — a force request submits immediately while fewer
//    than `max_pipeline_depth` flushes are in flight; beyond that requests
//    accumulate and the next device completion submits them as one batch.
//    Commit acks decouple from the fsync path; batching emerges under load.
// A node's TM and RMs append one at a time on the node's single mailbox,
// so per-writer log buffers (leanstore's workers-write-log) would buy no
// concurrency here: one buffer and one force queue serve every owner.
//
// Whatever the policy, an ack never runs before its covering device write
// retires: every pending force records the log tail it must cover and the
// completion path checks durability against it (always-on oracle).
//
// Several components (the node's TM and any LRMs using the shared-log
// optimization) may append to one LogManager under distinct owner tags.

#ifndef TPC_WAL_LOG_MANAGER_H_
#define TPC_WAL_LOG_MANAGER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <memory>

#include "runtime/runtime.h"
#include "sim/sim_context.h"
#include "util/flat_map.h"
#include "util/histogram.h"
#include "util/interner.h"
#include "wal/log_record.h"
#include "wal/stable_storage.h"
#include "wal/storage_backend.h"
#include "wal/wal_crash_points.h"

namespace tpc::wal {

/// How buffered records and force requests become device writes.
enum class FlushPolicy : uint8_t {
  kCountTimer = 0,
  kFlushPipelining,
};

/// Stable label for bench cells and sweep configs.
const char* FlushPolicyName(FlushPolicy p);

/// Group-commit tuning.
struct GroupCommitOptions {
  bool enabled = false;
  /// Physical force fires once this many force requests are pending.
  uint32_t group_size = 8;
  /// ... or once this much time has passed since the first pending request.
  sim::Time group_timeout = 5 * sim::kMillisecond;

  FlushPolicy policy = FlushPolicy::kCountTimer;
  /// kFlushPipelining: flushes allowed in flight before requests accumulate.
  uint32_t max_pipeline_depth = 2;
};

/// Logical write counters (what the paper's tables count).
struct LogWriteStats {
  uint64_t writes = 0;         ///< total log records appended
  uint64_t forced_writes = 0;  ///< appended with force semantics
};

/// Per-node write-ahead log.
class LogManager {
 public:
  using AppendCallback = std::function<void()>;

  /// `node` names the owning node in traces. `force_latency` is the log
  /// device service time per physical write. Compatibility constructors for
  /// the sim path: own a simulated StableStorage device and a SimRuntime
  /// adapter over `ctx`, so pre-seam call sites compile unchanged.
  LogManager(sim::SimContext* ctx, std::string node,
             sim::Time force_latency = 2 * sim::kMillisecond);
  /// Full device model (latency + bandwidth + queue depth).
  LogManager(sim::SimContext* ctx, std::string node,
             const DeviceOptions& device);
  /// Backend-explicit constructor. `rt` supplies the clock and group-commit
  /// timers; `ctx` supplies the trace and failure injector; `storage` is the
  /// durability backend (not owned — a live node passes its FileStorage).
  LogManager(runtime::Runtime* rt, sim::SimContext* ctx, std::string node,
             StorageBackend* storage);

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  void set_group_commit(const GroupCommitOptions& opts) { group_ = opts; }
  const GroupCommitOptions& group_commit() const { return group_; }

  /// Appends a record. If `force`, `done` runs when the record is durable;
  /// otherwise `done` runs immediately (before returning). `done` may be
  /// null. Returns the record's LSN.
  Lsn Append(const LogRecord& record, bool force, AppendCallback done = nullptr);

  /// Forces everything currently buffered under the group-commit policy:
  /// `done` (may be null) runs once the current log tail is durable. A
  /// forced Append calls it; tests call it to flush the log.
  void RequestForce(AppendCallback done);

  /// Crash: buffered records and pending force callbacks are lost; stable
  /// storage keeps completed writes only.
  void Crash();

  /// Checkpoint-driven truncation: discards all durable log content before
  /// `lsn`. The caller is responsible for ensuring nothing before `lsn` is
  /// still needed for recovery (see Node::Checkpoint).
  void DiscardPrefix(Lsn lsn);

  /// Recovery scan of durable content.
  std::vector<LogRecord> Recover() const { return ScanLog(storage_->durable()); }

  /// First LSN not yet guaranteed durable.
  Lsn durable_lsn() const { return storage_->durable_bytes(); }
  Lsn next_lsn() const { return next_lsn_; }

  const LogWriteStats& stats() const { return stats_; }
  /// Logical writes attributed to one transaction (0 entries prune to {}).
  LogWriteStats StatsForTxn(uint64_t txn) const;
  /// Logical writes attributed to one owner tag.
  LogWriteStats StatsForOwner(const std::string& owner) const;
  /// Physical device writes completed (group commit reduces this).
  uint64_t device_forces() const { return storage_->completed_writes(); }

  void ResetStats();

  /// Opt-in force-latency collection (request → ack, simulated time). Off by
  /// default: the histogram retains every sample, which would violate the
  /// allocation-free flush path and the cluster memory budgets.
  void set_collect_force_latency(bool on) { collect_force_latency_ = on; }
  const Histogram& force_latency() const { return force_latency_; }

  StorageBackend& storage() { return *storage_; }

  /// Heap bytes held by the log's buffers (including the recycled
  /// flush-buffer pool) and stats tables (cluster memory budget). Per-txn
  /// stats are sparse, so a node pays for the transactions it logged, not
  /// for the cluster-wide txn-id space.
  uint64_t ApproxBytes() const;

 private:
  /// A suspended forced append: `done` may run only once the log is durable
  /// through `cover`.
  struct PendingForce {
    AppendCallback done;
    Lsn cover;
    sim::Time requested;
  };

  void Init();  ///< shared constructor body
  /// Submits the central buffer and the pending force callbacks as one
  /// device write.
  void Flush();
  /// Hands `bytes` plus every pending force callback to the device.
  void SubmitWrite(std::string bytes);
  /// Runs acks for a retired write (covering-LSN check per callback).
  void AckForces(std::vector<PendingForce>& cbs, uint64_t epoch);
  /// Device completion hook: pipelining submits the accumulated batch here.
  void OnFlushSlotFree();

  // --- pooled buffers (allocation-free steady-state flush) ------------------
  std::string TakeSpareBuffer();
  void RecycleBuffer(std::string&& s);
  std::vector<PendingForce> TakeSpareCbVec();
  void RecycleCbVec(std::vector<PendingForce>&& v);

  /// Fires a WAL crash point; true means this node just crashed and the
  /// caller must unwind without touching member state.
  bool CrashHere(WalCrashPt p) {
    return ctx_->failures().CrashPoint(fi_node_, wal_points_[static_cast<size_t>(p)]);
  }

  LogWriteStats& TxnSlot(uint64_t txn);

  std::unique_ptr<runtime::Runtime> owned_rt_;    ///< compat-ctor SimRuntime
  std::unique_ptr<StorageBackend> owned_storage_; ///< compat-ctor device
  runtime::Runtime* rt_;
  sim::SimContext* ctx_;  ///< trace + failure injector only
  std::string node_;
  StorageBackend* storage_;
  GroupCommitOptions group_;

  std::string buffer_;  // encoded records not yet handed to the device
  Lsn next_lsn_ = 0;
  std::vector<PendingForce> pending_force_;
  uint32_t pending_force_requests_ = 0;
  runtime::Timer group_timer_;
  uint32_t flushes_in_flight_ = 0;
  uint64_t epoch_ = 0;

  // Recycled capacity: flush buffers come back from the device once their
  // payload is durable; callback vectors come back after their acks run.
  std::vector<std::string> spare_buffers_;
  std::vector<std::vector<PendingForce>> spare_cb_vecs_;

  bool collect_force_latency_ = false;
  Histogram force_latency_;

  uint32_t fi_node_ = 0;
  uint32_t wal_points_[kWalCrashPointCount] = {};

  LogWriteStats stats_;
  // Per-txn counters in a sparse open-addressed map (txn ids are global
  // across the cluster, so a dense by-id vector would cost every node
  // O(cluster-wide txn count)); per-owner counters in a flat vector indexed
  // by interned owner tag. The append hot path performs one integer hash
  // probe and no string hashing beyond the one owner-tag intern probe.
  FlatId64Map<LogWriteStats> txn_stats_;
  StringInterner owner_ids_;
  std::vector<LogWriteStats> owner_stats_;
};

}  // namespace tpc::wal

#endif  // TPC_WAL_LOG_MANAGER_H_
