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
// Beyond the paper's count+timer scheme, the flush path implements the
// modern policy ladder (after leanstore's commit protocols):
//  * kCountTimer       — the seed behavior, trace-frozen default.
//  * kFlushPipelining  — a force request submits immediately while fewer
//    than `max_pipeline_depth` flushes are in flight; beyond that requests
//    accumulate and the next device completion submits them as one batch.
//    Commit acks decouple from the fsync path; batching emerges under load.
//  * kWorkersWriteLog  — appends land in per-owner log buffers (the TM and
//    each shared-log LRM own one); a flush daemon wakes on the count
//    trigger or a `daemon_interval` timer, gathers every owner buffer in
//    arrival order into one pooled flush buffer, and submits a single
//    device write.
//  * kWiloSteal        — workers-write-log plus: a worker whose buffer
//    exceeds `worker_buffer_bytes` steals the daemon's job, gathering and
//    submitting every peer's buffer without waiting for the wake.
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
#include <string_view>
#include <unordered_map>
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
  kWorkersWriteLog,
  kWiloSteal,
};

/// Stable label for bench cells and sweep configs.
const char* FlushPolicyName(FlushPolicy p);
/// Inverse of FlushPolicyName; returns false on an unknown label.
bool ParseFlushPolicy(std::string_view name, FlushPolicy* out);

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
  /// kWorkersWriteLog / kWiloSteal: daemon gather deadline after the first
  /// pending force request (the policy ladder's analogue of group_timeout).
  sim::Time daemon_interval = 1 * sim::kMillisecond;
  /// kWiloSteal: an owner buffer larger than this triggers a steal flush.
  uint64_t worker_buffer_bytes = 4096;
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

  /// Forces everything currently buffered (used by checkpoints and by tests).
  void ForceAll(AppendCallback done);

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
  /// WILO steal flushes submitted.
  uint64_t steals() const { return steals_; }

  void ResetStats();

  /// Opt-in force-latency collection (request → ack, simulated time). Off by
  /// default: the histogram retains every sample, which would violate the
  /// allocation-free flush path and the cluster memory budgets.
  void set_collect_force_latency(bool on) { collect_force_latency_ = on; }
  const Histogram& force_latency() const { return force_latency_; }

  StorageBackend& storage() { return *storage_; }

  /// Heap bytes held by the log's buffers (including per-owner buffers and
  /// the recycled flush-buffer pool) and stats tables (cluster memory
  /// budget). Per-txn stats are sparse, so a node pays for the transactions
  /// it logged, not for the cluster-wide txn-id space.
  uint64_t ApproxBytes() const;

 private:
  /// A suspended forced append: `done` may run only once the log is durable
  /// through `cover`.
  struct PendingForce {
    AppendCallback done;
    Lsn cover;
    sim::Time requested;
  };
  /// One run of consecutive appends by the same owner (workers-write-log
  /// arrival-order bookkeeping; gather concatenates segments in order so the
  /// physical log layout equals the logical LSN order).
  struct Segment {
    uint32_t owner;
    uint32_t bytes;
  };

  void Init();  ///< shared constructor body
  void RequestForce(AppendCallback done);
  /// Count+timer / pipelining: submits the central buffer and the pending
  /// force callbacks as one device write.
  void Flush();
  /// Hands `bytes` plus every pending force callback to the device.
  void SubmitWrite(std::string bytes);
  /// Runs acks for a retired write (covering-LSN check per callback).
  void AckForces(std::vector<PendingForce>& cbs, uint64_t epoch);
  /// Device completion hook: pipelining submits the accumulated batch here.
  void OnFlushSlotFree();

  // --- workers-write-log / WILO machinery -----------------------------------
  bool UsesOwnerBuffers() const {
    return group_.enabled && (group_.policy == FlushPolicy::kWorkersWriteLog ||
                              group_.policy == FlushPolicy::kWiloSteal);
  }
  void ArmDaemonTimer();
  /// Schedules the zero-delay daemon wake (count trigger or WILO steal).
  void ScheduleWake(bool steal);
  /// Drains every owner buffer (arrival order) and submits one device write.
  void DaemonGatherAndSubmit(bool steal);
  void GatherOwnerBuffers(std::string& out);

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
  runtime::Timer daemon_timer_;
  runtime::Timer wake_;  ///< zero-delay daemon wake
  bool wake_is_steal_ = false;
  uint32_t flushes_in_flight_ = 0;
  uint64_t epoch_ = 0;
  uint64_t steals_ = 0;

  // Per-owner log buffers (workers-write-log): indexed by interned owner
  // tag, with arrival-order segments recording how gather must interleave
  // them so LSNs stay exact byte offsets.
  std::vector<std::string> owner_bufs_;
  std::vector<size_t> owner_read_;  // per-owner gather cursor (transient)
  std::vector<Segment> segments_;

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
