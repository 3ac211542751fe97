// Frozen copy of the seed LogManager (temporary-string record encode,
// unordered_map per-txn/per-owner stats, unconditional trace construction).
// Kept verbatim so bench/wal_bench.cc can measure the in-place rework
// against the original and tests can assert identical durable bytes.
// Do not optimize — that defeats its purpose as the baseline.

#ifndef TPC_WAL_LEGACY_LOG_MANAGER_H_
#define TPC_WAL_LEGACY_LOG_MANAGER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/sim_context.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"
#include "wal/stable_storage.h"

namespace tpc::wal {

/// The seed's write-ahead log, byte-for-byte behavior-identical to the
/// original (including its per-append temporary allocations).
class LegacyLogManager {
 public:
  using AppendCallback = std::function<void()>;

  LegacyLogManager(sim::SimContext* ctx, std::string node,
                   sim::Time force_latency = 2 * sim::kMillisecond);

  LegacyLogManager(const LegacyLogManager&) = delete;
  LegacyLogManager& operator=(const LegacyLogManager&) = delete;

  void set_group_commit(const GroupCommitOptions& opts) { group_ = opts; }

  Lsn Append(const LogRecord& record, bool force, AppendCallback done = nullptr);
  void ForceAll(AppendCallback done);
  void Crash();

  std::vector<LogRecord> Recover() const { return ScanLog(storage_.durable()); }

  Lsn durable_lsn() const { return storage_.durable_bytes(); }
  Lsn next_lsn() const { return next_lsn_; }

  const LogWriteStats& stats() const { return stats_; }
  LogWriteStats StatsForTxn(uint64_t txn) const;
  LogWriteStats StatsForOwner(const std::string& owner) const;
  uint64_t device_forces() const { return storage_.completed_writes(); }

  StableStorage& storage() { return storage_; }

 private:
  void RequestForce(AppendCallback done);
  void Flush();

  /// The seed's Encode: inner body into one temporary Encoder, header into a
  /// second, concatenated and returned by value.
  static std::string SeedEncode(const LogRecord& record);

  sim::SimContext* ctx_;
  std::string node_;
  StableStorage storage_;
  GroupCommitOptions group_;

  std::string buffer_;
  Lsn next_lsn_ = 0;
  std::vector<AppendCallback> pending_force_;
  uint32_t pending_force_requests_ = 0;
  sim::EventId group_timer_ = 0;  ///< 0 = unarmed (the kernel never mints 0)
  uint64_t epoch_ = 0;

  LogWriteStats stats_;
  std::unordered_map<uint64_t, LogWriteStats> txn_stats_;
  std::unordered_map<std::string, LogWriteStats> owner_stats_;
};

}  // namespace tpc::wal

#endif  // TPC_WAL_LEGACY_LOG_MANAGER_H_
