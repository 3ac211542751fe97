#include "wal/log_manager.h"

#include <utility>

#include "runtime/sim_runtime.h"
#include "util/logging.h"

namespace tpc::wal {

namespace {
// Bounds the recycled flush-buffer / callback-vector pools. Steady state
// needs at most device-queue-depth + 1 buffers in rotation; anything beyond
// this is a burst we let the allocator reclaim.
constexpr size_t kMaxSpares = 8;
}  // namespace

const char* FlushPolicyName(FlushPolicy p) {
  switch (p) {
    case FlushPolicy::kCountTimer: return "count_timer";
    case FlushPolicy::kFlushPipelining: return "flush_pipelining";
    case FlushPolicy::kWorkersWriteLog: return "workers_write_log";
    case FlushPolicy::kWiloSteal: return "wilo_steal";
  }
  return "unknown";
}

bool ParseFlushPolicy(std::string_view name, FlushPolicy* out) {
  for (FlushPolicy p : {FlushPolicy::kCountTimer, FlushPolicy::kFlushPipelining,
                        FlushPolicy::kWorkersWriteLog, FlushPolicy::kWiloSteal}) {
    if (name == FlushPolicyName(p)) {
      *out = p;
      return true;
    }
  }
  return false;
}

LogManager::LogManager(sim::SimContext* ctx, std::string node,
                       sim::Time force_latency)
    : LogManager(ctx, std::move(node), DeviceOptions{force_latency, 0, 1}) {}

LogManager::LogManager(sim::SimContext* ctx, std::string node,
                       const DeviceOptions& device)
    : owned_rt_(std::make_unique<runtime::SimRuntime>(ctx)),
      owned_storage_(std::make_unique<StableStorage>(ctx, device)),
      rt_(owned_rt_.get()),
      ctx_(ctx),
      node_(std::move(node)),
      storage_(owned_storage_.get()) {
  Init();
}

LogManager::LogManager(runtime::Runtime* rt, sim::SimContext* ctx,
                       std::string node, StorageBackend* storage)
    : rt_(rt), ctx_(ctx), node_(std::move(node)), storage_(storage) {
  Init();
}

void LogManager::Init() {
  fi_node_ = ctx_->failures().InternNode(node_);
  for (size_t i = 0; i < kWalCrashPointCount; ++i)
    wal_points_[i] = ctx_->failures().InternPoint(kWalCrashPoints[i]);
  // Flush buffers come back (cleared, capacity intact) once the device has
  // folded their payload into the durable image.
  storage_->set_buffer_recycler(
      [this](std::string&& s) { RecycleBuffer(std::move(s)); });
}

LogWriteStats& LogManager::TxnSlot(uint64_t txn) {
  // May rehash: Append uses the reference before the next TxnSlot call.
  return txn_stats_.GetOrCreate(txn);
}

Lsn LogManager::Append(const LogRecord& record, bool force,
                       AppendCallback done) {
  const uint32_t owner = owner_ids_.Intern(record.owner);
  const bool owner_buffered = UsesOwnerBuffers();
  std::string* dst = &buffer_;
  if (owner_buffered) {
    if (owner >= owner_bufs_.size()) {
      owner_bufs_.resize(owner + 1);
      owner_read_.resize(owner + 1, 0);
    }
    dst = &owner_bufs_[owner];
  }
  const size_t start = dst->size();
  record.EncodeTo(*dst);  // in place: no temporary encode buffer
  const size_t len = dst->size() - start;
  Lsn lsn = next_lsn_;
  next_lsn_ += len;
  if (owner_buffered) {
    // Arrival-order segment list: gather interleaves the owner buffers in
    // exactly this order, so the physical log layout equals the LSN order
    // and every Append-returned LSN stays an exact byte offset.
    if (!segments_.empty() && segments_.back().owner == owner)
      segments_.back().bytes += static_cast<uint32_t>(len);
    else
      segments_.push_back(Segment{owner, static_cast<uint32_t>(len)});
  }

  ++stats_.writes;
  LogWriteStats& ts = TxnSlot(record.txn);
  ++ts.writes;
  if (owner >= owner_stats_.size()) owner_stats_.resize(owner + 1);
  LogWriteStats& os = owner_stats_[owner];
  ++os.writes;

  if (ctx_->trace().capturing()) {
    ctx_->trace().Add({rt_->Now(),
                       force ? sim::TraceKind::kLogForce : sim::TraceKind::kLogWrite,
                       node_, "", record.txn,
                       std::string(RecordTypeToString(record.type))});
  }

  if (force) {
    ++stats_.forced_writes;
    ++ts.forced_writes;
    ++os.forced_writes;
    RequestForce(std::move(done));
  } else if (done) {
    done();
  }

  // WILO: an owner whose buffer ran full steals the flush instead of
  // waiting for the daemon (the wake gathers every peer's buffer too). If a
  // wake is already armed, the steal flag folds into it.
  if (owner_buffered && group_.policy == FlushPolicy::kWiloSteal &&
      owner_bufs_[owner].size() > group_.worker_buffer_bytes) {
    ScheduleWake(/*steal=*/true);
  }
  return lsn;
}

void LogManager::ForceAll(AppendCallback done) {
  RequestForce(std::move(done));
  // Checkpoints need "force now" semantics; the daemon path would otherwise
  // sit out its gather deadline.
  if (UsesOwnerBuffers()) ScheduleWake(/*steal=*/false);
}

void LogManager::RequestForce(AppendCallback done) {
  if (done)
    pending_force_.push_back(
        PendingForce{std::move(done), next_lsn_, rt_->Now()});
  ++pending_force_requests_;

  if (!group_.enabled) {
    Flush();
    return;
  }
  switch (group_.policy) {
    case FlushPolicy::kCountTimer:
      if (pending_force_requests_ >= group_.group_size) {
        Flush();
      } else if (!group_timer_.armed()) {
        const uint64_t epoch = epoch_;
        group_timer_.Arm(rt_, group_.group_timeout, [this, epoch] {
          if (epoch != epoch_) return;
          group_timer_.Fired();
          if (pending_force_requests_ == 0) return;
          if (CrashHere(WalCrashPt::kBeforeFlushSubmit)) return;
          Flush();
          CrashHere(WalCrashPt::kAfterFlushSubmit);
        });
      }
      break;
    case FlushPolicy::kFlushPipelining:
      // Submit while the pipeline has room; at depth, requests accumulate
      // and the next device completion submits them as one batch (see
      // OnFlushSlotFree). No timer: the device always completes, so the
      // batch is bounded by one device service time, not group_timeout.
      if (flushes_in_flight_ < group_.max_pipeline_depth) Flush();
      break;
    case FlushPolicy::kWorkersWriteLog:
    case FlushPolicy::kWiloSteal:
      if (pending_force_requests_ >= group_.group_size) {
        ScheduleWake(/*steal=*/false);
      } else if (!wake_.armed()) {
        ArmDaemonTimer();
      }
      break;
  }
}

void LogManager::Flush() {
  // An armed timer must always name a live pending event.
  if (group_timer_.armed()) TPC_CHECK(group_timer_.Cancel(rt_));
  std::string bytes = std::move(buffer_);
  buffer_ = TakeSpareBuffer();
  SubmitWrite(std::move(bytes));
}

void LogManager::SubmitWrite(std::string bytes) {
  pending_force_requests_ = 0;
  std::vector<PendingForce> cbs = std::move(pending_force_);
  pending_force_ = TakeSpareCbVec();
  if (bytes.empty() && cbs.empty()) {
    RecycleBuffer(std::move(bytes));
    RecycleCbVec(std::move(cbs));
    return;
  }
  // Even when the payload is empty (everything already handed to the device)
  // we must not ack the callbacks until the device confirms prior queued
  // writes are durable, so we still enqueue a (possibly empty) write.
  ++flushes_in_flight_;
  const uint64_t epoch = epoch_;
  storage_->Write(std::move(bytes),
                 [this, epoch, cbs = std::move(cbs)]() mutable {
    if (epoch != epoch_) return;
    --flushes_in_flight_;
    AckForces(cbs, epoch);
    if (epoch != epoch_) return;  // an ack callback crashed this node
    RecycleCbVec(std::move(cbs));
    OnFlushSlotFree();
  });
}

void LogManager::AckForces(std::vector<PendingForce>& cbs, uint64_t epoch) {
  for (PendingForce& pf : cbs) {
    // The group-commit safety invariant, whatever the policy: an ack may
    // only run once the log is durable through the tail the force covered.
    TPC_CHECK(storage_->durable_bytes() >= pf.cover);
    if (collect_force_latency_)
      force_latency_.Add(static_cast<double>(rt_->Now() - pf.requested));
    if (pf.done) pf.done();
    if (epoch != epoch_) return;  // callback crashed this node: stop acking
  }
}

void LogManager::OnFlushSlotFree() {
  if (!group_.enabled || group_.policy != FlushPolicy::kFlushPipelining)
    return;
  if (pending_force_requests_ == 0) return;
  if (flushes_in_flight_ >= group_.max_pipeline_depth) return;
  if (CrashHere(WalCrashPt::kBeforeFlushSubmit)) return;
  Flush();
  CrashHere(WalCrashPt::kAfterFlushSubmit);
}

void LogManager::ArmDaemonTimer() {
  if (daemon_timer_.armed()) return;
  const uint64_t epoch = epoch_;
  daemon_timer_.Arm(rt_, group_.daemon_interval, [this, epoch] {
    if (epoch != epoch_) return;
    daemon_timer_.Fired();
    if (pending_force_requests_ == 0 && segments_.empty()) return;
    DaemonGatherAndSubmit(/*steal=*/false);
  });
}

void LogManager::ScheduleWake(bool steal) {
  if (wake_.armed()) {
    wake_is_steal_ = wake_is_steal_ || steal;
    return;
  }
  if (daemon_timer_.armed()) TPC_CHECK(daemon_timer_.Cancel(rt_));
  wake_is_steal_ = steal;
  // Zero-delay: the wake runs later this same instant, so the worker that
  // triggered it has fully unwound out of Append before any crash point in
  // the gather path can fire.
  const uint64_t epoch = epoch_;
  wake_.Arm(rt_, 0, [this, epoch] {
    if (epoch != epoch_) return;
    wake_.Fired();
    DaemonGatherAndSubmit(wake_is_steal_);
  });
}

void LogManager::DaemonGatherAndSubmit(bool steal) {
  if (CrashHere(WalCrashPt::kBeforeGather)) return;
  std::string bytes = TakeSpareBuffer();
  GatherOwnerBuffers(bytes);
  // The gathered bytes live only in this local buffer: a crash in this
  // window loses them exactly like any buffered-but-unsubmitted record.
  if (CrashHere(WalCrashPt::kBetweenGatherSubmit)) return;
  SubmitWrite(std::move(bytes));
  if (steal) {
    ++steals_;
    CrashHere(WalCrashPt::kAfterStealSubmit);
  } else {
    CrashHere(WalCrashPt::kAfterFlushSubmit);
  }
}

void LogManager::GatherOwnerBuffers(std::string& out) {
  // Records appended before a mid-run policy switch sit in the central
  // buffer and predate every owner-buffered byte; they go first.
  if (!buffer_.empty()) {
    out.append(buffer_);
    buffer_.clear();
  }
  for (const Segment& seg : segments_) {
    const std::string& src = owner_bufs_[seg.owner];
    size_t& off = owner_read_[seg.owner];
    out.append(src, off, seg.bytes);
    off += seg.bytes;
  }
  segments_.clear();
  for (size_t i = 0; i < owner_bufs_.size(); ++i) {
    TPC_DCHECK(owner_read_[i] == owner_bufs_[i].size());
    owner_bufs_[i].clear();  // capacity survives for the next round
    owner_read_[i] = 0;
  }
}

std::string LogManager::TakeSpareBuffer() {
  if (spare_buffers_.empty()) return std::string();
  std::string s = std::move(spare_buffers_.back());
  spare_buffers_.pop_back();
  return s;
}

void LogManager::RecycleBuffer(std::string&& s) {
  s.clear();
  if (spare_buffers_.size() < kMaxSpares)
    spare_buffers_.push_back(std::move(s));
}

std::vector<LogManager::PendingForce> LogManager::TakeSpareCbVec() {
  if (spare_cb_vecs_.empty()) return {};
  std::vector<PendingForce> v = std::move(spare_cb_vecs_.back());
  spare_cb_vecs_.pop_back();
  return v;
}

void LogManager::RecycleCbVec(std::vector<PendingForce>&& v) {
  v.clear();
  if (spare_cb_vecs_.size() < kMaxSpares)
    spare_cb_vecs_.push_back(std::move(v));
}

void LogManager::Crash() {
  ++epoch_;
  buffer_.clear();
  pending_force_.clear();
  pending_force_requests_ = 0;
  for (std::string& b : owner_bufs_) b.clear();
  for (size_t& r : owner_read_) r = 0;
  segments_.clear();
  // Timer hygiene: an armed timer must always name a live pending event,
  // so each cancel must succeed — a dead id here could fire (or alias a
  // recycled slot) in the next epoch. Timer callbacks mark themselves fired
  // before running any body code, so a crash from inside one never reaches
  // this cancel for the event being executed.
  if (group_timer_.armed()) TPC_CHECK(group_timer_.Cancel(rt_));
  if (daemon_timer_.armed()) TPC_CHECK(daemon_timer_.Cancel(rt_));
  if (wake_.armed()) TPC_CHECK(wake_.Cancel(rt_));
  wake_is_steal_ = false;
  flushes_in_flight_ = 0;
  storage_->Crash();
  // LSN space continues from the durable prefix after restart.
  next_lsn_ = storage_->durable_bytes();
}

void LogManager::DiscardPrefix(Lsn lsn) {
  TPC_CHECK(lsn <= storage_->durable_bytes());
  if (lsn <= storage_->base_offset()) return;
  storage_->Truncate(lsn - storage_->base_offset());
}

LogWriteStats LogManager::StatsForTxn(uint64_t txn) const {
  const LogWriteStats* stats = txn_stats_.Find(txn);
  return stats == nullptr ? LogWriteStats{} : *stats;
}

LogWriteStats LogManager::StatsForOwner(const std::string& owner) const {
  const uint32_t id = owner_ids_.Find(owner);
  if (id == StringInterner::kNotFound || id >= owner_stats_.size())
    return LogWriteStats{};
  return owner_stats_[id];
}

void LogManager::ResetStats() {
  stats_ = LogWriteStats{};
  txn_stats_.Clear();
  owner_stats_.clear();  // owner ids stay interned; slots refill on demand
  force_latency_.Clear();
  steals_ = 0;
}

uint64_t LogManager::ApproxBytes() const {
  uint64_t bytes = txn_stats_.ApproxBytes();
  bytes += buffer_.capacity();
  bytes += owner_stats_.capacity() * sizeof(LogWriteStats);
  bytes += pending_force_.capacity() * sizeof(PendingForce);
  for (const std::string& b : owner_bufs_) bytes += b.capacity();
  bytes += owner_bufs_.capacity() * sizeof(std::string);
  bytes += owner_read_.capacity() * sizeof(size_t);
  bytes += segments_.capacity() * sizeof(Segment);
  for (const std::string& b : spare_buffers_) bytes += b.capacity();
  bytes += spare_buffers_.capacity() * sizeof(std::string);
  for (const auto& v : spare_cb_vecs_)
    bytes += v.capacity() * sizeof(PendingForce);
  bytes += spare_cb_vecs_.capacity() * sizeof(std::vector<PendingForce>);
  bytes += force_latency_.count() * sizeof(double);
  bytes += storage_->durable().size();
  return bytes;
}

}  // namespace tpc::wal
