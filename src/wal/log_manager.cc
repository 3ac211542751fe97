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
  }
  return "unknown";
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

Lsn LogManager::Append(const LogRecord& record, bool force,
                       AppendCallback done) {
  const uint32_t owner = owner_ids_.Intern(record.owner);
  const size_t start = buffer_.size();
  record.EncodeTo(buffer_);  // in place: no temporary encode buffer
  Lsn lsn = next_lsn_;
  next_lsn_ += buffer_.size() - start;

  ++stats_.writes;
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
    ++os.forced_writes;
    RequestForce(std::move(done));
  } else if (done) {
    done();
  }
  return lsn;
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
  // Timer hygiene: an armed timer must always name a live pending event,
  // so each cancel must succeed — a dead id here could fire (or alias a
  // recycled slot) in the next epoch. Timer callbacks mark themselves fired
  // before running any body code, so a crash from inside one never reaches
  // this cancel for the event being executed.
  if (group_timer_.armed()) TPC_CHECK(group_timer_.Cancel(rt_));
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

LogWriteStats LogManager::StatsForOwner(const std::string& owner) const {
  const uint32_t id = owner_ids_.Find(owner);
  if (id == StringInterner::kNotFound || id >= owner_stats_.size())
    return LogWriteStats{};
  return owner_stats_[id];
}

void LogManager::ResetStats() {
  stats_ = LogWriteStats{};
  owner_stats_.clear();  // owner ids stay interned; slots refill on demand
  force_latency_.Clear();
}

uint64_t LogManager::ApproxBytes() const {
  uint64_t bytes = buffer_.capacity();
  bytes += owner_stats_.capacity() * sizeof(LogWriteStats);
  bytes += pending_force_.capacity() * sizeof(PendingForce);
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
