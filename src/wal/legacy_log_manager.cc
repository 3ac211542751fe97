// Frozen seed implementation — see legacy_log_manager.h. Logic is copied
// unchanged from the original log_manager.cc / log_record.cc Encode; only
// the class name differs.

#include "wal/legacy_log_manager.h"

#include <utility>

#include "util/binary_io.h"
#include "util/crc32c.h"
#include "util/logging.h"

namespace tpc::wal {

LegacyLogManager::LegacyLogManager(sim::SimContext* ctx, std::string node,
                                   sim::Time force_latency)
    : ctx_(ctx), node_(std::move(node)), storage_(ctx, force_latency) {}

std::string LegacyLogManager::SeedEncode(const LogRecord& record) {
  Encoder body_enc;
  body_enc.PutU8(static_cast<uint8_t>(record.type));
  body_enc.PutVarint(record.txn);
  body_enc.PutString(record.owner);
  body_enc.PutString(record.body);
  const std::string& inner = body_enc.buffer();

  Encoder out;
  out.PutU32(crc32c::Mask(crc32c::Value(inner)));
  out.PutU32(static_cast<uint32_t>(inner.size()));
  std::string buf = out.Release();
  buf += inner;
  return buf;
}

Lsn LegacyLogManager::Append(const LogRecord& record, bool force,
                             AppendCallback done) {
  std::string encoded = SeedEncode(record);
  Lsn lsn = next_lsn_;
  next_lsn_ += encoded.size();
  buffer_ += encoded;

  ++stats_.writes;
  auto& ts = txn_stats_[record.txn];
  ++ts.writes;
  auto& os = owner_stats_[record.owner];
  ++os.writes;

  ctx_->trace().Add({ctx_->now(),
                     force ? sim::TraceKind::kLogForce : sim::TraceKind::kLogWrite,
                     node_, "", record.txn,
                     std::string(RecordTypeToString(record.type))});

  if (force) {
    ++stats_.forced_writes;
    ++ts.forced_writes;
    ++os.forced_writes;
    RequestForce(std::move(done));
  } else if (done) {
    done();
  }
  return lsn;
}

void LegacyLogManager::ForceAll(AppendCallback done) {
  RequestForce(std::move(done));
}

void LegacyLogManager::RequestForce(AppendCallback done) {
  if (done) pending_force_.push_back(std::move(done));
  ++pending_force_requests_;

  if (!group_.enabled) {
    Flush();
    return;
  }
  if (pending_force_requests_ >= group_.group_size) {
    Flush();
    return;
  }
  if (group_timer_ == 0) {
    const uint64_t epoch = epoch_;
    group_timer_ = ctx_->events().ScheduleAfter(group_.group_timeout,
                                                [this, epoch] {
      if (epoch != epoch_) return;
      group_timer_ = 0;
      if (pending_force_requests_ > 0) Flush();
    });
  }
}

void LegacyLogManager::Flush() {
  if (group_timer_ != 0) {
    ctx_->events().Cancel(group_timer_);
    group_timer_ = 0;
  }
  pending_force_requests_ = 0;
  std::vector<AppendCallback> callbacks = std::move(pending_force_);
  pending_force_.clear();
  std::string bytes = std::move(buffer_);
  buffer_.clear();
  if (bytes.empty() && callbacks.empty()) return;
  const uint64_t epoch = epoch_;
  storage_.Write(std::move(bytes),
                 [this, epoch, cbs = std::move(callbacks)]() mutable {
    if (epoch != epoch_) return;
    for (auto& cb : cbs) cb();
  });
}

void LegacyLogManager::Crash() {
  ++epoch_;
  buffer_.clear();
  pending_force_.clear();
  pending_force_requests_ = 0;
  if (group_timer_ != 0) {
    ctx_->events().Cancel(group_timer_);
    group_timer_ = 0;
  }
  storage_.Crash();
  next_lsn_ = storage_.durable_bytes();
}

LogWriteStats LegacyLogManager::StatsForTxn(uint64_t txn) const {
  auto it = txn_stats_.find(txn);
  return it == txn_stats_.end() ? LogWriteStats{} : it->second;
}

LogWriteStats LegacyLogManager::StatsForOwner(const std::string& owner) const {
  auto it = owner_stats_.find(owner);
  return it == owner_stats_.end() ? LogWriteStats{} : it->second;
}

}  // namespace tpc::wal
