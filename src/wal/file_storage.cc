#include "wal/file_storage.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "runtime/runtime.h"
#include "util/logging.h"

namespace tpc::wal {

namespace {
int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

FileStorage::FileStorage(std::string path, PostFn post, FileOptions options)
    : path_(std::move(path)), post_(std::move(post)), options_(options) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  TPC_CHECK(fd_ >= 0);
  // Reload whatever a previous incarnation synced: this is the recovery
  // image a restarted node scans.
  char buf[1 << 16];
  ssize_t n;
  uint64_t off = 0;
  while ((n = ::pread(fd_, buf, sizeof(buf), off)) > 0) {
    durable_.append(buf, static_cast<size_t>(n));
    off += static_cast<uint64_t>(n);
  }
  TPC_CHECK(n >= 0);
}

FileStorage::~FileStorage() {
  if (fd_ >= 0) ::close(fd_);
}

void FileStorage::Write(std::string data, WriteCallback done) {
  TPC_CHECK(runtime::tls_deferred != nullptr);  // only on a live worker
  ++outstanding_;
  bool start;
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.push_back(Job{std::move(data), std::move(done)});
    start = !draining_;
    draining_ = true;
  }
  if (start) runtime::tls_deferred->push_back([this] { ServiceNext(); });
}

void FileStorage::ServiceNext() {
  std::string data;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (synced_ == jobs_.size()) {  // a Crash dropped what was queued
      draining_ = false;
      return;
    }
    in_service_ = true;
    data = std::move(jobs_[synced_].data);
  }
  const int64_t start = NowUs();
  size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::write(fd_, data.data() + written, data.size() - written);
    if (n < 0 && errno == EINTR) continue;
    TPC_CHECK(n >= 0);
    written += static_cast<size_t>(n);
  }
  if (!data.empty()) TPC_CHECK(::fdatasync(fd_) == 0);
  const int64_t elapsed = NowUs() - start;
  if (elapsed < options_.floor_us)
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.floor_us - elapsed));
  uint64_t epoch;
  bool more;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Job& job = jobs_[synced_++];
    job.data = std::move(data);
    job.service_us = std::max(elapsed, options_.floor_us);
    in_service_ = false;
    epoch = epoch_;
    more = synced_ < jobs_.size();
    draining_ = more;
  }
  service_done_.notify_all();
  // Ack later, on the node's context — never re-entrantly from Write.
  post_([this, epoch] { Complete(epoch); });
  if (more) runtime::tls_deferred->push_back([this] { ServiceNext(); });
}

void FileStorage::Complete(uint64_t epoch) {
  if (epoch != epoch_) return;  // Crash folded this write already
  Job job;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job = std::move(jobs_.front());
    jobs_.pop_front();
    --synced_;
  }
  --outstanding_;
  Fold(job);
  if (job.done) job.done();
}

void FileStorage::Fold(Job& job) {
  // The bytes and their size are on stable media: fold into the mirror.
  durable_.append(job.data);
  ++completed_writes_;
  bytes_written_ += job.data.size();
  sync_wall_us_ += job.service_us;
  if (recycler_) recycler_(std::move(job.data));
}

void FileStorage::Crash() {
  std::unique_lock<std::mutex> lock(mu_);
  // Writes not yet started are lost with the node; a write in service
  // cannot be recalled, so it finishes and survives like every synced one.
  const size_t keep = synced_ + (in_service_ ? 1 : 0);
  jobs_.erase(jobs_.begin() + static_cast<std::ptrdiff_t>(keep), jobs_.end());
  service_done_.wait(lock, [this] { return !in_service_; });
  for (Job& job : jobs_) Fold(job);
  jobs_.clear();
  synced_ = 0;
  outstanding_ = 0;
  ++epoch_;  // the folded writes' posted completions become no-ops
}

void FileStorage::Truncate(uint64_t bytes) {
  TPC_CHECK(bytes <= durable_.size());
  durable_.erase(0, bytes);
  base_offset_ += bytes;
}

}  // namespace tpc::wal
