// FileStorage: the real-disk StorageBackend — an append-only file with
// fdatasync durability.
//
// Write() never blocks the node. It queues the bytes in a per-file FIFO;
// the first Write that finds no drain running registers one with the live
// worker running the node's batch (runtime::tls_deferred), which runs it on
// the same thread after it has released the node's mailbox. The drain does
// one write(2) + one fdatasync(2) per Write, in submission order, and never
// coalesces: LogManager's flush policy stays the only place that batches.
// Each completion is handed to `post`, which enqueues it on the node's
// mailbox; there the bytes are folded into the durable mirror before `done`
// runs. So the mirror and every counter stay single-threaded, acks follow
// durability in submission order (the sim backend's submit-now/ack-later
// shape LogManager's flush policies are written against), the node handles
// messages while its device syncs, and a process kill leaves exactly the
// synced prefix on disk. Write off a live worker is a TPC_CHECK failure.
//
// Crash() lets a write in service finish its sync, drops the writes not
// yet started, and folds every synced-but-unacked write into the mirror;
// their posted completions become no-ops. durable() then equals the file's
// contents byte for byte.
//
// An optional service-time floor (`floor_us`) pads each write to a minimum
// wall-clock duration. On a filesystem whose fsync is microseconds (tmpfs,
// battery-backed cache) the floor restores a realistic device cost; the
// live runtime tests use it to hold a sync in flight.
//
// fdatasync over O_DIRECT: the write path appends variable-length records,
// so O_DIRECT's alignment contract would force a block-sized staging layer;
// fdatasync on an O_APPEND fd gives the same durability statement (data +
// size are on stable media when the call returns) without it.
//
// Single-threaded per instance: all calls must come from the owning node's
// serialized execution context, and the runtime must be idle (no drain
// running) before the instance is destroyed. Reconstruction: a new
// FileStorage on an existing path reloads the file into the durable mirror,
// which is how the kill-and-recover test proves the bytes actually reached
// the file.
//
// Truncate() only trims the in-memory mirror and advances base_offset();
// the file keeps its full contents (a reopened instance sees base offset 0
// with the full log — an equivalent image, since truncation only ever
// discards records recovery no longer needs).

#ifndef TPC_WAL_FILE_STORAGE_H_
#define TPC_WAL_FILE_STORAGE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>

#include "wal/storage_backend.h"

namespace tpc::wal {

/// Namespace-scope (not nested) so it can be a defaulted constructor
/// argument — GCC rejects brace-defaulting a nested aggregate with member
/// initializers inside the enclosing class.
struct FileStorageOptions {
  /// Minimum wall-clock service time per write, microseconds (0 = none).
  int64_t floor_us = 0;
};

class FileStorage final : public StorageBackend {
 public:
  using FileOptions = FileStorageOptions;

  /// Defers a completion to the owning node's execution context.
  using PostFn = std::function<void(WriteCallback&&)>;

  /// Opens (creating if absent) the append-only file at `path` and loads
  /// any existing contents into the durable mirror.
  FileStorage(std::string path, PostFn post, FileOptions options = {});
  ~FileStorage() override;

  FileStorage(const FileStorage&) = delete;
  FileStorage& operator=(const FileStorage&) = delete;

  void Write(std::string data, WriteCallback done) override;
  void Crash() override;
  const std::string& durable() const override { return durable_; }
  void Truncate(uint64_t bytes) override;
  uint64_t base_offset() const override { return base_offset_; }
  uint64_t completed_writes() const override { return completed_writes_; }
  uint64_t bytes_written() const override { return bytes_written_; }
  uint64_t durable_bytes() const override {
    return base_offset_ + durable_.size();
  }
  size_t writes_outstanding() const override { return outstanding_; }
  void set_buffer_recycler(BufferRecycler recycler) override {
    recycler_ = std::move(recycler);
  }

  const std::string& path() const { return path_; }
  /// Cumulative wall-clock time of acked (or crash-folded) writes inside
  /// write+fdatasync (+floor), microseconds — the real device cost.
  int64_t sync_wall_us() const { return sync_wall_us_; }

 private:
  struct Job {
    std::string data;
    WriteCallback done;
    int64_t service_us = 0;  ///< write + fdatasync (+ floor), once synced
  };

  /// Deferred onto a worker: writes and syncs the oldest queued job, posts
  /// its completion, and defers itself again while jobs remain queued.
  void ServiceNext();
  /// On the node: folds the oldest synced job into the mirror and acks it,
  /// unless a Crash since (epoch) already folded it.
  void Complete(uint64_t epoch);
  /// Node-side accounting of a synced job.
  void Fold(Job& job);

  const std::string path_;
  const PostFn post_;
  const FileOptions options_;
  int fd_ = -1;  ///< after construction, only the drain writes to it

  // Node-thread state.
  std::string durable_;  ///< in-memory mirror of the synced file contents
  uint64_t base_offset_ = 0;
  uint64_t completed_writes_ = 0;
  uint64_t bytes_written_ = 0;
  int64_t sync_wall_us_ = 0;
  size_t outstanding_ = 0;  ///< submitted, not yet acked
  BufferRecycler recycler_;

  // Shared between the node and the drain.
  std::mutex mu_;
  std::condition_variable service_done_;  ///< Crash waits on in_service_
  /// Submission order: jobs [0, synced_) are synced and await their ack;
  /// the rest are queued, the first of them in service if in_service_.
  std::deque<Job> jobs_;
  size_t synced_ = 0;
  bool draining_ = false;    ///< a drain is registered with a worker
  bool in_service_ = false;  ///< the drain is writing jobs_[synced_]
  uint64_t epoch_ = 0;       ///< bumped by Crash; older completions no-op
};

}  // namespace tpc::wal

#endif  // TPC_WAL_FILE_STORAGE_H_
