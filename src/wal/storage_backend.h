// StorageBackend: the durability seam LogManager codes against.
//
// The flush policies submit opaque byte batches and learn about durability
// through completion callbacks; everything else — what a "device" is, how
// long a write takes, what survives a crash — is the backend's business:
//
//   - StableStorage (stable_storage.h): the simulated log device — queueing
//     model, service times on the sim clock, in-order retirement, epoch
//     crash semantics. Deterministic; the trace-frozen default.
//   - FileStorage (file_storage.h): a real append-only file. Write queues
//     the bytes; the live worker that ran the node's batch does the write +
//     fdatasync after releasing the node, and the completion is posted to
//     the node's mailbox. Group commit batches actual fsyncs, the node keeps
//     handling messages while its device syncs, and a kill leaves exactly
//     the synced prefix on disk.
//
// Contract every backend guarantees:
//   - Writes retire in submission order; durable() is always a prefix of
//     what was submitted (plus everything retired before).
//   - `done` runs on the owning node's execution context after the write
//     (and all earlier writes) are durable, never re-entrantly from Write.
//   - Crash() drops submitted-but-unretired writes; retired bytes survive.
//   - durable_bytes() is monotonic in LSN space: base_offset() + retained.

#ifndef TPC_WAL_STORAGE_BACKEND_H_
#define TPC_WAL_STORAGE_BACKEND_H_

#include <cstdint>
#include <string>

#include "sim/inline_function.h"

namespace tpc::wal {

class StorageBackend {
 public:
  /// Completion callback; runs when the write retires (durable). Sized for
  /// the log manager's flush closure (this + epoch + a callback vector).
  using WriteCallback = sim::InlineFunction<48>;
  /// Installed by the owner to get flush-buffer capacity back after the
  /// payload is folded into the durable image (allocation-free flush loop).
  using BufferRecycler = sim::InlineFunction<24, void(std::string&&)>;

  virtual ~StorageBackend() = default;

  /// Queues `data` for durable append; `done` runs at retirement time.
  /// Submission order is retirement order regardless of device concurrency.
  virtual void Write(std::string data, WriteCallback done) = 0;

  /// Crash: in-flight and queued writes are lost; retired writes survive.
  virtual void Crash() = 0;

  /// Durable contents (what a recovery scan reads), starting at
  /// base_offset().
  virtual const std::string& durable() const = 0;

  /// Discards the first `bytes` of durable content (checkpoint-driven log
  /// truncation) and advances base_offset() accordingly.
  virtual void Truncate(uint64_t bytes) = 0;

  /// Offset of durable()[0] in the log's LSN space (grows with Truncate).
  virtual uint64_t base_offset() const = 0;

  /// Retired device writes (the physical-force count for group-commit
  /// accounting).
  virtual uint64_t completed_writes() const = 0;

  /// Payload bytes retired (bandwidth accounting).
  virtual uint64_t bytes_written() const = 0;

  /// End of the durable log in LSN space (base offset + retained bytes).
  virtual uint64_t durable_bytes() const = 0;

  /// Writes submitted and not yet retired (in service or queued).
  virtual size_t writes_outstanding() const = 0;

  /// Flush-buffer recycling: once a write's payload is durable, its string
  /// (cleared, capacity intact) is handed back through `recycler`.
  virtual void set_buffer_recycler(BufferRecycler recycler) = 0;
};

}  // namespace tpc::wal

#endif  // TPC_WAL_STORAGE_BACKEND_H_
