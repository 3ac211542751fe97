// LiveRuntime: the real-threads Runtime backend — same protocol engines,
// wall clock, worker pool, hashed timer wheel, real message handoff.
//
// Execution model (actor-style, mirroring the sim's serialization):
//   - Every node owns an MPSC mailbox (mutex + deque). Any thread may Post;
//     tasks run strictly in post order.
//   - A node is executed by at most one worker at a time: a `scheduled`
//     flag guarantees the node sits in the global ready queue (mutex +
//     condvar, feeding `worker_threads` workers) at most once, and the
//     worker that dequeues it holds exclusive run rights until it drains a
//     batch and either re-enqueues or clears the flag. Protocol code
//     therefore never needs internal locking — exactly the guarantee the
//     deterministic event loop gave it.
//   - Timers live on one hashed timer wheel (buckets hashed by deadline
//     tick) driven by a dedicated tick thread. The wheel only *posts* a
//     fire task to the owning node; the slot is claimed under the wheel
//     mutex when that task runs on the node's thread. Cancel therefore wins
//     against any fire task that has not started running — on a node's own
//     thread, cancel-before-fire always returns true, preserving the
//     engines' armed-flag discipline (TPC_CHECK(CancelTimer(...))).
//   - Now() is a monotonic wall clock (microseconds since runtime start);
//     NextTxnId() is one shared atomic, so ids stay cluster-unique.
//
// Blocking storage work never holds a node. FileStorage appends its write +
// fdatasync to the worker's deferred list (runtime.h, tls_deferred), and
// the worker runs it after it has cleared the node's `scheduled` flag or
// re-enqueued the node, so the node's mailbox keeps draining on other
// workers while its device syncs. A worker running deferred work still
// counts as running: WaitIdle means no mailbox work and no sync in flight.
// I/O overlap — different nodes' syncs, and a node's sync with its own
// message handling — not compute parallelism, is where live commit
// throughput scales with the worker count, on any core count.

#ifndef TPC_RUNTIME_LIVE_RUNTIME_H_
#define TPC_RUNTIME_LIVE_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/runtime.h"
#include "sim/inline_function.h"

namespace tpc::runtime {

/// A mailbox task. 64 bytes of inline storage: enough for a posted storage
/// completion (a 48-byte WriteCallback plus its wrapper) or a std::function
/// handed in by a client thread; larger closures fall back to one heap
/// allocation, as everywhere else.
using Task = sim::InlineFunction<64>;

class LiveRuntime;
class LiveNodeRuntime;

/// The shared timer wheel. Buckets are hashed by deadline tick; the tick
/// thread scans the buckets its window passed and posts fire tasks; slots
/// are claimed (or cancelled) under the wheel mutex.
class TimerWheel {
 public:
  TimerWheel(LiveRuntime* rt, int64_t tick_us) : rt_(rt), tick_us_(tick_us) {}

  TimerId Arm(sim::Time deadline_us, TimerCallback fn, LiveNodeRuntime* owner);
  bool Cancel(TimerId id);
  /// Posts fire tasks for every armed slot whose deadline passed.
  void Advance(sim::Time now_us);

 private:
  struct Slot {
    TimerCallback fn;
    LiveNodeRuntime* owner = nullptr;
    sim::Time deadline = 0;
    uint32_t gen = 0;   // bumped on every (re)arm, skipping 0; stale ids
                        // never cancel
    bool armed = false;
  };
  struct Entry {
    uint32_t slot;
    uint32_t gen;
  };
  static constexpr size_t kBuckets = 256;

  /// Claims the slot (if still armed and current) and runs its callback on
  /// the owning node's thread.
  void Fire(uint32_t slot, uint32_t gen);

  LiveRuntime* rt_;
  const int64_t tick_us_;
  std::mutex mu_;
  std::vector<std::vector<Entry>> buckets_{kBuckets};
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;
  int64_t last_tick_ = 0;
};

/// One node's runtime face: the Runtime the node's TM/LogManager/LockManager
/// hold, plus the mailbox everything destined for the node goes through.
class LiveNodeRuntime final : public Runtime {
 public:
  sim::Time Now() const override;
  TimerId ArmTimer(sim::Time delay, TimerCallback fn) override;
  bool CancelTimer(TimerId id) override;
  uint64_t NextTxnId() override;

  /// Enqueues `task` on this node's mailbox (any thread; FIFO per sender).
  void Post(Task task);

  const std::string& name() const { return name_; }
  LiveRuntime* runtime() { return rt_; }

 private:
  friend class LiveRuntime;
  LiveNodeRuntime(LiveRuntime* rt, std::string name)
      : rt_(rt), name_(std::move(name)) {}

  LiveRuntime* rt_;
  std::string name_;
  std::mutex mu_;
  std::deque<Task> mailbox_;
  bool scheduled_ = false;  ///< in the ready queue or held by a worker
};

/// Namespace-scope (not nested) so it can be a defaulted constructor
/// argument — GCC rejects brace-defaulting a nested aggregate with member
/// initializers inside the enclosing class.
struct LiveOptions {
  /// Worker threads executing node mailboxes.
  int worker_threads = 4;
  /// Timer wheel resolution (tick thread period).
  int64_t timer_tick_us = 250;
};

class LiveRuntime {
 public:
  using Options = LiveOptions;

  explicit LiveRuntime(Options options = {});
  ~LiveRuntime();  ///< Stops if still running.

  LiveRuntime(const LiveRuntime&) = delete;
  LiveRuntime& operator=(const LiveRuntime&) = delete;

  /// Creates a node (single-threaded setup phase, before Start).
  LiveNodeRuntime* AddNode(const std::string& name);

  void Start();
  /// Drains nothing: workers stop after their current batch; pending tasks
  /// stay queued. Call WaitIdle first for a clean quiesce.
  void Stop();

  /// Microseconds since the runtime was constructed (monotonic).
  sim::Time NowUs() const;

  uint64_t NextTxnId() { return ++txn_ids_; }

  /// Blocks until no node is ready or running and no deferred work (a log
  /// sync) is in flight. Timers may still be armed; quiescence here means
  /// the mailboxes drained.
  void WaitIdle();

  const Options& options() const { return options_; }

 private:
  friend class LiveNodeRuntime;
  friend class TimerWheel;

  void WorkerLoop();
  /// Runs one batch of `node`'s mailbox, then releases the node. True if
  /// tasks arrived meanwhile: the node stays scheduled and the caller must
  /// enqueue it.
  bool RunBatch(LiveNodeRuntime* node, std::deque<Task>& batch);
  /// Runs the work node batches deferred, then stops counting the worker
  /// as running.
  void RunDeferred(std::vector<DeferredWork>& deferred,
                   std::deque<Task>& batch);
  void TickLoop();
  void Enqueue(LiveNodeRuntime* node);  ///< node became ready

  Options options_;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint64_t> txn_ids_{0};
  TimerWheel wheel_;

  std::mutex ready_mu_;
  std::condition_variable ready_cv_;
  std::condition_variable idle_cv_;
  std::deque<LiveNodeRuntime*> ready_;
  int running_ = 0;  ///< workers executing a node batch or its deferred work
  bool stopping_ = false;
  bool started_ = false;

  std::vector<std::thread> workers_;
  std::thread ticker_;
  std::vector<std::unique_ptr<LiveNodeRuntime>> nodes_;
};

}  // namespace tpc::runtime

#endif  // TPC_RUNTIME_LIVE_RUNTIME_H_
