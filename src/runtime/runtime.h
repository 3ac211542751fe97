// Runtime: the execution-environment seam the protocol engines code against.
//
// TransactionManager, LogManager, and LockManager never touch a clock, a
// timer queue, or a txn-id counter directly — they go through this interface.
// Two backends exist:
//
//   - SimRuntime (sim_runtime.h): forwards verbatim to the deterministic
//     SimContext/EventQueue. Same calls, same order, same EventId values —
//     the sim path is bit-identical to pre-seam code, so frozen traces, the
//     torture matrix, and every sweep remain the correctness oracle.
//   - LiveRuntime (live_runtime.h): real threads. Now() is a monotonic
//     wall clock, timers live on a hashed timer wheel driven by a tick
//     thread, and callbacks are posted to the owning node's mailbox so each
//     node's protocol code stays single-threaded (actor model).
//
// Contract every backend guarantees to the engines:
//   - Now() is monotonic non-decreasing, microseconds.
//   - ArmTimer(delay, fn) runs fn exactly once at >= Now()+delay unless
//     cancelled first; fn runs on the owning node's execution context
//     (the sim event loop, or the node's serialized mailbox).
//   - CancelTimer(id) returns true iff it prevented the run: a timer is
//     run exactly once XOR cancelled-true exactly once. Engines rely on
//     this for their Timer discipline (TPC_CHECK(timer.Cancel(...))).
//   - ArmTimer never returns id 0, which Timer reserves for "unarmed".
//   - NextTxnId() is unique across the cluster sharing the runtime family
//     (sim: the shared SimContext counter; live: one atomic).
//
// Sends and storage forces stay on their existing seams — net::Transport
// (transport.h) and wal::StorageBackend (storage_backend.h) — which the
// live backend implements with real channels and a real fsync'd file; this
// interface covers the ambient services (clock, timers, ids) that would
// otherwise weld the engines to SimContext.

#ifndef TPC_RUNTIME_RUNTIME_H_
#define TPC_RUNTIME_RUNTIME_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.h"

namespace tpc::runtime {

/// Blocking work a live node runs past its own mailbox.
using DeferredWork = sim::InlineFunction<16>;

/// On a LiveRuntime worker this points at the worker's deferred list; it is
/// null on every other thread (the sim included). A backend that must block
/// — the file log's write + fdatasync — appends that part here instead of
/// running it inline. The worker runs the items in order on the same thread
/// after it has released the node whose batch appended them, so the node's
/// mailbox keeps draining on other workers while the device syncs. An item
/// may append further items.
inline thread_local std::vector<DeferredWork>* tls_deferred = nullptr;

/// Timer handles reuse the sim kernel's (generation << 32 | slot) encoding;
/// LiveRuntime's wheel mints ids with the same stale-handle-safe scheme.
using TimerId = sim::EventId;

/// Timer callbacks are the sim kernel's callback type so the sim backend
/// can pass them through to EventQueue without re-wrapping (and without
/// allocating — see InlineFunction::emplace's same-type adoption).
using TimerCallback = sim::EventQueue::Callback;

class Runtime {
 public:
  virtual ~Runtime() = default;

  /// Current time in microseconds. Simulated time or monotonic wall clock.
  virtual sim::Time Now() const = 0;

  /// Arms a one-shot timer `delay` microseconds from Now().
  virtual TimerId ArmTimer(sim::Time delay, TimerCallback fn) = 0;

  /// Cancels a pending timer. True iff the callback will not run.
  virtual bool CancelTimer(TimerId id) = 0;

  /// Cluster-unique transaction ids (global across nodes, as the paper's
  /// transaction identifiers are).
  virtual uint64_t NextTxnId() = 0;
};

/// One timer an engine arms and cancels. Backends never mint id 0, so the
/// handle alone says whether the timer is armed.
class Timer {
 public:
  bool armed() const { return id_ != 0; }

  /// Arms `fn` to run `delay` from now. Replaces the handle without
  /// cancelling it: cancel first if an earlier arming may still be pending.
  template <typename F>
  void Arm(Runtime* rt, sim::Time delay, F&& fn) {
    id_ = rt->ArmTimer(delay, std::forward<F>(fn));
  }

  /// Called by the running callback: the handle names no pending event.
  void Fired() { id_ = 0; }

  /// Disarms. True iff this prevented a pending callback from running.
  bool Cancel(Runtime* rt) {
    if (id_ == 0) return false;
    const TimerId id = id_;
    id_ = 0;
    return rt->CancelTimer(id);
  }

 private:
  TimerId id_ = 0;
};

}  // namespace tpc::runtime

#endif  // TPC_RUNTIME_RUNTIME_H_
