// LiveCluster: assembles the same protocol stack as harness::Cluster —
// TM + LogManager + RMs per node — on the live backends: LiveRuntime
// worker threads, LiveTransport mailboxes, FileStorage fsync'd logs.
//
// Lifecycle: construct, AddNode/Connect (single-threaded setup), Start,
// then drive transactions from client threads via RunOn/Post. All protocol
// calls (Begin, SendWork, Commit, Crash, Restart, store inspection) MUST
// run on the owning node's mailbox — RunOn posts a closure and blocks until
// it ran, Post is fire-and-forget. Stop() quiesces before joining.
//
// Each node keeps a private SimContext purely for the non-temporal services
// the engines still take from it (trace sink, failure-injection points,
// rng); its clock never advances and nothing is ever scheduled on it. Time,
// timers and txn ids all come from the LiveRuntime.
//
// Logs are real files under `options.dir`, named "<node>.log". A second
// LiveCluster constructed on the same directory reloads them — that is the
// kill-and-recover path the live durability test exercises.

#ifndef TPC_HARNESS_LIVE_CLUSTER_H_
#define TPC_HARNESS_LIVE_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "rm/kv_resource_manager.h"
#include "runtime/live_runtime.h"
#include "runtime/live_transport.h"
#include "sim/sim_context.h"
#include "tm/transaction_manager.h"
#include "wal/file_storage.h"
#include "wal/log_manager.h"

namespace tpc::harness {

/// Cluster-wide live options (per-node knobs are in LiveNodeOptions).
struct LiveClusterOptions {
  /// Worker threads executing node mailboxes.
  int worker_threads = 4;
  /// Timer wheel resolution, microseconds.
  int64_t timer_tick_us = 250;
  /// Directory holding the per-node log files. Created if absent.
  std::string dir;
};

/// Per-node construction options (the live subset of harness::NodeOptions;
/// no shared logs and no simulated device shaping in live mode).
struct LiveNodeOptions {
  tm::TmConfig tm;
  size_t num_rms = 1;
  rm::KVOptions rm_options;
  wal::GroupCommitOptions group_commit;
};

/// One live machine: its mailbox runtime, fsync'd log file, RMs, and TM.
class LiveNode {
 public:
  LiveNode(runtime::LiveNodeRuntime* nrt, runtime::LiveTransport* transport,
           std::string name, const LiveNodeOptions& options,
           const LiveClusterOptions& cluster_options);

  const std::string& name() const { return name_; }
  tm::TransactionManager& tm() { return *tm_; }
  wal::LogManager& log() { return *log_; }
  wal::FileStorage& storage() { return *storage_; }
  rm::KVResourceManager& rm(size_t index = 0) { return *rms_.at(index); }
  runtime::LiveNodeRuntime* node_runtime() { return nrt_; }

 private:
  std::string name_;
  runtime::LiveNodeRuntime* nrt_;
  sim::SimContext ctx_;  ///< trace/failure/rng services only; clock unused
  std::unique_ptr<wal::FileStorage> storage_;
  std::unique_ptr<wal::LogManager> log_;
  std::vector<std::unique_ptr<rm::KVResourceManager>> rms_;
  std::unique_ptr<tm::TransactionManager> tm_;
};

class LiveCluster {
 public:
  explicit LiveCluster(LiveClusterOptions options);
  ~LiveCluster();  ///< stops the runtime, then tears nodes down

  runtime::LiveRuntime& runtime() { return runtime_; }
  runtime::LiveTransport& transport() { return transport_; }

  /// Adds a node (before Start).
  LiveNode& AddNode(const std::string& name,
                    const LiveNodeOptions& options = {});

  /// Declares a session between two nodes (both directions; before Start).
  void Connect(const std::string& a, const std::string& b,
               tm::SessionOptions a_options = {},
               tm::SessionOptions b_options = {});

  void Start();
  /// Waits for the mailboxes to drain, then joins workers. Safe to call
  /// twice.
  void Stop();

  LiveNode& node(const std::string& name);
  tm::TransactionManager& tm(const std::string& name) {
    return node(name).tm();
  }

  /// Runs `fn` on `name`'s serialized context and blocks until it returned.
  /// The closure may touch the node's TM/RMs/log freely; it must not block
  /// on other posted work (that may need this worker).
  void RunOn(const std::string& name, const std::function<void()>& fn);

  /// Fire-and-forget: enqueues `fn` on `name`'s mailbox.
  void Post(const std::string& name, std::function<void()> fn);

  /// Blocks until every mailbox drained and no worker is running.
  void WaitIdle() { runtime_.WaitIdle(); }

  const LiveClusterOptions& options() const { return options_; }

 private:
  LiveClusterOptions options_;
  runtime::LiveRuntime runtime_;
  runtime::LiveTransport transport_;
  // Nodes are destroyed before the runtime's dtor would re-Stop it: Stop()
  // runs first in ~LiveCluster, so no task can touch a dead node.
  std::map<std::string, std::unique_ptr<LiveNode>> nodes_;
  bool started_ = false;
};

}  // namespace tpc::harness

#endif  // TPC_HARNESS_LIVE_CLUSTER_H_
