#include "harness/cluster.h"

#include <utility>

#include "tm/protocol_messages.h"
#include "util/format.h"
#include "util/logging.h"
#include "util/random.h"

namespace tpc::harness {

uint32_t Topology::NextHop(uint32_t node, uint32_t target) const {
  uint32_t hop = target;
  while (parent[hop] != node) {
    hop = parent[hop];
    TPC_CHECK(hop != kNoParent);  // target must descend from node
  }
  return hop;
}

Node::Node(sim::SimContext* ctx, net::Network* network, std::string name,
           const NodeOptions& options, wal::LogManager* host_log)
    : name_(std::move(name)) {
  if (host_log != nullptr) {
    log_ = host_log;
  } else {
    wal::DeviceOptions device;
    device.write_latency = options.log_force_latency;
    device.bandwidth_bytes_per_sec = options.log_bandwidth_bytes_per_sec;
    device.queue_depth = options.log_queue_depth;
    owned_log_ = std::make_unique<wal::LogManager>(ctx, name_, device);
    owned_log_->set_group_commit(options.group_commit);
    log_ = owned_log_.get();
  }
  for (size_t i = 0; i < options.num_rms; ++i) {
    rms_.push_back(std::make_unique<rm::KVResourceManager>(
        ctx, StringPrintf("%s.rm%zu", name_.c_str(), i), log_,
        options.rm_options));
  }
  tm::TmConfig tm_config = options.tm;
  tm_config.shared_log_with_host = host_log != nullptr;
  tm_ = std::make_unique<tm::TransactionManager>(ctx, network, log_, name_,
                                                 tm_config);
  for (auto& rm : rms_) {
    rm->EnableCrashPoints(name_);
    tm_->AttachRm(rm.get());
  }
}

void Node::Crash() {
  tm_->Crash();
  for (auto& rm : rms_) rm->Crash();
  if (owned_log_) owned_log_->Crash();
}

void Node::Restart() { tm_->Restart(); }

Status Node::Checkpoint(std::function<void()> done) {
  if (!owns_log())
    return Status::FailedPrecondition(name_ + " shares another node's log");
  if (tm_->ActiveTxnCount() > 0)
    return Status::FailedPrecondition(name_ + " has transactions in flight");
  for (auto& rm : rms_) {
    if (rm->ActiveCount() > 0)
      return Status::FailedPrecondition(rm->name() + " has live state");
  }
  // Snapshot every RM; when all snapshots are durable, truncate everything
  // before the first one.
  struct CheckpointState {
    size_t outstanding;
    wal::Lsn first_lsn = wal::kInvalidLsn;
    std::function<void()> done;
  };
  auto state = std::make_shared<CheckpointState>();
  state->outstanding = rms_.size();
  state->done = std::move(done);
  wal::LogManager* log = log_;
  if (rms_.empty()) {
    log->DiscardPrefix(log->durable_lsn());
    if (state->done) state->done();
    return Status::OK();
  }
  for (auto& rm : rms_) {
    Status st = rm->Checkpoint([state, log](wal::Lsn lsn) {
      if (lsn < state->first_lsn) state->first_lsn = lsn;
      if (--state->outstanding == 0) {
        log->DiscardPrefix(state->first_lsn);
        if (state->done) state->done();
      }
    });
    TPC_CHECK_OK(st);  // preconditions verified above
  }
  return Status::OK();
}

Cluster::Cluster(uint64_t seed) : ctx_(seed), network_(&ctx_) {
  network_.set_describer(tm::DescribePayload);
  // Scheduled link flaps (FailureInjector::ScheduleLinkFlap) drive the
  // network's partition state.
  ctx_.failures().SetLinkController(
      [this](const std::string& a, const std::string& b, bool down) {
        network_.SetLinkDown(a, b, down);
      });
}

Node& Cluster::AddNode(const std::string& name, const NodeOptions& options) {
  TPC_CHECK(nodes_.find(name) == nodes_.end());
  wal::LogManager* host_log = nullptr;
  if (!options.shared_log_host.empty()) {
    host_log = &node(options.shared_log_host).log();
  }
  auto n = std::make_unique<Node>(&ctx_, &network_, name, options, host_log);
  Node* raw = n.get();
  nodes_.emplace(name, std::move(n));
  ctx_.failures().RegisterNode(name, [raw] { raw->Crash(); },
                               [raw] { raw->Restart(); });
  return *raw;
}

void Cluster::Connect(const std::string& a, const std::string& b,
                      tm::SessionOptions a_options,
                      tm::SessionOptions b_options) {
  node(a).tm().Connect(b, a_options);
  node(b).tm().Connect(a, b_options);
}

Topology Cluster::BuildTopology(const TopologyOptions& options) {
  TPC_CHECK(options.servers >= 1);
  TPC_CHECK(options.coordinators >= 1);
  TPC_CHECK(options.shape == TopologyShape::kStar || options.fanout >= 1);
  Topology topo;

  // Fixed-width names keep lexicographic order equal to index order; the
  // TM iterates sessions by peer name, so this makes session order in a
  // generated cluster predictable from indices alone.
  topo.servers.reserve(options.servers);
  for (size_t i = 0; i < options.servers; ++i)
    topo.servers.push_back(StringPrintf("s%05zu", i));
  for (size_t c = 0; c < options.coordinators; ++c)
    topo.coordinators.push_back(StringPrintf("c%03zu", c));

  for (const std::string& name : topo.coordinators)
    AddNode(name, options.node_options);
  for (const std::string& name : topo.servers)
    AddNode(name, options.node_options);

  // Wire the servers into a tree.
  topo.parent.assign(options.servers, Topology::kNoParent);
  topo.children.resize(options.servers);
  Random wiring(options.wiring_seed);
  std::vector<uint32_t> open = {0};  // random-sparse: nodes with spare degree
  for (uint32_t i = 1; i < options.servers; ++i) {
    uint32_t parent = 0;
    switch (options.shape) {
      case TopologyShape::kTree:
        parent = (i - 1) / static_cast<uint32_t>(options.fanout);
        break;
      case TopologyShape::kStar:
        parent = 0;
        break;
      case TopologyShape::kRandomSparse: {
        // Pick uniformly among already-placed nodes that still have spare
        // degree; a fresh node opens once it is placed.
        const size_t pick = wiring.Uniform(open.size());
        parent = open[pick];
        if (topo.children[parent].size() + 1 >= options.fanout) {
          open[pick] = open.back();
          open.pop_back();
        }
        break;
      }
    }
    topo.parent[i] = parent;
    topo.children[parent].push_back(i);
    if (options.shape == TopologyShape::kRandomSparse) open.push_back(i);
    Connect(topo.servers[parent], topo.servers[i]);
  }

  for (uint32_t i = 0; i < options.servers; ++i)
    if (topo.children[i].empty()) topo.leaves.push_back(i);

  // Depth via one pass: depth(i) = depth(parent) + 1; parents always have
  // smaller indices in every shape above.
  std::vector<uint32_t> depth(options.servers, 1);
  for (uint32_t i = 1; i < options.servers; ++i) {
    depth[i] = depth[topo.parent[i]] + 1;
    if (depth[i] > topo.depth) topo.depth = depth[i];
  }

  // Coordinators front the root: every commit tree starts on a distinct
  // coordinator->root session, then overlaps with its rivals from the root
  // down.
  for (const std::string& coord : topo.coordinators)
    Connect(coord, topo.servers[0]);

  return topo;
}

MemoryStats Cluster::MemoryUsage() const {
  MemoryStats stats;
  stats.network_bytes = network_.ApproxBytes();
  stats.nodes = nodes_.size();
  for (const auto& [name, n] : nodes_) {
    stats.tm_bytes += n->tm().ApproxBytes();
    if (n->owns_log()) stats.wal_bytes += n->log().ApproxBytes();
  }
  return stats;
}

Node& Cluster::node(const std::string& name) {
  auto it = nodes_.find(name);
  TPC_CHECK(it != nodes_.end());
  return *it->second;
}

const Node& Cluster::node(const std::string& name) const {
  auto it = nodes_.find(name);
  TPC_CHECK(it != nodes_.end());
  return *it->second;
}

std::vector<std::string> Cluster::NodeNames() const {
  std::vector<std::string> names;
  names.reserve(nodes_.size());
  for (const auto& [name, n] : nodes_) names.push_back(name);
  return names;
}

uint64_t Cluster::Drain(uint64_t max_events) {
  return ctx_.events().Run(max_events);
}

void Cluster::RunFor(sim::Time duration) {
  ctx_.events().RunUntil(ctx_.now() + duration);
}

std::shared_ptr<DrivenCommit> Cluster::StartCommit(
    const std::string& node_name, uint64_t txn) {
  auto state = std::make_shared<DrivenCommit>();
  const sim::Time start = ctx_.now();
  tm(node_name).Commit(txn, [state, start, this](tm::CommitResult result) {
    state->completed = true;
    state->result = result;
    state->latency = ctx_.now() - start;
  });
  return state;
}

DrivenCommit Cluster::CommitAndWait(const std::string& node_name, uint64_t txn,
                                    sim::Time timeout) {
  const sim::Time start = ctx_.now();
  const sim::Time deadline = start + timeout;
  std::shared_ptr<DrivenCommit> state = StartCommit(node_name, txn);
  while (!state->completed && ctx_.now() <= deadline) {
    if (!ctx_.events().Step()) break;
  }
  if (!state->completed) state->latency = ctx_.now() - start;
  return *state;
}

TxnAudit Cluster::Audit(uint64_t txn) const {
  TxnAudit audit;
  std::vector<tm::Outcome> outcomes;
  for (const auto& [name, n] : nodes_) {
    tm::TxnView view = n->tm().View(txn);  // NOLINT: tm() is non-const
    if (view.outcome == tm::Outcome::kUnknown ||
        view.outcome == tm::Outcome::kActive ||
        view.outcome == tm::Outcome::kReadOnly) {
      // Read-only voters have no effects; they cannot diverge.
      continue;
    }
    ++audit.participants;
    outcomes.push_back(view.outcome);
    if (tm::IsHeuristic(view.outcome)) audit.any_heuristic = true;
    if (view.outcome == tm::Outcome::kInDoubt) audit.any_in_doubt = true;
  }
  if (audit.any_in_doubt) {
    audit.consistent = false;
    return audit;
  }
  bool any_commit = false;
  bool any_abort = false;
  for (tm::Outcome o : outcomes) {
    if (tm::CommittedEffects(o)) {
      any_commit = true;
    } else {
      any_abort = true;
    }
  }
  if (any_commit && any_abort) {
    audit.consistent = false;
    audit.damage_ground_truth = true;
  }
  return audit;
}

tm::TxnCost Cluster::TotalCost(uint64_t txn) const {
  tm::TxnCost total;
  for (const auto& [name, n] : nodes_) {
    tm::TxnCost cost = n->tm().CostOf(txn);
    total.flows_sent += cost.flows_sent;
    total.tm_log_writes += cost.tm_log_writes;
    total.tm_log_forced += cost.tm_log_forced;
  }
  return total;
}

std::string Cluster::ReportMetrics() const {
  std::string out;
  const net::NetworkStats& net_stats = network_.stats();
  StringAppendF(&out,
                "network: %llu sent, %llu delivered, %llu dropped, "
                "%llu bytes sent, %llu bytes delivered\n",
                static_cast<unsigned long long>(net_stats.messages_sent),
                static_cast<unsigned long long>(net_stats.messages_delivered),
                static_cast<unsigned long long>(net_stats.messages_dropped),
                static_cast<unsigned long long>(net_stats.bytes_sent),
                static_cast<unsigned long long>(net_stats.bytes_delivered));
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"node", "log writes", "forced", "device forces",
                  "lock acquisitions", "lock waits", "mean hold (ms)"});
  for (const auto& [name, n] : nodes_) {
    const wal::LogWriteStats& log_stats = n->log().stats();
    lock::LockStats lock_totals;
    double hold_sum = 0;
    uint64_t hold_count = 0;
    for (size_t i = 0; i < n->rm_count(); ++i) {
      const lock::LockStats& stats = n->rm(i).locks().stats();
      lock_totals.acquisitions += stats.acquisitions;
      lock_totals.waits += stats.waits;
      hold_sum += stats.hold_time.sum();
      hold_count += stats.hold_time.count();
    }
    const double mean_hold_ms =
        hold_count == 0 ? 0.0
                        : hold_sum / static_cast<double>(hold_count) /
                              static_cast<double>(sim::kMillisecond);
    rows.push_back(
        {name,
         StringPrintf("%llu", static_cast<unsigned long long>(log_stats.writes)),
         StringPrintf("%llu",
                      static_cast<unsigned long long>(log_stats.forced_writes)),
         StringPrintf("%llu", static_cast<unsigned long long>(
                                  n->owns_log() ? n->log().device_forces() : 0)),
         StringPrintf("%llu",
                      static_cast<unsigned long long>(lock_totals.acquisitions)),
         StringPrintf("%llu", static_cast<unsigned long long>(lock_totals.waits)),
         StringPrintf("%.2f", mean_hold_ms)});
  }
  out += RenderTable(rows);
  return out;
}

}  // namespace tpc::harness
