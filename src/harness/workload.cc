#include "harness/workload.h"

#include <algorithm>
#include <cinttypes>
#include <set>
#include <vector>

#include "util/format.h"
#include "util/logging.h"

namespace tpc::harness {
namespace {

std::string ServerName(size_t i) {
  return StringPrintf("s%zu", i);
}

}  // namespace

double WorkloadStats::Throughput() const {
  if (elapsed <= 0) return 0;
  return static_cast<double>(committed + aborted) /
         (static_cast<double>(elapsed) / sim::kSecond);
}

std::string WorkloadStats::ToString() const {
  return StringPrintf(
      "%llu committed, %llu aborted, %llu incomplete; "
      "throughput %.1f txn/s; latency mean %.1fms p99 %.1fms; "
      "%llu flows, %llu log writes (%llu forced)",
      static_cast<unsigned long long>(committed),
      static_cast<unsigned long long>(aborted),
      static_cast<unsigned long long>(incomplete), Throughput(),
      commit_latency.Mean() / sim::kMillisecond,
      commit_latency.Percentile(99) / sim::kMillisecond,
      static_cast<unsigned long long>(flows),
      static_cast<unsigned long long>(log_writes),
      static_cast<unsigned long long>(forced));
}

void Workload::BuildStandardCluster(Cluster* cluster,
                                    const WorkloadOptions& options,
                                    const NodeOptions& node_options) {
  cluster->AddNode("coord", node_options);
  for (size_t i = 0; i < options.servers; ++i) {
    const std::string name = ServerName(i);
    cluster->AddNode(name, node_options);
    cluster->Connect("coord", name);
    // Payload protocol: "w:<key>" writes, "r:<key>" reads.
    cluster->tm(name).SetAppDataHandler(
        [cluster, name](uint64_t txn, const net::NodeId&,
                        std::string_view op) {
          if (op.size() < 2) return;
          const std::string_view key = op.substr(2);
          if (op[0] == 'w') {
            cluster->tm(name).Write(txn, 0, key, std::to_string(txn),
                                    [](Status) { /* may lose a lock race */ });
          } else {
            cluster->tm(name).Read(txn, 0, key, [](Result<std::string>) {});
          }
        });
  }
  cluster->network().set_tracing(false);
}

Workload::Workload(Cluster* cluster, WorkloadOptions options)
    : cluster_(cluster), options_(options), rng_(options.seed) {}

WorkloadStats Workload::Run() {
  WorkloadStats stats;
  const sim::Time start = cluster_->ctx().now();
  std::vector<std::pair<uint64_t, std::shared_ptr<DrivenCommit>>> commits;

  for (uint64_t i = 0; i < options_.transactions; ++i) {
    const bool read_only = rng_.Bernoulli(options_.read_only_fraction);
    uint64_t txn = cluster_->tm("coord").Begin();

    // Pick distinct participants.
    uint64_t fanout = rng_.UniformRange(
        options_.min_participants,
        std::min<uint64_t>(options_.max_participants, options_.servers));
    std::set<size_t> picked;
    while (picked.size() < fanout)
      picked.insert(static_cast<size_t>(rng_.Uniform(options_.servers)));

    for (size_t server : picked) {
      std::string key;
      if (!read_only && rng_.Bernoulli(options_.hot_key_fraction)) {
        key = "hot";
      } else {
        key = StringPrintf("k%" PRIu64, rng_.Uniform(options_.keys));
      }
      const std::string op = (read_only ? "r:" : "w:") + key;
      TPC_CHECK(cluster_->tm("coord").SendWork(txn, ServerName(server), op).ok());
    }
    if (!read_only) {
      cluster_->tm("coord").Write(txn, 0, "local" + std::to_string(txn), "v",
                                  [](Status) {});
    }
    cluster_->RunFor(options_.think_time);
    commits.emplace_back(txn, cluster_->StartCommit("coord", txn));

    // Closed loop: wait for this transaction before starting the next.
    const sim::Time deadline = cluster_->ctx().now() + options_.deadline;
    while (!commits.back().second->completed &&
           cluster_->ctx().now() < deadline) {
      if (!cluster_->ctx().events().Step()) break;
    }
  }
  // Drain any stragglers, but stop the clock as soon as everything is done
  // so throughput reflects the stream, not the wait budget.
  const sim::Time tail_deadline = cluster_->ctx().now() + options_.deadline;
  auto all_done = [&commits] {
    for (const auto& [txn, commit] : commits)
      if (!commit->completed) return false;
    return true;
  };
  while (!all_done() && cluster_->ctx().now() < tail_deadline) {
    if (!cluster_->ctx().events().Step()) break;
  }

  for (const auto& [txn, commit] : commits) {
    if (!commit->completed) {
      ++stats.incomplete;
      continue;
    }
    if (tm::CommittedEffects(commit->result.outcome)) {
      ++stats.committed;
    } else {
      ++stats.aborted;
    }
    stats.commit_latency.Add(static_cast<double>(commit->latency));
    tm::TxnCost cost = cluster_->TotalCost(txn);
    stats.flows += cost.flows_sent;
    stats.log_writes += cost.tm_log_writes;
    stats.forced += cost.tm_log_forced;
  }
  stats.elapsed = cluster_->ctx().now() - start;
  return stats;
}

}  // namespace tpc::harness
