// Group-commit experiment (Section 4, "Group Commits") plus the flush-policy
// sweep.
//
// Part 1 reproduces the paper's table: physical forced writes and
// per-transaction latency as a function of group size under an open-loop
// transaction arrival stream.
//
// Part 2 sweeps FlushPolicy (count+timer, pipelining) x log-device model
// (latency, bandwidth) per protocol family on the same open-loop pair
// workload and emits BENCH_group_commit.json. All gated metrics are
// simulated-time quantities (commits per simulated second, device forces,
// p99 force latency), so they are machine-independent and bench_diff can
// hold them to tight two-sided tolerances against the checked-in baseline.
//
// Usage: group_commit [txns] [arrival_interval_us]

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "analysis/cost_model.h"
#include "harness/bench_report.h"
#include "harness/cluster.h"
#include "harness/sweep.h"
#include "util/logging.h"
#include "util/format.h"
#include "util/histogram.h"
#include "wal/log_manager.h"

namespace {

using namespace tpc;
using harness::Cluster;
using harness::NodeOptions;

struct DeviceCell {
  const char* label;
  sim::Time write_latency;
  uint64_t bandwidth_bytes_per_sec;  // 0 = infinite
  uint32_t queue_depth;
};

struct ProtocolCell {
  const char* label;
  tm::ProtocolKind kind;
};

constexpr DeviceCell kDevices[] = {
    {"500us", 500, 0, 2},
    {"2ms", 2 * sim::kMillisecond, 0, 2},
    {"2ms+4MBps", 2 * sim::kMillisecond, 4'000'000, 2},
};

constexpr ProtocolCell kProtocols[] = {
    {"basic", tm::ProtocolKind::kBasic2PC},
    {"pa", tm::ProtocolKind::kPresumedAbort},
    {"pn", tm::ProtocolKind::kPresumedNothing},
};

constexpr wal::FlushPolicy kPolicies[] = {
    wal::FlushPolicy::kCountTimer,
    wal::FlushPolicy::kFlushPipelining,
};

/// Open-loop coordinator+subordinate pair: one txn every `arrival`
/// microseconds, each writing on both nodes, until `txns` have been
/// injected; runs to completion and reports simulated-time metrics.
harness::SweepCell RunPolicyCell(const ProtocolCell& proto,
                                 wal::FlushPolicy policy,
                                 const DeviceCell& device, uint64_t txns,
                                 sim::Time arrival) {
  Cluster c;
  NodeOptions options;
  options.tm.protocol = proto.kind;
  options.log_force_latency = device.write_latency;
  options.log_bandwidth_bytes_per_sec = device.bandwidth_bytes_per_sec;
  options.log_queue_depth = device.queue_depth;
  options.group_commit.enabled = true;
  options.group_commit.policy = policy;
  options.group_commit.group_size = 8;
  options.group_commit.group_timeout = 5 * sim::kMillisecond;
  options.group_commit.max_pipeline_depth = 2;
  c.AddNode("coord", options);
  c.AddNode("sub", options);
  c.Connect("coord", "sub");
  c.network().set_default_latency(100);
  c.network().set_tracing(false);
  c.ctx().trace().set_capture(false);
  c.node("coord").log().set_collect_force_latency(true);
  c.node("sub").log().set_collect_force_latency(true);
  c.tm("sub").SetAppDataHandler(
      [&c](uint64_t txn, const net::NodeId&, std::string_view) {
        c.tm("sub").Write(txn, 0, StringPrintf("s%" PRIu64, txn), "v",
                          [](Status st) { TPC_CHECK(st.ok()); });
      });

  std::vector<std::shared_ptr<harness::DrivenCommit>> commits;
  for (uint64_t i = 0; i < txns; ++i) {
    uint64_t txn = c.tm("coord").Begin();
    c.tm("coord").Write(txn, 0, StringPrintf("k%" PRIu64, i), "v",
                        [](Status st) { TPC_CHECK(st.ok()); });
    TPC_CHECK(c.tm("coord").SendWork(txn, "sub").ok());
    c.RunFor(arrival / 2);
    commits.push_back(c.StartCommit("coord", txn));
    c.RunFor(arrival - arrival / 2);
  }
  // Run until the last commit lands (group timers keep the loop non-empty,
  // so drive by time, not by drain).
  for (int rounds = 0; rounds < 600; ++rounds) {
    uint64_t completed = 0;
    for (const auto& commit : commits)
      if (commit->completed) ++completed;
    if (completed == txns) break;
    c.RunFor(100 * sim::kMillisecond);
  }
  Histogram commit_latency;
  sim::Time last_done = 0;
  for (size_t i = 0; i < commits.size(); ++i) {
    TPC_CHECK(commits[i]->completed);
    commit_latency.Add(static_cast<double>(commits[i]->latency));
    // Commit i was initiated at i*arrival + arrival/2 (the injection loop
    // above), so its completion instant is exact — no run-loop granularity.
    const sim::Time done_at =
        static_cast<sim::Time>(i) * arrival + arrival / 2 +
        commits[i]->latency;
    if (done_at > last_done) last_done = done_at;
  }

  // Workload makespan: first injection happens at t=arrival/2, the span runs
  // to the last commit's completion. Simulated time, so the quantity is
  // exactly reproducible across machines.
  const double sim_seconds = static_cast<double>(last_done) / sim::kSecond;

  Histogram force_latency;
  force_latency.Merge(c.node("coord").log().force_latency());
  force_latency.Merge(c.node("sub").log().force_latency());

  harness::SweepCell cell;
  cell.label = StringPrintf("%s %s @%s", proto.label,
                            wal::FlushPolicyName(policy), device.label);
  cell.txns = txns;
  cell.sim_time = c.ctx().events().now();
  cell.Add("sim_commits_per_sec",
           sim_seconds > 0 ? static_cast<double>(txns) / sim_seconds : 0.0);
  cell.Add("device_forces",
           static_cast<double>(c.node("coord").log().device_forces() +
                               c.node("sub").log().device_forces()));
  cell.Add("p99_force_latency_us", force_latency.Percentile(99));
  cell.Add("mean_commit_latency_us", commit_latency.Mean());
  cell.Add("p99_commit_latency_us", commit_latency.Percentile(99));
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t kTxns =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200;
  const sim::Time kArrival =
      argc > 2 ? std::strtoll(argv[2], nullptr, 10) : 500;  // microseconds

  std::printf("Group commit: %llu transactions, one every %lldus\n",
              static_cast<unsigned long long>(kTxns),
              static_cast<long long>(kArrival));
  std::printf("(two participants per transaction; 3 logical forces each)\n\n");

  // ---- Part 1: the paper's group-size table (count+timer policy) ----------
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"group size", "device forces", "expected ~n*3/m",
                  "mean latency (us)", "p99 latency (us)"});

  for (uint32_t group_size : {1u, 2u, 4u, 8u, 16u, 32u}) {
    Cluster c;
    NodeOptions options;
    options.log_force_latency = 500;  // fast device; queueing still matters
    options.group_commit.enabled = group_size > 1;
    options.group_commit.group_size = group_size;
    options.group_commit.group_timeout = 4 * sim::kMillisecond;
    c.AddNode("coord", options);
    c.AddNode("sub", options);
    c.Connect("coord", "sub");
    c.network().set_default_latency(100);
    c.network().set_tracing(false);
    c.tm("sub").SetAppDataHandler(
        [&c](uint64_t txn, const net::NodeId&, std::string_view) {
          c.tm("sub").Write(txn, 0, StringPrintf("s%" PRIu64, txn), "v",
                            [](Status st) { TPC_CHECK(st.ok()); });
        });

    Histogram latency;
    std::vector<std::shared_ptr<harness::DrivenCommit>> commits;
    for (uint64_t i = 0; i < kTxns; ++i) {
      uint64_t txn = c.tm("coord").Begin();
      c.tm("coord").Write(txn, 0, StringPrintf("k%" PRIu64, i), "v",
                          [](Status st) { TPC_CHECK(st.ok()); });
      TPC_CHECK(c.tm("coord").SendWork(txn, "sub").ok());
      c.RunFor(kArrival / 2);
      commits.push_back(c.StartCommit("coord", txn));
      c.RunFor(kArrival - kArrival / 2);
    }
    c.RunFor(5 * sim::kSecond);

    uint64_t completed = 0;
    for (const auto& commit : commits) {
      if (commit->completed) {
        ++completed;
        latency.Add(static_cast<double>(commit->latency));
      }
    }
    TPC_CHECK(completed == kTxns);

    uint64_t device_forces = c.node("coord").log().device_forces() +
                             c.node("sub").log().device_forces();
    double expected = analysis::GroupCommitExpectedForces(
        kTxns, options.group_commit.enabled ? group_size : 1);
    rows.push_back(
        {StringPrintf("%u", group_size),
         StringPrintf("%llu", static_cast<unsigned long long>(device_forces)),
         StringPrintf("%.0f", expected),
         StringPrintf("%.0f", latency.Mean()),
         StringPrintf("%.0f", latency.Percentile(99))});
  }

  std::printf("%s", RenderTable(rows).c_str());
  std::printf(
      "\nShape check (paper): device forces fall roughly as 1/m while\n"
      "per-transaction latency grows as groups build up.\n\n");

  // ---- Part 2: flush-policy x device sweep per protocol family ------------
  tpc::harness::BenchReport report("group_commit");

  struct Combo {
    const ProtocolCell* proto;
    wal::FlushPolicy policy;
    const DeviceCell* device;
  };
  std::vector<Combo> grid;
  for (const ProtocolCell& proto : kProtocols)
    for (const DeviceCell& device : kDevices)
      for (wal::FlushPolicy policy : kPolicies)
        grid.push_back({&proto, policy, &device});

  std::vector<harness::SweepCell> cells = harness::RunSweep(
      grid.size(), [&](size_t i) {
        const Combo& combo = grid[i];
        return RunPolicyCell(*combo.proto, combo.policy, *combo.device, kTxns,
                             kArrival);
      });
  report.AddCells(cells);

  std::vector<std::vector<std::string>> sweep_rows;
  sweep_rows.push_back({"cell", "commits/sim-s", "device forces",
                        "p99 force (us)", "p99 commit (us)"});
  for (const harness::SweepCell& cell : cells) {
    sweep_rows.push_back(
        {cell.label, StringPrintf("%.1f", cell.Get("sim_commits_per_sec")),
         StringPrintf("%.0f", cell.Get("device_forces")),
         StringPrintf("%.0f", cell.Get("p99_force_latency_us")),
         StringPrintf("%.0f", cell.Get("p99_commit_latency_us"))});
  }
  std::printf("%s", RenderTable(sweep_rows).c_str());
  std::printf(
      "\nPolicy check: pipelining holds p99 force latency below\n"
      "count+timer's on every device, for more device writes than\n"
      "count+timer's filled groups, and the bandwidth-limited device\n"
      "stretches p99 force latency for both policies (writes now pay\n"
      "bytes/bandwidth on top of the op latency).\n");
  std::printf("\n%s\n", report.Summary().c_str());
  std::printf("wrote %s\n", report.WriteJson().c_str());
  return 0;
}
