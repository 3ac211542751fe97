// End-to-end commit cost per protocol on a coordinator + 2 subordinates
// cell: the work each commit takes, and simulated commits per wall-clock
// second.
//
// Emits BENCH_commit.json with one cell per protocol. The work counters —
// messages, payload bytes, kernel events and TM forced writes per commit —
// are deterministic, so CI gates them two-sided at zero tolerance with
// tools/bench_diff.py; commits/sec is wall-clock and report-only ("~").
// The contended group-commit cell gates the flush-pipelining speedup,
// which is simulated time and exact on every machine.
//
// Usage: commit_bench [txns]

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "harness/bench_report.h"
#include "harness/cluster.h"
#include "util/format.h"
#include "util/logging.h"
#include "wal/log_manager.h"

namespace {

using namespace tpc;
using harness::Cluster;
using harness::NodeOptions;

struct ProtocolConfig {
  const char* name;
  NodeOptions options;
};

std::vector<ProtocolConfig> Protocols() {
  std::vector<ProtocolConfig> configs;

  ProtocolConfig basic;
  basic.name = "basic2pc";
  basic.options.tm.protocol = tm::ProtocolKind::kBasic2PC;
  configs.push_back(basic);

  ProtocolConfig pa;
  pa.name = "presumed_abort";
  pa.options.tm.protocol = tm::ProtocolKind::kPresumedAbort;
  configs.push_back(pa);

  ProtocolConfig pn;
  pn.name = "presumed_nothing";
  pn.options.tm.protocol = tm::ProtocolKind::kPresumedNothing;
  configs.push_back(pn);

  // Combined optimizations: last agent + read-only voters on PA.
  ProtocolConfig combo;
  combo.name = "pa_last_agent_ro";
  combo.options.tm.protocol = tm::ProtocolKind::kPresumedAbort;
  combo.options.tm.last_agent_opt = true;
  combo.options.tm.read_only_opt = true;
  configs.push_back(combo);

  // Paxos Commit: the three cell nodes double as the 2F+1 acceptor set
  // (F=1), so every commit pays the 2a/2b fan-out and acceptor forces on
  // top of the conversation traffic — the messaging-path delta now includes
  // the paxos body codec.
  ProtocolConfig paxos;
  paxos.name = "paxos_commit";
  paxos.options.tm.protocol = tm::ProtocolKind::kPaxosCommit;
  paxos.options.tm.acceptors = {"coord", "s1", "s2"};
  configs.push_back(paxos);

  // One-phase family: subordinates vote unsolicited when their work
  // quiesces, so the commit round starts with votes already in flight.
  ProtocolConfig one_phase;
  one_phase.name = "one_phase";
  one_phase.options.tm.protocol = tm::ProtocolKind::kOnePhase;
  configs.push_back(one_phase);

  ProtocolConfig logless;
  logless.name = "one_phase_logless";
  logless.options.tm.protocol = tm::ProtocolKind::kOnePhaseLogless;
  configs.push_back(logless);

  return configs;
}

struct RunResult {
  uint64_t txns = 0;
  double wall_seconds = 0;
  double commits_per_sec = 0;
  // Work counters over the whole run (deterministic).
  uint64_t messages = 0;       ///< network messages, conversation included
  uint64_t payload_bytes = 0;  ///< encoded PDU bytes those messages carried
  uint64_t kernel_events = 0;  ///< simulation events executed
  uint64_t tm_forced_writes = 0;
};

// Conversation traffic per transaction: the paper's commercial transactions
// exchange a batch of data flows with each participant (screens, rows, SQL)
// before the commit protocol runs.
constexpr int kWorkFlowsPerSub = 32;
constexpr size_t kWorkFlowBytes = 16384;

// One coordinator + two subordinates; s1 writes, s2 reads (so the
// read-only combo cell actually exercises the RO vote path). Every
// transaction ships its conversation flows, then runs the full
// distributed commit.
RunResult RunCommits(const NodeOptions& options, uint64_t txns) {
  Cluster c;
  c.AddNode("coord", options);
  c.AddNode("s1", options);
  c.AddNode("s2", options);
  c.Connect("coord", "s1");
  c.Connect("coord", "s2");
  c.network().set_tracing(false);
  c.ctx().trace().set_capture(false);

  // "w"/"r" open the conversation and pick the subordinate's role; the bulk
  // flows that follow model the rest of the exchange and need no action.
  c.tm("s1").SetAppDataHandler(
      [&c](uint64_t txn, const net::NodeId&, std::string_view op) {
        if (op == "w") {
          c.tm("s1").Write(txn, 0, "s", "v",
                           [](Status st) { TPC_CHECK(st.ok()); });
        }
      });
  c.tm("s2").SetAppDataHandler(
      [&c](uint64_t txn, const net::NodeId&, std::string_view op) {
        if (op == "r") {
          c.tm("s2").Read(txn, 0, "s", [](Result<std::string>) {});
        }
      });

  const std::string bulk(kWorkFlowBytes, 'd');
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < txns; ++i) {
    uint64_t txn = c.tm("coord").Begin();
    c.tm("coord").Write(txn, 0, "k", "v",
                        [](Status st) { TPC_CHECK(st.ok()); });
    TPC_CHECK(c.tm("coord").SendWork(txn, "s1", "w").ok());
    TPC_CHECK(c.tm("coord").SendWork(txn, "s2", "r").ok());
    for (int f = 1; f < kWorkFlowsPerSub; ++f) {
      TPC_CHECK(c.tm("coord").SendWork(txn, "s1", bulk).ok());
      TPC_CHECK(c.tm("coord").SendWork(txn, "s2", bulk).ok());
    }
    // Let the conversation land, and one-phase subordinates vote early,
    // before committing. Draining instead would also run a one-phase
    // subordinate's inquiry timer, which aborts the work before the commit.
    c.RunFor(sim::kSecond);
    harness::DrivenCommit commit = c.CommitAndWait("coord", txn);
    TPC_CHECK(commit.completed);
    TPC_CHECK(commit.result.outcome == tm::Outcome::kCommitted);
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;

  RunResult r;
  r.txns = txns;
  r.wall_seconds = wall.count();
  r.commits_per_sec = r.wall_seconds > 0 ? txns / r.wall_seconds : 0;
  r.messages = c.network().stats().messages_sent;
  r.payload_bytes = c.network().stats().bytes_sent;
  r.kernel_events = c.ctx().events().executed();
  for (const std::string& node : c.NodeNames())
    r.tm_forced_writes +=
        c.node(node).log().StatsForOwner(node + ".tm").forced_writes;
  return r;
}

// --- contended group-commit cell -------------------------------------------
// Closed-loop workers on a coordinator+subordinate pair with a slow (2ms)
// log device: the protocol's forces dominate the round trip, so the flush
// policy decides throughput. kCountTimer is deliberately mistuned
// (group_size 8 with only 4 workers, so the count trigger never fires and
// every force eats the 5ms group timeout); kFlushPipelining submits
// immediately and overlaps flushes. Metrics are simulated-time, hence
// machine-independent; bench_diff gates the speedup two runs apart.

constexpr uint64_t kGcTxns = 100;
constexpr int kGcWorkers = 4;

double RunGcContended(wal::FlushPolicy policy) {
  Cluster c;
  NodeOptions node;
  node.tm.protocol = tm::ProtocolKind::kPresumedAbort;
  node.log_force_latency = 2 * sim::kMillisecond;
  node.log_queue_depth = 2;
  node.group_commit.enabled = true;
  node.group_commit.policy = policy;
  node.group_commit.group_size = 8;  // > worker count: count trigger starves
  node.group_commit.group_timeout = 5 * sim::kMillisecond;
  node.group_commit.max_pipeline_depth = 2;
  c.AddNode("coord", node);
  c.AddNode("sub", node);
  c.Connect("coord", "sub");
  c.network().set_default_latency(100);
  c.network().set_tracing(false);
  c.ctx().trace().set_capture(false);
  c.tm("sub").SetAppDataHandler(
      [&c](uint64_t txn, const net::NodeId&, std::string_view) {
        c.tm("sub").Write(txn, 0, StringPrintf("s%" PRIu64, txn), "v",
                          [](Status st) { TPC_CHECK(st.ok()); });
      });

  uint64_t started = 0;
  uint64_t completed = 0;
  std::function<void()> start_one = [&] {
    if (started == kGcTxns) return;
    ++started;
    uint64_t txn = c.tm("coord").Begin();
    c.tm("coord").Write(txn, 0, StringPrintf("k%" PRIu64, txn), "v",
                        [](Status st) { TPC_CHECK(st.ok()); });
    TPC_CHECK(c.tm("coord").SendWork(txn, "sub").ok());
    // Think time before commit: the work flow must reach the subordinate
    // (and its write must land) before the commit tree includes it.
    c.ctx().events().ScheduleAfter(500, [&, txn] {
      c.tm("coord").Commit(txn, [&](tm::CommitResult result) {
        TPC_CHECK(result.outcome == tm::Outcome::kCommitted);
        ++completed;
        start_one();
      });
    });
  };
  for (int w = 0; w < kGcWorkers; ++w) start_one();
  for (int rounds = 0; rounds < 6000 && completed < kGcTxns; ++rounds)
    c.RunFor(10 * sim::kMillisecond);
  TPC_CHECK(completed == kGcTxns);

  const double sim_seconds =
      static_cast<double>(c.ctx().events().now()) / sim::kSecond;
  return static_cast<double>(kGcTxns) / sim_seconds;
}

// Warm up once, then keep the fastest of `reps` runs (see lock_bench for
// the best-of rationale). Every run does the same work, so the counters
// agree whichever run is kept.
RunResult BestOf(const NodeOptions& options, uint64_t txns, int reps) {
  RunCommits(options, txns / 4);
  RunResult best;
  for (int i = 0; i < reps; ++i) {
    RunResult r = RunCommits(options, txns);
    if (r.commits_per_sec > best.commits_per_sec) best = r;
  }
  return best;
}

double PerCommit(uint64_t total, uint64_t txns) {
  return txns > 0 ? static_cast<double>(total) / static_cast<double>(txns)
                  : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t txns = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4000;

  harness::BenchReport report("commit");
  std::printf(
      "end-to-end commits (coordinator + 2 subordinates, %llu txns/run,\n"
      "%d x %zu-byte work flows per subordinate, best of 3); work per "
      "commit\n\n",
      static_cast<unsigned long long>(txns), kWorkFlowsPerSub,
      kWorkFlowBytes);
  std::printf("  %-18s %10s %9s %11s %8s %7s\n", "protocol", "commits/s",
              "messages", "bytes", "events", "forces");

  for (const ProtocolConfig& config : Protocols()) {
    const RunResult r = BestOf(config.options, txns, 3);
    harness::SweepCell cell;
    cell.label = config.name;
    cell.txns = r.txns;
    cell.Add("messages_per_commit", PerCommit(r.messages, r.txns));
    cell.Add("payload_bytes_per_commit", PerCommit(r.payload_bytes, r.txns));
    cell.Add("kernel_events_per_commit", PerCommit(r.kernel_events, r.txns));
    cell.Add("tm_forced_writes_per_commit",
             PerCommit(r.tm_forced_writes, r.txns));
    cell.Add("~commits_per_sec", r.commits_per_sec);
    cell.Add("wall_seconds", r.wall_seconds);
    report.AddCell(cell);

    std::printf("  %-18s %10.0f %9.2f %11.1f %8.2f %7.2f\n", config.name,
                r.commits_per_sec, PerCommit(r.messages, r.txns),
                PerCommit(r.payload_bytes, r.txns),
                PerCommit(r.kernel_events, r.txns),
                PerCommit(r.tm_forced_writes, r.txns));
  }

  const double ct = RunGcContended(wal::FlushPolicy::kCountTimer);
  const double fp = RunGcContended(wal::FlushPolicy::kFlushPipelining);
  const double gc_speedup = ct > 0 ? fp / ct : 0.0;
  harness::SweepCell gc_cell;
  gc_cell.label = "pa_gc_contended @2ms device";
  gc_cell.txns = kGcTxns * 2;
  gc_cell.Add("count_timer_sim_commits_per_sec", ct);
  gc_cell.Add("pipelining_sim_commits_per_sec", fp);
  gc_cell.Add("gc_speedup_vs_count_timer", gc_speedup);
  report.AddCell(gc_cell);
  std::printf(
      "\n  %-18s count+timer %6.0f commits/sim-s  pipelining %6.0f  (%.2fx)\n",
      "pa_gc @2ms dev", ct, fp, gc_speedup);
  // Acceptance bar: pipelining must hold >= 1.5x over the mistimed
  // count+timer groups on this cell. Simulated-time, so the check is exact
  // on every machine.
  TPC_CHECK(gc_speedup >= 1.5);

  std::printf("\n%s\n", report.Summary().c_str());
  std::printf("wrote %s\n", report.WriteJson().c_str());
  return 0;
}
