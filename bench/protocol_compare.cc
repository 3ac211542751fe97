// Extension bench (beyond the paper): every protocol family the engine
// implements, compared in the two-participant commit and abort cases using
// the paper's accounting. The paper's Section 2-4 families (basic 2PC, PA,
// PN) are joined by Presumed Commit (PA's sibling from the R* work), Paxos
// Commit (Gray & Lamport — a 2F+1 acceptor set buys non-blocking commit
// with extra flows and acceptor forces), and the one-phase family (early
// prepare / "short" commit, with and without the subordinate's prepared
// force).
//
// Emits BENCH_protocol_compare.json: one cell per protocol x case, with
// per-role and total forced_writes / messages metrics. Every number is
// simulated and deterministic, so CI gates them two-sided at zero
// tolerance against bench/baselines/BENCH_protocol_compare.json — a cost
// change in either direction is a protocol-behavior change that must be
// reviewed (and re-baselined) deliberately.

#include <cstdio>

#include "harness/bench_report.h"
#include "harness/cluster.h"
#include "harness/scenarios.h"
#include "util/format.h"
#include "util/logging.h"

namespace {

using namespace tpc;
using harness::BenchReport;
using harness::Cluster;
using harness::SweepCell;
using tm::ProtocolKind;

struct RunResult {
  tm::TxnCost coord;
  tm::TxnCost sub;
  tm::TxnCost acc;  // paxos only: the acceptor-only third node
  bool committed = false;
};

constexpr ProtocolKind kAllProtocols[] = {
    ProtocolKind::kBasic2PC,      ProtocolKind::kPresumedAbort,
    ProtocolKind::kPresumedCommit, ProtocolKind::kPresumedNothing,
    ProtocolKind::kPaxosCommit,   ProtocolKind::kOnePhase,
    ProtocolKind::kOnePhaseLogless,
};

RunResult RunOne(ProtocolKind protocol, bool abort_case,
                 bool paxos_f0 = false) {
  harness::FamilyCellRun run =
      harness::RunFamilyCell(protocol, abort_case, paxos_f0);
  Cluster& c = *run.cluster;
  RunResult result;
  result.coord = c.tm("coord").CostOf(run.txn);
  result.sub = c.tm("sub").CostOf(run.txn);
  if (tm::IsPaxos(protocol) && !paxos_f0)
    result.acc = c.tm("acc").CostOf(run.txn);
  result.committed = run.commit.result.outcome == tm::Outcome::kCommitted;
  return result;
}

std::string Fmt(const tm::TxnCost& cost) {
  return tpc::StringPrintf(
      "%llu flows, %llu writes (%lluf)",
      static_cast<unsigned long long>(cost.flows_sent),
      static_cast<unsigned long long>(cost.tm_log_writes),
      static_cast<unsigned long long>(cost.tm_log_forced));
}

uint64_t TotalForces(const RunResult& r) {
  return r.coord.tm_log_forced + r.sub.tm_log_forced + r.acc.tm_log_forced;
}

uint64_t TotalFlows(const RunResult& r) {
  return r.coord.flows_sent + r.sub.flows_sent + r.acc.flows_sent;
}

}  // namespace

int main() {
  BenchReport report("protocol_compare");
  std::printf(
      "Protocol comparison across every implemented family (extensions\n"
      "beyond the paper marked *). Two participants, update transaction;\n"
      "paxos-commit adds a third, acceptor-only node.\n\n");

  RunResult commit_results[std::size(kAllProtocols)];
  for (bool abort_case : {false, true}) {
    std::printf("%s case:\n", abort_case ? "Abort (subordinate votes NO)"
                                         : "Commit");
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"protocol", "coordinator", "subordinate", "acceptor"});
    size_t index = 0;
    for (auto protocol : kAllProtocols) {
      RunResult r = RunOne(protocol, abort_case);
      TPC_CHECK(r.committed == !abort_case);
      if (!abort_case) commit_results[index] = r;
      rows.push_back({std::string(tm::ProtocolKindToString(protocol)),
                      Fmt(r.coord), Fmt(r.sub),
                      tm::IsPaxos(protocol) ? Fmt(r.acc) : "-"});
      SweepCell cell;
      cell.label = tpc::StringPrintf(
          "%s %s", std::string(tm::ProtocolKindToString(protocol)).c_str(),
          abort_case ? "abort" : "commit");
      cell.txns = 1;
      cell.Add("coord_forced_writes", static_cast<double>(r.coord.tm_log_forced));
      cell.Add("coord_messages", static_cast<double>(r.coord.flows_sent));
      cell.Add("sub_forced_writes", static_cast<double>(r.sub.tm_log_forced));
      cell.Add("sub_messages", static_cast<double>(r.sub.flows_sent));
      if (tm::IsPaxos(protocol)) {
        cell.Add("acc_forced_writes", static_cast<double>(r.acc.tm_log_forced));
        cell.Add("acc_messages", static_cast<double>(r.acc.flows_sent));
      }
      cell.Add("total_forced_writes", static_cast<double>(TotalForces(r)));
      cell.Add("total_messages", static_cast<double>(TotalFlows(r)));
      report.AddCell(cell);
      ++index;
    }
    std::printf("%s\n", tpc::RenderTable(rows).c_str());
  }

  // F=0 degenerate cells (one acceptor, co-located at the coordinator).
  RunResult f0_commit;
  std::printf("Paxos Commit F=0 degenerate (acceptors = {coord}):\n");
  {
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"case", "coordinator", "subordinate"});
    for (bool abort_case : {false, true}) {
      RunResult r = RunOne(ProtocolKind::kPaxosCommit, abort_case,
                           /*paxos_f0=*/true);
      TPC_CHECK(r.committed == !abort_case);
      if (!abort_case) f0_commit = r;
      rows.push_back({abort_case ? "abort" : "commit", Fmt(r.coord),
                      Fmt(r.sub)});
      SweepCell cell;
      cell.label = tpc::StringPrintf("paxos-commit-f0 %s",
                                     abort_case ? "abort" : "commit");
      cell.txns = 1;
      cell.Add("coord_forced_writes",
               static_cast<double>(r.coord.tm_log_forced));
      cell.Add("coord_messages", static_cast<double>(r.coord.flows_sent));
      cell.Add("sub_forced_writes", static_cast<double>(r.sub.tm_log_forced));
      cell.Add("sub_messages", static_cast<double>(r.sub.flows_sent));
      cell.Add("total_forced_writes", static_cast<double>(TotalForces(r)));
      cell.Add("total_messages", static_cast<double>(TotalFlows(r)));
      report.AddCell(cell);
    }
    std::printf("%s\n", tpc::RenderTable(rows).c_str());
  }

  // Analytical-model sanity (Gray & Lamport Sec. 8; Stamos' short commit):
  // the relative ordering of the commit-case cost columns is a property of
  // the protocols, not of tuning, so assert it here where the table is made.
  const RunResult& pa = commit_results[1];
  const RunResult& paxos = commit_results[4];
  const RunResult& one_phase = commit_results[5];
  const RunResult& logless = commit_results[6];
  TPC_CHECK(TotalFlows(paxos) > TotalFlows(pa));
  TPC_CHECK(TotalForces(paxos) > TotalForces(pa));
  // The Gray–Lamport optimizations (co-located acceptor piggyback, 2a/2b
  // bundling) must beat the textbook per-instance protocol strictly on both
  // axes. The constants are PR 8's measured textbook costs for this exact
  // cell (see the pre-optimization BENCH_protocol_compare baseline):
  // 10 total forces / 11 total messages on commit.
  TPC_CHECK(TotalForces(paxos) < 10);
  TPC_CHECK(TotalFlows(paxos) < 11);
  // F=0 collapses to Presumed-Abort cost: equal forces, within one message
  // (Gray & Lamport Sec. 8 — "the same cost as two-phase commit").
  TPC_CHECK(TotalForces(f0_commit) == TotalForces(pa));
  TPC_CHECK(TotalFlows(f0_commit) <= TotalFlows(pa) + 1);
  for (size_t i = 0; i < 4; ++i)  // 1PC-logless beats every 2PC family
    TPC_CHECK(TotalForces(logless) < TotalForces(commit_results[i]));
  TPC_CHECK(TotalForces(logless) + 1 == TotalForces(one_phase));
  TPC_CHECK(TotalFlows(logless) == TotalFlows(one_phase));

  std::printf(
      "Reading: PC spends one more coordinator force than PA on commits\n"
      "(the collecting record) but drops the subordinate's commit force\n"
      "AND its ack. Paxos-commit pays 2a/2b flows to the acceptor set and\n"
      "acceptor forces — still more messages and forces than PA, but the\n"
      "Gray-Lamport optimizations (the co-located self-accept riding the\n"
      "prepared force, one bundled 2b + covering force per acceptor per\n"
      "transaction) cut the textbook 10 forces / 11 messages to 6 / 9 in\n"
      "exchange for surviving coordinator death (the torture matrix proves\n"
      "the non-blocking claim); the F=0 degenerate collapses to PA's exact\n"
      "cost while keeping the takeover machinery. One-phase drops the\n"
      "Prepare round entirely; the logless variant also drops the\n"
      "subordinate's prepared force — fewest forces of any family, at the\n"
      "price of presuming participant durability.\n\n");
  std::printf("%s\n", report.Summary().c_str());
  std::printf("wrote %s\n", report.WriteJson().c_str());
  return 0;
}
