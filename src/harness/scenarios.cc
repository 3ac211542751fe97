#include "harness/scenarios.h"

#include "harness/sequence_diagram.h"

#include <memory>
#include <utility>

#include "util/format.h"
#include "util/logging.h"

namespace tpc::harness {
namespace {

using analysis::CostTriplet;
using analysis::RoleCost;
using analysis::Table3Variant;
using analysis::Table4Variant;
using tm::ProtocolKind;

NodeOptions PaOptions() {
  NodeOptions options;
  options.tm.protocol = ProtocolKind::kPresumedAbort;
  return options;
}

/// App-data handler that writes one key to the node's first RM.
void AttachWriter(Cluster& c, const std::string& node) {
  c.tm(node).SetAppDataHandler(
      [&c, node](uint64_t txn, const net::NodeId&, std::string_view) {
        c.tm(node).Write(txn, 0, node + "_key", "v", [](Status st) {
          TPC_CHECK(st.ok());
        });
      });
}

CostTriplet ToTriplet(const tm::TxnCost& cost) {
  return {cost.flows_sent, cost.tm_log_writes, cost.tm_log_forced};
}

RoleCost ToRoleCost(const tm::TxnCost& cost) {
  return {cost.flows_sent, cost.tm_log_writes, cost.tm_log_forced};
}

std::string MemberName(uint64_t i) {
  return StringPrintf("m%02llu", static_cast<unsigned long long>(i));
}

}  // namespace

// ---------------------------------------------------------------------------
// Table 3
// ---------------------------------------------------------------------------

ScenarioResult RunTable3Scenario(Table3Variant variant, uint64_t n,
                                 uint64_t m) {
  TPC_CHECK(n >= 2);
  TPC_CHECK(m <= n - 1);
  ScenarioResult out;
  Cluster c;

  const uint64_t members = n - 1;
  // Member i uses the optimization iff i < m (except where noted below).
  auto is_opt_member = [&](uint64_t i) { return i < m; };

  NodeOptions root_options = PaOptions();
  NodeOptions plain_member = PaOptions();

  switch (variant) {
    case Table3Variant::kBasic2PC:
      root_options.tm.protocol = ProtocolKind::kBasic2PC;
      root_options.tm.read_only_opt = false;
      plain_member.tm.protocol = ProtocolKind::kBasic2PC;
      plain_member.tm.read_only_opt = false;
      break;
    case Table3Variant::kPaLeaveOut:
      root_options.tm.include_idle_sessions = true;
      root_options.tm.leave_out_opt = true;
      break;
    case Table3Variant::kPaWaitForOutcome:
      root_options.tm.wait_for_outcome_block = false;
      break;
    case Table3Variant::kPaLastAgent:
      root_options.tm.last_agent_opt = m > 0;
      break;
    case Table3Variant::kPaVoteReliable:
      root_options.tm.vote_reliable_opt = true;
      plain_member.tm.vote_reliable_opt = true;
      break;
    default:
      break;
  }

  c.AddNode("root", root_options);

  // The last-agent variant builds a chain of m delegations hanging off the
  // root; every other variant is a flat star.
  const bool la_chain = variant == Table3Variant::kPaLastAgent && m > 0;
  const uint64_t star_members = la_chain ? members - m : members;

  for (uint64_t i = 0; i < members; ++i) {
    NodeOptions options = plain_member;
    if (variant == Table3Variant::kPaVoteReliable)
      options.rm_options.reliable = is_opt_member(i);
    if (variant == Table3Variant::kPaSharedLogs && is_opt_member(i))
      options.shared_log_host = "root";
    if (la_chain && i >= star_members) options.tm.last_agent_opt = true;
    c.AddNode(MemberName(i), options);
  }

  // Wire sessions.
  for (uint64_t i = 0; i < star_members; ++i) {
    tm::SessionOptions root_side;
    if (variant == Table3Variant::kPaLongLocks && is_opt_member(i))
      root_side.long_locks = true;
    c.Connect("root", MemberName(i), root_side, {});
  }
  if (la_chain) {
    // root -> la_0 -> la_1 -> ... -> la_{m-1}
    c.Connect("root", MemberName(star_members),
              {.last_agent_candidate = true}, {});
    for (uint64_t i = star_members; i + 1 < members; ++i) {
      c.Connect(MemberName(i), MemberName(i + 1),
                {.last_agent_candidate = true}, {});
    }
  }

  // Workload handlers.
  for (uint64_t i = 0; i < members; ++i) {
    const std::string name = MemberName(i);
    const bool writes = !(variant == Table3Variant::kPaReadOnly ||
                          variant == Table3Variant::kBasic2PC)
                            ? true
                            : !is_opt_member(i);
    const bool unsolicited =
        variant == Table3Variant::kPaUnsolicitedVote && is_opt_member(i);
    const bool forwards = la_chain && i >= star_members && i + 1 < members;
    const std::string next = forwards ? MemberName(i + 1) : "";
    c.tm(name).SetAppDataHandler(
        [&c, name, writes, unsolicited, forwards, next](
            uint64_t txn, const net::NodeId&, std::string_view) {
          if (writes) {
            c.tm(name).Write(txn, 0, name + "_key", "v", [](Status st) {
              TPC_CHECK(st.ok());
            });
          }
          if (forwards) TPC_CHECK(c.tm(name).SendWork(txn, next).ok());
          if (unsolicited) {
            c.tm(name).UnsolicitedPrepare(txn);
          }
        });
  }

  // Drive one transaction. Leave-out members receive no data at all.
  uint64_t txn = c.tm("root").Begin();
  c.tm("root").Write(txn, 0, "root_key", "v",
                     [](Status st) { TPC_CHECK(st.ok()); });
  for (uint64_t i = 0; i < members; ++i) {
    if (variant == Table3Variant::kPaLeaveOut && is_opt_member(i)) continue;
    if (la_chain && i > star_members) continue;  // chain forwards data
    TPC_CHECK(c.tm("root").SendWork(txn, MemberName(i)).ok());
  }
  c.RunFor(2 * sim::kSecond);

  std::shared_ptr<DrivenCommit> commit = c.StartCommit("root", txn);
  c.RunFor(30 * sim::kSecond);

  if (variant == Table3Variant::kPaLongLocks) {
    // The buffered acks ride the first data message of the next
    // transaction on each long-locks session.
    for (uint64_t i = 0; i < members; ++i) {
      if (!is_opt_member(i)) continue;
      uint64_t next_txn = c.tm(MemberName(i)).Begin();
      TPC_CHECK(c.tm(MemberName(i)).SendWork(next_txn, "root").ok());
    }
    c.RunFor(sim::kSecond);
  }
  if (la_chain) {
    // Flush the implied acks down the chain so END records are written.
    uint64_t next_txn = c.tm("root").Begin();
    TPC_CHECK(c.tm("root").SendWork(next_txn, MemberName(star_members)).ok());
    for (uint64_t i = star_members; i + 1 < members; ++i) {
      uint64_t chain_txn = c.tm(MemberName(i)).Begin();
      TPC_CHECK(
          c.tm(MemberName(i)).SendWork(chain_txn, MemberName(i + 1)).ok());
    }
    c.RunFor(sim::kSecond);
  }

  out.completed = commit->completed;
  out.result = commit->result;
  out.commit_latency = commit->latency;
  out.measured = ToTriplet(c.TotalCost(txn));
  return out;
}

// ---------------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------------

namespace {

struct Table2Setup {
  std::string label;
  NodeOptions coord;
  NodeOptions sub;
  tm::SessionOptions coord_session;
  bool coord_writes = true;
  bool sub_writes = true;
  bool sub_unsolicited = false;
  bool sub_votes_no = false;
  bool leave_out_warmup = false;  // run a warm-up txn, measure an idle one
  bool flush_after = false;       // send follow-up data to flush implied acks
};

MeasuredTable2Row RunOneTable2(const Table2Setup& setup) {
  Cluster c;
  c.AddNode("coord", setup.coord);
  c.AddNode("sub", setup.sub);
  c.Connect("coord", "sub", setup.coord_session, {});

  const bool sub_writes = setup.sub_writes;
  const bool sub_unsolicited = setup.sub_unsolicited;
  c.tm("sub").SetAppDataHandler(
      [&c, sub_writes, sub_unsolicited](uint64_t txn, const net::NodeId&,
                                        std::string_view) {
        if (sub_writes) {
          c.tm("sub").Write(txn, 0, "sub_key", "v", [&c, txn,
                                                     sub_unsolicited](Status st) {
            TPC_CHECK(st.ok());
            if (sub_unsolicited) c.tm("sub").UnsolicitedPrepare(txn);
          });
        }
      });

  auto run_txn = [&](bool touch_sub) {
    uint64_t txn = c.tm("coord").Begin();
    if (setup.coord_writes) {
      c.tm("coord").Write(txn, 0, "coord_key", "v",
                          [](Status st) { TPC_CHECK(st.ok()); });
    }
    if (touch_sub) TPC_CHECK(c.tm("coord").SendWork(txn, "sub").ok());
    c.RunFor(2 * sim::kSecond);
    if (setup.sub_votes_no) c.node("sub").rm().FailNextPrepare();
    DrivenCommit commit = c.CommitAndWait("coord", txn);
    TPC_CHECK(commit.completed);
    c.RunFor(sim::kSecond);
    return txn;
  };

  uint64_t measured_txn;
  if (setup.leave_out_warmup) {
    run_txn(/*touch_sub=*/true);
    measured_txn = run_txn(/*touch_sub=*/false);
  } else {
    measured_txn = run_txn(/*touch_sub=*/true);
  }

  if (setup.flush_after) {
    uint64_t next_txn = c.tm("coord").Begin();
    TPC_CHECK(c.tm("coord").SendWork(next_txn, "sub").ok());
    uint64_t back_txn = c.tm("sub").Begin();
    TPC_CHECK(c.tm("sub").SendWork(back_txn, "coord").ok());
    c.RunFor(sim::kSecond);
  }

  MeasuredTable2Row row;
  row.label = setup.label;
  row.coordinator = ToRoleCost(c.tm("coord").CostOf(measured_txn));
  row.subordinate = ToRoleCost(c.tm("sub").CostOf(measured_txn));
  return row;
}

}  // namespace

std::vector<MeasuredTable2Row> RunTable2Scenarios() {
  std::vector<Table2Setup> setups;

  {
    Table2Setup s;
    s.label = "Basic 2PC";
    s.coord.tm.protocol = ProtocolKind::kBasic2PC;
    s.sub.tm.protocol = ProtocolKind::kBasic2PC;
    setups.push_back(s);
  }
  {
    Table2Setup s;
    s.label = "PN";
    s.coord.tm.protocol = ProtocolKind::kPresumedNothing;
    s.sub.tm.protocol = ProtocolKind::kPresumedNothing;
    setups.push_back(s);
  }
  {
    Table2Setup s;
    s.label = "PA, commit";
    setups.push_back(s);
  }
  {
    Table2Setup s;
    s.label = "PA, abort (NO vote)";
    s.sub_votes_no = true;
    setups.push_back(s);
  }
  {
    Table2Setup s;
    s.label = "PA, read-only";
    s.coord_writes = false;
    s.sub_writes = false;
    setups.push_back(s);
  }
  {
    Table2Setup s;
    s.label = "PA & last agent";
    s.coord.tm.last_agent_opt = true;
    s.sub.tm.last_agent_opt = true;
    s.coord_session.last_agent_candidate = true;
    s.flush_after = true;
    setups.push_back(s);
  }
  {
    Table2Setup s;
    s.label = "PA & unsolicited vote";
    s.sub_unsolicited = true;
    setups.push_back(s);
  }
  {
    Table2Setup s;
    s.label = "PA & leave-out";
    s.coord.tm.include_idle_sessions = true;
    s.coord.tm.leave_out_opt = true;
    s.leave_out_warmup = true;
    // The paper's all-zero row isolates protocol cost: the measured
    // transaction performs no local updates either.
    s.coord_writes = false;
    setups.push_back(s);
  }
  {
    Table2Setup s;
    s.label = "PA & vote reliable";
    s.coord.tm.vote_reliable_opt = true;
    s.sub.tm.vote_reliable_opt = true;
    s.sub.rm_options.reliable = true;
    setups.push_back(s);
  }
  {
    Table2Setup s;
    s.label = "PA & wait for outcome";
    s.coord.tm.wait_for_outcome_block = false;
    setups.push_back(s);
  }
  {
    Table2Setup s;
    s.label = "PA & shared log";
    s.sub.shared_log_host = "coord";
    setups.push_back(s);
  }

  std::vector<MeasuredTable2Row> rows;
  rows.reserve(setups.size());
  for (const auto& setup : setups) {
    // Default protocol for unset rows is PA (NodeOptions default).
    rows.push_back(RunOneTable2(setup));
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Table 4
// ---------------------------------------------------------------------------

analysis::CostTriplet RunTable4Scenario(Table4Variant variant, uint64_t r) {
  Cluster c;
  NodeOptions a_options = PaOptions();
  NodeOptions b_options = PaOptions();
  tm::SessionOptions a_session;  // a's side of the a<->b session
  tm::SessionOptions b_session;

  switch (variant) {
    case Table4Variant::kBasic2PC:
      a_options.tm.protocol = ProtocolKind::kBasic2PC;
      b_options.tm.protocol = ProtocolKind::kBasic2PC;
      break;
    case Table4Variant::kLongLocks:
      a_session.long_locks = true;
      break;
    case Table4Variant::kLongLocksLastAgent:
      a_options.tm.last_agent_opt = true;
      a_options.tm.include_idle_sessions = true;
      b_options.tm.last_agent_opt = true;
      b_options.tm.include_idle_sessions = true;
      a_session.long_locks = true;  // a requests long locks of its last agent
      a_session.last_agent_candidate = true;
      b_session.last_agent_candidate = true;
      break;
  }

  c.AddNode("a", a_options);
  c.AddNode("b", b_options);
  c.Connect("a", "b", a_session, b_session);

  // b writes on data; under long locks it also sends a data reply, which is
  // what carries the previous transaction's buffered ack.
  const bool echo = variant == Table4Variant::kLongLocks;
  c.tm("b").SetAppDataHandler(
      [&c, echo](uint64_t txn, const net::NodeId&, std::string_view) {
        c.tm("b").Write(txn, 0, "b_key", "v",
                        [](Status st) { TPC_CHECK(st.ok()); });
        if (echo) TPC_CHECK(c.tm("b").SendWork(txn, "a", "reply").ok());
      });
  c.tm("a").SetAppDataHandler(
      [](uint64_t, const net::NodeId&, std::string_view) {});

  std::vector<uint64_t> txns;

  if (variant == Table4Variant::kLongLocksLastAgent) {
    // Pairs of transactions with alternating initiators: three flows per
    // pair (vote-yes / commit+vote-yes / commit).
    TPC_CHECK(r % 2 == 0);
    for (uint64_t pair = 0; pair < r / 2; ++pair) {
      uint64_t t1 = c.tm("a").Begin();
      txns.push_back(t1);
      c.tm("a").Write(t1, 0, "a_key", "v",
                      [](Status st) { TPC_CHECK(st.ok()); });
      TPC_CHECK(c.tm("a").SendWork(t1, "b").ok());
      c.RunFor(100 * sim::kMillisecond);
      c.tm("a").Commit(t1, [](tm::CommitResult result) {
        TPC_CHECK(result.outcome == tm::Outcome::kCommitted);
      });
      c.RunFor(100 * sim::kMillisecond);  // b decided; COMMIT(t1) buffered

      uint64_t t2 = c.tm("b").Begin();
      txns.push_back(t2);
      c.tm("b").Write(t2, 0, "b_key2", "v",
                      [](Status st) { TPC_CHECK(st.ok()); });
      c.tm("b").Commit(t2, [](tm::CommitResult result) {
        TPC_CHECK(result.outcome == tm::Outcome::kCommitted);
      });
      c.RunFor(200 * sim::kMillisecond);
    }
    // Flush the final implied ack.
    uint64_t flush = c.tm("b").Begin();
    TPC_CHECK(c.tm("b").SendWork(flush, "a").ok());
    c.RunFor(sim::kSecond);
  } else {
    for (uint64_t i = 0; i < r; ++i) {
      uint64_t txn = c.tm("a").Begin();
      txns.push_back(txn);
      c.tm("a").Write(txn, 0, "a_key", "v",
                      [](Status st) { TPC_CHECK(st.ok()); });
      TPC_CHECK(c.tm("a").SendWork(txn, "b").ok());
      c.RunFor(100 * sim::kMillisecond);
      // StartCommit keeps the completion state on the heap: under long
      // locks the callback fires during a *later* iteration, when a stack
      // local would be long gone.
      std::shared_ptr<DrivenCommit> commit = c.StartCommit("a", txn);
      c.RunFor(500 * sim::kMillisecond);
      // Under long locks the ack (and hence completion) arrives with the
      // next transaction's data; otherwise it is already done.
      if (variant == Table4Variant::kBasic2PC) {
        TPC_CHECK(commit->completed);
        TPC_CHECK(commit->result.outcome == tm::Outcome::kCommitted);
      }
    }
    // Flush the last buffered ack.
    if (variant == Table4Variant::kLongLocks) {
      uint64_t flush = c.tm("b").Begin();
      TPC_CHECK(c.tm("b").SendWork(flush, "a").ok());
      c.RunFor(sim::kSecond);
    }
  }

  CostTriplet total;
  for (uint64_t txn : txns) {
    tm::TxnCost cost = c.TotalCost(txn);
    total.flows += cost.flows_sent;
    total.writes += cost.tm_log_writes;
    total.forced += cost.tm_log_forced;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Figures
// ---------------------------------------------------------------------------

namespace {

/// Renders the protocol-relevant trace for one transaction plus a footer.
std::string RenderFigure(Cluster& c, uint64_t txn, const std::string& title,
                         const std::string& expectation,
                         const std::vector<std::string>& nodes = {}) {
  std::string out = "=== " + title + " ===\n";
  if (!nodes.empty()) {
    out += RenderSequenceDiagram(c.ctx().trace(), txn, nodes);
    out += "\n";
  }
  for (const auto& entry : c.ctx().trace().entries()) {
    if (entry.txn != txn) continue;
    if (entry.kind != sim::TraceKind::kSend &&
        entry.kind != sim::TraceKind::kLogForce &&
        entry.kind != sim::TraceKind::kLogWrite &&
        entry.kind != sim::TraceKind::kState &&
        entry.kind != sim::TraceKind::kHeuristic) {
      continue;
    }
    std::string who = entry.node;
    if (!entry.peer.empty()) who += " -> " + entry.peer;
    StringAppendF(&out, "[%8lldus] %-22s %-6s %s\n",
                  static_cast<long long>(entry.at), who.c_str(),
                  std::string(sim::TraceKindToString(entry.kind)).c_str(),
                  entry.detail.c_str());
  }
  tm::TxnCost total = c.TotalCost(txn);
  StringAppendF(&out,
                "--- totals: %llu flows, %llu TM log writes (%llu forced)\n",
                static_cast<unsigned long long>(total.flows_sent),
                static_cast<unsigned long long>(total.tm_log_writes),
                static_cast<unsigned long long>(total.tm_log_forced));
  out += "--- paper: " + expectation + "\n";
  return out;
}

std::string FigureTwoNode(ProtocolKind protocol, const std::string& title,
                          const std::string& expectation) {
  Cluster c;
  NodeOptions options;
  options.tm.protocol = protocol;
  c.AddNode("coordinator", options);
  c.AddNode("subordinate", options);
  c.Connect("coordinator", "subordinate");
  AttachWriter(c, "subordinate");
  uint64_t txn = c.tm("coordinator").Begin();
  c.tm("coordinator").Write(txn, 0, "k", "v",
                            [](Status st) { TPC_CHECK(st.ok()); });
  TPC_CHECK(c.tm("coordinator").SendWork(txn, "subordinate").ok());
  c.RunFor(sim::kSecond);
  DrivenCommit commit = c.CommitAndWait("coordinator", txn);
  TPC_CHECK(commit.completed);
  c.RunFor(sim::kSecond);
  return RenderFigure(c, txn, title, expectation,
                      {"coordinator", "subordinate"});
}

std::string FigureChain(ProtocolKind protocol, const std::string& title,
                        const std::string& expectation) {
  Cluster c;
  NodeOptions options;
  options.tm.protocol = protocol;
  c.AddNode("coordinator", options);
  c.AddNode("cascaded", options);
  c.AddNode("subordinate", options);
  c.Connect("coordinator", "cascaded");
  c.Connect("cascaded", "subordinate");
  c.tm("cascaded").SetAppDataHandler(
      [&c](uint64_t txn, const net::NodeId& from, std::string_view) {
        if (from != "coordinator") return;
        c.tm("cascaded").Write(txn, 0, "mid", "v",
                               [](Status st) { TPC_CHECK(st.ok()); });
        TPC_CHECK(c.tm("cascaded").SendWork(txn, "subordinate").ok());
      });
  AttachWriter(c, "subordinate");
  uint64_t txn = c.tm("coordinator").Begin();
  c.tm("coordinator").Write(txn, 0, "k", "v",
                            [](Status st) { TPC_CHECK(st.ok()); });
  TPC_CHECK(c.tm("coordinator").SendWork(txn, "cascaded").ok());
  c.RunFor(sim::kSecond);
  DrivenCommit commit = c.CommitAndWait("coordinator", txn);
  TPC_CHECK(commit.completed);
  c.RunFor(sim::kSecond);
  return RenderFigure(c, txn, title, expectation,
                      {"coordinator", "cascaded", "subordinate"});
}

std::string Figure4PartialReadOnly() {
  Cluster c;
  c.AddNode("coordinator", PaOptions());
  c.AddNode("reader", PaOptions());
  c.AddNode("writer", PaOptions());
  c.Connect("coordinator", "reader");
  c.Connect("coordinator", "writer");
  // The reader participates but performs no updates.
  c.tm("reader").SetAppDataHandler(
      [&c](uint64_t txn, const net::NodeId&, std::string_view) {
        c.tm("reader").Read(txn, 0, "somewhere",
                            [](Result<std::string>) {});
      });
  AttachWriter(c, "writer");
  uint64_t txn = c.tm("coordinator").Begin();
  c.tm("coordinator").Write(txn, 0, "k", "v",
                            [](Status st) { TPC_CHECK(st.ok()); });
  TPC_CHECK(c.tm("coordinator").SendWork(txn, "reader").ok());
  TPC_CHECK(c.tm("coordinator").SendWork(txn, "writer").ok());
  c.RunFor(sim::kSecond);
  DrivenCommit commit = c.CommitAndWait("coordinator", txn);
  TPC_CHECK(commit.completed);
  c.RunFor(sim::kSecond);
  return RenderFigure(
      c, txn, "Figure 4: partial read-only commit (PA)",
      "the read-only voter is excluded from phase two and performs no "
      "log writes; the update subordinate runs the full protocol",
      {"reader", "coordinator", "writer"});
}

std::string Figure5PartitionedTree() {
  // Two programs (pd, pe) initiate commit for the same transaction — the
  // inconsistency general leave-out would permit. The protocol detects the
  // two initiators and aborts both trees.
  Cluster c;
  NodeOptions options;
  options.tm.protocol = ProtocolKind::kPresumedNothing;
  for (const char* n : {"pd", "pa", "pe"}) c.AddNode(n, options);
  c.Connect("pd", "pa");
  c.Connect("pa", "pe");
  uint64_t txn = c.tm("pd").Begin();
  c.tm("pd").Write(txn, 0, "d", "v", [](Status st) { TPC_CHECK(st.ok()); });
  TPC_CHECK(c.tm("pd").SendWork(txn, "pa").ok());
  c.RunFor(sim::kSecond);
  c.tm("pe").Write(txn, 0, "e", "v", [](Status st) { TPC_CHECK(st.ok()); });
  TPC_CHECK(c.tm("pe").SendWork(txn, "pa").ok());
  c.RunFor(sim::kSecond);

  bool pd_done = false, pe_done = false;
  tm::Outcome pd_outcome = tm::Outcome::kUnknown;
  tm::Outcome pe_outcome = tm::Outcome::kUnknown;
  c.tm("pd").Commit(txn, [&](tm::CommitResult result) {
    pd_done = true;
    pd_outcome = result.outcome;
  });
  c.tm("pe").Commit(txn, [&](tm::CommitResult result) {
    pe_done = true;
    pe_outcome = result.outcome;
  });
  c.RunFor(60 * sim::kSecond);
  TPC_CHECK(pd_done && pe_done);

  std::string out = RenderFigure(
      c, txn, "Figure 5: transaction tree partitioned by left-out partners",
      "two independent commit initiations for one transaction must not "
      "reach different outcomes: both abort",
      {"pd", "pa", "pe"});
  StringAppendF(&out, "--- outcome at pd: %s, at pe: %s (consistent: %s)\n",
                std::string(tm::OutcomeToString(pd_outcome)).c_str(),
                std::string(tm::OutcomeToString(pe_outcome)).c_str(),
                c.Audit(txn).consistent ? "yes" : "NO");
  return out;
}

std::string Figure6LastAgent() {
  Cluster c;
  NodeOptions options = PaOptions();
  options.tm.last_agent_opt = true;
  c.AddNode("coordinator", options);
  c.AddNode("last_agent", options);
  c.Connect("coordinator", "last_agent", {.last_agent_candidate = true}, {});
  AttachWriter(c, "last_agent");
  uint64_t txn = c.tm("coordinator").Begin();
  c.tm("coordinator").Write(txn, 0, "k", "v",
                            [](Status st) { TPC_CHECK(st.ok()); });
  TPC_CHECK(c.tm("coordinator").SendWork(txn, "last_agent").ok());
  c.RunFor(sim::kSecond);
  DrivenCommit commit = c.CommitAndWait("coordinator", txn);
  TPC_CHECK(commit.completed);
  // Next-transaction data delivers the implied ack.
  uint64_t next_txn = c.tm("coordinator").Begin();
  TPC_CHECK(c.tm("coordinator").SendWork(next_txn, "last_agent").ok());
  c.RunFor(sim::kSecond);
  return RenderFigure(
      c, txn, "Figure 6: last-agent commit processing (PA)",
      "2 flows total: the coordinator's YES vote transfers the decision; "
      "the commit comes back; the ack is implied by the next data",
      {"coordinator", "last_agent"});
}

std::string Figure7LongLocks() {
  Cluster c;
  c.AddNode("coordinator", PaOptions());
  c.AddNode("subordinate", PaOptions());
  c.Connect("coordinator", "subordinate", {.long_locks = true}, {});
  c.tm("subordinate").SetAppDataHandler(
      [&c](uint64_t txn, const net::NodeId&, std::string_view) {
        c.tm("subordinate").Write(txn, 0, "s", "v",
                                  [](Status st) { TPC_CHECK(st.ok()); });
      });
  uint64_t txn = c.tm("coordinator").Begin();
  c.tm("coordinator").Write(txn, 0, "k", "v",
                            [](Status st) { TPC_CHECK(st.ok()); });
  TPC_CHECK(c.tm("coordinator").SendWork(txn, "subordinate").ok());
  c.RunFor(sim::kSecond);
  bool done = false;
  c.tm("coordinator").Commit(txn, [&done](tm::CommitResult) { done = true; });
  c.RunFor(5 * sim::kSecond);
  TPC_CHECK(!done);  // ack buffered at the subordinate
  // The subordinate starts the next transaction; its data message carries
  // the buffered ack.
  uint64_t next_txn = c.tm("subordinate").Begin();
  TPC_CHECK(c.tm("subordinate").SendWork(next_txn, "coordinator",
                                         "next-transaction data").ok());
  c.RunFor(sim::kSecond);
  TPC_CHECK(done);
  return RenderFigure(
      c, txn, "Figure 7: long locks (ack rides the next transaction's data)",
      "3 commit flows (prepare / vote yes / commit); the ack is packaged "
      "with the next transaction's first data message",
      {"coordinator", "subordinate"});
}

std::string Figure8VoteReliable() {
  Cluster c;
  NodeOptions options = PaOptions();
  options.tm.vote_reliable_opt = true;
  options.rm_options.reliable = true;
  c.AddNode("coordinator", options);
  c.AddNode("cascaded", options);
  c.AddNode("subordinate", options);
  c.Connect("coordinator", "cascaded");
  c.Connect("cascaded", "subordinate");
  c.tm("cascaded").SetAppDataHandler(
      [&c](uint64_t txn, const net::NodeId& from, std::string_view) {
        if (from != "coordinator") return;
        c.tm("cascaded").Write(txn, 0, "mid", "v",
                               [](Status st) { TPC_CHECK(st.ok()); });
        TPC_CHECK(c.tm("cascaded").SendWork(txn, "subordinate").ok());
      });
  AttachWriter(c, "subordinate");
  uint64_t txn = c.tm("coordinator").Begin();
  c.tm("coordinator").Write(txn, 0, "k", "v",
                            [](Status st) { TPC_CHECK(st.ok()); });
  TPC_CHECK(c.tm("coordinator").SendWork(txn, "cascaded").ok());
  c.RunFor(sim::kSecond);
  DrivenCommit commit = c.CommitAndWait("coordinator", txn);
  TPC_CHECK(commit.completed);
  c.RunFor(sim::kSecond);
  return RenderFigure(
      c, txn, "Figure 8: all resources voted reliable",
      "explicit acks are elided (implied); the cascaded coordinator and "
      "root complete as soon as their own commit records are durable",
      {"coordinator", "cascaded", "subordinate"});
}

}  // namespace

std::string RunFigureScenario(int figure) {
  switch (figure) {
    case 1:
      return FigureTwoNode(
          ProtocolKind::kBasic2PC, "Figure 1: simple two-phase commit",
          "4 flows (prepare / vote / commit / ack); coordinator forces the "
          "commit record, subordinate forces prepared and committed");
    case 2:
      return FigureChain(
          ProtocolKind::kBasic2PC,
          "Figure 2: 2PC with a cascaded coordinator",
          "the cascaded coordinator relays both phases: 8 flows total, "
          "each participant logs as in Figure 1");
    case 3:
      return FigureChain(
          ProtocolKind::kPresumedNothing,
          "Figure 3: Presumed Nothing with intermediate coordinator",
          "every coordinator (root and cascaded) forces commit-pending "
          "before sending Prepare; ENDs are forced before acks");
    case 4:
      return Figure4PartialReadOnly();
    case 5:
      return Figure5PartitionedTree();
    case 6:
      return Figure6LastAgent();
    case 7:
      return Figure7LongLocks();
    case 8:
      return Figure8VoteReliable();
    default:
      return "unknown figure " + std::to_string(figure) + " (valid: 1-8)\n";
  }
}

// ---------------------------------------------------------------------------
// protocol_compare's cell
// ---------------------------------------------------------------------------

FamilyCellRun RunFamilyCell(ProtocolKind protocol, bool abort_case,
                            bool paxos_f0) {
  FamilyCellRun run;
  run.cluster = std::make_unique<Cluster>();
  Cluster& c = *run.cluster;
  NodeOptions options;
  options.tm.protocol = protocol;
  // Paxos Commit needs a 2F+1 acceptor set (F=1): both participants plus
  // one acceptor-only node, so acceptor state is co-located where possible
  // (the paper's "transaction manager as acceptor" deployment). The F=0
  // degenerate keeps a single acceptor co-located at the coordinator —
  // non-blocking is traded away and the cost collapses to PA's.
  if (tm::IsPaxos(protocol)) {
    options.tm.acceptors = paxos_f0 ? std::vector<std::string>{"coord"}
                                    : std::vector<std::string>{"coord", "sub",
                                                               "acc"};
  }
  c.AddNode("coord", options);
  c.AddNode("sub", options);
  c.Connect("coord", "sub");
  if (tm::IsPaxos(protocol) && !paxos_f0) {
    NodeOptions acc_options = options;
    acc_options.num_rms = 0;
    c.AddNode("acc", acc_options);
    c.Connect("coord", "acc");
    c.Connect("sub", "acc");
  }
  c.tm("sub").SetAppDataHandler(
      [&c](uint64_t txn, const net::NodeId&, std::string_view) {
        c.tm("sub").Write(txn, 0, "s", "v",
                          [](Status st) { TPC_CHECK(st.ok()); });
      });
  run.txn = c.tm("coord").Begin();
  c.tm("coord").Write(run.txn, 0, "k", "v",
                      [](Status st) { TPC_CHECK(st.ok()); });
  TPC_CHECK(c.tm("coord").SendWork(run.txn, "sub").ok());
  // One-phase subordinates prepare unsolicited once their work quiesces, so
  // a NO voter must be armed before the quiesce window, not at commit time.
  if (abort_case && tm::IsOnePhase(protocol))
    c.node("sub").rm().FailNextPrepare();
  c.RunFor(sim::kSecond);
  if (abort_case && !tm::IsOnePhase(protocol))
    c.node("sub").rm().FailNextPrepare();
  run.commit = c.CommitAndWait("coord", run.txn);
  TPC_CHECK(run.commit.completed);
  c.RunFor(30 * sim::kSecond);
  return run;
}

}  // namespace tpc::harness
