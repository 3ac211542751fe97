#include "harness/torture.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>

#include "harness/cluster.h"
#include "sim/trace.h"
#include "tm/crash_points.h"
#include "util/format.h"
#include "util/logging.h"
#include "wal/wal_crash_points.h"

namespace tpc::harness {
namespace {

using tm::ProtocolKind;

enum class Topo { kPair, kChain, kStar, kPaxos, kPaxosF0 };

/// Internal scenario definition: protocol config + topology + workload
/// switches. Node naming: root "c0"; pair adds "s1"; chain adds cascaded
/// "m1" and leaf "s2"; star adds "s1" and (read-only) "r2"; paxos adds
/// "s1" and the acceptor-only "a2" (no RMs) — acceptors = {c0, s1, a2},
/// i.e. 2F+1 with F = 1.
struct Spec {
  const char* name;
  const char* proto_label;
  ProtocolKind protocol;
  Topo topo;
  bool last_agent = false;   ///< s1 is the last-agent candidate
  bool ro_leaf = false;      ///< r2 never writes (read-only vote)
  bool unsolicited = false;  ///< s1 votes before being asked
  bool heuristic = false;    ///< s1 decides heuristic commit when in doubt
  bool abort_vote = false;   ///< s1's RM votes NO
  bool leave_out = false;    ///< leave-out setup txn + exclusion on txn 2
  /// Group-commit pipeline under test (kCountTimer with gc=false means the
  /// seed synchronous-flush configuration the original scenarios froze).
  bool gc = false;
  wal::FlushPolicy flush = wal::FlushPolicy::kCountTimer;
  sim::Time group_timeout = 5 * sim::kMillisecond;  ///< kCountTimer's timer
};

const Spec kSpecs[] = {
    {"basic_pair", "basic", ProtocolKind::kBasic2PC, Topo::kPair},
    {"basic_chain", "basic", ProtocolKind::kBasic2PC, Topo::kChain},
    {"basic_abort", "basic", ProtocolKind::kBasic2PC, Topo::kPair,
     false, false, false, false, /*abort_vote=*/true},
    {"pa_pair", "pa", ProtocolKind::kPresumedAbort, Topo::kPair},
    {"pa_chain", "pa", ProtocolKind::kPresumedAbort, Topo::kChain},
    {"pa_abort", "pa", ProtocolKind::kPresumedAbort, Topo::kPair,
     false, false, false, false, /*abort_vote=*/true},
    {"pa_la_ro", "pa+la+ro", ProtocolKind::kPresumedAbort, Topo::kStar,
     /*last_agent=*/true, /*ro_leaf=*/true},
    {"pa_unsolicited", "pa", ProtocolKind::kPresumedAbort, Topo::kPair,
     false, false, /*unsolicited=*/true},
    {"pa_heur", "pa+heur", ProtocolKind::kPresumedAbort, Topo::kPair,
     false, false, false, /*heuristic=*/true},
    {"pn_pair", "pn", ProtocolKind::kPresumedNothing, Topo::kPair},
    {"pn_chain", "pn", ProtocolKind::kPresumedNothing, Topo::kChain},
    {"pn_abort", "pn", ProtocolKind::kPresumedNothing, Topo::kPair,
     false, false, false, false, /*abort_vote=*/true},
    {"pn_leaveout", "pn+leaveout", ProtocolKind::kPresumedNothing, Topo::kPair,
     false, false, false, false, false, /*leave_out=*/true},
    // Group-commit pipeline scenarios: same protocol flows, but forces ride
    // a WAL flush policy so the wal.* crash points (a flush in flight, a
    // submit from the group timer or a device completion) become reachable.
    {"pa_gc_timer", "pa+gc", ProtocolKind::kPresumedAbort, Topo::kPair,
     false, false, false, false, false, false,
     /*gc=*/true, wal::FlushPolicy::kCountTimer},
    {"basic_gc_pipe", "basic+gc", ProtocolKind::kBasic2PC, Topo::kPair,
     false, false, false, false, false, false,
     /*gc=*/true, wal::FlushPolicy::kFlushPipelining},
    {"pa_gc_pipe", "pa+gc", ProtocolKind::kPresumedAbort, Topo::kPair,
     false, false, false, false, false, false,
     /*gc=*/true, wal::FlushPolicy::kFlushPipelining},
    {"pa_gc_chain", "pa+gc", ProtocolKind::kPresumedAbort, Topo::kChain,
     false, false, false, false, false, false,
     /*gc=*/true, wal::FlushPolicy::kCountTimer, 1 * sim::kMillisecond},
    {"pn_gc_timer", "pn+gc", ProtocolKind::kPresumedNothing, Topo::kPair,
     false, false, false, false, false, false,
     /*gc=*/true, wal::FlushPolicy::kCountTimer, 1 * sim::kMillisecond},
    // Paxos Commit: the liveness oracle is strict here — a coordinator
    // crash must NOT block (in-doubt after full recovery is a violation,
    // never a `blocked` verdict), because any prepared participant can
    // finish the consensus against the surviving acceptor majority.
    {"paxos_flat", "paxos", ProtocolKind::kPaxosCommit, Topo::kPaxos},
    // F=0 degenerate: one acceptor, co-located at the coordinator. The
    // non-blocking property is traded away (the paper's point), but the
    // oracle still demands termination once the crashed node restarts —
    // the takeover queries the lone acceptor and finishes.
    {"paxos_f0", "paxos-f0", ProtocolKind::kPaxosCommit, Topo::kPaxosF0},
    {"paxos_abort", "paxos", ProtocolKind::kPaxosCommit, Topo::kPaxos,
     false, false, false, false, /*abort_vote=*/true},
    // One-phase family: no explicit Prepare — subordinates early-prepare
    // from a data-flow quiesce timer; the logless variant also skips the
    // subordinate's prepared force.
    {"onephase_pair", "1pc", ProtocolKind::kOnePhase, Topo::kPair},
    {"onephase_logless", "1pc-ll", ProtocolKind::kOnePhaseLogless,
     Topo::kPair},
};

const Spec* FindSpec(const std::string& name) {
  for (const Spec& s : kSpecs)
    if (name == s.name) return &s;
  return nullptr;
}

std::vector<std::string> SpecNodes(const Spec& spec) {
  switch (spec.topo) {
    case Topo::kPair: return {"c0", "s1"};
    case Topo::kChain: return {"c0", "m1", "s2"};
    case Topo::kStar: return {"c0", "s1", "r2"};
    case Topo::kPaxos: return {"c0", "s1", "a2"};
    case Topo::kPaxosF0: return {"c0", "s1"};
  }
  return {};
}

std::vector<std::pair<std::string, std::string>> SpecLinks(const Spec& spec) {
  switch (spec.topo) {
    case Topo::kPair: return {{"c0", "s1"}};
    case Topo::kChain: return {{"c0", "m1"}, {"m1", "s2"}};
    case Topo::kStar: return {{"c0", "s1"}, {"c0", "r2"}};
    // Full mesh: consensus traffic flows on every pair, so link loss and
    // flaps exercise the paxos paths too.
    case Topo::kPaxos: return {{"c0", "s1"}, {"c0", "a2"}, {"s1", "a2"}};
    case Topo::kPaxosF0: return {{"c0", "s1"}};
  }
  return {};
}

/// Drives the loop in 1s slices, restarting any crashed node
/// `recovery_delay` after its crash is observed.
struct Driver {
  Cluster& c;
  std::vector<std::string> nodes;
  sim::Time recovery_delay;
  std::map<std::string, bool> restart_pending;

  void Slice(sim::Time dt) {
    c.RunFor(dt);
    for (const std::string& n : nodes) {
      if (c.tm(n).IsUp() || restart_pending[n]) continue;
      restart_pending[n] = true;
      c.ctx().events().ScheduleAfter(recovery_delay, [this, n] {
        restart_pending[n] = false;
        if (!c.tm(n).IsUp()) c.node(n).Restart();
      });
    }
  }
  bool AllUp() const {
    for (const std::string& n : nodes)
      if (!c.tm(n).IsUp()) return false;
    return true;
  }
};

/// State projection of one node: every RM's live store (which includes the
/// writes of transactions still active or in doubt) plus its in-doubt flag
/// for `txn`. Recovery idempotency compares these strings.
std::string SnapshotNode(Cluster& c, const std::string& name, uint64_t txn) {
  std::string out;
  Node& node = c.node(name);
  for (size_t i = 0; i < node.rm_count(); ++i) {
    rm::KVResourceManager& r = node.rm(i);
    for (const auto& [k, v] : r.store()) {
      out += k;
      out += '=';
      out += v;
      out += ';';
    }
    out += r.InDoubt(txn) ? "|in-doubt#" : "|clear#";
  }
  return out;
}

}  // namespace

std::string TortureConfig::Repro() const {
  std::string out = StringPrintf("scenario=%s seed=%llu", scenario.c_str(),
                                 static_cast<unsigned long long>(seed));
  if (!crash_node.empty()) {
    StringAppendF(&out, " crash=%s@%s occ=%d epoch=%d", crash_node.c_str(),
                  crash_point.c_str(), occurrence, epoch);
    if (!crash2_point.empty())
      StringAppendF(&out, " crash2=%s", crash2_point.c_str());
  }
  StringAppendF(&out, " delay_ms=%lld",
                static_cast<long long>(recovery_delay / sim::kMillisecond));
  if (loss_rate > 0.0) StringAppendF(&out, " loss=%.3f", loss_rate);
  if (flap) out += " flap=1";
  return out;
}

bool ParseRepro(const std::string& line, TortureConfig* out) {
  *out = TortureConfig();
  out->scenario.clear();
  size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    size_t end = line.find(' ', pos);
    if (end == std::string::npos) end = line.size();
    const std::string token = line.substr(pos, end - pos);
    pos = end;
    if (token.empty()) continue;
    const size_t eq = token.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "scenario") {
      out->scenario = value;
    } else if (key == "seed") {
      out->seed = strtoull(value.c_str(), nullptr, 10);
    } else if (key == "crash") {
      const size_t at = value.find('@');
      if (at == std::string::npos) return false;
      out->crash_node = value.substr(0, at);
      out->crash_point = value.substr(at + 1);
    } else if (key == "occ") {
      out->occurrence = atoi(value.c_str());
    } else if (key == "epoch") {
      out->epoch = atoi(value.c_str());
    } else if (key == "crash2") {
      out->crash2_point = value;
    } else if (key == "delay_ms") {
      out->recovery_delay = strtoll(value.c_str(), nullptr, 10) *
                            sim::kMillisecond;
    } else if (key == "loss") {
      out->loss_rate = strtod(value.c_str(), nullptr);
    } else if (key == "flap") {
      out->flap = value != "0";
    } else {
      return false;
    }
  }
  return !out->scenario.empty();
}

const std::vector<TortureScenario>& TortureScenarios() {
  static const std::vector<TortureScenario>* scenarios = [] {
    auto* v = new std::vector<TortureScenario>();
    for (const Spec& s : kSpecs)
      v->push_back(TortureScenario{s.name, s.proto_label,
                                   SpecNodes(s)});
    return v;
  }();
  return *scenarios;
}

TortureResult RunTortureCell(const TortureConfig& config) {
  TortureResult result;
  const Spec* spec = FindSpec(config.scenario);
  if (spec == nullptr) {
    result.violations.push_back("unknown scenario [repro: " + config.Repro() +
                                "]");
    return result;
  }
  const std::string repro = config.Repro();
  auto violation = [&result, &repro](const std::string& what) {
    result.violations.push_back(what + " [repro: " + repro + "]");
  };

  // --- build the cluster ----------------------------------------------------
  Cluster c(config.seed);
  const std::vector<std::string> nodes = SpecNodes(*spec);
  const auto links = SpecLinks(*spec);

  NodeOptions base;
  base.tm.protocol = spec->protocol;
  base.tm.vote_timeout = 5 * sim::kSecond;
  base.tm.ack_timeout = 3 * sim::kSecond;
  base.tm.inquiry_delay = 4 * sim::kSecond;
  base.tm.recovery_retry_interval = 6 * sim::kSecond;
  if (spec->gc) {
    base.group_commit.enabled = true;
    base.group_commit.policy = spec->flush;
    base.group_commit.group_size = 8;
    base.group_commit.group_timeout = spec->group_timeout;
    // Depth 1 makes the single-txn workload exercise the submit-on-
    // completion path: the second force of a commit accumulates behind the
    // first and is submitted from the device completion (a wal.* window).
    base.group_commit.max_pipeline_depth = 1;
    base.log_queue_depth = 2;
  }
  if (tm::IsPaxos(spec->protocol)) {
    base.tm.acceptors = spec->topo == Topo::kPaxosF0
                            ? std::vector<std::string>{"c0"}
                            : std::vector<std::string>{"c0", "s1", "a2"};
  }
  for (const std::string& n : nodes) {
    NodeOptions options = base;
    if (n == "a2") options.num_rms = 0;  // acceptor-only machine
    if (n == "c0") {
      options.tm.last_agent_opt = spec->last_agent;
      if (spec->leave_out) {
        options.tm.leave_out_opt = true;
        options.tm.include_idle_sessions = true;
      }
    }
    if (n == "s1") {
      if (spec->heuristic) {
        options.tm.heuristic_policy = tm::HeuristicPolicy::kCommit;
        options.tm.heuristic_delay = 8 * sim::kSecond;
        options.tm.inquiry_delay = 12 * sim::kSecond;
      }
      if (spec->leave_out) {
        options.tm.ok_to_leave_out = true;
        options.rm_options.ok_to_leave_out = true;
      }
    }
    c.AddNode(n, options);
  }
  for (const auto& [a, b] : links) {
    tm::SessionOptions a_side;
    if (spec->last_agent && b == "s1") a_side.last_agent_candidate = true;
    c.Connect(a, b, a_side);
  }

  // Subordinate-side workload handlers.
  std::vector<std::pair<std::string, std::string>> writers;  // (node, key)
  writers.emplace_back("c0", "k_c0");
  auto add_writer = [&c, spec](const std::string& n) {
    c.tm(n).SetAppDataHandler(
        [&c, n, spec](uint64_t txn, const net::NodeId& from, std::string_view) {
          if (n == "m1" && from != "c0") return;
          c.tm(n).Write(txn, 0, "k_" + n, "v", [](Status) {});
          if (n == "m1") (void)c.tm(n).SendWork(txn, "s2");
          if (n == "s1" && spec->unsolicited) c.tm(n).UnsolicitedPrepare(txn);
        });
  };
  switch (spec->topo) {
    case Topo::kPair:
    case Topo::kPaxos:  // a2 holds no data; the work fans to s1 only
    case Topo::kPaxosF0:
      add_writer("s1");
      writers.emplace_back("s1", "k_s1");
      break;
    case Topo::kChain:
      add_writer("m1");
      add_writer("s2");
      writers.emplace_back("m1", "k_m1");
      writers.emplace_back("s2", "k_s2");
      break;
    case Topo::kStar:
      add_writer("s1");
      writers.emplace_back("s1", "k_s1");
      // r2: enrolled by SendWork but never writes — read-only vote.
      break;
  }

  if (config.after_build) config.after_build(c);

  // --- leave-out setup transaction (fault-free) -----------------------------
  if (spec->leave_out) {
    const uint64_t setup = c.tm("c0").Begin();
    c.tm("c0").Write(setup, 0, "setup_c0", "v", [](Status) {});
    (void)c.tm("c0").SendWork(setup, "s1");
    c.RunFor(sim::kSecond);
    DrivenCommit setup_result = c.CommitAndWait("c0", setup, 60 * sim::kSecond);
    if (!setup_result.completed) {
      violation("leave-out setup transaction did not complete");
      return result;
    }
    // txn 2 touches only the root; s1 (suspended, OK_TO_LEAVE_OUT) must be
    // excluded by the leave-out optimization.
  }

  // --- arm the fault schedule ----------------------------------------------
  sim::FailureInjector& failures = c.ctx().failures();
  if (!config.crash_node.empty()) {
    failures.ArmCrash(config.crash_node, config.crash_point, config.occurrence,
                      config.epoch);
    if (!config.crash2_point.empty())
      failures.ArmCrash(config.crash_node, config.crash2_point, 1, /*epoch=*/1);
  }
  if (config.loss_rate > 0.0) {
    for (const auto& [a, b] : links)
      c.network().SetLinkLossRate(a, b, config.loss_rate);
  }

  // --- the audited transaction ---------------------------------------------
  const uint64_t txn = c.tm("c0").Begin();
  c.tm("c0").Write(txn, 0, spec->leave_out ? "k2_c0" : "k_c0", "v",
                   [](Status) {});
  if (spec->leave_out) {
    writers.clear();
    writers.emplace_back("c0", "k2_c0");
  } else {
    switch (spec->topo) {
      case Topo::kPair:
      case Topo::kPaxos:
      case Topo::kPaxosF0:
        (void)c.tm("c0").SendWork(txn, "s1");
        break;
      case Topo::kChain:
        (void)c.tm("c0").SendWork(txn, "m1");
        break;
      case Topo::kStar:
        (void)c.tm("c0").SendWork(txn, "s1");
        (void)c.tm("c0").SendWork(txn, "r2");
        break;
    }
  }
  if (spec->abort_vote) c.node("s1").rm().FailNextPrepare();
  c.RunFor(sim::kSecond);

  Driver driver{c, nodes, config.recovery_delay, {}};
  auto commit = c.StartCommit("c0", txn);
  if (spec->gc) {
    // Background local commits on every node, overlapping the audited
    // transaction's commit window: concurrent force requests are what makes
    // the pipelined and group-timer submit paths (and their crash windows)
    // reachable — a single transaction's forces never queue behind each
    // other on one node. Keys are disjoint from the audited writers'.
    for (const std::string& n : nodes) {
      for (int i = 0; i < 3; ++i) {
        // Each event issues two back-to-back commits: whatever the protocol
        // timing, the second force lands while the first flush is still in
        // flight on the 2ms device.
        c.ctx().events().ScheduleAfter((2 + 3 * i) * sim::kMillisecond,
                                       [&c, n, i] {
          for (int j = 0; j < 2; ++j) {
            // Re-check per iteration: Commit below can synchronously hit a
            // TM/RM crash point and take the node down mid-loop.
            if (!c.tm(n).IsUp()) return;
            const uint64_t bg = c.tm(n).Begin();
            c.tm(n).Write(bg, 0,
                          StringPrintf("bg_%s_%d_%d", n.c_str(), i, j), "v",
                          [](Status) {});
            c.tm(n).Commit(bg, [](tm::CommitResult) {});
          }
        });
      }
    }
  }
  if (config.flap) {
    const auto& [a, b] = links.front();
    failures.ScheduleLinkFlap(a, b, c.ctx().now() + 3 * sim::kMillisecond,
                              c.ctx().now() + 9 * sim::kSecond);
  }

  // --- drive to quiescence --------------------------------------------------
  int settle = -1;
  for (int i = 0; i < 90; ++i) {
    driver.Slice(sim::kSecond);
    if (i == 30) {
      // Session-break pass: a participant still *active* this deep in has
      // lost its conversation (the work source crashed before ever sending
      // Prepare). LU 6.2 surfaces that as a session failure; the TM aborts.
      for (const std::string& n : nodes) {
        if (!c.tm(n).IsUp()) continue;
        if (c.tm(n).View(txn).outcome == tm::Outcome::kActive)
          c.tm(n).AbortTxn(txn);
      }
    }
    if (settle < 0 && i > 31 && commit->completed && driver.AllUp() &&
        !driver.restart_pending["c0"]) {
      settle = i;
    }
    if (settle >= 0 && i >= settle + 10) break;
  }

  // Record what fired before the oracle's own crash/restart rounds.
  if (!config.crash_node.empty()) {
    const int epochs = failures.node_epoch(config.crash_node);
    const int expected =
        config.epoch == sim::FailureInjector::kAnyEpoch ? 1 : config.epoch + 1;
    result.crash_fired = epochs >= expected;
    result.crash2_fired = !config.crash2_point.empty() && epochs >= 2;
  }

  // --- oracle ---------------------------------------------------------------
  // Quiesce the fault model before judging: transient faults end, and the
  // oracle asks what state the system converges to afterwards. Leaving loss
  // active would make the idempotency rounds probabilistic (each round draws
  // fresh loss decisions for its recovery traffic), turning lucky/unlucky
  // drops into false "recovery diverged" verdicts.
  failures.DisarmAll();
  if (config.loss_rate > 0.0 || config.flap) {
    for (const auto& [a, b] : links) {
      c.network().SetLinkLossRate(a, b, 0.0);
      c.network().SetLinkDown(a, b, false);
    }
    // Two recovery-retry intervals over the now-reliable links, so inquiries
    // and decisions that kept getting dropped can finally land.
    for (int i = 0; i < 15; ++i) driver.Slice(sim::kSecond);
  }
  for (int i = 0; i < 10 && !driver.AllUp(); ++i) driver.Slice(sim::kSecond);
  if (!driver.AllUp()) {
    violation("node never restarted");
    return result;
  }
  if (config.before_oracle) config.before_oracle(c);

  const TxnAudit audit = c.Audit(txn);
  result.committed = tm::CommittedEffects(c.tm("c0").View(txn).outcome);

  if (audit.any_in_doubt) {
    // The only legitimate permanent in-doubt: basic 2PC lost a coordinator
    // (root, or a cascaded relay) before its subtree's decision was durable.
    // With no record the recovered coordinator must answer inquiries
    // "unknown" — no-record could equally mean committed-and-truncated — so
    // its subordinates block: the weakness the presumption protocols were
    // invented to remove.
    const bool crashed_coordinator =
        config.crash_node == "c0" ||
        (spec->topo == Topo::kChain && config.crash_node == "m1");
    if (spec->protocol == ProtocolKind::kBasic2PC && crashed_coordinator &&
        result.crash_fired) {
      result.blocked = true;
    } else {
      violation("participant left in doubt after full recovery");
    }
  }

  if (audit.damage_ground_truth) {
    size_t reported = 0;
    c.ctx().trace().ForEach(
        [](const sim::TraceEntry& e) {
          return e.kind == sim::TraceKind::kHeuristic &&
                 e.detail.find("damage") != std::string::npos;
        },
        [&reported](const sim::TraceEntry&) { ++reported; });
    if (reported == 0)
      violation("heuristic damage occurred but was never reported");
  } else if (!audit.consistent && !audit.any_in_doubt) {
    violation("participants diverged without heuristic damage");
  }

  // Data effects must match each node's recorded outcome. A writer that
  // kept no record of the transaction (kUnknown) is judged against the
  // decision owner's: losing the record must not lose the effect.
  if (!audit.any_in_doubt) {
    const tm::Outcome decision = c.tm("c0").View(txn).outcome;
    for (const auto& [n, key] : writers) {
      tm::Outcome o = c.tm(n).View(txn).outcome;
      std::string basis = "recorded";
      if (o == tm::Outcome::kUnknown) {
        o = decision;
        basis = "forgot a decided";
      }
      const Result<std::string> value = c.node(n).rm().Peek(key);
      if (tm::CommittedEffects(o)) {
        if (!value.ok() || value.value() != "v")
          violation("node " + n + " " + basis + " commit but lost " + key);
      } else if (o == tm::Outcome::kAborted ||
                 o == tm::Outcome::kHeuristicAborted) {
        if (value.ok())
          violation("node " + n + " " + basis + " abort but kept " + key);
      }
    }
    for (const std::string& n : nodes) {
      Node& node = c.node(n);
      for (size_t i = 0; i < node.rm_count(); ++i) {
        if (node.rm(i).locks().HeldLockCount() != 0)
          violation("node " + n + " leaked locks after resolution");
      }
    }
  }

  // Accounting: the trace and the network counters describe one reality.
  {
    const net::NetworkStats& stats = c.network().stats();
    const size_t sends = c.ctx().trace().Count(sim::TraceKind::kSend);
    const size_t recvs = c.ctx().trace().Count(sim::TraceKind::kReceive);
    if (sends != stats.messages_sent)
      violation(StringPrintf("trace records %zu sends, network counted %llu",
                             sends,
                             static_cast<unsigned long long>(
                                 stats.messages_sent)));
    if (recvs != stats.messages_delivered)
      violation(StringPrintf(
          "trace records %zu deliveries, network counted %llu", recvs,
          static_cast<unsigned long long>(stats.messages_delivered)));
    if (stats.messages_delivered + stats.messages_dropped >
        stats.messages_sent)
      violation("delivered + dropped exceeds accepted sends");
  }

  // Recovery idempotency: crash+restart everything at quiescence, twice.
  // Round 2 must reproduce round 1's durable-state projection exactly; and
  // if nothing was left in doubt, the projection must match the pre-crash
  // state (no committed effect may depend on volatile state).
  auto snapshot_all = [&c, &nodes, txn] {
    std::string s;
    for (const std::string& n : nodes) s += SnapshotNode(c, n, txn);
    return s;
  };
  const std::string snap1 = snapshot_all();
  std::string snaps[2];
  for (int round = 1; round <= 2; ++round) {
    for (const std::string& n : nodes)
      if (c.tm(n).IsUp()) failures.CrashNow(n);
    for (const std::string& n : nodes)
      if (!c.tm(n).IsUp()) failures.RestartNow(n);
    for (int i = 0; i < 20; ++i) driver.Slice(sim::kSecond);
    if (!driver.AllUp()) {
      violation("node never came back during idempotency pass");
      return result;
    }
    if (config.on_idempotency_round) config.on_idempotency_round(c, round);
    snaps[round - 1] = snapshot_all();
  }
  if (snaps[0] != snaps[1])
    violation("recovery is not idempotent: second restart diverged");
  if (!audit.any_in_doubt && snap1 != snaps[0])
    violation("restart at quiescence changed durable state");

  // --- reached-point inventory ---------------------------------------------
  for (const std::string& n : nodes) {
    for (size_t i = 0; i < tm::kCrashPointCount; ++i) {
      const uint64_t h = failures.hits(n, tm::kCrashPointNames[i]);
      if (h > 0) result.reached.push_back({n, tm::kCrashPointNames[i], h});
    }
    for (size_t i = 0; i < tm::kRmCrashPointCount; ++i) {
      const uint64_t h = failures.hits(n, tm::kRmCrashPoints[i]);
      if (h > 0) result.reached.push_back({n, tm::kRmCrashPoints[i], h});
    }
    for (size_t i = 0; i < wal::kWalCrashPointCount; ++i) {
      const uint64_t h = failures.hits(n, wal::kWalCrashPoints[i]);
      if (h > 0) result.reached.push_back({n, wal::kWalCrashPoints[i], h});
    }
  }
  return result;
}

}  // namespace tpc::harness
