// Crash-recovery torture campaign (harness/torture.h).
//
// The campaign discovers its own matrix: a fault-free probe of each scenario
// records which (node, crash point) pairs execution reaches; one cell is run
// per pair; cells reach *new* points (recovery resends, inquiries, heuristic
// paths only exist after a crash), which become new cells, until a fixed
// point. On top of that: second-occurrence cells, double-failure schedules,
// lossy links, and link flaps. Every cell must satisfy the oracle.
//
// Environment knobs:
//   TORTURE_LEVEL=smoke   bounded deterministic slice (CI smoke job)
//   TORTURE_REPRO=<line>  replay one cell from a printed repro line
//
// The TortureOracle tests sabotage healthy cells through the fixture hooks
// to prove each oracle failure mode actually fires.

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "harness/torture.h"
#include "lock/lock_manager.h"
#include "sim/trace.h"

namespace tpc::harness {
namespace {

std::string Level() {
  const char* env = std::getenv("TORTURE_LEVEL");
  return env == nullptr ? "full" : env;
}

TortureConfig BaseConfig(const std::string& scenario) {
  TortureConfig cfg;
  cfg.scenario = scenario;
  cfg.seed = 1;
  // The heuristic scenario needs the decision owner to stay down past
  // s1's heuristic_delay (8s), or the heuristic never fires.
  if (scenario == "pa_heur") cfg.recovery_delay = 20 * sim::kSecond;
  return cfg;
}

bool AnyViolationContains(const TortureResult& r, const std::string& needle) {
  return std::any_of(r.violations.begin(), r.violations.end(),
                     [&needle](const std::string& v) {
                       return v.find(needle) != std::string::npos;
                     });
}

// --- the campaign -----------------------------------------------------------

TEST(TortureCampaign, FullCrashPointMatrix) {
  const bool smoke = Level() == "smoke";
  std::set<std::string> smoke_scenarios = {
      "basic_pair", "pa_pair", "pa_la_ro", "pn_pair",
      "pa_gc_pipe", "pn_gc_timer", "paxos_flat", "paxos_f0",
      "onephase_pair", "onephase_logless"};

  std::set<std::string> fired_points;     // distinct point names that fired
  std::set<std::string> fired_protocols;  // protocol configs they fired under
  size_t cells = 0;
  size_t fired_cells = 0;
  size_t blocked_cells = 0;

  for (const TortureScenario& sc : TortureScenarios()) {
    if (smoke && smoke_scenarios.count(sc.name) == 0) continue;

    std::set<std::pair<std::string, std::string>> seen;
    std::map<std::pair<std::string, std::string>, uint64_t> max_hits;
    std::deque<std::pair<std::string, std::string>> queue;
    auto absorb = [&](const TortureResult& r) {
      for (const std::string& v : r.violations) ADD_FAILURE() << v;
      for (const ReachedPoint& p : r.reached) {
        auto key = std::make_pair(p.node, p.point);
        uint64_t& h = max_hits[key];
        if (p.hits > h) h = p.hits;
        if (seen.insert(key).second) queue.push_back(key);
      }
    };

    absorb(RunTortureCell(BaseConfig(sc.name)));  // fault-free probe
    ++cells;

    size_t budget = smoke ? 12 : 10'000;  // smoke: bounded slice
    while (!queue.empty() && budget > 0) {
      auto [node, point] = queue.front();
      queue.pop_front();
      --budget;
      TortureConfig cfg = BaseConfig(sc.name);
      cfg.crash_node = node;
      cfg.crash_point = point;
      const TortureResult res = RunTortureCell(cfg);
      ++cells;
      if (res.crash_fired) {
        ++fired_cells;
        fired_points.insert(point);
        fired_protocols.insert(sc.protocol);
      }
      if (res.blocked) ++blocked_cells;
      absorb(res);
    }

    // Second-occurrence cells: points execution reaches at least twice
    // (vote resends, retries) crash on the second hit instead.
    if (!smoke) {
      size_t occ2 = 0;
      for (const auto& [key, hits] : max_hits) {
        if (hits < 2 || occ2 >= 8) continue;
        ++occ2;
        TortureConfig cfg = BaseConfig(sc.name);
        cfg.crash_node = key.first;
        cfg.crash_point = key.second;
        cfg.occurrence = 2;
        const TortureResult res = RunTortureCell(cfg);
        ++cells;
        if (res.crash_fired) {
          ++fired_cells;
          fired_points.insert(key.second);
          fired_protocols.insert(sc.protocol);
        }
        if (res.blocked) ++blocked_cells;
        for (const std::string& v : res.violations) ADD_FAILURE() << v;
      }
    }
  }

  std::cerr << "[torture] " << cells << " cells, " << fired_cells
            << " crashes fired, " << fired_points.size()
            << " distinct crash points, " << fired_protocols.size()
            << " protocol configs, " << blocked_cells
            << " legitimate basic-2PC blocks\n";
  if (!smoke) {
    EXPECT_GE(fired_points.size(), 40u);
    EXPECT_GE(fired_protocols.size(), 4u);
    EXPECT_GT(blocked_cells, 0u)
        << "basic-2PC coordinator crashes should exhibit blocking";
  } else {
    EXPECT_GE(fired_points.size(), 10u);
  }
}

// Targeted cells for the group-commit pipeline's own crash windows: a node
// dying just before or just after it hands a flush to the device, under
// count+timer (pair and chain, PA and PN) and pipelining. Each must fire
// and satisfy the oracle — in particular invariant 1: no commit ack can
// have run unless its covering device write completed (the covering-LSN
// TPC_CHECK aborts the process otherwise, so a violation cannot even reach
// the oracle silently).
TEST(TortureCampaign, GroupCommitPipelineWindows) {
  struct Cell {
    const char* scenario;
    const char* node;
    const char* point;
  };
  const Cell kCells[] = {
      {"pa_gc_timer", "c0", "wal.before_flush_submit"},
      {"pa_gc_timer", "c0", "wal.after_flush_submit"},
      {"basic_gc_pipe", "c0", "wal.after_flush_submit"},
      {"pa_gc_pipe", "c0", "wal.before_flush_submit"},
      {"pa_gc_pipe", "s1", "wal.after_flush_submit"},
      {"pa_gc_chain", "c0", "wal.before_flush_submit"},
      {"pa_gc_chain", "m1", "wal.before_flush_submit"},
      {"pa_gc_chain", "s2", "wal.after_flush_submit"},
      {"pn_gc_timer", "s1", "wal.after_flush_submit"},
      {"pn_gc_timer", "c0", "wal.before_flush_submit"},
  };
  for (const Cell& cell : kCells) {
    TortureConfig cfg = BaseConfig(cell.scenario);
    cfg.crash_node = cell.node;
    cfg.crash_point = cell.point;
    const TortureResult res = RunTortureCell(cfg);
    EXPECT_TRUE(res.crash_fired) << cfg.Repro();
    for (const std::string& v : res.violations) ADD_FAILURE() << v;
  }
}

// The tentpole claim, asserted head-to-head: in the window where basic 2PC
// demonstrably blocks (coordinator crash after the votes are in but before
// its decision is durable), Paxos Commit terminates — the prepared
// subordinate takes the consensus over against the surviving acceptor
// majority. The coordinator is itself one of the 2F+1 acceptors, so its
// crash already is an F=1 acceptor failure.
TEST(TortureCampaign, PaxosTerminatesWhereBasicBlocks) {
  TortureConfig basic = BaseConfig("basic_pair");
  basic.crash_node = "c0";
  basic.crash_point = "root.before_commit_force";
  const TortureResult b = RunTortureCell(basic);
  EXPECT_TRUE(b.crash_fired);
  EXPECT_TRUE(b.blocked) << "basic 2PC should block in this window";
  EXPECT_TRUE(b.ok()) << b.violations.front();

  TortureConfig paxos = BaseConfig("paxos_flat");
  paxos.crash_node = "c0";
  paxos.crash_point = "root.after_paxos_vote_send";
  const TortureResult p = RunTortureCell(paxos);
  EXPECT_TRUE(p.crash_fired);
  EXPECT_FALSE(p.blocked) << "Paxos Commit must not block";
  EXPECT_TRUE(p.committed)
      << "every instance was Prepared; the takeover must finish with commit";
  EXPECT_TRUE(p.ok()) << p.violations.front();
}

// Coordinator crash at every decision-adjacent crash point it reaches: the
// cell must terminate (any participant still in doubt after full recovery is
// an oracle violation for paxos — there is no `blocked` escape hatch).
TEST(TortureCampaign, PaxosCoordinatorCrashMatrix) {
  // The co-located/bundled optimization retired the coordinator's singleton
  // acceptor forces: its ballot-0 self-accept rides the prepared force
  // (root.*_vote_accept_force) and its local 2b delivery has no force of
  // its own — the acceptor.*_bundle_* windows now live on s1/a2 (see
  // PaxosCombinedForceCrashMatrix).
  const char* kPoints[] = {
      "root.after_prepare_send",       "root.after_paxos_vote_send",
      "root.before_vote_accept_force", "root.after_vote_accept_force",
      "root.before_commit_force",      "root.after_commit_force",
      "root.after_decision_send",      "takeover.after_query_send",
      "takeover.after_proposal_send",
  };
  size_t fired = 0;
  for (const char* point : kPoints) {
    TortureConfig cfg = BaseConfig("paxos_flat");
    cfg.crash_node = "c0";
    cfg.crash_point = point;
    const TortureResult res = RunTortureCell(cfg);
    if (res.crash_fired) ++fired;
    EXPECT_FALSE(res.blocked) << cfg.Repro();
    for (const std::string& v : res.violations) ADD_FAILURE() << v;
  }
  EXPECT_GE(fired, 7u) << "most decision-adjacent points should be reachable";
}

// The optimization-specific crash windows, every cell against the strict
// paxos oracle (termination, consistency, idempotent recovery):
//   - between the combined vote+accept force and the ballot-0 2a fan-out
//     (the window the co-located piggyback created: vote AND acceptance are
//     durable together, but nobody else has heard either), and
//   - around a cohort acceptor's covering bundle force / bundled 2b send.
TEST(TortureCampaign, PaxosCombinedForceCrashMatrix) {
  const std::pair<const char*, const char*> kCells[] = {
      {"c0", "root.before_vote_accept_force"},
      {"c0", "root.after_vote_accept_force"},
      {"s1", "sub.before_vote_accept_force"},
      {"s1", "sub.after_vote_accept_force"},
      {"s1", "acceptor.before_bundle_force"},
      {"s1", "acceptor.after_bundle_force"},
      {"s1", "acceptor.after_bundle_send"},
      {"a2", "acceptor.before_bundle_force"},
      {"a2", "acceptor.after_bundle_force"},
      {"a2", "acceptor.after_bundle_send"},
  };
  size_t fired = 0;
  for (const auto& [node, point] : kCells) {
    TortureConfig cfg = BaseConfig("paxos_flat");
    cfg.crash_node = node;
    cfg.crash_point = point;
    const TortureResult res = RunTortureCell(cfg);
    if (res.crash_fired) ++fired;
    EXPECT_FALSE(res.blocked) << cfg.Repro();
    for (const std::string& v : res.violations) ADD_FAILURE() << v;
  }
  EXPECT_GE(fired, 8u) << "the combined-force windows must be reachable";

  // F=0 degenerate: the lone co-located acceptor's crash is a total outage;
  // termination is still required once it restarts (takeover-on-recovery).
  for (const char* point :
       {"root.after_vote_accept_force", "root.before_commit_force",
        "sub.after_prepared_force"}) {
    TortureConfig cfg = BaseConfig("paxos_f0");
    cfg.crash_node = point[0] == 's' ? "s1" : "c0";
    cfg.crash_point = point;
    const TortureResult res = RunTortureCell(cfg);
    EXPECT_TRUE(res.crash_fired) << cfg.Repro();
    EXPECT_FALSE(res.blocked) << cfg.Repro();
    for (const std::string& v : res.violations) ADD_FAILURE() << v;
  }
}

// Coordinator crash plus a second, distinct acceptor down in the same
// window: 2 of the 2F+1 acceptors are gone, so the consensus stalls with no
// majority — until the driver restarts them, after which the takeover's
// retry completes it. Termination, not blocking, is still required.
TEST(TortureCampaign, PaxosCoordinatorPlusAcceptorCrash) {
  TortureConfig cfg = BaseConfig("paxos_flat");
  cfg.crash_node = "c0";
  cfg.crash_point = "root.after_paxos_vote_send";
  cfg.after_build = [](Cluster& c) {
    // The commit starts at t=1s; the root's 2a fan-out (and its armed
    // crash) happens within the first few milliseconds after that.
    c.ctx().events().ScheduleAt(1002 * sim::kMillisecond, [&c] {
      if (c.tm("a2").IsUp()) c.ctx().failures().CrashNow("a2");
    });
  };
  const TortureResult res = RunTortureCell(cfg);
  EXPECT_TRUE(res.crash_fired);
  EXPECT_FALSE(res.blocked);
  for (const std::string& v : res.violations) ADD_FAILURE() << v;
}

TEST(TortureCampaign, DoubleFailureSchedules) {
  struct Cell {
    const char* scenario;
    const char* node;
    const char* point;
    const char* point2;  // armed for the node's post-recovery epoch
  };
  const Cell kCells[] = {
      // Subordinate dies after voting, then again right after its
      // post-recovery inquiry goes out.
      {"pa_pair", "s1", "sub.after_prepared_force", "sub.after_inquiry_send"},
      {"basic_pair", "s1", "sub.after_prepared_force",
       "sub.after_inquiry_send"},
      // Coordinator dies after the commit force, then again while recovery
      // re-drives the decision to unacked subordinates.
      {"pa_chain", "c0", "root.after_commit_force",
       "recovery.after_decision_send"},
      {"pn_pair", "c0", "root.after_commit_force",
       "recovery.after_decision_send"},
      // Cascaded coordinator: vote, die, inquire, die again.
      {"pa_chain", "m1", "casc.after_prepared_force", "sub.after_inquiry_send"},
      // Paxos root: vote, die, recover in doubt (prepared root record),
      // immediately re-run the takeover — and die again right after the 1a
      // queries go out. The twice-restarted root must still converge with
      // the cohort.
      {"paxos_flat", "c0", "root.after_paxos_vote_send",
       "takeover.after_query_send"},
  };
  for (const Cell& cell : kCells) {
    TortureConfig cfg = BaseConfig(cell.scenario);
    cfg.crash_node = cell.node;
    cfg.crash_point = cell.point;
    cfg.crash2_point = cell.point2;
    const TortureResult res = RunTortureCell(cfg);
    EXPECT_TRUE(res.crash_fired) << cfg.Repro();
    EXPECT_TRUE(res.crash2_fired) << cfg.Repro();
    for (const std::string& v : res.violations) ADD_FAILURE() << v;
  }
}

TEST(TortureCampaign, LossyLinks) {
  const bool smoke = Level() == "smoke";
  const std::vector<std::string> scenarios =
      smoke ? std::vector<std::string>{"pa_pair"}
            : std::vector<std::string>{"basic_pair", "pa_chain", "pn_pair",
                                       "pa_la_ro"};
  for (const std::string& sc : scenarios) {
    for (uint64_t seed : {1ull, 7ull, 23ull}) {
      TortureConfig cfg = BaseConfig(sc);
      cfg.seed = seed;
      cfg.loss_rate = 0.25;
      const TortureResult res = RunTortureCell(cfg);
      for (const std::string& v : res.violations) ADD_FAILURE() << v;
    }
  }
  // Loss layered on a crash: the retry machinery must still converge.
  TortureConfig cfg = BaseConfig("pa_pair");
  cfg.loss_rate = 0.25;
  cfg.crash_node = "s1";
  cfg.crash_point = "sub.after_prepared_force";
  const TortureResult res = RunTortureCell(cfg);
  for (const std::string& v : res.violations) ADD_FAILURE() << v;

  // Regression: loss layered on a cascaded-coordinator crash. This exact
  // cell once tripped the idempotency invariant because the oracle left the
  // 25% loss active through its own restart rounds, so each round's recovery
  // traffic drew different drop decisions and the two durable-state
  // snapshots diverged. The oracle now quiesces the fault model first.
  TortureConfig regress;
  ASSERT_TRUE(ParseRepro(
      "scenario=pa_chain seed=7 crash=m1@casc.after_prepared_force occ=1 "
      "delay_ms=2000 loss=0.250",
      &regress));
  const TortureResult r2 = RunTortureCell(regress);
  EXPECT_TRUE(r2.crash_fired);
  for (const std::string& v : r2.violations) ADD_FAILURE() << v;
}

// Regression: a logless one-phase subordinate that dies after its YES (vote
// sent, or commit decision received but not yet forced) used to recover
// with no TM record, presume abort for its prepared RM work and lose k_s1
// while the coordinator committed. Its prepared record now rides the RM's
// prepared force, so it recovers in doubt and learns the commit.
TEST(TortureCampaign, LoglessSubordinateKeepsItsCommittedWrite) {
  for (const char* line :
       {"scenario=onephase_logless seed=1 "
        "crash=s1@sub.after_unsolicited_vote_send occ=1 delay_ms=2000",
        "scenario=onephase_logless seed=1 "
        "crash=s1@sub.before_commit_force occ=1 delay_ms=2000"}) {
    TortureConfig cfg;
    ASSERT_TRUE(ParseRepro(line, &cfg)) << line;
    const TortureResult res = RunTortureCell(cfg);
    EXPECT_TRUE(res.crash_fired) << line;
    EXPECT_TRUE(res.committed) << line;
    for (const std::string& v : res.violations) ADD_FAILURE() << v;
  }
}

TEST(TortureCampaign, LinkFlaps) {
  for (const char* sc : {"pa_pair", "pn_chain", "basic_pair"}) {
    TortureConfig cfg = BaseConfig(sc);
    cfg.flap = true;
    const TortureResult res = RunTortureCell(cfg);
    for (const std::string& v : res.violations) ADD_FAILURE() << v;
  }
  // Flap across a subordinate crash window.
  TortureConfig cfg = BaseConfig("pa_pair");
  cfg.flap = true;
  cfg.crash_node = "s1";
  cfg.crash_point = "sub.after_prepared_force";
  cfg.recovery_delay = 4 * sim::kSecond;
  const TortureResult res = RunTortureCell(cfg);
  for (const std::string& v : res.violations) ADD_FAILURE() << v;
}

TEST(TortureCampaign, CellsAreDeterministic) {
  TortureConfig cfg = BaseConfig("pa_chain");
  cfg.crash_node = "m1";
  cfg.crash_point = "casc.after_prepared_force";
  cfg.loss_rate = 0.25;
  const TortureResult a = RunTortureCell(cfg);
  const TortureResult b = RunTortureCell(cfg);
  EXPECT_EQ(a.crash_fired, b.crash_fired);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.violations, b.violations);
  ASSERT_EQ(a.reached.size(), b.reached.size());
  for (size_t i = 0; i < a.reached.size(); ++i) {
    EXPECT_EQ(a.reached[i].node, b.reached[i].node);
    EXPECT_EQ(a.reached[i].point, b.reached[i].point);
    EXPECT_EQ(a.reached[i].hits, b.reached[i].hits);
  }
}

// --- repro lines ------------------------------------------------------------

TEST(TortureRepro, RoundTrips) {
  TortureConfig cfg;
  cfg.scenario = "pn_chain";
  cfg.seed = 99;
  cfg.crash_node = "m1";
  cfg.crash_point = "casc.after_yes_vote_send";
  cfg.occurrence = 2;
  cfg.epoch = 1;
  cfg.crash2_point = "sub.after_inquiry_send";
  cfg.recovery_delay = 4500 * sim::kMillisecond;
  cfg.loss_rate = 0.125;
  cfg.flap = true;

  TortureConfig parsed;
  ASSERT_TRUE(ParseRepro(cfg.Repro(), &parsed));
  EXPECT_EQ(parsed.scenario, cfg.scenario);
  EXPECT_EQ(parsed.seed, cfg.seed);
  EXPECT_EQ(parsed.crash_node, cfg.crash_node);
  EXPECT_EQ(parsed.crash_point, cfg.crash_point);
  EXPECT_EQ(parsed.occurrence, cfg.occurrence);
  EXPECT_EQ(parsed.epoch, cfg.epoch);
  EXPECT_EQ(parsed.crash2_point, cfg.crash2_point);
  EXPECT_EQ(parsed.recovery_delay, cfg.recovery_delay);
  EXPECT_DOUBLE_EQ(parsed.loss_rate, cfg.loss_rate);
  EXPECT_EQ(parsed.flap, cfg.flap);

  // Fault-free config: the crash fields stay out of the line entirely.
  TortureConfig plain;
  EXPECT_EQ(plain.Repro(), "scenario=pa_pair seed=1 delay_ms=2000");
  ASSERT_TRUE(ParseRepro(plain.Repro(), &parsed));
  EXPECT_TRUE(parsed.crash_node.empty());
}

TEST(TortureRepro, RejectsMalformedLines) {
  TortureConfig cfg;
  EXPECT_FALSE(ParseRepro("", &cfg));
  EXPECT_FALSE(ParseRepro("seed=1", &cfg));  // no scenario
  EXPECT_FALSE(ParseRepro("scenario=pa_pair bogus", &cfg));
  EXPECT_FALSE(ParseRepro("scenario=pa_pair crash=no_at_sign", &cfg));
  EXPECT_FALSE(ParseRepro("scenario=pa_pair unknown=1", &cfg));
}

TEST(TortureRepro, EnvReplay) {
  const char* line = std::getenv("TORTURE_REPRO");
  if (line == nullptr) GTEST_SKIP() << "TORTURE_REPRO not set";
  TortureConfig cfg;
  ASSERT_TRUE(ParseRepro(line, &cfg)) << "malformed TORTURE_REPRO: " << line;
  const TortureResult res = RunTortureCell(cfg);
  for (const std::string& v : res.violations) ADD_FAILURE() << v;
  std::cerr << "[torture] replayed: " << cfg.Repro()
            << " crash_fired=" << res.crash_fired
            << " committed=" << res.committed << " blocked=" << res.blocked
            << "\n";
}

// --- broken fixtures: every oracle failure mode must actually fire ----------

// A healthy reference cell: PA pair, subordinate dies after voting.
TortureConfig HealthyCrashCell() {
  TortureConfig cfg = BaseConfig("pa_pair");
  cfg.crash_node = "s1";
  cfg.crash_point = "sub.after_prepared_force";
  return cfg;
}

TEST(TortureOracle, HealthyCellPasses) {
  const TortureResult res = RunTortureCell(HealthyCrashCell());
  EXPECT_TRUE(res.crash_fired);
  EXPECT_TRUE(res.ok()) << res.violations.front();
}

TEST(TortureOracle, CatchesUnresolvedInDoubt) {
  // Cut the only link permanently just after the workload spreads: the
  // crashed subordinate restarts in doubt and its inquiries fall into the
  // void forever. PA must not block — the oracle flags it.
  TortureConfig cfg = HealthyCrashCell();
  cfg.after_build = [](Cluster& c) {
    c.ctx().events().ScheduleAt(1400 * sim::kMillisecond, [&c] {
      c.network().SetLinkDown("c0", "s1", true);
    });
  };
  const TortureResult res = RunTortureCell(cfg);
  EXPECT_TRUE(AnyViolationContains(res, "in doubt"))
      << "oracle missed a permanently in-doubt participant";
}

TEST(TortureOracle, CatchesUnreportedHeuristicDamage) {
  // No crash: the link flap isolates s1 past its heuristic delay, so s1
  // heuristically commits while the coordinator (which stays up and
  // remembers) times out and aborts — ground-truth damage on both sides.
  TortureConfig cfg = BaseConfig("pa_heur");
  cfg.flap = true;

  // Sanity: the un-sabotaged cell produces damage and reports it.
  const TortureResult clean = RunTortureCell(cfg);
  EXPECT_TRUE(clean.ok()) << clean.violations.front();

  // Erase the trace before the oracle looks: damage still happened (store
  // ground truth) but no report exists.
  cfg.before_oracle = [](Cluster& c) { c.ctx().trace().Clear(); };
  const TortureResult res = RunTortureCell(cfg);
  EXPECT_TRUE(AnyViolationContains(res, "never reported"))
      << "oracle missed unreported heuristic damage";
}

TEST(TortureOracle, CatchesLostCommittedEffect) {
  // Overwrite a committed key behind the protocol's back at quiescence.
  TortureConfig cfg = BaseConfig("pa_pair");
  cfg.before_oracle = [](Cluster& c) {
    tm::TransactionManager& tm = c.tm("s1");
    const uint64_t t = tm.Begin();
    tm.Write(t, 0, "k_s1", "corrupted", [](Status) {});
    c.RunFor(100 * sim::kMillisecond);
    c.CommitAndWait("s1", t);
  };
  const TortureResult res = RunTortureCell(cfg);
  EXPECT_TRUE(AnyViolationContains(res, "k_s1"))
      << "oracle missed a lost committed effect";
}

TEST(TortureOracle, CatchesLostEffectOfAForgottenWriter) {
  // s1 votes YES and dies with its disk: recovery finds no record at all,
  // the coordinator's redriven commit is acknowledged from nothing, and
  // k_s1 is gone. s1 has no outcome of its own to be judged by, so only
  // the decision owner's committed verdict exposes the lost write.
  TortureConfig cfg = BaseConfig("pa_pair");
  cfg.crash_node = "s1";
  cfg.crash_point = "sub.after_yes_vote_send";
  cfg.after_build = [](Cluster& c) {
    Node* s1 = &c.node("s1");
    c.ctx().failures().RegisterNode(
        "s1",
        [s1] {
          s1->Crash();
          s1->log().DiscardPrefix(s1->log().durable_lsn());
        },
        [s1] { s1->Restart(); });
  };
  const TortureResult res = RunTortureCell(cfg);
  EXPECT_TRUE(res.crash_fired);
  EXPECT_TRUE(res.committed);
  EXPECT_TRUE(AnyViolationContains(res, "lost k_s1"))
      << "oracle missed a forgotten writer's lost committed effect";
}

TEST(TortureOracle, CatchesLeakedLock) {
  TortureConfig cfg = BaseConfig("pn_pair");
  cfg.before_oracle = [](Cluster& c) {
    c.node("s1").rm().locks().Acquire(
        /*txn=*/9999, "stray_key", lock::LockMode::kExclusive, [](Status) {});
  };
  const TortureResult res = RunTortureCell(cfg);
  EXPECT_TRUE(AnyViolationContains(res, "leaked locks"))
      << "oracle missed a leaked lock";
}

TEST(TortureOracle, CatchesNonIdempotentRecovery) {
  // Durable state that drifts between the two restart rounds.
  TortureConfig cfg = BaseConfig("pa_pair");
  cfg.on_idempotency_round = [](Cluster& c, int round) {
    tm::TransactionManager& tm = c.tm("c0");
    const uint64_t t = tm.Begin();
    tm.Write(t, 0, "drift", std::to_string(round), [](Status) {});
    c.RunFor(100 * sim::kMillisecond);
    c.CommitAndWait("c0", t);
  };
  const TortureResult res = RunTortureCell(cfg);
  EXPECT_TRUE(AnyViolationContains(res, "idempotent"))
      << "oracle missed divergent recovery";
}

TEST(TortureOracle, CatchesAccountingDrift) {
  // A trace entry with no matching network counter: the two ledgers must
  // reconcile exactly.
  TortureConfig cfg = BaseConfig("pa_pair");
  cfg.before_oracle = [](Cluster& c) {
    c.ctx().trace().Add({c.ctx().now(), sim::TraceKind::kSend, "ghost", "c0",
                         0, "phantom flow"});
  };
  const TortureResult res = RunTortureCell(cfg);
  EXPECT_TRUE(AnyViolationContains(res, "sends"))
      << "oracle missed trace/counter drift";
}

TEST(TortureOracle, ViolationsEmbedReproLine) {
  TortureConfig cfg = BaseConfig("pa_pair");
  cfg.before_oracle = [](Cluster& c) { c.ctx().trace().Clear(); };
  const TortureResult res = RunTortureCell(cfg);
  ASSERT_FALSE(res.ok());
  for (const std::string& v : res.violations) {
    EXPECT_NE(v.find("[repro: scenario=pa_pair seed=1"), std::string::npos)
        << v;
  }
}

}  // namespace
}  // namespace tpc::harness
