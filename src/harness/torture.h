// Crash-recovery torture campaign: one *cell* = one deterministic simulation
// of a fixed scenario (protocol config + topology + workload) with a fixed
// fault schedule (a crash point armed at a given occurrence/epoch, optional
// per-link message loss, an optional link flap). After driving the cell to
// quiescence — restarting every crashed node after a recovery delay — an
// oracle checks the invariants 2PC exists to provide:
//
//   1. Atomicity: every participant with recorded effects agrees with the
//      decision owner's outcome — or the disagreement is a *reported*
//      heuristic-damage event in the trace (unreported damage is a bug).
//      Each writer's data matches its own recorded outcome; a writer that
//      kept no record of the transaction is held to the decision owner's.
//   2. Liveness: no transaction stays in doubt forever, except the
//      documented basic-2PC blocking window (coordinator crashed before its
//      decision was durable and holds the only copy — the paper's argument
//      for presumption; the cell reports it as `blocked`, not a violation).
//   3. Lock hygiene: once resolved everywhere, no RM holds a lock.
//   4. Recovery idempotency: crash+restart of every node at quiescence
//      reaches a fixed point — a second crash+restart round reproduces
//      byte-identical RM stores and in-doubt sets.
//   5. Accounting: network counters and the trace agree (every accepted
//      flow is traced, delivered + dropped never exceeds sent).
//
// Every cell is reproducible from a single line (TortureConfig::Repro /
// ParseRepro); violations embed it so a failing campaign run can be replayed
// with TORTURE_REPRO=<line> tests/torture_test.

#ifndef TPC_HARNESS_TORTURE_H_
#define TPC_HARNESS_TORTURE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/failure_injector.h"
#include "sim/sim_context.h"

namespace tpc::harness {

class Cluster;

/// One torture cell's full fault schedule. Default-constructed = fault-free.
struct TortureConfig {
  /// Scenario name (see TortureScenarios()): protocol config + topology +
  /// workload, e.g. "pa_chain".
  std::string scenario = "pa_pair";
  uint64_t seed = 1;

  // --- crash schedule -------------------------------------------------------
  std::string crash_node;   ///< empty: no crash armed
  std::string crash_point;  ///< role-qualified name (tm/crash_points.h)
  int occurrence = 1;       ///< 1-based hit count within the epoch
  int epoch = sim::FailureInjector::kAnyEpoch;
  /// Second crash of the same node, armed for its post-recovery epoch
  /// (double-failure schedules). Empty: none.
  std::string crash2_point;
  /// Crashed nodes restart this long after going down.
  sim::Time recovery_delay = 2 * sim::kSecond;

  // --- network faults -------------------------------------------------------
  double loss_rate = 0.0;  ///< applied to every link, both directions
  bool flap = false;       ///< one scheduled outage of the root's first link

  // --- broken-fixture hooks (never part of the repro line) ------------------
  // The oracle's own tests sabotage otherwise-healthy cells through these to
  // prove each failure mode is actually caught.

  /// Runs right after cluster construction, before any workload; fixtures
  /// schedule future sabotage (e.g. a permanent link cut) from here.
  std::function<void(Cluster&)> after_build;
  /// Runs at quiescence, right before the oracle audits.
  std::function<void(Cluster&)> before_oracle;
  /// Runs after each oracle crash+restart round (round = 1, 2), before that
  /// round's durable-state snapshot.
  std::function<void(Cluster&, int round)> on_idempotency_round;

  /// Single-line repro: `scenario=pa_pair seed=3 crash=s1@sub.x occ=1 ...`.
  std::string Repro() const;
};

/// Parses a Repro() line (whitespace-separated key=value tokens). Returns
/// false on malformed input.
bool ParseRepro(const std::string& line, TortureConfig* out);

/// A (node, crash point) pair reached during a cell, with its hit count —
/// the campaign uses these to enumerate new cells until no unseen point
/// remains.
struct ReachedPoint {
  std::string node;
  std::string point;
  uint64_t hits = 0;
};

/// Cell verdict.
struct TortureResult {
  /// The armed trigger actually fired (always false when none was armed).
  bool crash_fired = false;
  /// The epoch-1 double-crash trigger fired.
  bool crash2_fired = false;
  /// The decision owner's recorded outcome had committed effects.
  bool committed = false;
  /// Legitimate basic-2PC blocking was observed (documented weakness).
  bool blocked = false;
  /// Oracle violations; each line embeds the repro. Empty = cell passed.
  std::vector<std::string> violations;
  /// Every (node, point) reached, for campaign expansion.
  std::vector<ReachedPoint> reached;

  bool ok() const { return violations.empty(); }
};

/// Scenario metadata for campaign enumeration.
struct TortureScenario {
  const char* name;
  const char* protocol;  ///< "basic", "pa", "pn", "paxos", "1pc" (grouping)
  /// Participant node names (root first).
  std::vector<std::string> nodes;
};

/// All defined scenarios.
const std::vector<TortureScenario>& TortureScenarios();

/// Runs one cell to quiescence and applies the oracle.
TortureResult RunTortureCell(const TortureConfig& config);

}  // namespace tpc::harness

#endif  // TPC_HARNESS_TORTURE_H_
