// Scenario builders that reproduce the paper's experimental configurations.
// The table/figure benches and the accounting property tests both drive
// these, so the numbers printed by the benches are the numbers the tests
// verify.

#ifndef TPC_HARNESS_SCENARIOS_H_
#define TPC_HARNESS_SCENARIOS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/cost_model.h"
#include "harness/cluster.h"

namespace tpc::harness {

/// Outcome + cluster-total cost of one driven scenario.
struct ScenarioResult {
  bool completed = false;
  tm::CommitResult result;
  analysis::CostTriplet measured;  ///< cluster totals (TM records only)
  sim::Time commit_latency = 0;
};

/// Runs the Table 3 configuration: a coordinator with n-1 members, m of
/// which use `variant`'s optimization, and measures one transaction.
ScenarioResult RunTable3Scenario(analysis::Table3Variant variant, uint64_t n,
                                 uint64_t m);

/// One measured Table 2 row (two-participant transaction, per-role costs).
struct MeasuredTable2Row {
  std::string label;
  analysis::RoleCost coordinator;
  analysis::RoleCost subordinate;
};

/// Runs every Table 2 configuration and reports the measured per-role
/// costs, in the same order as analysis::Table2Expected().
std::vector<MeasuredTable2Row> RunTable2Scenarios();

/// Runs the Table 4 configuration: r successive two-member transactions
/// under `variant`, returning cluster-total costs across all r.
analysis::CostTriplet RunTable4Scenario(analysis::Table4Variant variant,
                                        uint64_t r);

/// Renders the message-flow / log-write time sequence reproducing one of
/// the paper's figures (1-8), with a short verification footer.
std::string RunFigureScenario(int figure);

/// One settled run of protocol_compare's cell.
struct FamilyCellRun {
  std::unique_ptr<Cluster> cluster;
  uint64_t txn = 0;
  DrivenCommit commit;
};

/// protocol_compare's cell: a coordinator ("coord") and one updating
/// subordinate ("sub") run one transaction under `protocol`, then the loop
/// runs 30 simulated seconds more for stragglers. In the abort case the
/// subordinate's RM votes NO. Paxos Commit uses F=1 with an acceptor-only
/// third node ("acc"), or with `paxos_f0` a single acceptor at "coord".
FamilyCellRun RunFamilyCell(tm::ProtocolKind protocol, bool abort_case,
                            bool paxos_f0 = false);

}  // namespace tpc::harness

#endif  // TPC_HARNESS_SCENARIOS_H_
