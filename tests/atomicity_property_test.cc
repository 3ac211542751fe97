// Atomicity under failure injection: for every protocol, crash any single
// participant at any protocol step, recover it, and verify the cluster
// converges to a consistent outcome (all-commit or all-abort) with data
// effects matching — the fundamental guarantee 2PC exists to provide.
//
// Heuristics are disabled here, so there is no legitimate divergence.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "harness/cluster.h"

namespace tpc {
namespace {

using harness::Cluster;
using harness::NodeOptions;
using tm::Outcome;
using tm::ProtocolKind;

struct CrashPlan {
  std::string node;
  std::string point;
  int occurrence;
};

class CrashMatrixTest
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, int>> {};

// Enumerated crash plans: node x instrumented point x occurrence. The
// occurrence matters for points hit repeatedly (retries).
const CrashPlan kPlans[] = {
    {"sub1", "sub.after_prepared_force", 1},
    {"sub2", "sub.after_prepared_force", 1},
    {"mid", "casc.after_prepared_force", 1},
    {"root", "root.after_commit_force", 1},
    {"mid", "casc.after_commit_force", 1},
    {"sub1", "sub.after_commit_force", 1},
    {"sub2", "sub.after_commit_force", 1},
};

TEST_P(CrashMatrixTest, SingleCrashNeverViolatesAtomicity) {
  auto [protocol, plan_index] = GetParam();
  const CrashPlan& plan = kPlans[plan_index];

  // Tree: root -> {sub1, mid}, mid -> sub2. Everyone writes.
  Cluster c;
  NodeOptions options;
  options.tm.protocol = protocol;
  options.tm.inquiry_delay = 5 * sim::kSecond;
  options.tm.ack_timeout = 5 * sim::kSecond;
  for (const char* n : {"root", "sub1", "mid", "sub2"}) c.AddNode(n, options);
  c.Connect("root", "sub1");
  c.Connect("root", "mid");
  c.Connect("mid", "sub2");

  auto writer = [&c](const std::string& node) {
    c.tm(node).SetAppDataHandler(
        [&c, node](uint64_t txn, const net::NodeId& from, std::string_view) {
          if (node == "mid" && from != "root") return;
          c.tm(node).Write(txn, 0, node + "_key", "v",
                           [](Status st) { ASSERT_TRUE(st.ok()); });
          if (node == "mid") {
            ASSERT_TRUE(c.tm(node).SendWork(txn, "sub2").ok());
          }
        });
  };
  writer("sub1");
  writer("mid");
  writer("sub2");

  uint64_t txn = c.tm("root").Begin();
  c.tm("root").Write(txn, 0, "root_key", "v", [](Status st) {
    ASSERT_TRUE(st.ok());
  });
  ASSERT_TRUE(c.tm("root").SendWork(txn, "sub1").ok());
  ASSERT_TRUE(c.tm("root").SendWork(txn, "mid").ok());
  c.RunFor(sim::kSecond);

  c.ctx().failures().ArmCrash(plan.node, plan.point, plan.occurrence);
  auto commit = c.StartCommit("root", txn);
  c.RunFor(60 * sim::kSecond);

  // Restart the crashed node (if the plan actually fired) and let
  // recovery converge.
  if (!c.tm(plan.node).IsUp()) c.node(plan.node).Restart();
  c.RunFor(10 * 60 * sim::kSecond);

  harness::TxnAudit audit = c.Audit(txn);
  EXPECT_FALSE(audit.any_in_doubt)
      << plan.node << "@" << plan.point << " left blocked participants";
  EXPECT_TRUE(audit.consistent)
      << plan.node << "@" << plan.point << " diverged";
  EXPECT_FALSE(audit.damage_ground_truth);

  // Data effects agree with the recorded outcome everywhere.
  const bool committed = tm::CommittedEffects(c.tm("root").View(txn).outcome);
  for (const char* node : {"root", "sub1", "mid", "sub2"}) {
    auto value = c.node(node).rm().Peek(std::string(node) + "_key");
    if (committed) {
      EXPECT_EQ(value.value_or(""), "v") << node;
    } else {
      EXPECT_TRUE(value.status().IsNotFound()) << node;
    }
  }
}

std::string PlanName(
    const ::testing::TestParamInfo<std::tuple<ProtocolKind, int>>& info) {
  auto [protocol, plan_index] = info.param;
  const CrashPlan& plan = kPlans[plan_index];
  std::string name;
  switch (protocol) {
    case ProtocolKind::kBasic2PC: name = "Basic"; break;
    case ProtocolKind::kPresumedAbort: name = "PA"; break;
    case ProtocolKind::kPresumedNothing: name = "PN"; break;
    case ProtocolKind::kPresumedCommit: name = "PC"; break;
    case ProtocolKind::kPaxosCommit: name = "Paxos"; break;
    case ProtocolKind::kOnePhase: name = "OnePhase"; break;
    case ProtocolKind::kOnePhaseLogless: name = "OnePhaseLogless"; break;
  }
  // The node implies the role, so the name keeps the bare point.
  name += "_" + plan.node + "_" + plan.point.substr(plan.point.find('.') + 1);
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CrashMatrixTest,
    ::testing::Combine(::testing::Values(ProtocolKind::kPresumedAbort,
                                         ProtocolKind::kPresumedNothing,
                                         ProtocolKind::kPresumedCommit),
                       ::testing::Range(0, 7)),
    PlanName);

// The baseline protocol blocks in some of these cases (that is its known
// weakness), so it gets a weaker property: no divergence, ever — blocked
// participants are allowed.
class Basic2pcCrashTest : public ::testing::TestWithParam<int> {};

TEST_P(Basic2pcCrashTest, NeverDiverges) {
  const CrashPlan& plan = kPlans[GetParam()];
  Cluster c;
  NodeOptions options;
  options.tm.protocol = ProtocolKind::kBasic2PC;
  options.tm.inquiry_delay = 5 * sim::kSecond;
  options.tm.ack_timeout = 5 * sim::kSecond;
  for (const char* n : {"root", "sub1", "mid", "sub2"}) c.AddNode(n, options);
  c.Connect("root", "sub1");
  c.Connect("root", "mid");
  c.Connect("mid", "sub2");
  for (const std::string node : {"sub1", "mid", "sub2"}) {
    c.tm(node).SetAppDataHandler(
        [&c, node](uint64_t txn, const net::NodeId& from, std::string_view) {
          if (node == "mid" && from != "root") return;
          c.tm(node).Write(txn, 0, node + "_key", "v",
                           [](Status st) { ASSERT_TRUE(st.ok()); });
          if (node == "mid") {
            ASSERT_TRUE(c.tm(node).SendWork(txn, "sub2").ok());
          }
        });
  }
  uint64_t txn = c.tm("root").Begin();
  ASSERT_TRUE(c.tm("root").SendWork(txn, "sub1").ok());
  ASSERT_TRUE(c.tm("root").SendWork(txn, "mid").ok());
  c.RunFor(sim::kSecond);

  c.ctx().failures().ArmCrash(plan.node, plan.point, plan.occurrence);
  auto commit = c.StartCommit("root", txn);
  c.RunFor(60 * sim::kSecond);
  if (!c.tm(plan.node).IsUp()) c.node(plan.node).Restart();
  c.RunFor(10 * 60 * sim::kSecond);

  // Among the participants that have resolved, effects must agree.
  bool any_commit = false, any_abort = false;
  for (const char* node : {"root", "sub1", "mid", "sub2"}) {
    Outcome o = c.tm(node).View(txn).outcome;
    if (o == Outcome::kCommitted) any_commit = true;
    if (o == Outcome::kAborted) any_abort = true;
  }
  EXPECT_FALSE(any_commit && any_abort)
      << plan.node << "@" << plan.point << " diverged under basic 2PC";
}

INSTANTIATE_TEST_SUITE_P(Matrix, Basic2pcCrashTest, ::testing::Range(0, 7));

}  // namespace
}  // namespace tpc
