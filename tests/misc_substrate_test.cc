// Coverage for the remaining substrate surfaces: the execution trace, the
// failure injector, protocol-message decoding robustness, the analytic
// cost model, and transaction-manager edge cases.

#include <gtest/gtest.h>

#include "analysis/cost_model.h"
#include "harness/cluster.h"
#include "sim/failure_injector.h"
#include "sim/trace.h"
#include "tm/protocol_messages.h"
#include "util/format.h"

namespace tpc {
namespace {

// --- Trace -------------------------------------------------------------------

TEST(TraceTest, FiltersByKindAndTxn) {
  sim::Trace trace;
  trace.Add({10, sim::TraceKind::kSend, "a", "b", 1, "PREPARE"});
  trace.Add({20, sim::TraceKind::kLogForce, "b", "", 1, "tm.prepared"});
  trace.Add({30, sim::TraceKind::kSend, "b", "a", 2, "VOTE"});
  EXPECT_EQ(trace.Count(sim::TraceKind::kSend), 2u);
  EXPECT_EQ(trace.CountTxn(1), 2u);
  EXPECT_EQ(trace.Count(sim::TraceKind::kSend, "a"), 1u);
  // ForEach visits matching entries in order without copying them.
  std::vector<std::string> sends;
  trace.ForEach(
      [](const sim::TraceEntry& e) { return e.kind == sim::TraceKind::kSend; },
      [&sends](const sim::TraceEntry& e) { sends.push_back(e.detail); });
  EXPECT_EQ(sends, (std::vector<std::string>{"PREPARE", "VOTE"}));
}

TEST(TraceTest, RenderContainsEssentials) {
  sim::Trace trace;
  trace.Add({10, sim::TraceKind::kSend, "a", "b", 7, "PREPARE"});
  std::string out = trace.Render();
  EXPECT_NE(out.find("a -> b"), std::string::npos);
  EXPECT_NE(out.find("SEND"), std::string::npos);
  EXPECT_NE(out.find("PREPARE"), std::string::npos);
  EXPECT_NE(out.find("txn 7"), std::string::npos);
  trace.Clear();
  EXPECT_TRUE(trace.entries().empty());
}

TEST(TraceTest, AllKindsHaveNames) {
  for (int k = 0; k <= static_cast<int>(sim::TraceKind::kApp); ++k) {
    EXPECT_NE(sim::TraceKindToString(static_cast<sim::TraceKind>(k)), "?");
  }
}

// --- Failure injector ----------------------------------------------------------

TEST(FailureInjectorTest, FiresOnNthOccurrence) {
  sim::FailureInjector injector;
  int crashes = 0;
  injector.RegisterNode("n", [&] { ++crashes; });
  injector.ArmCrash("n", "point", /*occurrence=*/3);
  EXPECT_FALSE(injector.CrashPoint("n", "point"));
  EXPECT_FALSE(injector.CrashPoint("n", "point"));
  EXPECT_TRUE(injector.CrashPoint("n", "point"));
  EXPECT_EQ(crashes, 1);
  // Fires only once.
  EXPECT_FALSE(injector.CrashPoint("n", "point"));
  EXPECT_EQ(injector.hits("n", "point"), 4u);
}

TEST(FailureInjectorTest, UnarmedPointsJustCount) {
  sim::FailureInjector injector;
  injector.RegisterNode("n", [] { FAIL() << "must not crash"; });
  EXPECT_FALSE(injector.CrashPoint("n", "point"));
  EXPECT_EQ(injector.hits("n", "point"), 1u);
  EXPECT_EQ(injector.hits("n", "other"), 0u);
}

TEST(FailureInjectorTest, ResetClearsTriggers) {
  sim::FailureInjector injector;
  int crashes = 0;
  injector.RegisterNode("n", [&] { ++crashes; });
  injector.ArmCrash("n", "point", 1);
  injector.Reset();
  EXPECT_FALSE(injector.CrashPoint("n", "point"));
  EXPECT_EQ(crashes, 0);
}

TEST(FailureInjectorTest, ResetDropsRegistrationsButKeepsIds) {
  // Regression: a harness destroyed and rebuilt on a reused injector used
  // to leave the old crash callback dangling into freed nodes.
  sim::FailureInjector injector;
  const uint32_t node = injector.InternNode("n");
  const uint32_t point = injector.InternPoint("p");
  int old_harness = 0;
  injector.RegisterNode("n", [&] { ++old_harness; });
  injector.Reset();

  int new_harness = 0;
  injector.RegisterNode("n", [&] { ++new_harness; });
  injector.ArmCrash("n", "p", 1);
  // Pre-Reset interned ids stay valid for components that cached them.
  EXPECT_TRUE(injector.CrashPoint(node, point));
  EXPECT_EQ(old_harness, 0);
  EXPECT_EQ(new_harness, 1);
}

TEST(FailureInjectorTest, ReRegisterOverwritesCallbacks) {
  sim::FailureInjector injector;
  int stale = 0;
  int live = 0;
  injector.RegisterNode("n", [&] { ++stale; });
  injector.RegisterNode("n", [&] { ++live; });  // rebuild without Reset
  injector.ArmCrash("n", "p", 1);
  EXPECT_TRUE(injector.CrashPoint("n", "p"));
  EXPECT_EQ(stale, 0);
  EXPECT_EQ(live, 1);
}

TEST(FailureInjectorTest, OccurrenceCountsArePerEpoch) {
  // A node's occurrence counters restart when it crashes; hits() keeps the
  // whole-simulation total.
  sim::FailureInjector injector;
  int crashes = 0;
  injector.RegisterNode("n", [&] { ++crashes; });
  injector.ArmCrash("n", "p", /*occurrence=*/2, /*epoch=*/0);
  injector.ArmCrash("n", "p", /*occurrence=*/2, /*epoch=*/1);

  EXPECT_FALSE(injector.CrashPoint("n", "p"));  // epoch 0, count 1
  EXPECT_TRUE(injector.CrashPoint("n", "p"));   // epoch 0, count 2: crash
  EXPECT_EQ(injector.node_epoch("n"), 1);
  EXPECT_EQ(injector.epoch_hits("n", "p"), 0u);  // reset by the crash

  EXPECT_FALSE(injector.CrashPoint("n", "p"));  // epoch 1, count 1
  EXPECT_TRUE(injector.CrashPoint("n", "p"));   // epoch 1, count 2: crash
  EXPECT_EQ(crashes, 2);
  EXPECT_EQ(injector.node_epoch("n"), 2);
  EXPECT_EQ(injector.hits("n", "p"), 4u);  // totals survive every epoch
}

TEST(FailureInjectorTest, EpochTargetedTriggerIgnoresOtherEpochs) {
  sim::FailureInjector injector;
  int crashes = 0;
  injector.RegisterNode("n", [&] { ++crashes; });
  injector.ArmCrash("n", "p", /*occurrence=*/1, /*epoch=*/1);
  // Epoch 0 hits never match an epoch-1 trigger.
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(injector.CrashPoint("n", "p"));
  injector.CrashNow("n");  // manually advance to epoch 1
  EXPECT_EQ(crashes, 1);
  EXPECT_TRUE(injector.CrashPoint("n", "p"));
  EXPECT_EQ(crashes, 2);
}

TEST(FailureInjectorTest, DisarmAllKeepsRegistrationsAndCounters) {
  sim::FailureInjector injector;
  int crashes = 0;
  injector.RegisterNode("n", [&] { ++crashes; });
  injector.ArmCrash("n", "p", 1);
  EXPECT_FALSE(injector.CrashPoint("n", "q"));
  injector.DisarmAll();
  EXPECT_FALSE(injector.CrashPoint("n", "p"));  // trigger gone
  EXPECT_EQ(crashes, 0);
  EXPECT_EQ(injector.hits("n", "q"), 1u);  // counters survive
  injector.CrashNow("n");                  // registration survives
  EXPECT_EQ(crashes, 1);
}

// --- Protocol message codec -------------------------------------------------------

TEST(PduCodecTest, RoundTripsAllFields) {
  tm::Pdu pdu;
  pdu.type = tm::PduType::kVote;
  pdu.txn = 0xdeadbeefULL;
  pdu.vote = rm::Vote::kYes;
  pdu.reliable = true;
  pdu.ok_to_leave_out = true;
  pdu.unsolicited = true;
  pdu.last_agent = true;
  pdu.vote_long_locks = true;
  pdu.heur_commit = true;
  pdu.damage = true;
  pdu.outcome_pending = true;
  pdu.from_last_agent = true;
  pdu.answer = tm::InquiryAnswer::kInDoubt;
  pdu.data = "payload";

  auto decoded = tm::DecodePdus(tm::EncodePdus({pdu}));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 1u);
  const tm::Pdu& d = (*decoded)[0];
  EXPECT_EQ(d.type, tm::PduType::kVote);
  EXPECT_EQ(d.txn, 0xdeadbeefULL);
  EXPECT_EQ(d.vote, rm::Vote::kYes);
  EXPECT_TRUE(d.reliable);
  EXPECT_TRUE(d.ok_to_leave_out);
  EXPECT_TRUE(d.unsolicited);
  EXPECT_TRUE(d.last_agent);
  EXPECT_TRUE(d.vote_long_locks);
  EXPECT_TRUE(d.heur_commit);
  EXPECT_FALSE(d.heur_abort);
  EXPECT_TRUE(d.damage);
  EXPECT_TRUE(d.outcome_pending);
  EXPECT_TRUE(d.from_last_agent);
  EXPECT_EQ(d.answer, tm::InquiryAnswer::kInDoubt);
  EXPECT_EQ(d.data, "payload");
}

TEST(PduCodecTest, MultiplePdusPreserveOrder) {
  tm::Pdu ack;
  ack.type = tm::PduType::kAck;
  ack.txn = 1;
  tm::Pdu data;
  data.type = tm::PduType::kAppData;
  data.txn = 2;
  auto decoded = tm::DecodePdus(tm::EncodePdus({ack, data}));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0].type, tm::PduType::kAck);
  EXPECT_EQ((*decoded)[1].type, tm::PduType::kAppData);
}

TEST(PduCodecTest, RejectsGarbage) {
  EXPECT_FALSE(tm::DecodePdus("").ok());
  EXPECT_FALSE(tm::DecodePdus(std::string("\xff\xff\xff", 3)).ok());
  // Valid message with trailing junk.
  tm::Pdu pdu;
  pdu.type = tm::PduType::kAck;
  std::string payload = tm::EncodePdus({pdu}) + "junk";
  EXPECT_FALSE(tm::DecodePdus(payload).ok());
  // Truncated message.
  std::string truncated = tm::EncodePdus({pdu});
  truncated.resize(truncated.size() - 1);
  EXPECT_FALSE(tm::DecodePdus(truncated).ok());
}

TEST(PduCodecTest, RejectsBadEnumValues) {
  tm::Pdu pdu;
  pdu.type = tm::PduType::kVote;
  std::string payload = tm::EncodePdus({pdu});
  // Corrupt the type byte (frames are packed back to back, no count prefix).
  payload[0] = 99;
  EXPECT_FALSE(tm::DecodePdus(payload).ok());
}

TEST(PduCodecTest, DescribeNamesEveryType) {
  for (int t = 1; t <= static_cast<int>(tm::PduType::kInquiryReply); ++t) {
    EXPECT_NE(tm::PduTypeToString(static_cast<tm::PduType>(t)), "?");
  }
  tm::Pdu vote;
  vote.type = tm::PduType::kVote;
  vote.vote = rm::Vote::kReadOnly;
  tm::Pdu ack;
  ack.type = tm::PduType::kAck;
  EXPECT_EQ(tm::DescribePdus({ack, vote}), "ACK+VOTE(READ-ONLY)");
}

// --- Cost model -----------------------------------------------------------------

TEST(CostModelTest, PaperExamplePoints) {
  using analysis::Table3Cost;
  using analysis::Table3Variant;
  EXPECT_EQ(Table3Cost(Table3Variant::kBasic2PC, 11, 4),
            (analysis::CostTriplet{40, 32, 21}));
  EXPECT_EQ(Table3Cost(Table3Variant::kPaReadOnly, 11, 4),
            (analysis::CostTriplet{32, 20, 13}));
  EXPECT_EQ(Table3Cost(Table3Variant::kPaLeaveOut, 11, 4),
            (analysis::CostTriplet{24, 20, 13}));
  EXPECT_EQ(Table3Cost(Table3Variant::kPaSharedLogs, 11, 4),
            (analysis::CostTriplet{40, 32, 13}));
  EXPECT_EQ(analysis::Table4Cost(analysis::Table4Variant::kBasic2PC, 12),
            (analysis::CostTriplet{48, 60, 36}));
  EXPECT_EQ(
      analysis::Table4Cost(analysis::Table4Variant::kLongLocksLastAgent, 12),
      (analysis::CostTriplet{18, 60, 36}));
}

TEST(CostModelTest, ZeroMembersIsBaseline) {
  using analysis::Table3Cost;
  using analysis::Table3Variant;
  for (auto variant : analysis::AllTable3Variants()) {
    EXPECT_EQ(Table3Cost(variant, 11, 0),
              Table3Cost(Table3Variant::kBasic2PC, 11, 0))
        << analysis::Table3VariantName(variant);
  }
}

TEST(CostModelTest, GroupCommitExpectation) {
  EXPECT_DOUBLE_EQ(analysis::GroupCommitExpectedForces(100, 1), 300.0);
  EXPECT_DOUBLE_EQ(analysis::GroupCommitExpectedForces(100, 10), 30.0);
  EXPECT_DOUBLE_EQ(analysis::GroupCommitExpectedForces(100, 0), 300.0);
}

// --- TM edge cases -----------------------------------------------------------------

TEST(TmEdgeCaseTest, SendWorkToUnknownPeerFails) {
  harness::Cluster c;
  c.AddNode("a", {});
  uint64_t txn = c.tm("a").Begin();
  EXPECT_TRUE(c.tm("a").SendWork(txn, "nobody").IsInvalidArgument());
}

TEST(TmEdgeCaseTest, CommitWithNoWorkCompletesTrivially) {
  harness::Cluster c;
  c.AddNode("a", {});
  uint64_t txn = c.tm("a").Begin();
  auto commit = c.CommitAndWait("a", txn);
  ASSERT_TRUE(commit.completed);
  EXPECT_EQ(commit.result.outcome, tm::Outcome::kCommitted);
  EXPECT_EQ(c.tm("a").CostOf(txn).tm_log_writes, 0u);  // nothing at stake
}

TEST(TmEdgeCaseTest, LocalOnlyCommitForcesOnce) {
  harness::Cluster c;
  c.AddNode("a", {});
  uint64_t txn = c.tm("a").Begin();
  c.tm("a").Write(txn, 0, "k", "v", [](Status st) { ASSERT_TRUE(st.ok()); });
  auto commit = c.CommitAndWait("a", txn);
  ASSERT_TRUE(commit.completed);
  EXPECT_EQ(commit.result.outcome, tm::Outcome::kCommitted);
  EXPECT_EQ(c.node("a").rm().Peek("k").value_or(""), "v");
  // Local 1PC: committed (forced) + end.
  EXPECT_EQ(c.tm("a").CostOf(txn).tm_log_forced, 1u);
  EXPECT_EQ(c.tm("a").CostOf(txn).flows_sent, 0u);
}

TEST(TmEdgeCaseTest, MultipleRmsOnOneNodeAllParticipate) {
  harness::Cluster c;
  harness::NodeOptions options;
  options.num_rms = 3;
  c.AddNode("a", options);
  uint64_t txn = c.tm("a").Begin();
  for (size_t i = 0; i < 3; ++i) {
    c.tm("a").Write(txn, i, "k", StringPrintf("v%zu", i),
                    [](Status st) { ASSERT_TRUE(st.ok()); });
  }
  auto commit = c.CommitAndWait("a", txn);
  ASSERT_TRUE(commit.completed);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(c.node("a").rm(i).Peek("k").value_or(""),
              StringPrintf("v%zu", i));
  }
}

TEST(TmEdgeCaseTest, SequentialTransactionsReuseSessions) {
  harness::Cluster c;
  c.AddNode("a", {});
  c.AddNode("b", {});
  c.Connect("a", "b");
  c.tm("b").SetAppDataHandler(
      [&c](uint64_t txn, const net::NodeId&, std::string_view v) {
        c.tm("b").Write(txn, 0, "k", std::string(v), [](Status st) {
          ASSERT_TRUE(st.ok());
        });
      });
  for (int i = 0; i < 10; ++i) {
    uint64_t txn = c.tm("a").Begin();
    ASSERT_TRUE(c.tm("a").SendWork(txn, "b", std::to_string(i)).ok());
    c.RunFor(100 * sim::kMillisecond);
    auto commit = c.CommitAndWait("a", txn);
    ASSERT_TRUE(commit.completed);
    EXPECT_EQ(commit.result.outcome, tm::Outcome::kCommitted);
  }
  EXPECT_EQ(c.node("b").rm().Peek("k").value_or(""), "9");
}

TEST(TmEdgeCaseTest, MetricsReportCoversEveryNode) {
  harness::Cluster c;
  c.AddNode("alpha", {});
  c.AddNode("beta", {});
  c.Connect("alpha", "beta");
  c.tm("beta").SetAppDataHandler(
      [&c](uint64_t txn, const net::NodeId&, std::string_view) {
        c.tm("beta").Write(txn, 0, "k", "v", [](Status) {});
      });
  uint64_t txn = c.tm("alpha").Begin();
  ASSERT_TRUE(c.tm("alpha").SendWork(txn, "beta").ok());
  c.RunFor(sim::kSecond);
  auto commit = c.CommitAndWait("alpha", txn);
  ASSERT_TRUE(commit.completed);
  std::string report = c.ReportMetrics();
  EXPECT_NE(report.find("network:"), std::string::npos);
  EXPECT_NE(report.find("alpha"), std::string::npos);
  EXPECT_NE(report.find("beta"), std::string::npos);
  EXPECT_NE(report.find("device forces"), std::string::npos);
}

TEST(TmEdgeCaseTest, ViewOfUnknownTxnIsUnknown) {
  harness::Cluster c;
  c.AddNode("a", {});
  EXPECT_EQ(c.tm("a").View(12345).outcome, tm::Outcome::kUnknown);
  EXPECT_EQ(c.tm("a").CostOf(12345).flows_sent, 0u);
  EXPECT_FALSE(c.tm("a").Knows(12345));
}

}  // namespace
}  // namespace tpc
