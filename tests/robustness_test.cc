// Robustness: malformed or corrupted network traffic must never crash a
// transaction manager or corrupt a transaction — it is dropped, and the
// protocol's normal retry/recovery machinery covers the loss.

#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "util/random.h"

namespace tpc {
namespace {

using harness::Cluster;
using harness::NodeOptions;

TEST(RobustnessTest, MalformedMessagesAreDroppedNotFatal) {
  Cluster c;
  c.AddNode("a", {});
  c.AddNode("b", {});
  c.Connect("a", "b");
  c.tm("b").SetAppDataHandler(
      [&c](uint64_t txn, const net::NodeId&, std::string_view) {
        c.tm("b").Write(txn, 0, "k", "v", [](Status) {});
      });

  Random rng(1234);
  // Blast garbage at both nodes, interleaved with a real transaction.
  auto blast = [&](const std::string& from, const std::string& to) {
    net::LegacyMessage msg;
    msg.from = from;
    msg.to = to;
    msg.kind = net::MsgKind::kPdu;  // the trace describer walks it too
    size_t len = rng.Uniform(64);
    for (size_t i = 0; i < len; ++i)
      msg.payload.push_back(static_cast<char>(rng.Uniform(256)));
    ASSERT_TRUE(c.network().SendLegacy(std::move(msg)).ok());
  };
  for (int i = 0; i < 50; ++i) {
    blast("a", "b");
    blast("b", "a");
  }
  uint64_t txn = c.tm("a").Begin();
  c.tm("a").Write(txn, 0, "k", "v", [](Status st) { ASSERT_TRUE(st.ok()); });
  ASSERT_TRUE(c.tm("a").SendWork(txn, "b").ok());
  for (int i = 0; i < 50; ++i) {
    blast("a", "b");
    blast("b", "a");
  }
  c.RunFor(sim::kSecond);
  auto commit = c.CommitAndWait("a", txn);
  c.RunFor(sim::kSecond);
  ASSERT_TRUE(commit.completed);
  EXPECT_EQ(commit.result.outcome, tm::Outcome::kCommitted);
  EXPECT_EQ(c.node("b").rm().Peek("k").value_or(""), "v");
  EXPECT_TRUE(c.Audit(txn).consistent);
}

TEST(RobustnessTest, TruncatedProtocolMessageIsDropped) {
  // A valid PDU payload cut short mid-frame must also be survivable.
  Cluster c;
  c.AddNode("a", {});
  c.AddNode("b", {});
  c.Connect("a", "b");
  tm::Pdu pdu;
  pdu.type = tm::PduType::kPrepare;
  pdu.txn = 42;
  std::string payload = tm::EncodePdus({pdu});
  net::LegacyMessage msg{.from = "a",
                         .to = "b",
                         .payload = payload.substr(0, payload.size() / 2)};
  ASSERT_TRUE(c.network().SendLegacy(std::move(msg)).ok());
  c.RunFor(sim::kSecond);
  // b neither crashed nor created transaction state.
  EXPECT_TRUE(c.tm("b").IsUp());
  EXPECT_FALSE(c.tm("b").Knows(42));
}

TEST(RobustnessTest, ReservedTxnIdIsDroppedNotTracked) {
  // UINT64_MAX is the per-txn tables' empty-slot key and no runtime mints
  // it, so a PDU naming it is corrupt. Tracking it would leave a
  // transaction nothing can find or forget, and Checkpoint would refuse
  // for good.
  Cluster c;
  c.AddNode("a", {});
  c.AddNode("b", {});
  c.Connect("a", "b");
  tm::Pdu pdu;
  pdu.type = tm::PduType::kAppData;
  pdu.txn = UINT64_MAX;
  pdu.data = "work";
  net::LegacyMessage msg{.from = "a",
                         .to = "b",
                         .kind = net::MsgKind::kPdu,
                         .payload = tm::EncodePdus({pdu}),
                         .txn = UINT64_MAX};
  ASSERT_TRUE(c.network().SendLegacy(std::move(msg)).ok());
  c.RunFor(sim::kSecond);
  EXPECT_TRUE(c.tm("b").IsUp());
  EXPECT_EQ(c.tm("b").ActiveTxnCount(), 0u);
  bool checkpointed = false;
  ASSERT_TRUE(c.node("b").Checkpoint([&] { checkpointed = true; }).ok());
  c.RunFor(sim::kSecond);
  EXPECT_TRUE(checkpointed);
}

}  // namespace
}  // namespace tpc
