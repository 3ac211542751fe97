// Randomized whole-system property test: a seeded stream of distributed
// transactions over a fully connected cluster, with random node crashes
// (plus restarts) and random link partitions (plus heals) injected
// throughout. After the dust settles, every transaction must be
// all-or-nothing: each participant either has the transaction's marker row
// (committed everywhere) or does not (aborted everywhere), no participant
// is left in doubt, and no heuristic damage exists (heuristics are off).
//
// This is the closest thing to the protocols' contract: atomicity under
// arbitrary single-fault timing, checked end-to-end through the network,
// WAL, lock manager, resource managers, and recovery.

#include <gtest/gtest.h>

#include <cinttypes>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "harness/cluster.h"
#include "util/format.h"
#include "util/random.h"

namespace tpc {
namespace {

using harness::Cluster;
using harness::NodeOptions;
using tm::Outcome;
using tm::ProtocolKind;

constexpr int kNodes = 4;
constexpr int kTxns = 30;

std::string NodeName(int i) { return StringPrintf("n%d", i); }
/// The marker key each participant writes for a transaction.
std::string TxnKey(uint64_t txn) { return StringPrintf("t%" PRIu64, txn); }

class RandomWorkloadTest
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, uint64_t>> {};

TEST_P(RandomWorkloadTest, EveryTransactionIsAllOrNothing) {
  auto [protocol, seed] = GetParam();
  Cluster c(seed);
  Random rng(seed * 7919 + 13);

  NodeOptions options;
  options.tm.protocol = protocol;
  options.tm.vote_timeout = 10 * sim::kSecond;
  options.tm.ack_timeout = 5 * sim::kSecond;
  options.tm.inquiry_delay = 5 * sim::kSecond;
  options.tm.recovery_retry_interval = 10 * sim::kSecond;
  for (int i = 0; i < kNodes; ++i) c.AddNode(NodeName(i), options);
  for (int i = 0; i < kNodes; ++i)
    for (int j = i + 1; j < kNodes; ++j) c.Connect(NodeName(i), NodeName(j));

  // Every node writes a per-transaction marker when work reaches it.
  for (int i = 0; i < kNodes; ++i) {
    const std::string name = NodeName(i);
    c.tm(name).SetAppDataHandler(
        [&c, name](uint64_t txn, const net::NodeId&, std::string_view) {
          c.tm(name).Write(txn, 0, TxnKey(txn), "done",
                           [](Status) { /* may fail if node crashes */ });
        });
  }

  struct TxnRecord {
    uint64_t id;
    std::string coordinator;
    std::set<std::string> participants;  // includes the coordinator
    std::shared_ptr<harness::DrivenCommit> commit;
  };
  std::vector<TxnRecord> txns;

  auto chaos = [&] {
    // Random crash (restart arrives 20-40s later) or partition (heals
    // 10-30s later), at most one of each armed per call.
    if (rng.Bernoulli(0.4)) {
      int victim = static_cast<int>(rng.Uniform(kNodes));
      std::string name = NodeName(victim);
      if (c.tm(name).IsUp()) {
        c.ctx().failures().CrashNow(name);
        sim::Time delay = static_cast<sim::Time>(
            rng.UniformRange(20, 40) * static_cast<uint64_t>(sim::kSecond));
        c.ctx().events().ScheduleAfter(delay, [&c, name] {
          if (!c.tm(name).IsUp()) c.node(name).Restart();
        });
      }
    }
    if (rng.Bernoulli(0.3)) {
      int a = static_cast<int>(rng.Uniform(kNodes));
      int b = static_cast<int>(rng.Uniform(kNodes));
      if (a != b) {
        std::string na = NodeName(a), nb = NodeName(b);
        c.network().SetLinkDown(na, nb, true);
        sim::Time delay = static_cast<sim::Time>(
            rng.UniformRange(10, 30) * static_cast<uint64_t>(sim::kSecond));
        c.ctx().events().ScheduleAfter(
            delay, [&c, na, nb] { c.network().SetLinkDown(na, nb, false); });
      }
    }
  };

  for (int i = 0; i < kTxns; ++i) {
    int coord = static_cast<int>(rng.Uniform(kNodes));
    std::string coord_name = NodeName(coord);
    if (!c.tm(coord_name).IsUp()) {
      c.RunFor(5 * sim::kSecond);
      if (!c.tm(coord_name).IsUp()) continue;  // still down; skip this slot
    }
    TxnRecord record;
    record.id = c.tm(coord_name).Begin();
    record.coordinator = coord_name;
    record.participants.insert(coord_name);
    c.tm(coord_name).Write(record.id, 0, TxnKey(record.id), "done",
                           [](Status) {});
    // 1-3 random other participants.
    uint64_t extra = rng.UniformRange(1, 3);
    for (uint64_t k = 0; k < extra; ++k) {
      int peer = static_cast<int>(rng.Uniform(kNodes));
      if (peer == coord) continue;
      std::string peer_name = NodeName(peer);
      if (record.participants.count(peer_name)) continue;
      if (c.tm(coord_name).SendWork(record.id, peer_name).ok()) {
        record.participants.insert(peer_name);
      }
    }
    c.RunFor(static_cast<sim::Time>(
        rng.UniformRange(100, 1000) * static_cast<uint64_t>(sim::kMillisecond)));
    if (rng.Bernoulli(0.25)) chaos();
    if (!c.tm(coord_name).IsUp()) {
      // Coordinator died before initiating commit: the work just vanishes
      // (active state is volatile); nothing to track.
      continue;
    }
    record.commit = c.StartCommit(coord_name, record.id);
    txns.push_back(std::move(record));
    c.RunFor(static_cast<sim::Time>(
        rng.UniformRange(200, 2000) * static_cast<uint64_t>(sim::kMillisecond)));
    if (rng.Bernoulli(0.2)) chaos();
  }

  // Heal the world and let recovery converge.
  for (int i = 0; i < kNodes; ++i)
    for (int j = i + 1; j < kNodes; ++j)
      c.network().SetLinkDown(NodeName(i), NodeName(j), false);
  c.RunFor(5 * 60 * sim::kSecond);
  for (int i = 0; i < kNodes; ++i)
    if (!c.tm(NodeName(i)).IsUp()) c.node(NodeName(i)).Restart();
  c.RunFor(20 * 60 * sim::kSecond);

  // The contract.
  for (const TxnRecord& record : txns) {
    harness::TxnAudit audit = c.Audit(record.id);
    EXPECT_TRUE(audit.consistent) << "txn " << record.id << " diverged";
    EXPECT_FALSE(audit.damage_ground_truth) << "txn " << record.id;
    EXPECT_FALSE(audit.any_heuristic) << "txn " << record.id;
    EXPECT_EQ(c.tm(record.coordinator).InDoubtCount(), 0u);

    // All-or-nothing markers. A node's marker exists iff its local view
    // committed; cross-node agreement is what matters.
    const std::string key = TxnKey(record.id);
    int with_marker = 0;
    int participants_with_state = 0;
    for (const std::string& node : record.participants) {
      Outcome o = c.tm(node).View(record.id).outcome;
      if (o == Outcome::kUnknown || o == Outcome::kActive) continue;
      // A read-only view means the node's work was lost before prepare
      // (e.g. its APP_DATA dropped in a partition, or a crash wiped its
      // unprepared updates): it correctly guaranteed nothing, so no
      // marker is expected of it.
      if (o == Outcome::kReadOnly) continue;
      ++participants_with_state;
      if (c.node(node).rm().Peek(key).ok()) ++with_marker;
    }
    if (participants_with_state > 0) {
      EXPECT_TRUE(with_marker == 0 || with_marker == participants_with_state)
          << "txn " << record.id << ": " << with_marker << "/"
          << participants_with_state << " markers present";
    }
  }
}

std::string CaseName(
    const ::testing::TestParamInfo<std::tuple<ProtocolKind, uint64_t>>& info) {
  auto [protocol, seed] = info.param;
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
  return name + "_seed" + std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(
    Chaos, RandomWorkloadTest,
    ::testing::Combine(::testing::Values(ProtocolKind::kPresumedAbort,
                                         ProtocolKind::kPresumedNothing,
                                         ProtocolKind::kPresumedCommit),
                       ::testing::Values<uint64_t>(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)),
    CaseName);

}  // namespace
}  // namespace tpc
