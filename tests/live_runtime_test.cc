// Live-backend tests: the same protocol engines on real threads.
//
//  - LiveRuntime substrate: mailbox FIFO, timer fire, claim-on-run cancel.
//  - LiveTransport: unknown peers rejected with their payloads recycled,
//    a trace-tagged message delivered whole, deliveries to a down endpoint
//    dropped, per-pair FIFO and a bounded payload pool under four sender
//    threads, and no new name once the first message went out.
//  - Deferred log syncs: a node's mailbox runs while its device syncs,
//    WaitIdle covers syncs in flight, and a crash mid-sync leaves the
//    durable mirror equal to the file.
//  - Sim/live equivalence: one PA commit + one abort driven through both
//    backends produce the same decisions, the same per-node durable
//    log-record sequences, the same stores, and the same lock-release
//    behavior (a follow-up writer is granted immediately on both).
//  - Live smoke: a batch of closed-loop commits completes atomically, and
//    so do four contended coordinator/subordinate pairs, one family each.
//  - Kill-and-recover: stop a cluster, rebuild it on the same directory,
//    and recover committed effects from the fsync'd files — the proof that
//    FileStorage's durability claim is real.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness/cluster.h"
#include "harness/live_cluster.h"
#include "runtime/live_transport.h"
#include "wal/file_storage.h"
#include "wal/log_record.h"

namespace tpc {
namespace {

using harness::Cluster;
using harness::LiveCluster;
using harness::LiveClusterOptions;
using harness::LiveNode;
using harness::LiveNodeOptions;
using harness::NodeOptions;
using tm::Outcome;
using tm::ProtocolKind;

std::string FreshDir(const std::string& tag) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("tpc_live_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir.string();
}

// --- substrate ---------------------------------------------------------------

TEST(LiveRuntimeTest, MailboxFifoAndTimers) {
  runtime::LiveRuntime rt(runtime::LiveOptions{2, 100});
  runtime::LiveNodeRuntime* n = rt.AddNode("n");
  rt.Start();

  // Tasks posted from one thread run in order.
  std::vector<int> order;
  for (int i = 0; i < 100; ++i)
    n->Post(runtime::Task([&order, i] { order.push_back(i); }));
  rt.WaitIdle();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);

  // A short timer fires, on the owning node's context.
  std::promise<void> fired;
  n->Post(runtime::Task([n, &fired] {
    n->ArmTimer(2'000, [&fired] { fired.set_value(); });
  }));
  ASSERT_EQ(fired.get_future().wait_for(std::chrono::seconds(10)),
            std::future_status::ready);

  // Cancel before fire returns true and suppresses the callback.
  std::atomic<bool> ran{false};
  std::promise<bool> cancelled;
  n->Post(runtime::Task([n, &ran, &cancelled] {
    runtime::TimerId id = n->ArmTimer(60'000'000, [&ran] { ran = true; });
    cancelled.set_value(n->CancelTimer(id));
  }));
  EXPECT_TRUE(cancelled.get_future().get());
  rt.WaitIdle();
  rt.Stop();
  EXPECT_FALSE(ran.load());
}

// --- live transport ----------------------------------------------------------

// Counts deliveries and, for sequence-numbered payloads, checks that each
// sender's messages arrive in send order.
class CheckingEndpoint final : public net::Endpoint {
 public:
  CheckingEndpoint(runtime::LiveTransport* transport, size_t senders)
      : transport_(transport), next_(senders), received_(senders) {}

  void OnMessage(const net::Message& msg) override {
    ++delivered_;
    const std::string_view payload = transport_->PayloadOf(msg);
    last_tag_.assign(msg.TagView());
    last_payload_.assign(payload);
    last_txn_ = msg.txn;
    if (payload.size() != sizeof(uint64_t) || msg.from >= next_.size()) return;
    uint64_t seq;
    std::memcpy(&seq, payload.data(), sizeof(seq));
    if (seq != next_[msg.from]) ++out_of_order_;
    next_[msg.from] = seq + 1;
    received_[msg.from].fetch_add(1);
  }
  bool IsUp() const override { return up.load(); }

  /// Messages from `sender` delivered so far (any thread).
  uint64_t received_from(uint32_t sender) const {
    return received_[sender].load();
  }
  // Read these after the runtime went idle.
  uint64_t delivered() const { return delivered_; }
  uint64_t out_of_order() const { return out_of_order_; }
  const std::string& last_tag() const { return last_tag_; }
  const std::string& last_payload() const { return last_payload_; }
  uint64_t last_txn() const { return last_txn_; }

  std::atomic<bool> up{true};

 private:
  runtime::LiveTransport* transport_;
  std::vector<uint64_t> next_;  ///< next expected sequence number per sender
  std::vector<std::atomic<uint64_t>> received_;
  uint64_t delivered_ = 0;
  uint64_t out_of_order_ = 0;
  std::string last_tag_;
  std::string last_payload_;
  uint64_t last_txn_ = 0;
};

// Sends `payload` from `from` to `to` in a freshly acquired buffer.
Status SendBytes(runtime::LiveTransport& transport, uint32_t from, uint32_t to,
                 std::string_view payload) {
  net::Message msg;
  msg.from = from;
  msg.to = to;
  msg.payload = transport.AcquirePayload();
  transport.PayloadBuffer(msg.payload).assign(payload);
  return transport.Send(std::move(msg));
}

TEST(LiveTransportTest, RejectsUnknownPeersAndRecyclesTheirPayloads) {
  runtime::LiveRuntime rt(runtime::LiveOptions{1, 100});
  runtime::LiveTransport transport;
  CheckingEndpoint a(&transport, 0), b(&transport, 0);
  transport.Bind("a", rt.AddNode("a"));
  transport.Register("a", &a);
  transport.Bind("b", rt.AddNode("b"));
  transport.Register("b", &b);
  const uint32_t ghost = transport.InternId("ghost");  // never registered
  const uint32_t ida = transport.IdOf("a");
  const uint32_t idb = transport.IdOf("b");
  rt.Start();

  for (int i = 0; i < 10; ++i) {
    Status st = SendBytes(transport, ghost, idb, "x");
    EXPECT_TRUE(st.IsInvalidArgument());
    EXPECT_NE(st.ToString().find("unknown sender: ghost"), std::string::npos)
        << st.ToString();
    st = SendBytes(transport, ida, net::Transport::kNoId, "x");
    EXPECT_TRUE(st.IsInvalidArgument());
    EXPECT_NE(st.ToString().find("unknown destination: (uninterned id)"),
              std::string::npos)
        << st.ToString();
  }
  // Every rejected message handed its buffer back: one buffer served all 20.
  EXPECT_EQ(transport.payload_buffers(), 1u);
  EXPECT_TRUE(SendBytes(transport, ida, idb, "x").ok());
  rt.WaitIdle();
  rt.Stop();

  const runtime::LiveTransport::Stats stats = transport.stats();
  EXPECT_EQ(stats.messages_rejected, 20u);
  EXPECT_EQ(stats.messages_sent, 1u);
  EXPECT_EQ(stats.messages_delivered, 1u);
  EXPECT_EQ(stats.bytes_sent, 1u);
  EXPECT_EQ(b.delivered(), 1u);
  EXPECT_EQ(transport.payload_buffers(), 1u);
}

// A trace-tagged message cannot ride the inline delivery task; it takes
// the heap-closure path and arrives whole.
TEST(LiveTransportTest, DeliversATraceTaggedLegacyMessage) {
  runtime::LiveRuntime rt(runtime::LiveOptions{1, 100});
  runtime::LiveTransport transport;
  CheckingEndpoint a(&transport, 0), b(&transport, 0);
  transport.Bind("a", rt.AddNode("a"));
  transport.Register("a", &a);
  transport.Bind("b", rt.AddNode("b"));
  transport.Register("b", &b);
  rt.Start();

  net::LegacyMessage msg;
  msg.from = "a";
  msg.to = "b";
  msg.kind = net::MsgKind::kApp;
  msg.trace_tag = "PREPARE+ACK";
  msg.payload = "payload";
  msg.txn = 42;
  EXPECT_TRUE(transport.SendLegacy(std::move(msg)).ok());
  rt.WaitIdle();
  rt.Stop();

  EXPECT_EQ(b.delivered(), 1u);
  EXPECT_EQ(b.last_tag(), "PREPARE+ACK");
  EXPECT_EQ(b.last_payload(), "payload");
  EXPECT_EQ(b.last_txn(), 42u);
  EXPECT_EQ(transport.stats().bytes_sent, 7u);
}

TEST(LiveTransportTest, DropsMessagesToADownEndpoint) {
  runtime::LiveRuntime rt(runtime::LiveOptions{1, 100});
  runtime::LiveTransport transport;
  CheckingEndpoint a(&transport, 0), b(&transport, 0);
  transport.Bind("a", rt.AddNode("a"));
  transport.Register("a", &a);
  transport.Bind("b", rt.AddNode("b"));
  transport.Register("b", &b);
  b.up = false;
  rt.Start();

  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(SendBytes(transport, transport.IdOf("a"), transport.IdOf("b"),
                          "lost")
                    .ok());
    rt.WaitIdle();
  }
  rt.Stop();

  const runtime::LiveTransport::Stats stats = transport.stats();
  EXPECT_EQ(stats.messages_sent, 5u);
  EXPECT_EQ(stats.messages_dropped, 5u);
  EXPECT_EQ(stats.messages_delivered, 0u);
  EXPECT_EQ(b.delivered(), 0u);
  // Each drop released its buffer before the next send acquired one.
  EXPECT_EQ(transport.payload_buffers(), 1u);
}

// Four sender threads, each sending sequence-numbered messages to two
// receivers on a two-worker runtime, with at most kWindow of its messages
// undelivered at a time.
TEST(LiveTransportTest, FourSendersKeepPerPairFifoAndABoundedPool) {
  constexpr uint32_t kSenders = 4;
  constexpr uint32_t kReceivers = 2;
  constexpr uint64_t kMessages = 2000;  // per sender
  constexpr uint64_t kWindow = 8;
  runtime::LiveRuntime rt(runtime::LiveOptions{2, 100});
  runtime::LiveTransport transport;
  std::vector<std::unique_ptr<CheckingEndpoint>> endpoints;
  std::vector<uint32_t> senders, receivers;
  for (uint32_t i = 0; i < kSenders + kReceivers; ++i) {
    const std::string name =
        i < kSenders ? "s" + std::to_string(i)
                     : "r" + std::to_string(i - kSenders);
    endpoints.push_back(std::make_unique<CheckingEndpoint>(
        &transport, kSenders + kReceivers));
    transport.Bind(name, rt.AddNode(name));
    transport.Register(name, endpoints.back().get());
    (i < kSenders ? senders : receivers).push_back(transport.IdOf(name));
  }
  rt.Start();

  std::vector<std::thread> threads;
  for (uint32_t s = 0; s < kSenders; ++s) {
    threads.emplace_back([&, s] {
      const uint32_t from = senders[s];
      uint64_t seq[kReceivers] = {};
      for (uint64_t i = 0; i < kMessages; ++i) {
        for (;;) {
          uint64_t received = 0;
          for (uint32_t r = 0; r < kReceivers; ++r)
            received += endpoints[kSenders + r]->received_from(from);
          if (i - received < kWindow) break;
          std::this_thread::yield();
        }
        const uint32_t r = static_cast<uint32_t>(i % kReceivers);
        std::string payload(sizeof(uint64_t), '\0');
        std::memcpy(payload.data(), &seq[r], sizeof(uint64_t));
        ++seq[r];
        EXPECT_TRUE(SendBytes(transport, from, receivers[r], payload).ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  rt.WaitIdle();
  rt.Stop();

  const runtime::LiveTransport::Stats stats = transport.stats();
  EXPECT_EQ(stats.messages_sent, kSenders * kMessages);
  EXPECT_EQ(stats.messages_delivered, stats.messages_sent);
  EXPECT_EQ(stats.messages_dropped + stats.messages_rejected, 0u);
  EXPECT_EQ(stats.bytes_sent, kSenders * kMessages * sizeof(uint64_t));
  uint64_t delivered = 0;
  for (uint32_t r = 0; r < kReceivers; ++r) {
    delivered += endpoints[kSenders + r]->delivered();
    EXPECT_EQ(endpoints[kSenders + r]->out_of_order(), 0u) << "receiver " << r;
  }
  EXPECT_EQ(delivered, kSenders * kMessages);
  // At most kWindow buffers per sender are ever out at once, plus one per
  // receiver still finishing its upcall.
  EXPECT_LE(transport.payload_buffers(), kSenders * kWindow + kReceivers);
}

TEST(LiveTransportDeathTest, NewNameAfterTheFirstSendDies) {
  runtime::LiveRuntime rt(runtime::LiveOptions{1, 100});  // never started
  runtime::LiveTransport transport;
  CheckingEndpoint a(&transport, 0), late(&transport, 0);
  transport.Bind("a", rt.AddNode("a"));
  transport.Register("a", &a);
  const uint32_t ida = transport.IdOf("a");
  EXPECT_TRUE(SendBytes(transport, ida, ida, "x").ok());
  // Names interned during setup still resolve.
  EXPECT_EQ(transport.InternId("a"), ida);
  EXPECT_EQ(transport.IdOf("late"), net::Transport::kNoId);
  EXPECT_DEATH(transport.InternId("late"), "CHECK failed");
  EXPECT_DEATH(transport.Register("late", &late), "CHECK failed");
}

// --- deferred log syncs ------------------------------------------------------

// A FileStorage on `node`'s mailbox with a slow (100 ms) device.
std::unique_ptr<wal::FileStorage> SlowFile(runtime::LiveNodeRuntime* node,
                                           const std::string& dir) {
  std::filesystem::create_directories(dir);
  wal::FileStorageOptions options;
  options.floor_us = 100'000;
  return std::make_unique<wal::FileStorage>(
      dir + "/n.log",
      [node](wal::StorageBackend::WriteCallback&& done) {
        node->Post(runtime::Task([cb = std::move(done)]() mutable { cb(); }));
      },
      options);
}

std::string FileContents(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// The node's mailbox keeps running while its device syncs: a task posted
// after a force was issued runs before the force's ack, and WaitIdle does
// not return while that sync is in flight.
TEST(LiveRuntimeTest, MailboxRunsWhileTheDeviceSyncs) {
  runtime::LiveRuntime rt(runtime::LiveOptions{2, 100});
  runtime::LiveNodeRuntime* n = rt.AddNode("n");
  const std::string dir = FreshDir("sync_overlap");
  std::unique_ptr<wal::FileStorage> file = SlowFile(n, dir);
  rt.Start();

  std::atomic<bool> acked{false};
  std::promise<void> issued;
  n->Post(runtime::Task([&file, &acked, &issued] {
    file->Write("forced", [&acked] { acked = true; });
    EXPECT_EQ(file->writes_outstanding(), 1u);
    issued.set_value();
  }));
  issued.get_future().wait();
  std::promise<bool> acked_at_task;
  n->Post(runtime::Task([&acked, &acked_at_task] {
    acked_at_task.set_value(acked.load());
  }));
  EXPECT_FALSE(acked_at_task.get_future().get())
      << "the task waited for the node's own fsync";
  rt.WaitIdle();
  EXPECT_TRUE(acked.load()) << "WaitIdle returned with a sync in flight";
  rt.Stop();
  EXPECT_EQ(file->durable(), "forced");
  EXPECT_EQ(file->writes_outstanding(), 0u);
  EXPECT_GE(file->sync_wall_us(), 100'000);
  file.reset();
  std::filesystem::remove_all(dir);
}

// Crash() with a sync in flight: the write in service finishes and
// survives, the queued one is lost, durable() equals the file byte for
// byte, a reopened FileStorage reloads the same image, and no stale
// completion runs.
TEST(LiveRuntimeTest, CrashWithSyncInFlightKeepsMirrorEqualToFile) {
  runtime::LiveRuntime rt(runtime::LiveOptions{2, 100});
  runtime::LiveNodeRuntime* n = rt.AddNode("n");
  const std::string dir = FreshDir("sync_crash");
  std::unique_ptr<wal::FileStorage> file = SlowFile(n, dir);
  rt.Start();

  std::atomic<int> acks{0};
  std::promise<void> issued;
  n->Post(runtime::Task([&file, &acks, &issued] {
    file->Write("first|", [&acks] { ++acks; });
    file->Write("second|", [&acks] { ++acks; });
    issued.set_value();
  }));
  issued.get_future().wait();
  // The first write is in service once its bytes reach the file: the drain
  // then sits out the 100 ms floor before it can ack.
  const std::string path = dir + "/n.log";
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (FileContents(path).empty() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::string after_crash;
  std::string on_disk;
  std::promise<void> crashed;
  n->Post(runtime::Task([&] {
    file->Crash();
    after_crash = file->durable();
    on_disk = FileContents(path);
    EXPECT_EQ(file->writes_outstanding(), 0u);
    crashed.set_value();
  }));
  crashed.get_future().wait();
  rt.WaitIdle();
  rt.Stop();

  EXPECT_EQ(after_crash, on_disk);
  EXPECT_FALSE(after_crash.empty()) << "the write in service was lost";
  EXPECT_EQ(std::string("first|second|").rfind(after_crash, 0), 0u);
  EXPECT_EQ(file->durable(), after_crash);
  EXPECT_EQ(acks.load(), 0) << "a completion from before the crash ran";
  wal::FileStorage reopened(path, [](wal::StorageBackend::WriteCallback&&) {});
  EXPECT_EQ(reopened.durable(), after_crash);
  file.reset();
  std::filesystem::remove_all(dir);
}

// --- sim/live equivalence ----------------------------------------------------

struct NodeImage {
  std::vector<std::string> records;  ///< "type txn owner" in append order
  std::map<std::string, std::string, std::less<>> store;
};

std::vector<std::string> RecordSeq(std::string_view durable) {
  std::vector<std::string> out;
  for (const wal::LogRecord& r : wal::ScanLog(durable)) {
    out.push_back(std::string(wal::RecordTypeToString(r.type)) + " " +
                  std::to_string(r.txn) + " " + r.owner);
  }
  return out;
}

// Drives the scenario on the simulated cluster: txn1 commits across
// coord+sub1+sub2, txn2 (coord+sub1) aborts, then a follow-up write probes
// lock release. Returns per-node images plus the commit outcome.
std::map<std::string, NodeImage> RunScenarioSim(Outcome* commit_outcome,
                                                bool* followup_granted) {
  Cluster c;
  NodeOptions o;
  o.tm.protocol = ProtocolKind::kPresumedAbort;
  for (const char* n : {"coord", "sub1", "sub2"}) c.AddNode(n, o);
  c.Connect("coord", "sub1");
  c.Connect("coord", "sub2");
  for (const char* n : {"sub1", "sub2"}) {
    std::string name = n;
    c.tm(name).SetAppDataHandler(
        [&c, name](uint64_t txn, const net::NodeId&, std::string_view data) {
          c.tm(name).Write(txn, 0, std::string(data), "v@" + name,
                           [](Status st) { ASSERT_TRUE(st.ok()); });
        });
  }

  uint64_t txn1 = c.tm("coord").Begin();
  c.tm("coord").Write(txn1, 0, "ck", "cv",
                      [](Status st) { ASSERT_TRUE(st.ok()); });
  EXPECT_TRUE(c.tm("coord").SendWork(txn1, "sub1", "k1").ok());
  EXPECT_TRUE(c.tm("coord").SendWork(txn1, "sub2", "k2").ok());
  c.Drain();
  harness::DrivenCommit commit = c.CommitAndWait("coord", txn1);
  EXPECT_TRUE(commit.completed);
  *commit_outcome = commit.result.outcome;
  c.Drain();

  uint64_t txn2 = c.tm("coord").Begin();
  c.tm("coord").Write(txn2, 0, "ak", "av",
                      [](Status st) { ASSERT_TRUE(st.ok()); });
  EXPECT_TRUE(c.tm("coord").SendWork(txn2, "sub1", "k1").ok());
  c.Drain();
  c.tm("coord").AbortTxn(txn2);
  c.Drain();

  // Lock release: the aborted txn's locks are free again.
  uint64_t txn3 = c.tm("coord").Begin();
  bool granted = false;
  c.tm("coord").Write(txn3, 0, "ck", "x",
                      [&granted](Status st) { granted = st.ok(); });
  c.Drain();
  *followup_granted = granted;
  c.tm("coord").AbortTxn(txn3);
  c.Drain();

  std::map<std::string, NodeImage> images;
  for (const char* n : {"coord", "sub1", "sub2"}) {
    c.node(n).log().RequestForce(nullptr);
    c.Drain();
    NodeImage& img = images[n];
    img.records = RecordSeq(c.node(n).log().storage().durable());
    img.store = c.node(n).rm().store();
  }
  return images;
}

// The same scenario, live: every protocol call posted to the owning node.
std::map<std::string, NodeImage> RunScenarioLive(Outcome* commit_outcome,
                                                 bool* followup_granted) {
  LiveClusterOptions opts;
  opts.worker_threads = 3;
  opts.dir = FreshDir("equiv");
  LiveCluster c(opts);
  LiveNodeOptions o;
  o.tm.protocol = ProtocolKind::kPresumedAbort;
  for (const char* n : {"coord", "sub1", "sub2"}) c.AddNode(n, o);
  c.Connect("coord", "sub1");
  c.Connect("coord", "sub2");
  for (const char* n : {"sub1", "sub2"}) {
    std::string name = n;
    c.tm(name).SetAppDataHandler(
        [&c, name](uint64_t txn, const net::NodeId&, std::string_view data) {
          c.tm(name).Write(txn, 0, std::string(data), "v@" + name,
                           [](Status st) { ASSERT_TRUE(st.ok()); });
        });
  }
  c.Start();

  uint64_t txn1 = 0;
  c.RunOn("coord", [&c, &txn1] {
    txn1 = c.tm("coord").Begin();
    c.tm("coord").Write(txn1, 0, "ck", "cv",
                        [](Status st) { ASSERT_TRUE(st.ok()); });
    EXPECT_TRUE(c.tm("coord").SendWork(txn1, "sub1", "k1").ok());
    EXPECT_TRUE(c.tm("coord").SendWork(txn1, "sub2", "k2").ok());
  });
  c.WaitIdle();  // subs processed the app data

  std::promise<tm::CommitResult> committed;
  c.Post("coord", [&c, txn1, &committed] {
    c.tm("coord").Commit(txn1, [&committed](tm::CommitResult r) {
      committed.set_value(r);
    });
  });
  tm::CommitResult commit = committed.get_future().get();
  *commit_outcome = commit.outcome;

  uint64_t txn2 = 0;
  c.RunOn("coord", [&c, &txn2] {
    txn2 = c.tm("coord").Begin();
    c.tm("coord").Write(txn2, 0, "ak", "av",
                        [](Status st) { ASSERT_TRUE(st.ok()); });
    EXPECT_TRUE(c.tm("coord").SendWork(txn2, "sub1", "k1").ok());
  });
  c.WaitIdle();
  c.RunOn("coord", [&c, txn2] { c.tm("coord").AbortTxn(txn2); });
  // The abort fans out asynchronously; wait until every node forgot it.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
  for (;;) {
    c.WaitIdle();
    bool known = false;
    for (const char* n : {"coord", "sub1", "sub2"}) {
      c.RunOn(n, [&c, n, txn2, &known] {
        if (c.tm(n).Knows(txn2)) known = true;
      });
    }
    if (!known) break;
    if (std::chrono::steady_clock::now() >= deadline) {
      ADD_FAILURE() << "abort did not quiesce within the deadline";
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  bool granted = false;
  c.RunOn("coord", [&c, &granted] {
    uint64_t txn3 = c.tm("coord").Begin();
    c.tm("coord").Write(txn3, 0, "ck", "x",
                        [&granted](Status st) { granted = st.ok(); });
    c.tm("coord").AbortTxn(txn3);
  });
  c.WaitIdle();
  *followup_granted = granted;

  std::map<std::string, NodeImage> images;
  for (const char* n : {"coord", "sub1", "sub2"}) {
    std::promise<void> forced;
    c.Post(n, [&c, n, &forced] {
      c.node(n).log().RequestForce([&forced] { forced.set_value(); });
    });
    forced.get_future().wait();
    NodeImage& img = images[n];
    c.RunOn(n, [&c, n, &img] {
      img.records = RecordSeq(c.node(n).log().storage().durable());
      img.store = c.node(n).rm().store();
    });
  }
  c.Stop();
  return images;
}

TEST(SimLiveEquivalenceTest, SameDecisionsLogsAndStores) {
  Outcome sim_outcome = Outcome::kUnknown;
  Outcome live_outcome = Outcome::kUnknown;
  bool sim_granted = false;
  bool live_granted = false;
  std::map<std::string, NodeImage> sim =
      RunScenarioSim(&sim_outcome, &sim_granted);
  std::map<std::string, NodeImage> live =
      RunScenarioLive(&live_outcome, &live_granted);

  EXPECT_EQ(sim_outcome, Outcome::kCommitted);
  EXPECT_EQ(live_outcome, sim_outcome);
  EXPECT_TRUE(sim_granted);
  EXPECT_EQ(live_granted, sim_granted);
  for (const char* n : {"coord", "sub1", "sub2"}) {
    EXPECT_EQ(live[n].records, sim[n].records) << "log divergence at " << n;
    EXPECT_EQ(live[n].store, sim[n].store) << "store divergence at " << n;
  }
}

// --- live smoke --------------------------------------------------------------

void RunClosedLoopAtomicity(ProtocolKind protocol, const std::string& tag,
                            int txns) {
  LiveClusterOptions opts;
  opts.worker_threads = 4;
  opts.dir = FreshDir(tag);
  LiveCluster c(opts);
  LiveNodeOptions o;
  o.tm.protocol = protocol;
  // Paxos: the three nodes double as the 2F+1 acceptor set (F=1), so the
  // accept forces land on real files and the 2a/2b fan-out crosses real
  // mailboxes.
  if (tm::IsPaxos(protocol)) o.tm.acceptors = {"coord", "sub1", "sub2"};
  for (const char* n : {"coord", "sub1", "sub2"}) c.AddNode(n, o);
  c.Connect("coord", "sub1");
  c.Connect("coord", "sub2");
  if (tm::IsPaxos(protocol)) c.Connect("sub1", "sub2");
  for (const char* n : {"sub1", "sub2"}) {
    std::string name = n;
    c.tm(name).SetAppDataHandler(
        [&c, name](uint64_t txn, const net::NodeId&, std::string_view data) {
          c.tm(name).Write(txn, 0, std::string(data), "v" + std::to_string(txn),
                           [](Status st) { ASSERT_TRUE(st.ok()); });
        });
  }
  c.Start();

  const int kTxns = txns;
  for (int i = 0; i < kTxns; ++i) {
    uint64_t txn = 0;
    std::string key = "k" + std::to_string(i);
    c.RunOn("coord", [&c, &txn, &key] {
      txn = c.tm("coord").Begin();
      c.tm("coord").Write(txn, 0, "c_" + key, "cv",
                          [](Status st) { ASSERT_TRUE(st.ok()); });
      EXPECT_TRUE(c.tm("coord").SendWork(txn, "sub1", key).ok());
      EXPECT_TRUE(c.tm("coord").SendWork(txn, "sub2", key).ok());
    });
    c.WaitIdle();
    std::promise<tm::CommitResult> done;
    c.Post("coord", [&c, txn, &done] {
      c.tm("coord").Commit(txn, [&done](tm::CommitResult r) {
        done.set_value(r);
      });
    });
    tm::CommitResult r = done.get_future().get();
    ASSERT_EQ(r.outcome, Outcome::kCommitted) << "txn " << txn;
    ASSERT_FALSE(r.heuristic_damage);
    // Atomicity: a committed transaction's effects are present everywhere.
    std::string expect = "v" + std::to_string(txn);
    for (const char* n : {"sub1", "sub2"}) {
      c.RunOn(n, [&c, n, &key, &expect] {
        EXPECT_EQ(c.node(n).rm().Peek(key).value_or(""), expect);
      });
    }
  }
  c.Stop();
}

TEST(LiveClusterTest, ClosedLoopCommitsAreAtomic) {
  RunClosedLoopAtomicity(ProtocolKind::kPresumedAbort, "smoke", 25);
}

// The new protocol families run on the live runtime unchanged — same
// engine, real threads, real fsync. These are the cells the TSan CI job
// race-checks: the paxos acceptor state and the one-phase quiesce timer
// both live on the per-node worker, so a locking mistake in either shows
// up here.
TEST(LiveClusterTest, PaxosCommitClosedLoopIsAtomic) {
  RunClosedLoopAtomicity(ProtocolKind::kPaxosCommit, "live_paxos", 10);
}

TEST(LiveClusterTest, OnePhaseClosedLoopIsAtomic) {
  RunClosedLoopAtomicity(ProtocolKind::kOnePhase, "live_1pc", 10);
}

TEST(LiveClusterTest, OnePhaseLoglessClosedLoopIsAtomic) {
  RunClosedLoopAtomicity(ProtocolKind::kOnePhaseLogless, "live_1pc_ll", 10);
}

// Four independent coordinator/subordinate pairs, one protocol family
// each, one closed-loop client thread per pair, on two and then four
// workers: the transport, mailboxes, ready queue and timer wheel under
// contention. Every commit completes, and its writes are present at both
// ends of its pair.
TEST(LiveClusterTest, ContendedPairsCommitAtomically) {
  constexpr int kPairs = 4;
  constexpr int kTxnsPerPair = 20;
  std::vector<tm::TmConfig> families(kPairs);
  families[0].protocol = ProtocolKind::kBasic2PC;
  families[1].protocol = ProtocolKind::kPresumedAbort;
  families[2].protocol = ProtocolKind::kPresumedAbort;
  families[2].last_agent_opt = true;
  families[3].protocol = ProtocolKind::kPresumedNothing;
  for (int workers : {2, 4}) {
    LiveClusterOptions opts;
    opts.worker_threads = workers;
    opts.dir = FreshDir("contended_w" + std::to_string(workers));
    LiveCluster c(opts);
    for (int p = 0; p < kPairs; ++p) {
      LiveNodeOptions o;
      o.tm = families[p];
      const std::string coord = "c" + std::to_string(p);
      const std::string sub = "s" + std::to_string(p);
      c.AddNode(coord, o);
      c.AddNode(sub, o);
      c.Connect(coord, sub);
      c.tm(sub).SetAppDataHandler(
          [&c, sub](uint64_t txn, const net::NodeId&, std::string_view) {
            c.tm(sub).Write(txn, 0, "s" + std::to_string(txn), "v",
                            [](Status st) { EXPECT_TRUE(st.ok()); });
          });
    }
    c.Start();

    std::vector<std::vector<uint64_t>> committed(kPairs);
    std::vector<std::thread> clients;
    for (int p = 0; p < kPairs; ++p) {
      clients.emplace_back([&c, &committed, p] {
        const std::string coord = "c" + std::to_string(p);
        const std::string sub = "s" + std::to_string(p);
        for (int i = 0; i < kTxnsPerPair; ++i) {
          uint64_t txn = 0;
          c.RunOn(coord, [&c, &coord, &sub, &txn] {
            txn = c.tm(coord).Begin();
            c.tm(coord).Write(txn, 0, "k" + std::to_string(txn), "v",
                              [](Status st) { EXPECT_TRUE(st.ok()); });
            EXPECT_TRUE(c.tm(coord).SendWork(txn, sub, "w").ok());
          });
          std::promise<tm::CommitResult> done;
          c.Post(coord, [&c, &coord, txn, &done] {
            c.tm(coord).Commit(
                txn, [&done](tm::CommitResult r) { done.set_value(r); });
          });
          const tm::CommitResult r = done.get_future().get();
          EXPECT_EQ(r.outcome, Outcome::kCommitted) << coord << " txn " << txn;
          EXPECT_FALSE(r.heuristic_damage);
          if (r.outcome == Outcome::kCommitted) committed[p].push_back(txn);
        }
      });
    }
    for (std::thread& t : clients) t.join();

    for (int p = 0; p < kPairs; ++p) {
      EXPECT_EQ(committed[p].size(), static_cast<size_t>(kTxnsPerPair))
          << "pair " << p << ", " << workers << " workers";
      const std::string coord = "c" + std::to_string(p);
      const std::string sub = "s" + std::to_string(p);
      for (uint64_t txn : committed[p]) {
        c.RunOn(coord, [&c, &coord, txn] {
          EXPECT_TRUE(c.node(coord).rm().Peek("k" + std::to_string(txn)).ok())
              << coord << " lost txn " << txn;
        });
        c.RunOn(sub, [&c, &sub, txn] {
          EXPECT_TRUE(c.node(sub).rm().Peek("s" + std::to_string(txn)).ok())
              << sub << " lost txn " << txn;
        });
      }
    }
    c.Stop();
    std::filesystem::remove_all(opts.dir);
  }
}

// --- kill and recover --------------------------------------------------------

TEST(LiveClusterTest, RecoversCommittedStateFromFiles) {
  const std::string dir = FreshDir("recover");
  constexpr int kTxns = 5;

  // Phase 1: commit kTxns transactions, force the log tails, stop.
  {
    LiveCluster c(LiveClusterOptions{2, 250, dir, true});
    LiveNodeOptions o;
    o.tm.protocol = ProtocolKind::kPresumedAbort;
    c.AddNode("coord", o);
    c.AddNode("sub", o);
    c.Connect("coord", "sub");
    c.tm("sub").SetAppDataHandler(
        [&c](uint64_t txn, const net::NodeId&, std::string_view data) {
          c.tm("sub").Write(txn, 0, std::string(data),
                            "sv" + std::to_string(txn),
                            [](Status st) { ASSERT_TRUE(st.ok()); });
        });
    c.Start();
    for (int i = 0; i < kTxns; ++i) {
      uint64_t txn = 0;
      std::string key = "k" + std::to_string(i);
      c.RunOn("coord", [&c, &txn, &key] {
        txn = c.tm("coord").Begin();
        c.tm("coord").Write(txn, 0, "c_" + key, "cv",
                            [](Status st) { ASSERT_TRUE(st.ok()); });
        EXPECT_TRUE(c.tm("coord").SendWork(txn, "sub", key).ok());
      });
      c.WaitIdle();
      std::promise<tm::CommitResult> done;
      c.Post("coord", [&c, txn, &done] {
        c.tm("coord").Commit(txn, [&done](tm::CommitResult r) {
          done.set_value(r);
        });
      });
      ASSERT_EQ(done.get_future().get().outcome, Outcome::kCommitted);
    }
    for (const char* n : {"coord", "sub"}) {
      std::promise<void> forced;
      c.Post(n, [&c, n, &forced] {
        c.node(n).log().RequestForce([&forced] { forced.set_value(); });
      });
      forced.get_future().wait();
    }
    c.Stop();
  }

  // Phase 2: a fresh cluster on the same directory. FileStorage reloads the
  // fsync'd files; crash-then-restart replays them into the RMs.
  {
    LiveCluster c(LiveClusterOptions{2, 250, dir, true});
    LiveNodeOptions o;
    o.tm.protocol = ProtocolKind::kPresumedAbort;
    c.AddNode("coord", o);
    c.AddNode("sub", o);
    c.Connect("coord", "sub");
    c.Start();
    for (const char* n : {"coord", "sub"}) {
      c.RunOn(n, [&c, n] {
        LiveNode& node = c.node(n);
        node.tm().Crash();
        node.rm().Crash();
        node.log().Crash();
        node.tm().Restart();
      });
    }
    c.WaitIdle();
    // Every committed transaction's effects came back from disk.
    c.RunOn("sub", [&c] {
      for (int i = 0; i < kTxns; ++i) {
        std::string key = "k" + std::to_string(i);
        std::string got = c.node("sub").rm().Peek(key).value_or("");
        EXPECT_TRUE(got.rfind("sv", 0) == 0) << key << " -> " << got;
      }
    });
    c.RunOn("coord", [&c] {
      for (int i = 0; i < kTxns; ++i) {
        std::string key = "c_k" + std::to_string(i);
        EXPECT_EQ(c.node("coord").rm().Peek(key).value_or(""), "cv");
      }
    });
    c.Stop();
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tpc
