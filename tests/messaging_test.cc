// Zero-allocation messaging hot path: pooled payload buffers, in-place PDU
// encode/decode (PduWriter/PduCursor) and the trace describer over it,
// malformed payload fuzzing, and a counting-allocator proof that a
// steady-state send -> deliver -> decode round trip touches the allocator
// zero times.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "net/network.h"
#include "runtime/sim_runtime.h"
#include "sim/sim_context.h"
#include "support/counting_allocator.h"
#include "tm/protocol_messages.h"
#include "util/binary_io.h"

namespace tpc {
namespace {

using test_support::AllocationCount;

// --- payload pool ------------------------------------------------------------

class CountingEndpoint : public net::Endpoint {
 public:
  explicit CountingEndpoint(net::Network* network) : network_(network) {}
  void OnMessage(const net::Message& msg) override {
    ++deliveries;
    last_payload.assign(network_->PayloadOf(msg));
  }
  bool IsUp() const override { return true; }
  uint64_t deliveries = 0;
  std::string last_payload;

 protected:
  net::Network* network_;
};

TEST(PayloadPoolTest, BuffersAreRecycledAfterDelivery) {
  sim::SimContext ctx;
  net::Network network(&ctx);
  CountingEndpoint a(&network), b(&network);
  network.Register("a", &a);
  network.Register("b", &b);

  net::Message msg;
  msg.from = network.IdOf("a");
  msg.to = network.IdOf("b");
  msg.payload = network.AcquirePayload();
  const uint32_t index = msg.payload.index;
  network.PayloadBuffer(msg.payload) = "hello";
  ASSERT_TRUE(network.Send(std::move(msg)).ok());
  ctx.events().Run();
  EXPECT_EQ(b.last_payload, "hello");

  // The delivered buffer went back on the free list; the next acquire hands
  // out the same slot, cleared but with its capacity intact.
  net::PayloadRef reused = network.AcquirePayload();
  EXPECT_EQ(reused.index, index);
  EXPECT_TRUE(network.PayloadBuffer(reused).empty());
  EXPECT_GE(network.PayloadBuffer(reused).capacity(), 5u);
}

TEST(PayloadPoolTest, RejectedAndDroppedSendsReturnTheBuffer) {
  sim::SimContext ctx;
  net::Network network(&ctx);
  CountingEndpoint a(&network), b(&network);
  network.Register("a", &a);
  network.Register("b", &b);

  // Rejected: unknown destination.
  net::Message msg;
  msg.from = network.IdOf("a");
  msg.payload = network.AcquirePayload();
  const uint32_t index = msg.payload.index;
  EXPECT_TRUE(network.Send(std::move(msg)).IsInvalidArgument());
  EXPECT_EQ(network.AcquirePayload().index, index);  // back on the free list

  // Dropped: link down. The buffer still comes back.
  network.SetLinkDown("a", "b", true);
  net::Message dropped;
  dropped.from = network.IdOf("a");
  dropped.to = network.IdOf("b");
  dropped.payload = network.AcquirePayload();
  const uint32_t drop_index = dropped.payload.index;
  ASSERT_TRUE(network.Send(std::move(dropped)).ok());
  EXPECT_EQ(network.AcquirePayload().index, drop_index);
}

// During OnMessage the delivered payload view must survive reentrant sends
// that force the pool to grow (the deque keeps buffer addresses stable).
class ReentrantEndpoint : public CountingEndpoint {
 public:
  ReentrantEndpoint(net::Network* network, uint32_t* self, uint32_t* peer)
      : CountingEndpoint(network), self_(self), peer_(peer) {}
  void OnMessage(const net::Message& msg) override {
    std::string_view view = network_->PayloadOf(msg);
    const std::string before(view);
    if (before.substr(0, 4) == "seed") {
      for (int i = 0; i < 64; ++i) {  // forces pool growth mid-upcall
        net::Message out;
        out.from = *self_;
        out.to = *peer_;
        out.payload = network_->AcquirePayload();
        network_->PayloadBuffer(out.payload).assign("reentrant");
        ASSERT_TRUE(network_->Send(std::move(out)).ok());
      }
    }
    EXPECT_EQ(view, before);  // the view never moved
    ++deliveries;
  }

 private:
  uint32_t* self_;
  uint32_t* peer_;
};

TEST(PayloadPoolTest, ViewsSurviveReentrantPoolGrowth) {
  sim::SimContext ctx;
  net::Network network(&ctx);
  uint32_t a_id = 0, b_id = 0;
  ReentrantEndpoint a(&network, &a_id, &b_id), b(&network, &b_id, &a_id);
  network.Register("a", &a);
  network.Register("b", &b);
  a_id = network.IdOf("a");
  b_id = network.IdOf("b");

  net::Message msg;
  msg.from = a_id;
  msg.to = b_id;
  msg.payload = network.AcquirePayload();
  network.PayloadBuffer(msg.payload).assign("seed payload with some length");
  ASSERT_TRUE(network.Send(std::move(msg)).ok());
  ctx.events().Run();
  EXPECT_EQ(b.deliveries, 1u);
  EXPECT_EQ(a.deliveries, 64u);
}

// --- PduWriter / PduCursor ---------------------------------------------------

tm::Pdu FullyLoadedVote() {
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
  return pdu;
}

TEST(PduCursorTest, RoundTripsBundleInPlace) {
  tm::Pdu ack;
  ack.type = tm::PduType::kAck;
  ack.txn = 1;
  tm::Pdu vote = FullyLoadedVote();
  tm::Pdu data;
  data.type = tm::PduType::kAppData;
  data.txn = 2;
  data.data = "application bytes";

  std::string buf;
  tm::PduWriter writer(&buf);
  writer.Append(ack);
  writer.Append(vote);
  writer.Append(data);
  EXPECT_EQ(writer.count(), 3u);
  // Same bytes as the vector-based encoder: the two paths interoperate.
  EXPECT_EQ(buf, tm::EncodePdus({ack, vote, data}));

  tm::PduCursor cursor(buf);
  ASSERT_TRUE(cursor.Next());
  EXPECT_EQ(cursor.pdu().type, tm::PduType::kAck);
  EXPECT_EQ(cursor.pdu().txn, 1u);
  ASSERT_TRUE(cursor.Next());
  EXPECT_EQ(cursor.pdu().type, tm::PduType::kVote);
  EXPECT_EQ(cursor.pdu().txn, 0xdeadbeefULL);
  EXPECT_TRUE(cursor.pdu().last_agent);
  EXPECT_TRUE(cursor.pdu().vote_long_locks);
  EXPECT_EQ(cursor.pdu().answer, tm::InquiryAnswer::kInDoubt);
  ASSERT_TRUE(cursor.Next());
  EXPECT_EQ(cursor.pdu().type, tm::PduType::kAppData);
  EXPECT_TRUE(cursor.pdu().data.empty());  // app bytes stay in the payload
  EXPECT_EQ(cursor.data(), "application bytes");
  EXPECT_FALSE(cursor.Next());
  EXPECT_TRUE(cursor.status().ok());
  EXPECT_EQ(cursor.index(), 3u);
}

TEST(PduCursorTest, DescribePayloadMatchesDescribePdus) {
  tm::Pdu ack;
  ack.type = tm::PduType::kAck;
  tm::Pdu vote;
  vote.type = tm::PduType::kVote;
  vote.vote = rm::Vote::kReadOnly;
  vote.unsolicited = true;

  const std::vector<tm::Pdu> bundle = {ack, vote};
  std::string label;
  tm::DescribePayload(tm::EncodePdus(bundle), &label);
  EXPECT_EQ(label, tm::DescribePdus(bundle));
  EXPECT_EQ(label, "ACK+VOTE(READ-ONLY,unsolicited)");
}

// --- malformed payload fuzz --------------------------------------------------

// Walks the payload with PduCursor, returning (frames, ok).
std::pair<size_t, bool> CursorWalk(std::string_view payload,
                                   std::vector<std::string>* datas = nullptr) {
  tm::PduCursor cursor(payload);
  while (cursor.Next()) {
    if (datas != nullptr) datas->emplace_back(cursor.data());
  }
  return {cursor.index(), cursor.status().ok()};
}

// DecodePdus and PduCursor must agree on every input: both accept with the
// same frames, or both reject. (Empty payloads are the one intentional
// difference — DecodePdus rejects them outright, a cursor just yields zero
// frames — and the TM's validation pass handles that case explicitly.)
void ExpectCodecAgreement(std::string_view payload) {
  std::vector<std::string> cursor_datas;
  const auto [frames, ok] = CursorWalk(payload, &cursor_datas);
  auto decoded = tm::DecodePdus(payload);
  if (payload.empty()) {
    EXPECT_FALSE(decoded.ok());
    EXPECT_TRUE(ok);
    EXPECT_EQ(frames, 0u);
    return;
  }
  if (ok && frames <= 1024) {
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    ASSERT_EQ(decoded->size(), frames);
    for (size_t i = 0; i < frames; ++i)
      EXPECT_EQ((*decoded)[i].data, cursor_datas[i]);
  } else {
    EXPECT_FALSE(decoded.ok());
  }
}

TEST(PduFuzzTest, MutatedPayloadsNeverCrashOrDisagree) {
  std::mt19937_64 rng(20260806);

  // Corpus of valid bundles with varied shapes, spanning every PDU type —
  // including the paxos family, whose frames carry an encoded PaxosBody in
  // the data field.
  std::vector<std::string> corpus;
  for (int i = 0; i < 32; ++i) {
    std::vector<tm::Pdu> bundle(1 + rng() % 4);
    for (auto& pdu : bundle) {
      pdu.type = static_cast<tm::PduType>(
          1 + rng() % static_cast<int>(tm::PduType::kPaxosTakeover));
      pdu.txn = rng();
      pdu.vote = static_cast<rm::Vote>(rng() % 3);
      pdu.answer = static_cast<tm::InquiryAnswer>(rng() % 4);
      pdu.long_locks = rng() % 2;
      pdu.unsolicited = rng() % 2;
      pdu.last_agent = rng() % 2;
      if (pdu.type == tm::PduType::kAppData)
        pdu.data.assign(rng() % 100, static_cast<char>('a' + rng() % 26));
      if (pdu.type >= tm::PduType::kPaxosAccept) {
        tm::PaxosBody body;
        body.ballot = static_cast<uint32_t>(rng() % 1000);
        body.granted = rng() % 2;
        body.prepared = rng() % 2;
        body.instance = "s1";
        body.leader = "c0";
        // Build names via append rather than `"x" + std::to_string(...)`:
        // GCC 12's -Wrestrict trips over the inlined operator+(const char*,
        // string&&) at -O2 (false positive, fixed upstream).
        auto name = [](char prefix, uint64_t n) {
          std::string s(1, prefix);
          s += std::to_string(n);
          return s;
        };
        for (uint64_t m = rng() % 4; m > 0; --m)
          body.cohort.push_back(name('n', m));
        for (uint64_t m = rng() % 4; m > 0; --m)
          body.acceptors.push_back(name('a', m));
        for (uint64_t m = rng() % 3; m > 0; --m)
          body.accepted.push_back(
              {name('n', m), static_cast<uint32_t>(rng() % 10),
               rng() % 2 != 0});
        pdu.data.clear();
        tm::EncodePaxosBody(body, &pdu.data);
      }
    }
    corpus.push_back(tm::EncodePdus(bundle));
    ExpectCodecAgreement(corpus.back());  // intact bundles round-trip
  }

  // >= 1k mutations: truncations, byte flips, random splices.
  for (int round = 0; round < 1200; ++round) {
    std::string payload = corpus[rng() % corpus.size()];
    switch (round % 3) {
      case 0:  // truncate mid-frame
        payload.resize(rng() % (payload.size() + 1));
        break;
      case 1: {  // flip a byte (type, flags, length, or data)
        if (!payload.empty()) {
          const size_t pos = rng() % payload.size();
          payload[pos] = static_cast<char>(
              static_cast<uint8_t>(payload[pos]) ^ (1 + rng() % 255));
        }
        break;
      }
      case 2: {  // splice random garbage into the tail
        payload.resize(rng() % (payload.size() + 1));
        const size_t extra = rng() % 16;
        for (size_t i = 0; i < extra; ++i)
          payload.push_back(static_cast<char>(rng() % 256));
        break;
      }
    }
    ExpectCodecAgreement(payload);
  }
}

TEST(PduFuzzTest, OversizedAppDataLengthIsRejectedNotOverread) {
  // Hand-craft a kAppData frame whose declared data length dwarfs the
  // actual bytes: the decoder must report corruption, not read past the
  // buffer.
  std::string payload;
  AppendU8(payload, 1);  // kAppData
  AppendVarint(payload, 7);  // txn
  AppendU8(payload, 0);
  AppendU8(payload, 0);  // flags
  AppendU8(payload, 0);  // vote
  AppendU8(payload, 0);  // answer
  AppendVarint(payload, uint64_t{1} << 40);  // declared length: 1 TiB
  payload += "abc";  // actual bytes: 3

  EXPECT_FALSE(tm::DecodePdus(payload).ok());
  const auto [frames, ok] = CursorWalk(payload);
  EXPECT_EQ(frames, 0u);
  EXPECT_FALSE(ok);
}

TEST(PduFuzzTest, ReservedTxnIdIsCorruption) {
  // UINT64_MAX is the per-txn tables' empty-slot key; no runtime mints it.
  tm::Pdu pdu;
  pdu.type = tm::PduType::kAppData;
  pdu.txn = UINT64_MAX;
  const std::string payload = tm::EncodePdus({pdu});
  auto decoded = tm::DecodePdus(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption());
  const auto [frames, ok] = CursorWalk(payload);
  EXPECT_EQ(frames, 0u);
  EXPECT_FALSE(ok);
}

bool BodiesEqual(const tm::PaxosBody& a, const tm::PaxosBody& b) {
  if (a.ballot != b.ballot || a.promised != b.promised ||
      a.granted != b.granted || a.prepared != b.prepared ||
      a.instance != b.instance || a.leader != b.leader ||
      a.cohort != b.cohort || a.acceptors != b.acceptors ||
      a.accepted.size() != b.accepted.size()) {
    return false;
  }
  for (size_t i = 0; i < a.accepted.size(); ++i) {
    if (a.accepted[i].instance != b.accepted[i].instance ||
        a.accepted[i].ballot != b.accepted[i].ballot ||
        a.accepted[i].prepared != b.accepted[i].prepared) {
      return false;
    }
  }
  return true;
}

TEST(PaxosBodyFuzzTest, MutatedBodiesNeverCrashAndSurvivorsReEncode) {
  std::mt19937_64 rng(20260809);

  auto random_name = [&] {
    return std::string(1 + rng() % 12, static_cast<char>('a' + rng() % 26));
  };
  std::vector<std::string> corpus;
  for (int i = 0; i < 24; ++i) {
    tm::PaxosBody body;
    body.ballot = static_cast<uint32_t>(rng());
    body.promised = static_cast<uint32_t>(rng());
    body.granted = rng() % 2;
    body.prepared = rng() % 2;
    body.instance = random_name();
    body.leader = random_name();
    for (uint64_t m = rng() % 5; m > 0; --m)
      body.cohort.push_back(random_name());
    for (uint64_t m = rng() % 5; m > 0; --m)
      body.acceptors.push_back(random_name());
    for (uint64_t m = rng() % 4; m > 0; --m)
      body.accepted.push_back(
          {random_name(), static_cast<uint32_t>(rng()), rng() % 2 != 0});

    // Intact bodies round-trip exactly.
    std::string wire;
    tm::EncodePaxosBody(body, &wire);
    tm::PaxosBody decoded;
    ASSERT_TRUE(tm::DecodePaxosBody(wire, &decoded).ok());
    EXPECT_TRUE(BodiesEqual(body, decoded));
    corpus.push_back(std::move(wire));
  }

  // >= 1k mutations: decode must reject or succeed cleanly — never crash or
  // overread — and any survivor must re-encode to bytes that decode back to
  // an equal body (no half-parsed garbage states).
  tm::PaxosBody scratch;
  std::string rewire;
  for (int round = 0; round < 1500; ++round) {
    std::string wire = corpus[rng() % corpus.size()];
    switch (round % 3) {
      case 0:
        wire.resize(rng() % (wire.size() + 1));
        break;
      case 1:
        if (!wire.empty()) {
          const size_t pos = rng() % wire.size();
          wire[pos] = static_cast<char>(static_cast<uint8_t>(wire[pos]) ^
                                        (1 + rng() % 255));
        }
        break;
      case 2: {
        wire.resize(rng() % (wire.size() + 1));
        const size_t extra = rng() % 16;
        for (size_t i = 0; i < extra; ++i)
          wire.push_back(static_cast<char>(rng() % 256));
        break;
      }
    }
    if (!tm::DecodePaxosBody(wire, &scratch).ok()) continue;
    rewire.clear();
    tm::EncodePaxosBody(scratch, &rewire);
    tm::PaxosBody again;
    ASSERT_TRUE(tm::DecodePaxosBody(rewire, &again).ok());
    EXPECT_TRUE(BodiesEqual(scratch, again));
  }
}

// --- paxos bundle codec -------------------------------------------------------

// A decoded bundle is normalized: singleton-only fields are cleared and every
// entry carries the bundle ballot (entry ballots are not on the wire).
tm::PaxosBody MakeBundle(uint64_t ballot, std::string leader,
                         std::vector<std::string> cohort,
                         std::vector<std::string> acceptors,
                         std::vector<std::pair<std::string, bool>> entries) {
  tm::PaxosBody body;
  body.ballot = ballot;
  body.leader = std::move(leader);
  body.cohort = std::move(cohort);
  body.acceptors = std::move(acceptors);
  for (auto& [name, prepared] : entries)
    body.accepted.push_back({name, ballot, prepared});
  return body;
}

TEST(PaxosBundleCodecTest, RoundTripsBothDirections) {
  // A takeover 2a bundle (full header) and an acceptor's 2b bundle (header
  // fields empty) — the two shapes the protocol actually sends.
  const tm::PaxosBody two_a = MakeBundle(
      9, "s1", {"c0", "s1"}, {"c0", "s1", "a2"},
      {{"c0", true}, {"s1", false}});
  const tm::PaxosBody two_b =
      MakeBundle(0, "", {}, {}, {{"c0", true}, {"s1", true}});
  for (const tm::PaxosBody* body : {&two_a, &two_b}) {
    std::string wire;
    tm::EncodePaxosBundle(*body, &wire);
    tm::PaxosBody decoded;
    // Dirty the decode target: decode must fully overwrite or clear every
    // bundle-relevant field (capacity reuse, not state reuse).
    decoded.instance = "stale";
    decoded.promised = 77;
    decoded.granted = true;
    decoded.prepared = true;
    ASSERT_TRUE(tm::DecodePaxosBundle(wire, &decoded).ok());
    EXPECT_TRUE(BodiesEqual(*body, decoded));
  }
}

TEST(PaxosBundleCodecTest, TruncationAtEveryBoundaryIsRejected) {
  const tm::PaxosBody body = MakeBundle(
      12, "c0", {"c0", "s1", "s2"}, {"c0", "s1", "a2"},
      {{"c0", true}, {"s1", false}, {"s2", true}});
  std::string wire;
  tm::EncodePaxosBundle(body, &wire);
  // Counts are declared up front and trailing bytes are rejected, so EVERY
  // proper prefix — including each header / name / entry boundary — must
  // fail, and every extension must fail too.
  tm::PaxosBody scratch;
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(
        tm::DecodePaxosBundle(std::string_view(wire.data(), len), &scratch)
            .ok())
        << "prefix of length " << len << " decoded";
  }
  std::string extended = wire;
  extended.push_back('\0');
  EXPECT_FALSE(tm::DecodePaxosBundle(extended, &scratch).ok());
}

TEST(PaxosBundleFuzzTest, MutatedBundlesNeverCrashAndSurvivorsReEncode) {
  std::mt19937_64 rng(20260810);
  auto random_name = [&] {
    return std::string(1 + rng() % 12, static_cast<char>('a' + rng() % 26));
  };
  std::vector<std::string> corpus;
  for (int i = 0; i < 24; ++i) {
    tm::PaxosBody body;
    body.ballot = rng();
    body.leader = random_name();
    for (uint64_t m = rng() % 5; m > 0; --m)
      body.cohort.push_back(random_name());
    for (uint64_t m = rng() % 5; m > 0; --m)
      body.acceptors.push_back(random_name());
    for (uint64_t m = rng() % 5; m > 0; --m)
      body.accepted.push_back({random_name(), body.ballot, rng() % 2 != 0});

    std::string wire;
    tm::EncodePaxosBundle(body, &wire);
    tm::PaxosBody decoded;
    ASSERT_TRUE(tm::DecodePaxosBundle(wire, &decoded).ok());
    EXPECT_TRUE(BodiesEqual(body, decoded));
    corpus.push_back(std::move(wire));
  }

  // >= 1.5k mutations (truncations, bit flips, truncate+extend): decode must
  // reject or succeed cleanly — never crash or overread — and any survivor
  // must re-encode to bytes that decode back to an equal bundle.
  tm::PaxosBody scratch;
  std::string rewire;
  for (int round = 0; round < 1500; ++round) {
    std::string wire = corpus[rng() % corpus.size()];
    switch (round % 3) {
      case 0:
        wire.resize(rng() % (wire.size() + 1));
        break;
      case 1:
        if (!wire.empty()) {
          const size_t pos = rng() % wire.size();
          wire[pos] = static_cast<char>(static_cast<uint8_t>(wire[pos]) ^
                                        (1 + rng() % 255));
        }
        break;
      case 2: {
        wire.resize(rng() % (wire.size() + 1));
        const size_t extra = rng() % 16;
        for (size_t i = 0; i < extra; ++i)
          wire.push_back(static_cast<char>(rng() % 256));
        break;
      }
    }
    if (!tm::DecodePaxosBundle(wire, &scratch).ok()) continue;
    rewire.clear();
    tm::EncodePaxosBundle(scratch, &rewire);
    tm::PaxosBody again;
    ASSERT_TRUE(tm::DecodePaxosBundle(rewire, &again).ok());
    EXPECT_TRUE(BodiesEqual(scratch, again));
  }
}

// --- zero-allocation round trip ----------------------------------------------

class PduCountingEndpoint : public net::Endpoint {
 public:
  explicit PduCountingEndpoint(net::Network* network) : network_(network) {}
  void OnMessage(const net::Message& msg) override {
    tm::PduCursor cursor(network_->PayloadOf(msg));
    while (cursor.Next()) {
      pdus_seen += 1;
      data_bytes += cursor.data().size();
    }
    ok = ok && cursor.status().ok();
  }
  bool IsUp() const override { return true; }
  uint64_t pdus_seen = 0;
  uint64_t data_bytes = 0;
  bool ok = true;

 private:
  net::Network* network_;
};

TEST(ZeroAllocationTest, SteadyStateSendDeliverDecodeDoesNotAllocate) {
  sim::SimContext ctx;
  net::Network network(&ctx);
  network.set_tracing(false);
  ctx.trace().set_capture(false);
  PduCountingEndpoint a(&network), b(&network);
  network.Register("a", &a);
  network.Register("b", &b);
  const uint32_t a_id = network.IdOf("a");
  const uint32_t b_id = network.IdOf("b");
  // 1024us divides the timing wheel size (16384), so deliveries cycle
  // through only 16 wheel buckets — a short warmup touches them all.
  network.set_default_latency(1024);

  auto round_trip = [&] {
    tm::Pdu ack;
    ack.type = tm::PduType::kAck;
    ack.txn = 42;
    tm::Pdu data;
    data.type = tm::PduType::kAppData;
    data.txn = 42;
    data.data = "workbytes";  // fits SSO: building the Pdu never allocates

    net::Message msg;
    msg.from = a_id;
    msg.to = b_id;
    msg.kind = net::MsgKind::kPdu;
    msg.txn = 42;
    msg.payload = network.AcquirePayload();
    tm::PduWriter writer(&network.PayloadBuffer(msg.payload));
    writer.Append(ack);
    writer.Append(data);
    if (!network.Send(std::move(msg)).ok()) b.ok = false;
    ctx.events().Run();
  };

  // Warm the payload pool, message slab, free lists, and wheel buckets.
  for (int i = 0; i < 64; ++i) round_trip();

  const uint64_t before = AllocationCount();
  for (int i = 0; i < 256; ++i) round_trip();
  const uint64_t allocations = AllocationCount() - before;

  EXPECT_EQ(allocations, 0u) << "steady-state round trips must not allocate";
  EXPECT_TRUE(b.ok);
  EXPECT_EQ(b.pdus_seen, 2u * (64 + 256));
  EXPECT_EQ(b.data_bytes, 9u * (64 + 256));
}

// The paxos codec rides the TM's per-session hot path (every 2a/2b/1a/1b
// exchange encodes into a reused scratch string and decodes into a reused
// PaxosBody), so steady-state encode/decode must be allocation-free: Clear()
// keeps container capacity, node names fit SSO, and the encoder appends into
// whatever capacity the scratch already has.
TEST(ZeroAllocationTest, PaxosBodyCodecSteadyStateDoesNotAllocate) {
  tm::PaxosBody body;
  body.ballot = 7;
  body.granted = true;
  body.prepared = true;
  body.instance = "s1";
  body.leader = "c0";
  // Populate via reserve+push_back: assigning an initializer_list here makes
  // GCC 12 pair the libstdc++-internal operator new with this TU's replaced
  // operator delete and emit a bogus -Wmismatched-new-delete at -O2.
  body.cohort.reserve(3);
  for (const char* n : {"c0", "s1", "s2"}) body.cohort.push_back(n);
  body.acceptors.reserve(3);
  for (const char* n : {"c0", "s1", "a2"}) body.acceptors.push_back(n);
  body.accepted.reserve(2);
  body.accepted.push_back({"s1", 3, true});
  body.accepted.push_back({"s2", 0, false});

  std::string wire;
  tm::PaxosBody decoded;
  bool ok = true;
  auto cycle = [&] {
    wire.clear();
    tm::EncodePaxosBody(body, &wire);
    ok = ok && tm::DecodePaxosBody(wire, &decoded).ok() &&
         BodiesEqual(body, decoded);
  };

  // Warm the scratch string and the decoded body's container capacities.
  for (int i = 0; i < 64; ++i) cycle();

  const uint64_t before = AllocationCount();
  for (int i = 0; i < 256; ++i) cycle();
  const uint64_t allocations = AllocationCount() - before;

  EXPECT_TRUE(ok);
  EXPECT_EQ(allocations, 0u)
      << "steady-state paxos encode/decode must not allocate";
}

// The bundle codec carries every ballot-0 vote round and every takeover
// round (one 2a bundle per acceptor, one 2b bundle back), so its
// steady-state cost discipline matches the singleton codec's: encode into a
// warm scratch, decode with container-capacity reuse, zero allocations.
TEST(ZeroAllocationTest, PaxosBundleCodecSteadyStateDoesNotAllocate) {
  tm::PaxosBody body;
  body.ballot = 11;
  body.leader = "s1";
  body.cohort.reserve(3);
  for (const char* n : {"c0", "s1", "s2"}) body.cohort.push_back(n);
  body.acceptors.reserve(3);
  for (const char* n : {"c0", "s1", "a2"}) body.acceptors.push_back(n);
  body.accepted.reserve(3);
  body.accepted.push_back({"c0", 11, true});
  body.accepted.push_back({"s1", 11, true});
  body.accepted.push_back({"s2", 11, false});

  std::string wire;
  tm::PaxosBody decoded;
  bool ok = true;
  auto cycle = [&] {
    wire.clear();
    tm::EncodePaxosBundle(body, &wire);
    ok = ok && tm::DecodePaxosBundle(wire, &decoded).ok() &&
         BodiesEqual(body, decoded);
  };

  for (int i = 0; i < 64; ++i) cycle();

  const uint64_t before = AllocationCount();
  for (int i = 0; i < 256; ++i) cycle();
  const uint64_t allocations = AllocationCount() - before;

  EXPECT_TRUE(ok);
  EXPECT_EQ(allocations, 0u)
      << "steady-state bundle encode/decode must not allocate";
}

// The runtime seam must be free on the sim path: forwarding clock reads,
// txn ids, and timer arm/cancel/fire through the SimRuntime adapter adds
// zero allocations over calling the event queue directly. The trap this
// guards: wrapping the caller's InlineFunction callback in another callable
// at the adapter boundary would silently heap-allocate every timer (the
// same-type emplace adoption in InlineFunction is what prevents it).
TEST(ZeroAllocationTest, SimRuntimeAdapterAddsNoAllocations) {
  sim::SimContext ctx;
  runtime::SimRuntime rt(&ctx);

  uint64_t fired = 0;
  bool cancels_ok = true;
  auto cycle = [&] {
    // Arm-and-cancel (the TM's ack/vote timer pattern) plus arm-and-fire.
    // 1024/2048 divide the timing wheel size (16384), so the deadlines
    // cycle through a fixed set of wheel buckets a short warmup fills —
    // the same trick the round-trip test plays with its link latency.
    runtime::TimerId cancelled = rt.ArmTimer(2048, [&fired] { ++fired; });
    cancels_ok = cancels_ok && rt.CancelTimer(cancelled);
    rt.ArmTimer(1024, [&fired] { ++fired; });
    ctx.events().Run();
    (void)rt.Now();
    (void)rt.NextTxnId();
  };

  for (int i = 0; i < 64; ++i) cycle();  // warm the slab + wheel buckets

  const uint64_t before = AllocationCount();
  for (int i = 0; i < 256; ++i) cycle();
  const uint64_t allocations = AllocationCount() - before;

  EXPECT_EQ(allocations, 0u) << "the adapter must not wrap timer callbacks";
  EXPECT_TRUE(cancels_ok);
  EXPECT_EQ(fired, 64u + 256u);
}

}  // namespace
}  // namespace tpc
