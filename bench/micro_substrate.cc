// google-benchmark microbenchmarks of the substrates: real wall-clock cost
// of the event queue, log manager, lock manager, network, and record
// encoding. These measure the simulator itself, not simulated time.

#include <benchmark/benchmark.h>

#include "lock/lock_manager.h"
#include "net/network.h"
#include "sim/sim_context.h"
#include "tm/protocol_messages.h"
#include "util/crc32c.h"
#include "wal/log_manager.h"

namespace tpc {
namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  sim::EventQueue q;
  int64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) q.ScheduleAfter(i, [&] { ++sink; });
    q.Run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_LogAppendNonForced(benchmark::State& state) {
  sim::SimContext ctx;
  wal::LogManager log(&ctx, "bench", 1);
  wal::LogRecord rec;
  rec.type = wal::RecordType::kRmUpdate;
  rec.owner = "bench.rm";
  rec.body = std::string(64, 'x');
  uint64_t txn = 0;
  for (auto _ : state) {
    rec.txn = ++txn;
    log.Append(rec, /*force=*/false);
    if (txn % 1024 == 0) {
      state.PauseTiming();
      log.RequestForce(nullptr);
      ctx.events().Run();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogAppendNonForced);

void BM_LogForcedAppendWithDevice(benchmark::State& state) {
  sim::SimContext ctx;
  wal::LogManager log(&ctx, "bench", 1);
  wal::LogRecord rec;
  rec.type = wal::RecordType::kTmCommitted;
  rec.owner = "bench.tm";
  uint64_t txn = 0;
  for (auto _ : state) {
    rec.txn = ++txn;
    bool done = false;
    log.Append(rec, /*force=*/true, [&done] { done = true; });
    ctx.events().Run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogForcedAppendWithDevice);

void BM_LogRecordEncodeDecode(benchmark::State& state) {
  wal::LogRecord rec;
  rec.type = wal::RecordType::kTmPrepared;
  rec.txn = 123456;
  rec.owner = "node7.tm";
  rec.body = std::string(static_cast<size_t>(state.range(0)), 'p');
  for (auto _ : state) {
    std::string encoded = rec.Encode();
    size_t offset = 0;
    auto decoded = wal::DecodeRecord(encoded, &offset);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(rec.body.size()));
}
BENCHMARK(BM_LogRecordEncodeDecode)->Arg(16)->Arg(256)->Arg(4096);

void BM_LockAcquireRelease(benchmark::State& state) {
  sim::SimContext ctx;
  lock::LockManager locks(&ctx, "bench");
  uint64_t txn = 0;
  std::vector<std::string> keys;
  for (int i = 0; i < 16; ++i) keys.push_back("key" + std::to_string(i));
  for (auto _ : state) {
    ++txn;
    for (const auto& key : keys) {
      locks.Acquire(txn, key, lock::LockMode::kExclusive, [](Status st) {
        benchmark::DoNotOptimize(st);
      });
    }
    locks.ReleaseAll(txn);
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_LockAcquireRelease);

void BM_Crc32c(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'z');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::Value(data));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096)->Arg(65536);

// Vector-based compatibility codec: one EncodePdus temporary plus an owned
// decoded vector per round trip.
void BM_PduEncodeDecode(benchmark::State& state) {
  std::vector<tm::Pdu> pdus(2);
  pdus[0].type = tm::PduType::kAck;
  pdus[0].txn = 42;
  pdus[1].type = tm::PduType::kVote;
  pdus[1].txn = 42;
  pdus[1].vote = rm::Vote::kYes;
  pdus[1].reliable = true;
  for (auto _ : state) {
    std::string payload = tm::EncodePdus(pdus);
    auto decoded = tm::DecodePdus(payload);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_PduEncodeDecode);

// In-place codec: PduWriter appends into a reused buffer, PduCursor walks
// the frames without materializing anything.
void BM_PduWriterCursor(benchmark::State& state) {
  std::vector<tm::Pdu> pdus(2);
  pdus[0].type = tm::PduType::kAck;
  pdus[0].txn = 42;
  pdus[1].type = tm::PduType::kVote;
  pdus[1].txn = 42;
  pdus[1].vote = rm::Vote::kYes;
  pdus[1].reliable = true;
  std::string buf;
  for (auto _ : state) {
    buf.clear();
    tm::PduWriter writer(&buf);
    for (const auto& pdu : pdus) writer.Append(pdu);
    tm::PduCursor cursor(buf);
    while (cursor.Next()) benchmark::DoNotOptimize(cursor.pdu());
    benchmark::DoNotOptimize(cursor.status());
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_PduWriterCursor);

class NullEndpoint : public net::Endpoint {
 public:
  void OnMessage(const net::Message&) override { ++count; }
  bool IsUp() const override { return true; }
  uint64_t count = 0;
};

// Pooled hot path: interned ids, payload encoded into a pooled buffer.
void BM_NetworkSendDeliver(benchmark::State& state) {
  sim::SimContext ctx;
  net::Network network(&ctx);
  network.set_tracing(false);
  NullEndpoint a, b;
  network.Register("a", &a);
  network.Register("b", &b);
  const uint32_t from = network.IdOf("a");
  const uint32_t to = network.IdOf("b");
  for (auto _ : state) {
    net::Message msg;
    msg.from = from;
    msg.to = to;
    msg.kind = net::MsgKind::kApp;
    msg.payload = network.AcquirePayload();
    network.PayloadBuffer(msg.payload).assign(64, 'm');
    benchmark::DoNotOptimize(network.Send(std::move(msg)));
    ctx.events().Run();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkSendDeliver);

// Seed-shaped baseline: by-name message whose strings are resolved and
// copied at the network boundary.
void BM_NetworkSendDeliverLegacy(benchmark::State& state) {
  sim::SimContext ctx;
  net::Network network(&ctx);
  network.set_tracing(false);
  NullEndpoint a, b;
  network.Register("a", &a);
  network.Register("b", &b);
  const std::string payload(64, 'm');
  for (auto _ : state) {
    net::LegacyMessage msg;
    msg.from = "a";
    msg.to = "b";
    msg.kind = net::MsgKind::kApp;
    msg.payload = payload;
    benchmark::DoNotOptimize(network.SendLegacy(std::move(msg)));
    ctx.events().Run();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkSendDeliverLegacy);

}  // namespace
}  // namespace tpc

BENCHMARK_MAIN();
