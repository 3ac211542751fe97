// google-benchmark: end-to-end simulated commits per wall-clock second for
// each protocol and key optimizations — how fast the engine itself runs,
// and a regression guard on protocol-path allocations.

#include <benchmark/benchmark.h>

#include <cinttypes>

#include "harness/cluster.h"
#include "util/format.h"
#include "util/logging.h"

namespace tpc {
namespace {

using harness::Cluster;
using harness::NodeOptions;

void RunCommits(benchmark::State& state, NodeOptions options,
                tm::SessionOptions coord_session = {}) {
  Cluster c;
  c.AddNode("coord", options);
  c.AddNode("sub", options);
  c.Connect("coord", "sub", coord_session, {});
  c.network().set_tracing(false);
  c.tm("sub").SetAppDataHandler(
      [&c](uint64_t txn, const net::NodeId&, std::string_view) {
        c.tm("sub").Write(txn, 0, "s", "v",
                          [](Status st) { TPC_CHECK(st.ok()); });
      });
  for (auto _ : state) {
    uint64_t txn = c.tm("coord").Begin();
    c.tm("coord").Write(txn, 0, "k", "v",
                        [](Status st) { TPC_CHECK(st.ok()); });
    TPC_CHECK(c.tm("coord").SendWork(txn, "sub").ok());
    c.RunFor(10 * sim::kMillisecond);
    harness::DrivenCommit commit = c.CommitAndWait("coord", txn);
    TPC_CHECK(commit.completed);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_CommitBasic2PC(benchmark::State& state) {
  NodeOptions options;
  options.tm.protocol = tm::ProtocolKind::kBasic2PC;
  RunCommits(state, options);
}
BENCHMARK(BM_CommitBasic2PC);

void BM_CommitPresumedAbort(benchmark::State& state) {
  NodeOptions options;
  options.tm.protocol = tm::ProtocolKind::kPresumedAbort;
  RunCommits(state, options);
}
BENCHMARK(BM_CommitPresumedAbort);

void BM_CommitPresumedNothing(benchmark::State& state) {
  NodeOptions options;
  options.tm.protocol = tm::ProtocolKind::kPresumedNothing;
  RunCommits(state, options);
}
BENCHMARK(BM_CommitPresumedNothing);

void BM_CommitPaVoteReliable(benchmark::State& state) {
  NodeOptions options;
  options.tm.protocol = tm::ProtocolKind::kPresumedAbort;
  options.tm.vote_reliable_opt = true;
  options.rm_options.reliable = true;
  RunCommits(state, options);
}
BENCHMARK(BM_CommitPaVoteReliable);

void BM_CommitPaGroupCommit(benchmark::State& state) {
  NodeOptions options;
  options.tm.protocol = tm::ProtocolKind::kPresumedAbort;
  options.group_commit.enabled = true;
  options.group_commit.group_size = 8;
  options.group_commit.group_timeout = 2 * sim::kMillisecond;
  RunCommits(state, options);
}
BENCHMARK(BM_CommitPaGroupCommit);

void BM_CommitStarN(benchmark::State& state) {
  const auto n = static_cast<uint64_t>(state.range(0));
  Cluster c;
  NodeOptions options;
  c.AddNode("root", options);
  for (uint64_t i = 1; i < n; ++i) {
    std::string name = StringPrintf("m%" PRIu64, i);
    c.AddNode(name, options);
    c.Connect("root", name);
    c.tm(name).SetAppDataHandler(
        [&c, name](uint64_t txn, const net::NodeId&, std::string_view) {
          c.tm(name).Write(txn, 0, name, "v",
                           [](Status st) { TPC_CHECK(st.ok()); });
        });
  }
  c.network().set_tracing(false);
  for (auto _ : state) {
    uint64_t txn = c.tm("root").Begin();
    for (uint64_t i = 1; i < n; ++i) {
      TPC_CHECK(c.tm("root").SendWork(txn, StringPrintf("m%" PRIu64, i)).ok());
    }
    c.RunFor(10 * sim::kMillisecond);
    harness::DrivenCommit commit = c.CommitAndWait("root", txn);
    TPC_CHECK(commit.completed);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_CommitStarN)->Arg(3)->Arg(11)->Arg(31);

}  // namespace
}  // namespace tpc

BENCHMARK_MAIN();
