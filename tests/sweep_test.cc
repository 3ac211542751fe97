// The parallel sweep runner's contract: a sweep over real simulation cells
// run with N worker threads is byte-identical to the same grid run
// serially, because each cell builds its own SimContext and shares nothing.
// Also pins down result ordering, exception propagation, and thread
// resolution.

#include "harness/sweep.h"

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/bench_report.h"
#include "harness/cluster.h"
#include "util/format.h"
#include "util/logging.h"

namespace tpc::harness {
namespace {

// A real simulation cell: a 3-node commit with a per-cell link latency.
// Everything the cell touches is constructed inside the call.
SweepCell CommitCell(size_t i) {
  Cluster c(/*seed=*/100 + i);
  NodeOptions options;
  c.AddNode("coord", options);
  c.AddNode("s1", options);
  c.AddNode("s2", options);
  c.Connect("coord", "s1");
  c.Connect("coord", "s2");
  c.network().set_tracing(false);
  c.network().SetLinkLatency("coord", "s1",
                             static_cast<sim::Time>(1 + i) * sim::kMillisecond);
  for (const std::string node : {"s1", "s2"}) {
    c.tm(node).SetAppDataHandler(
        [&c, node](uint64_t txn, const net::NodeId&, std::string_view) {
          c.tm(node).Write(txn, 0, node + "_k", "v",
                           [](Status st) { TPC_CHECK(st.ok()); });
        });
  }
  uint64_t txn = c.tm("coord").Begin();
  c.tm("coord").Write(txn, 0, "k", "v", [](Status st) { TPC_CHECK(st.ok()); });
  TPC_CHECK(c.tm("coord").SendWork(txn, "s1").ok());
  TPC_CHECK(c.tm("coord").SendWork(txn, "s2").ok());
  c.RunFor(100 * sim::kMillisecond);
  DrivenCommit commit = c.CommitAndWait("coord", txn);
  TPC_CHECK(commit.completed);

  SweepCell cell;
  cell.label = StringPrintf("cell%zu", i);
  cell.events = c.ctx().events().executed();
  cell.txns = 1;
  cell.sim_time = c.ctx().now();
  cell.Add("commit_latency_ms",
           static_cast<double>(commit.latency) / sim::kMillisecond);
  return cell;
}

TEST(SweepTest, ParallelMatchesSerialByteForByte) {
  constexpr size_t kCells = 8;
  std::vector<SweepCell> serial = RunSweep(kCells, CommitCell, /*threads=*/1);
  std::vector<SweepCell> parallel =
      RunSweep(kCells, CommitCell, /*threads=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < kCells; ++i) {
    EXPECT_EQ(serial[i].ToString(), parallel[i].ToString()) << "cell " << i;
  }
}

TEST(SweepTest, ResultsAreInGridOrderRegardlessOfCompletionOrder) {
  std::vector<SweepCell> cells = RunSweep(
      16,
      [](size_t i) {
        SweepCell cell;
        cell.label = StringPrintf("c%zu", i);
        cell.events = i;
        return cell;
      },
      /*threads=*/4);
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].label, StringPrintf("c%zu", i));
    EXPECT_EQ(cells[i].events, i);
  }
}

TEST(SweepTest, CellExceptionIsRethrownOnCaller) {
  EXPECT_THROW(RunSweep(
                   8,
                   [](size_t i) -> SweepCell {
                     if (i == 3) throw std::runtime_error("cell failed");
                     return SweepCell{};
                   },
                   /*threads=*/2),
               std::runtime_error);
}

TEST(SweepTest, EveryCellRunsExactlyOnce) {
  std::atomic<int> runs{0};
  RunSweep(
      32,
      [&runs](size_t) {
        runs.fetch_add(1, std::memory_order_relaxed);
        return SweepCell{};
      },
      /*threads=*/4);
  EXPECT_EQ(runs.load(), 32);
}

TEST(SweepTest, ResolveThreadsClampsToCells) {
  EXPECT_EQ(ResolveThreads(8, 3), 3u);
  EXPECT_EQ(ResolveThreads(2, 100), 2u);
  EXPECT_GE(ResolveThreads(0, 100), 1u);
}

TEST(SweepTest, CellToStringIsCanonical) {
  SweepCell cell;
  cell.label = "x";
  cell.events = 5;
  cell.txns = 2;
  cell.sim_time = 7;
  cell.Add("m", 1.5);
  EXPECT_EQ(cell.ToString(), "x|events=5|txns=2|sim_time=7|m=1.5");
  EXPECT_DOUBLE_EQ(cell.Get("m"), 1.5);
  EXPECT_DOUBLE_EQ(cell.Get("absent", -1.0), -1.0);
}

TEST(SweepTest, BenchReportJsonCarriesTotalsAndMetrics) {
  BenchReport report("unit");
  SweepCell cell;
  cell.label = "a";
  cell.events = 10;
  cell.txns = 4;
  cell.sim_time = 2 * sim::kSecond;
  cell.Add("metric", 3.0);
  report.AddCell(cell);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"bench\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"events\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"events_per_sec\""), std::string::npos);
  EXPECT_NE(json.find("\"sim_txns_per_sec\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\": 3"), std::string::npos);
}

}  // namespace
}  // namespace tpc::harness
