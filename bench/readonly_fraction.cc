// Read-only-dominated workloads (Section 4: "For an environment that is
// dominated by read-only transactions this optimization provides enormous
// savings"): total flows and forced writes as the read-only fraction of a
// mixed transaction stream grows, with the read-only optimization on and
// off.
//
// The (fraction x on/off) grid runs as a parallel sweep — one cluster per
// cell — and emits BENCH_readonly_fraction.json.
//
// Usage: readonly_fraction [txns] [threads]

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness/bench_report.h"
#include "harness/cluster.h"
#include "harness/sweep.h"
#include "util/format.h"
#include "util/logging.h"
#include "util/random.h"

namespace {

using namespace tpc;
using harness::Cluster;
using harness::NodeOptions;

harness::SweepCell RunMix(bool read_only_opt, double ro_fraction,
                          uint64_t txns, uint64_t seed) {
  Cluster c(seed);
  Random rng(seed);
  NodeOptions options;
  options.tm.read_only_opt = read_only_opt;
  c.AddNode("coord", options);
  c.AddNode("s1", options);
  c.AddNode("s2", options);
  c.Connect("coord", "s1");
  c.Connect("coord", "s2");
  c.network().set_tracing(false);

  // Per-transaction behavior is decided by the coordinator and shipped in
  // the payload: "w" = write, "r" = read only.
  for (const std::string node : {"s1", "s2"}) {
    c.tm(node).SetAppDataHandler(
        [&c, node](uint64_t txn, const net::NodeId&, std::string_view op) {
          if (op == "w") {
            c.tm(node).Write(txn, 0, StringPrintf("k%" PRIu64, txn), "v",
                             [](Status st) { TPC_CHECK(st.ok()); });
          } else {
            c.tm(node).Read(txn, 0, "k", [](Result<std::string>) {});
          }
        });
  }

  uint64_t flows = 0;
  uint64_t forced = 0;
  for (uint64_t i = 0; i < txns; ++i) {
    const bool read_only = rng.Bernoulli(ro_fraction);
    const std::string op = read_only ? "r" : "w";
    uint64_t txn = c.tm("coord").Begin();
    if (!read_only) {
      c.tm("coord").Write(txn, 0, StringPrintf("c%" PRIu64, txn), "v",
                          [](Status st) { TPC_CHECK(st.ok()); });
    } else {
      c.tm("coord").Read(txn, 0, "k", [](Result<std::string>) {});
    }
    TPC_CHECK(c.tm("coord").SendWork(txn, "s1", op).ok());
    TPC_CHECK(c.tm("coord").SendWork(txn, "s2", op).ok());
    c.RunFor(10 * sim::kMillisecond);
    harness::DrivenCommit commit = c.CommitAndWait("coord", txn);
    TPC_CHECK(commit.completed);
    tm::TxnCost cost = c.TotalCost(txn);
    flows += cost.flows_sent;
    forced += cost.tm_log_forced;
  }

  harness::SweepCell cell;
  cell.label = StringPrintf("ro=%.2f opt=%s", ro_fraction,
                            read_only_opt ? "on" : "off");
  cell.events = c.ctx().events().executed();
  cell.txns = txns;
  cell.sim_time = c.ctx().now();
  cell.Add("flows", static_cast<double>(flows));
  cell.Add("forced", static_cast<double>(forced));
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t txns = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200;
  const unsigned threads =
      argc > 2 ? static_cast<unsigned>(std::strtoul(argv[2], nullptr, 10))
               : 0;
  std::printf(
      "Mixed workload (coordinator + 2 subordinates, %llu transactions):\n"
      "totals with the read-only optimization OFF vs ON, as the fraction\n"
      "of fully read-only transactions grows.\n\n",
      static_cast<unsigned long long>(txns));

  const std::vector<double> fractions = {0.0, 0.25, 0.5, 0.75, 0.9, 1.0};

  // Cell layout: pairs of (off, on) per fraction.
  harness::BenchReport report("readonly_fraction");
  const std::vector<harness::SweepCell> cells = harness::RunSweep(
      fractions.size() * 2,
      [&](size_t i) {
        return RunMix(/*read_only_opt=*/(i % 2) == 1, fractions[i / 2], txns,
                      /*seed=*/7);
      },
      threads);
  report.AddCells(cells);
  report.set_threads(harness::ResolveThreads(threads, fractions.size() * 2));

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"RO fraction", "flows (off)", "flows (on)", "forced (off)",
                  "forced (on)", "savings"});
  for (size_t f = 0; f < fractions.size(); ++f) {
    const harness::SweepCell& off = cells[f * 2];
    const harness::SweepCell& on = cells[f * 2 + 1];
    const double off_total = off.Get("flows") + off.Get("forced");
    const double savings =
        off.Get("flows") == 0
            ? 0.0
            : 100.0 * (1.0 - (on.Get("flows") + on.Get("forced")) / off_total);
    rows.push_back({tpc::StringPrintf("%.2f", fractions[f]),
                    tpc::StringPrintf("%.0f", off.Get("flows")),
                    tpc::StringPrintf("%.0f", on.Get("flows")),
                    tpc::StringPrintf("%.0f", off.Get("forced")),
                    tpc::StringPrintf("%.0f", on.Get("forced")),
                    tpc::StringPrintf("%.0f%%", savings)});
  }
  std::printf("%s", tpc::RenderTable(rows).c_str());
  std::printf(
      "\nShape check (paper): the savings scale with the read-only\n"
      "fraction, reaching 'enormous' (zero logging, one round trip) when\n"
      "the environment is read-only dominated.\n");
  std::printf("\n%s\n", report.Summary().c_str());
  std::printf("wrote %s\n", report.WriteJson().c_str());
  return 0;
}
