// WAL append microbenchmark: wall-clock record-append throughput of the
// in-place-encoding log manager against a frozen copy of the seed
// implementation (temporary-string encode, unordered_map stats).
//
// The workload is the TM/RM record mix: small protocol records across a
// rotating set of transactions and two owner tags per node, appended
// unforced (the encode + buffer + stats path; device forces are simulated
// time, not wall time, and identical for both). Emits BENCH_wal.json.
//
// Usage: wal_bench [records]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness/bench_report.h"
#include "sim/sim_context.h"
#include "util/logging.h"
#include "wal/legacy_log_manager.h"
#include "wal/log_manager.h"

namespace {

struct RunResult {
  uint64_t records = 0;
  uint64_t bytes = 0;
  double wall_seconds = 0;
  double records_per_sec = 0;
};

tpc::wal::LogRecord MakeRecord(uint64_t i, const std::string& tm_owner,
                               const std::string& rm_owner) {
  tpc::wal::LogRecord rec;
  rec.txn = 1 + i % 4096;  // rotating dense txn ids, like a live node
  const bool rm_side = (i & 1) != 0;
  rec.owner = rm_side ? rm_owner : tm_owner;
  rec.type = rm_side ? tpc::wal::RecordType::kRmPrepared
                     : tpc::wal::RecordType::kTmPrepared;
  rec.body.assign(32, static_cast<char>('a' + i % 26));
  return rec;
}

template <typename Manager>
RunResult Run(uint64_t records) {
  using namespace tpc;
  sim::SimContext ctx;
  ctx.trace().set_capture(false);
  Manager log(&ctx, "n1");
  const std::string tm_owner = "n1.tm";
  const std::string rm_owner = "n1.rm";

  // Build the record mix outside the timed region: the bench measures the
  // append path, not workload generation.
  std::vector<wal::LogRecord> mix;
  mix.reserve(4096);
  for (uint64_t i = 0; i < 4096; ++i)
    mix.push_back(MakeRecord(i, tm_owner, rm_owner));

  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < records; ++i) {
    // Force every 16th record, the cadence a live node's prepared/commit
    // forces impose — the buffer stays small instead of growing without
    // bound, and both sides pay the identical flush cost.
    log.Append(mix[i % 4096], /*force=*/(i & 15) == 15);
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  ctx.events().Run();  // drain simulated device completions

  RunResult r;
  r.records = records;
  r.bytes = log.next_lsn();
  r.wall_seconds = wall.count();
  r.records_per_sec = r.wall_seconds > 0 ? records / r.wall_seconds : 0;
  return r;
}

// Warm up once, then keep the best of `reps` runs (see event_queue_bench).
template <typename Manager>
RunResult BestOf(uint64_t records, int reps) {
  Run<Manager>(records / 4);
  RunResult best;
  for (int i = 0; i < reps; ++i) {
    RunResult r = Run<Manager>(records);
    if (r.records_per_sec > best.records_per_sec) best = r;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tpc;
  const uint64_t records =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2'000'000;

  harness::BenchReport report("wal");

  RunResult opt = BestOf<wal::LogManager>(records, 3);
  RunResult legacy = BestOf<wal::LegacyLogManager>(records, 3);
  TPC_CHECK(opt.bytes == legacy.bytes);  // identical encodings

  const double speedup = legacy.records_per_sec > 0
                             ? opt.records_per_sec / legacy.records_per_sec
                             : 0.0;

  harness::SweepCell opt_cell;
  opt_cell.label = "optimized";
  opt_cell.Add("appends_per_sec", opt.records_per_sec);
  opt_cell.Add("mb_per_sec", opt.bytes / 1e6 / opt.wall_seconds);
  opt_cell.Add("wall_seconds", opt.wall_seconds);
  opt_cell.Add("speedup_vs_seed", speedup);
  report.AddCell(opt_cell);

  harness::SweepCell legacy_cell;
  legacy_cell.label = "legacy_seed";
  legacy_cell.Add("appends_per_sec", legacy.records_per_sec);
  legacy_cell.Add("mb_per_sec", legacy.bytes / 1e6 / legacy.wall_seconds);
  legacy_cell.Add("wall_seconds", legacy.wall_seconds);
  report.AddCell(legacy_cell);

  std::printf("wal append, %llu records:\n",
              static_cast<unsigned long long>(records));
  std::printf("  optimized : %8.2fM appends/s (%.3fs, %.0f MB/s)\n",
              opt.records_per_sec / 1e6, opt.wall_seconds,
              opt.bytes / 1e6 / opt.wall_seconds);
  std::printf("  seed copy : %8.2fM appends/s (%.3fs, %.0f MB/s)\n",
              legacy.records_per_sec / 1e6, legacy.wall_seconds,
              legacy.bytes / 1e6 / legacy.wall_seconds);
  std::printf("  speedup   : %.2fx\n", speedup);
  std::printf("%s\n", report.Summary().c_str());
  std::printf("wrote %s\n", report.WriteJson().c_str());
  return 0;
}
