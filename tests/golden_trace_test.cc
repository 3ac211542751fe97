// Frozen traces: the oracle for behaviour-preserving changes to the commit
// engine. Everything such a change must leave byte-identical is rendered as
// named text and diffed against tests/golden/:
//   - the paper's figures 1-8 (RunFigureScenario);
//   - every shipped scenario script: its printed output and whole trace;
//   - one commit and one abort per protocol family on protocol_compare's
//     cell (RunFamilyCell, paxos F=0 included): the outcome, the trace, a
//     CRC32C of each node's durable log image, and each node's end state
//     (transactions the TM, RMs and acceptor still track, locks held).
//
// A deliberate behaviour change regenerates the files with
//
//   ./build/tests/golden_trace_test --regenerate
//
// and explains the diff in its commit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string_view>

#include "harness/scenario_script.h"
#include "harness/scenarios.h"
#include "util/crc32c.h"
#include "util/format.h"

namespace tpc::harness {
namespace {

struct GoldenFile {
  std::string name;  ///< file name under tests/golden
  std::string content;
};

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return "<missing file>";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string RenderFamilyCell(tm::ProtocolKind protocol, bool abort_case,
                             bool paxos_f0) {
  FamilyCellRun run = RunFamilyCell(protocol, abort_case, paxos_f0);
  Cluster& c = *run.cluster;
  std::string out = StringPrintf(
      "outcome %s\n",
      std::string(tm::OutcomeToString(run.commit.result.outcome)).c_str());
  out += c.ctx().trace().Render();
  out += "durable log images (crc32c, bytes):\n";
  for (const std::string& name : c.NodeNames()) {
    const std::string& image = c.node(name).log().storage().durable();
    StringAppendF(&out, "  %-6s %08x %zu\n", name.c_str(),
                  crc32c::Value(image), image.size());
  }
  // What each node still holds once the cell settles: a transaction the TM
  // or an RM keeps tracking, or a lock it keeps, shows up here.
  out += "end state (tm txns, held locks, rm txns, acceptor txns):\n";
  for (const std::string& name : c.NodeNames()) {
    Node& node = c.node(name);
    size_t locks = 0;
    size_t rm_txns = 0;
    for (size_t i = 0; i < node.rm_count(); ++i) {
      locks += node.rm(i).locks().HeldLockCount();
      rm_txns += node.rm(i).ActiveCount();
    }
    StringAppendF(&out, "  %-6s %zu %zu %zu %zu\n", name.c_str(),
                  node.tm().ActiveTxnCount(), locks, rm_txns,
                  node.tm().AcceptorTxnCount());
  }
  return out;
}

std::vector<GoldenFile> RenderGoldenTraces() {
  std::vector<GoldenFile> files;
  for (int figure = 1; figure <= 8; ++figure)
    files.push_back({StringPrintf("figure%d.txt", figure),
                     RunFigureScenario(figure)});

  std::vector<std::filesystem::path> scripts;
  for (const auto& entry : std::filesystem::directory_iterator(SCENARIO_DIR))
    if (entry.path().extension() == ".tpc") scripts.push_back(entry.path());
  std::sort(scripts.begin(), scripts.end());
  for (const auto& path : scripts) {
    Result<ScriptReport> report = RunScenarioScript(ReadFile(path));
    std::string content = report.status().ToString();
    if (report.ok()) {
      content = StringPrintf("commands %d, failed expectations %d\n",
                             report->commands, report->expect_failed) +
                report->output + "trace:\n" + report->trace;
    }
    files.push_back({"scenario_" + path.stem().string() + ".txt", content});
  }

  struct Family {
    tm::ProtocolKind protocol;
    bool paxos_f0;
  };
  constexpr Family kFamilies[] = {
      {tm::ProtocolKind::kBasic2PC, false},
      {tm::ProtocolKind::kPresumedAbort, false},
      {tm::ProtocolKind::kPresumedCommit, false},
      {tm::ProtocolKind::kPresumedNothing, false},
      {tm::ProtocolKind::kPaxosCommit, false},
      {tm::ProtocolKind::kPaxosCommit, true},
      {tm::ProtocolKind::kOnePhase, false},
      {tm::ProtocolKind::kOnePhaseLogless, false},
  };
  for (const Family& family : kFamilies) {
    for (bool abort_case : {false, true}) {
      std::string name =
          "family_" + std::string(tm::ProtocolKindToString(family.protocol));
      if (family.paxos_f0) name += "-f0";
      name += abort_case ? "_abort.txt" : "_commit.txt";
      files.push_back({name, RenderFamilyCell(family.protocol, abort_case,
                                              family.paxos_f0)});
    }
  }
  return files;
}

/// "" when equal; otherwise the first differing line of each side.
std::string FirstDifference(const std::string& expected,
                            const std::string& actual) {
  if (expected == actual) return "";
  std::istringstream want(expected);
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  for (int line = 1;; ++line) {
    const bool more_want = static_cast<bool>(std::getline(want, want_line));
    const bool more_got = static_cast<bool>(std::getline(got, got_line));
    if (!more_want && !more_got) return "differs only in trailing newline";
    if (!more_want) want_line = "<end of file>";
    if (!more_got) got_line = "<end of file>";
    if (want_line != got_line)
      return "line " + std::to_string(line) + "\n  golden: " + want_line +
             "\n  actual: " + got_line;
  }
}

TEST(GoldenTraceTest, EveryTraceMatchesItsGoldenFile) {
  const std::vector<GoldenFile> files = RenderGoldenTraces();
  // 8 figures, 10 scenario scripts, 8 families x {commit, abort}.
  EXPECT_EQ(files.size(), 8u + 10u + 16u);
  std::set<std::string> rendered;
  for (const GoldenFile& file : files) {
    rendered.insert(file.name);
    const std::string diff = FirstDifference(
        ReadFile(std::filesystem::path(GOLDEN_DIR) / file.name), file.content);
    EXPECT_TRUE(diff.empty()) << file.name << ": " << diff;
  }
  // A golden file nothing renders any more would silently stop guarding.
  for (const auto& entry : std::filesystem::directory_iterator(GOLDEN_DIR))
    EXPECT_TRUE(rendered.count(entry.path().filename().string()))
        << "stale golden file " << entry.path().filename();
}

int Regenerate() {
  const std::filesystem::path dir = GOLDEN_DIR;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (const GoldenFile& file : RenderGoldenTraces()) {
    std::ofstream out(dir / file.name, std::ios::binary);
    out << file.content;
    if (!out.good()) {
      std::fprintf(stderr, "cannot write %s\n", file.name.c_str());
      return 1;
    }
  }
  std::printf("rewrote %s\n", dir.c_str());
  return 0;
}

}  // namespace
}  // namespace tpc::harness

int main(int argc, char** argv) {
  if (argc == 2 && std::string_view(argv[1]) == "--regenerate")
    return tpc::harness::Regenerate();
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
