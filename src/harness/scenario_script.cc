#include "harness/scenario_script.h"

#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "harness/cluster.h"
#include "harness/sequence_diagram.h"
#include "util/format.h"

namespace tpc::harness {
namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    if (token[0] == '#') break;
    tokens.push_back(token);
  }
  return tokens;
}

Result<sim::Time> ParseDuration(const std::string& text) {
  size_t suffix = 0;
  sim::Time unit = 0;
  if (text.size() > 2 && text.substr(text.size() - 2) == "us") {
    suffix = 2;
    unit = sim::kMicrosecond;
  } else if (text.size() > 2 && text.substr(text.size() - 2) == "ms") {
    suffix = 2;
    unit = sim::kMillisecond;
  } else if (text.size() > 1 && text.back() == 's') {
    suffix = 1;
    unit = sim::kSecond;
  } else {
    return Status::InvalidArgument("duration needs us/ms/s suffix: " + text);
  }
  errno = 0;
  char* end = nullptr;
  const std::string digits = text.substr(0, text.size() - suffix);
  double value = std::strtod(digits.c_str(), &end);
  if (end != digits.c_str() + digits.size() || value < 0)
    return Status::InvalidArgument("bad duration: " + text);
  return static_cast<sim::Time>(value * static_cast<double>(unit));
}

Result<tm::ProtocolKind> ParseProtocol(const std::string& text) {
  if (text == "pa") return tm::ProtocolKind::kPresumedAbort;
  if (text == "pn") return tm::ProtocolKind::kPresumedNothing;
  if (text == "pc") return tm::ProtocolKind::kPresumedCommit;
  if (text == "basic") return tm::ProtocolKind::kBasic2PC;
  return Status::InvalidArgument("unknown protocol: " + text);
}

class ScriptRunner {
 public:
  Result<ScriptReport> Run(const std::string& script) {
    std::istringstream in(script);
    std::string line;
    int line_number = 0;
    while (std::getline(in, line)) {
      ++line_number;
      std::vector<std::string> tokens = Tokenize(line);
      if (tokens.empty()) continue;
      Status st = Execute(tokens);
      if (!st.ok()) {
        return Status::InvalidArgument(
            StringPrintf("line %d: %s", line_number,
                         std::string(st.message()).c_str()));
      }
      ++report_.commands;
    }
    report_.output = out_;
    report_.trace = cluster_.ctx().trace().Render();
    return std::move(report_);
  }

 private:
  Status Execute(const std::vector<std::string>& tokens) {
    const std::string& cmd = tokens[0];
    if (cmd == "node") return CmdNode(tokens);
    if (cmd == "connect") return CmdConnect(tokens);
    if (cmd == "latency") return CmdLatency(tokens);
    if (cmd == "handler") return CmdHandler(tokens);
    if (cmd == "begin") return CmdBegin(tokens);
    if (cmd == "write") return CmdWrite(tokens);
    if (cmd == "work") return CmdWork(tokens);
    if (cmd == "commit") return CmdCommit(tokens, /*wait=*/false);
    if (cmd == "commit-wait") return CmdCommit(tokens, /*wait=*/true);
    if (cmd == "abort") return CmdAbort(tokens);
    if (cmd == "unsolicited") return CmdUnsolicited(tokens);
    if (cmd == "run") return CmdRun(tokens);
    if (cmd == "crash-at") return CmdCrashAt(tokens);
    if (cmd == "crash") return CmdCrash(tokens);
    if (cmd == "restart") return CmdRestart(tokens);
    if (cmd == "partition") return CmdLink(tokens, /*down=*/true);
    if (cmd == "heal") return CmdLink(tokens, /*down=*/false);
    if (cmd == "checkpoint") return CmdCheckpoint(tokens);
    if (cmd == "expect") return CmdExpect(tokens);
    if (cmd == "expect-view") return CmdExpectView(tokens);
    if (cmd == "expect-damage-at") return CmdExpectDamageAt(tokens);
    if (cmd == "expect-key") return CmdExpectKey(tokens);
    if (cmd == "expect-flows") return CmdExpectCost(tokens, /*flows=*/true);
    if (cmd == "expect-forced") return CmdExpectCost(tokens, /*flows=*/false);
    if (cmd == "costs") return CmdCosts(tokens);
    if (cmd == "diagram") return CmdDiagram(tokens);
    if (cmd == "trace") return CmdTrace(tokens);
    return Status::InvalidArgument("unknown command: " + cmd);
  }

  Status Need(const std::vector<std::string>& tokens, size_t n) {
    if (tokens.size() < n)
      return Status::InvalidArgument(tokens[0] + ": missing arguments");
    return Status::OK();
  }

  Result<uint64_t> TxnOf(const std::string& name) {
    auto it = txns_.find(name);
    if (it == txns_.end())
      return Status::InvalidArgument("unknown transaction: " + name);
    return it->second;
  }

  Status CmdNode(const std::vector<std::string>& tokens) {
    TPC_RETURN_IF_ERROR(Need(tokens, 2));
    NodeOptions options;
    for (size_t i = 2; i < tokens.size(); ++i) {
      const std::string& opt = tokens[i];
      if (opt.rfind("protocol=", 0) == 0) {
        TPC_ASSIGN_OR_RETURN(options.tm.protocol,
                             ParseProtocol(opt.substr(9)));
      } else if (opt == "reliable") {
        options.rm_options.reliable = true;
      } else if (opt == "ok_to_leave_out") {
        options.tm.ok_to_leave_out = true;
        options.rm_options.ok_to_leave_out = true;
      } else if (opt.rfind("shared_log_with=", 0) == 0) {
        options.shared_log_host = opt.substr(16);
      } else if (opt == "read_only_opt=off") {
        options.tm.read_only_opt = false;
      } else if (opt == "last_agent") {
        options.tm.last_agent_opt = true;
      } else if (opt == "vote_reliable") {
        options.tm.vote_reliable_opt = true;
      } else if (opt == "include_idle") {
        options.tm.include_idle_sessions = true;
      } else if (opt == "leave_out") {
        options.tm.leave_out_opt = true;
      } else if (opt == "nonblocking") {
        options.tm.wait_for_outcome_block = false;
      } else if (opt.rfind("heuristic=", 0) == 0) {
        std::string spec = opt.substr(10);
        size_t colon = spec.find(':');
        if (colon == std::string::npos)
          return Status::InvalidArgument("heuristic needs policy:delay");
        std::string policy = spec.substr(0, colon);
        if (policy == "commit") {
          options.tm.heuristic_policy = tm::HeuristicPolicy::kCommit;
        } else if (policy == "abort") {
          options.tm.heuristic_policy = tm::HeuristicPolicy::kAbort;
        } else {
          return Status::InvalidArgument("heuristic policy: commit|abort");
        }
        TPC_ASSIGN_OR_RETURN(options.tm.heuristic_delay,
                             ParseDuration(spec.substr(colon + 1)));
      } else {
        return Status::InvalidArgument("unknown node option: " + opt);
      }
    }
    cluster_.AddNode(tokens[1], options);
    return Status::OK();
  }

  Status CmdConnect(const std::vector<std::string>& tokens) {
    TPC_RETURN_IF_ERROR(Need(tokens, 3));
    tm::SessionOptions a_side;
    for (size_t i = 3; i < tokens.size(); ++i) {
      if (tokens[i] == "long_locks") {
        a_side.long_locks = true;
      } else if (tokens[i] == "candidate") {
        a_side.last_agent_candidate = true;
      } else {
        return Status::InvalidArgument("unknown session option: " + tokens[i]);
      }
    }
    cluster_.Connect(tokens[1], tokens[2], a_side, {});
    return Status::OK();
  }

  Status CmdLatency(const std::vector<std::string>& tokens) {
    TPC_RETURN_IF_ERROR(Need(tokens, 4));
    TPC_ASSIGN_OR_RETURN(sim::Time latency, ParseDuration(tokens[3]));
    cluster_.network().SetLinkLatency(tokens[1], tokens[2], latency);
    return Status::OK();
  }

  Status CmdHandler(const std::vector<std::string>& tokens) {
    TPC_RETURN_IF_ERROR(Need(tokens, 3));
    if (tokens[2] != "write")
      return Status::InvalidArgument("only the 'write' handler exists");
    const std::string node = tokens[1];
    Cluster* cluster = &cluster_;
    cluster_.tm(node).SetAppDataHandler(
        [cluster, node](uint64_t txn, const net::NodeId&,
                        std::string_view) {
          cluster->tm(node).Write(txn, 0, node + "_key", "v", [](Status) {});
        });
    return Status::OK();
  }

  Status CmdBegin(const std::vector<std::string>& tokens) {
    TPC_RETURN_IF_ERROR(Need(tokens, 3));
    txns_[tokens[1]] = cluster_.tm(tokens[2]).Begin();
    return Status::OK();
  }

  Status CmdWrite(const std::vector<std::string>& tokens) {
    TPC_RETURN_IF_ERROR(Need(tokens, 5));
    TPC_ASSIGN_OR_RETURN(uint64_t txn, TxnOf(tokens[2]));
    cluster_.tm(tokens[1]).Write(txn, 0, tokens[3], tokens[4], [](Status) {});
    return Status::OK();
  }

  Status CmdWork(const std::vector<std::string>& tokens) {
    TPC_RETURN_IF_ERROR(Need(tokens, 4));
    TPC_ASSIGN_OR_RETURN(uint64_t txn, TxnOf(tokens[1]));
    std::string payload = tokens.size() > 4 ? tokens[4] : "";
    return cluster_.tm(tokens[2]).SendWork(txn, tokens[3], payload);
  }

  Status CmdCommit(const std::vector<std::string>& tokens, bool wait) {
    TPC_RETURN_IF_ERROR(Need(tokens, 3));
    TPC_ASSIGN_OR_RETURN(uint64_t txn, TxnOf(tokens[1]));
    if (wait) {
      auto result = cluster_.CommitAndWait(tokens[2], txn);
      commits_[tokens[1]] = std::make_shared<DrivenCommit>(result);
    } else {
      commits_[tokens[1]] = cluster_.StartCommit(tokens[2], txn);
    }
    return Status::OK();
  }

  Status CmdAbort(const std::vector<std::string>& tokens) {
    TPC_RETURN_IF_ERROR(Need(tokens, 3));
    TPC_ASSIGN_OR_RETURN(uint64_t txn, TxnOf(tokens[1]));
    cluster_.tm(tokens[2]).AbortTxn(txn);
    return Status::OK();
  }

  Status CmdUnsolicited(const std::vector<std::string>& tokens) {
    TPC_RETURN_IF_ERROR(Need(tokens, 3));
    TPC_ASSIGN_OR_RETURN(uint64_t txn, TxnOf(tokens[1]));
    cluster_.tm(tokens[2]).UnsolicitedPrepare(txn);
    return Status::OK();
  }

  Status CmdRun(const std::vector<std::string>& tokens) {
    TPC_RETURN_IF_ERROR(Need(tokens, 2));
    TPC_ASSIGN_OR_RETURN(sim::Time duration, ParseDuration(tokens[1]));
    cluster_.RunFor(duration);
    return Status::OK();
  }

  Status CmdCrashAt(const std::vector<std::string>& tokens) {
    TPC_RETURN_IF_ERROR(Need(tokens, 3));
    int occurrence = tokens.size() > 3 ? std::atoi(tokens[3].c_str()) : 1;
    cluster_.ctx().failures().ArmCrash(tokens[1], tokens[2], occurrence);
    return Status::OK();
  }

  Status CmdCrash(const std::vector<std::string>& tokens) {
    TPC_RETURN_IF_ERROR(Need(tokens, 2));
    if (!cluster_.tm(tokens[1]).IsUp())
      return Status::FailedPrecondition(tokens[1] + " already down");
    cluster_.ctx().failures().CrashNow(tokens[1]);
    return Status::OK();
  }

  Status CmdRestart(const std::vector<std::string>& tokens) {
    TPC_RETURN_IF_ERROR(Need(tokens, 2));
    if (cluster_.tm(tokens[1]).IsUp())
      return Status::FailedPrecondition(tokens[1] + " is up");
    cluster_.node(tokens[1]).Restart();
    return Status::OK();
  }

  Status CmdLink(const std::vector<std::string>& tokens, bool down) {
    TPC_RETURN_IF_ERROR(Need(tokens, 3));
    cluster_.network().SetLinkDown(tokens[1], tokens[2], down);
    return Status::OK();
  }

  Status CmdCheckpoint(const std::vector<std::string>& tokens) {
    TPC_RETURN_IF_ERROR(Need(tokens, 2));
    return cluster_.node(tokens[1]).Checkpoint(nullptr);
  }

  void Fail(const std::string& what) {
    ++report_.expect_failed;
    out_ += "EXPECT FAILED: " + what + "\n";
  }

  Status CmdExpect(const std::vector<std::string>& tokens) {
    TPC_RETURN_IF_ERROR(Need(tokens, 3));
    auto it = commits_.find(tokens[1]);
    if (it == commits_.end())
      return Status::InvalidArgument("no commit started for " + tokens[1]);
    const DrivenCommit& commit = *it->second;
    const std::string& want = tokens[2];
    if (want == "incomplete") {
      if (commit.completed) Fail(tokens[1] + " completed");
      return Status::OK();
    }
    if (!commit.completed) {
      Fail(tokens[1] + " did not complete");
      return Status::OK();
    }
    if (want == "committed") {
      if (!tm::CommittedEffects(commit.result.outcome))
        Fail(tokens[1] + " not committed");
    } else if (want == "aborted") {
      if (tm::CommittedEffects(commit.result.outcome))
        Fail(tokens[1] + " not aborted");
    } else if (want == "pending") {
      if (!commit.result.outcome_pending) Fail(tokens[1] + " not pending");
    } else if (want == "damage") {
      if (!commit.result.heuristic_damage)
        Fail(tokens[1] + " has no damage report");
    } else if (want == "no-damage") {
      if (commit.result.heuristic_damage)
        Fail(tokens[1] + " has a damage report");
    } else {
      return Status::InvalidArgument("unknown expectation: " + want);
    }
    return Status::OK();
  }

  Status CmdExpectView(const std::vector<std::string>& tokens) {
    TPC_RETURN_IF_ERROR(Need(tokens, 4));
    TPC_ASSIGN_OR_RETURN(uint64_t txn, TxnOf(tokens[2]));
    tm::Outcome outcome = cluster_.tm(tokens[1]).View(txn).outcome;
    std::string got(tm::OutcomeToString(outcome));
    if (got != tokens[3]) {
      Fail(tokens[1] + " views " + tokens[2] + " as '" + got + "', want '" +
           tokens[3] + "'");
    }
    return Status::OK();
  }

  Status CmdExpectDamageAt(const std::vector<std::string>& tokens) {
    TPC_RETURN_IF_ERROR(Need(tokens, 3));
    TPC_ASSIGN_OR_RETURN(uint64_t txn, TxnOf(tokens[2]));
    if (!cluster_.tm(tokens[1]).View(txn).damage_reported_here)
      Fail("no damage report at " + tokens[1] + " for " + tokens[2]);
    return Status::OK();
  }

  Status CmdExpectKey(const std::vector<std::string>& tokens) {
    TPC_RETURN_IF_ERROR(Need(tokens, 4));
    auto value = cluster_.node(tokens[1]).rm().Peek(tokens[2]);
    if (tokens[3] == "absent") {
      if (value.ok())
        Fail(tokens[1] + ":" + tokens[2] + " present ('" + *value + "')");
    } else if (!value.ok()) {
      Fail(tokens[1] + ":" + tokens[2] + " absent");
    } else if (*value != tokens[3]) {
      Fail(tokens[1] + ":" + tokens[2] + " = '" + *value + "', want '" +
           tokens[3] + "'");
    }
    return Status::OK();
  }

  Status CmdExpectCost(const std::vector<std::string>& tokens, bool flows) {
    TPC_RETURN_IF_ERROR(Need(tokens, 3));
    TPC_ASSIGN_OR_RETURN(uint64_t txn, TxnOf(tokens[1]));
    tm::TxnCost cost = cluster_.TotalCost(txn);
    uint64_t got = flows ? cost.flows_sent : cost.tm_log_forced;
    uint64_t want = std::strtoull(tokens[2].c_str(), nullptr, 10);
    if (got != want) {
      Fail(StringPrintf("%s %s = %llu, want %llu", tokens[1].c_str(),
                        flows ? "flows" : "forced",
                        static_cast<unsigned long long>(got),
                        static_cast<unsigned long long>(want)));
    }
    return Status::OK();
  }

  Status CmdCosts(const std::vector<std::string>& tokens) {
    TPC_RETURN_IF_ERROR(Need(tokens, 2));
    TPC_ASSIGN_OR_RETURN(uint64_t txn, TxnOf(tokens[1]));
    tm::TxnCost cost = cluster_.TotalCost(txn);
    StringAppendF(&out_, "%s: %llu flows, %llu log writes (%llu forced)\n",
                  tokens[1].c_str(),
                  static_cast<unsigned long long>(cost.flows_sent),
                  static_cast<unsigned long long>(cost.tm_log_writes),
                  static_cast<unsigned long long>(cost.tm_log_forced));
    return Status::OK();
  }

  Status CmdDiagram(const std::vector<std::string>& tokens) {
    TPC_RETURN_IF_ERROR(Need(tokens, 3));
    TPC_ASSIGN_OR_RETURN(uint64_t txn, TxnOf(tokens[1]));
    std::vector<std::string> nodes(tokens.begin() + 2, tokens.end());
    out_ += RenderSequenceDiagram(cluster_.ctx().trace(), txn, nodes);
    return Status::OK();
  }

  Status CmdTrace(const std::vector<std::string>& tokens) {
    TPC_RETURN_IF_ERROR(Need(tokens, 2));
    TPC_ASSIGN_OR_RETURN(uint64_t txn, TxnOf(tokens[1]));
    out_ += cluster_.ctx().trace().Render(txn);
    return Status::OK();
  }

  Cluster cluster_;
  std::map<std::string, uint64_t> txns_;
  std::map<std::string, std::shared_ptr<DrivenCommit>> commits_;
  std::string out_;
  ScriptReport report_;
};

}  // namespace

Result<ScriptReport> RunScenarioScript(const std::string& script) {
  ScriptRunner runner;
  return runner.Run(script);
}

}  // namespace tpc::harness
