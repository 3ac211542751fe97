// Core vocabulary for the commit-protocol engine.

#ifndef TPC_TM_TYPES_H_
#define TPC_TM_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <string_view>

#include "sim/event_queue.h"

namespace tpc::tm {

/// Which commit protocol a transaction manager runs.
enum class ProtocolKind : uint8_t {
  kBasic2PC,        ///< Section 2 baseline
  kPresumedAbort,   ///< PA (R*, ISO-OSI, X/Open)
  kPresumedNothing, ///< PN (LU 6.2 sync point)
  /// Extension (not in the paper): Presumed Commit, PA's sibling from the
  /// R* work. The coordinator forces a *collecting* record before the
  /// first Prepare; commits are not acknowledged and the subordinate's
  /// commit record is not forced (no information presumes commit); aborts
  /// are explicit, forced, and acknowledged.
  kPresumedCommit,
  /// Extension (Gray & Lamport, "Consensus on Transaction Commit"): each
  /// participant's vote is ballot 0 of its own Paxos instance against a
  /// 2F+1 acceptor set; the commit decision is a function of the accepted
  /// instances, so any node can finish it after the coordinator dies.
  /// Removes the coordinator-blocking window at the price of 2a/2b flows
  /// and an accept force per acceptor.
  kPaxosCommit,
  /// Extension (early prepare / "short" commit): subordinates prepare and
  /// vote unsolicited as soon as their work quiesces, eliminating the
  /// Prepare round. PA presumptions and recovery; same forces as PA.
  kOnePhase,
  /// Extension (Zhu et al., "To Vote Before Decide"): kOnePhase without
  /// the subordinate's forced prepared record — the vote rides on the
  /// RM's own durability. Fewest forces of any family. A participant that
  /// crashes between vote and decision has no TM record of its promise;
  /// it converges anyway because the coordinator redrives its unacked
  /// decision and the RM's own log supplies the redo — which is why the
  /// torture matrix runs this variant like any other.
  kOnePhaseLogless,
};

std::string_view ProtocolKindToString(ProtocolKind kind);

/// True for both one-phase variants (early unsolicited vote, no Prepare
/// round, PA-style presumptions).
inline bool IsOnePhase(ProtocolKind k) {
  return k == ProtocolKind::kOnePhase || k == ProtocolKind::kOnePhaseLogless;
}

/// True for the replicated-coordinator family.
inline bool IsPaxos(ProtocolKind k) { return k == ProtocolKind::kPaxosCommit; }

/// Answer carried by kInquiryReply.
enum class InquiryAnswer : uint8_t {
  kCommitted,
  kAborted,
  kUnknown,  ///< no information (baseline/PN cannot presume; caller blocks)
  kInDoubt,  ///< responder itself has not resolved the transaction
};

/// How a family records and acknowledges one decision (commit or abort).
struct DecisionRule {
  /// The decision owner forces a decision record before sending it;
  /// otherwise it logs nothing.
  bool owner_forces;
  /// A subordinate forces its decision record; otherwise it writes the
  /// record unforced.
  bool subordinate_forces;
  /// Subordinates acknowledge the decision.
  bool acknowledged;
};

/// A decision every role records durably and acknowledges.
inline constexpr DecisionRule kRecordedDecision{true, true, true};
/// A presumed decision: nobody forces it and nobody acknowledges it, since
/// a participant that finds no record of the transaction assumes it.
inline constexpr DecisionRule kPresumedDecision{false, false, false};

/// Everything the protocol families differ on in what each role logs,
/// forces, acknowledges and presumes: the paper's Table 1, one row per
/// ProtocolKind. Defaults are the Section 2 baseline; rows name only what
/// differs. The engine caches its row and states each rule once.
struct Presumptions {
  /// The coordinator forces a record naming its subordinates before the
  /// first Prepare (PN's commit-pending, PC's collecting), so recovery knows
  /// whom to tell.
  bool collecting_record = false;
  /// A subordinate notes its coordinator on the first Prepare (unforced;
  /// the prepared force covers it).
  bool join_record = false;
  DecisionRule commit = kRecordedDecision;
  DecisionRule abort = kRecordedDecision;
  /// The answer to an inquiry about a transaction this node has no record
  /// of: the presumption that names PA and PC.
  InquiryAnswer no_record = InquiryAnswer::kUnknown;
  /// An in-doubt subordinate asks upstream for the outcome. When false (PN)
  /// recovery is coordinator-driven: the coordinator re-drives its subtree
  /// and collects the whole subtree's damage reports, and a subordinate
  /// forces END before acknowledging, so it never needs to ask.
  bool subordinates_inquire = true;
  /// Untouched sessions may be left out of commit processing without an
  /// earlier OK_TO_LEAVE_OUT vote.
  bool leave_out_idle = false;
  /// The coordinator sends Prepare; when false, subordinates vote
  /// unsolicited once their work quiesces (early prepare).
  bool prepare_round = true;
  /// A subordinate forces its prepared record before voting YES.
  bool prepared_force = true;
  /// Each vote is ballot 0 of a consensus instance decided by an acceptor
  /// set (Paxos Commit), not a message to the coordinator.
  bool consensus_vote = false;
};

/// The presumption table, indexed by ProtocolKind.
inline constexpr Presumptions kPresumptionTable[] = {
    // kBasic2PC: every decision recorded and acknowledged; nothing presumed.
    {},
    // kPresumedAbort: aborts are presumed, so idle partners can be left out.
    {.abort = kPresumedDecision,
     .no_record = InquiryAnswer::kAborted,
     .leave_out_idle = true},
    // kPresumedNothing: collecting and join records, coordinator-driven
    // recovery.
    {.collecting_record = true,
     .join_record = true,
     .subordinates_inquire = false},
    // kPresumedCommit: the collecting record makes commits presumable, so
    // subordinates neither force nor acknowledge them.
    {.collecting_record = true,
     .commit = {.owner_forces = true,
                .subordinate_forces = false,
                .acknowledged = false},
     .no_record = InquiryAnswer::kCommitted},
    // kPaxosCommit: PA's rules under a consensus vote. The outcome belongs
    // to the acceptors, so no record presumes nothing; in-doubt
    // participants take over the consensus instead of asking.
    {.abort = kPresumedDecision,
     .leave_out_idle = true,
     .consensus_vote = true},
    // kOnePhase: PA's rules with early votes instead of a Prepare round.
    {.abort = kPresumedDecision,
     .no_record = InquiryAnswer::kAborted,
     .leave_out_idle = true,
     .prepare_round = false},
    // kOnePhaseLogless: one-phase without the subordinate's prepared force.
    {.abort = kPresumedDecision,
     .no_record = InquiryAnswer::kAborted,
     .leave_out_idle = true,
     .prepare_round = false,
     .prepared_force = false},
};
static_assert(std::size(kPresumptionTable) ==
              static_cast<size_t>(ProtocolKind::kOnePhaseLogless) + 1);

/// The presumption-table row for `kind`.
constexpr const Presumptions& PresumptionsOf(ProtocolKind kind) {
  return kPresumptionTable[static_cast<size_t>(kind)];
}

/// Commit-acknowledgment timing for cascaded coordinators (Section 4,
/// "Commit Acknowledgment").
enum class AckTiming : uint8_t {
  kLate,   ///< ack upstream only after the whole subtree acked
  kEarly,  ///< ack upstream right after the local commit is durable
};

/// What an in-doubt participant does when blocked too long.
enum class HeuristicPolicy : uint8_t {
  kNever,   ///< wait (possibly forever) for resolution
  kCommit,  ///< heuristically commit after heuristic_delay
  kAbort,   ///< heuristically abort after heuristic_delay
};

/// A participant's final local view of a transaction.
enum class Outcome : uint8_t {
  kUnknown,  ///< no record of the transaction
  kActive,
  kInDoubt,  ///< prepared, outcome not yet known
  kCommitted,
  kAborted,
  kHeuristicCommitted,
  kHeuristicAborted,
  /// Voted read-only: the outcome is immaterial to this participant (it
  /// has no effects either way) and it was never told what it was.
  kReadOnly,
};

std::string_view OutcomeToString(Outcome outcome);

/// True for the two heuristic outcomes.
inline bool IsHeuristic(Outcome o) {
  return o == Outcome::kHeuristicCommitted || o == Outcome::kHeuristicAborted;
}

/// True if the participant's data reflects a commit.
inline bool CommittedEffects(Outcome o) {
  return o == Outcome::kCommitted || o == Outcome::kHeuristicCommitted;
}

/// Result delivered to the application that initiated commit processing.
struct CommitResult {
  Outcome outcome = Outcome::kUnknown;
  /// Heuristic damage was *reported to this node*. Under PN this is
  /// reliable; under PA damage deeper in the tree may go unreported here —
  /// exactly the reliability tradeoff the paper analyzes.
  bool heuristic_damage = false;
  /// Heuristic decisions happened somewhere in the subtree (reported ones).
  bool heuristic_seen = false;
  /// Wait-for-outcome: the call completed before all acknowledgments, with
  /// recovery continuing in the background.
  bool outcome_pending = false;
};

using CommitCallback = std::function<void(CommitResult)>;

/// Per-transaction cost counters kept by each TM node — the quantities the
/// paper's tables report.
struct TxnCost {
  uint64_t flows_sent = 0;       ///< network messages this node sent
  uint64_t tm_log_writes = 0;    ///< TM protocol records written
  uint64_t tm_log_forced = 0;    ///< ... of which forced
};

}  // namespace tpc::tm

#endif  // TPC_TM_TYPES_H_
