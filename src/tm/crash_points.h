// Named crash points instrumenting the TM and KV-RM state machines.
//
// Naming convention: `role.point_name`, where the role is the position the
// node plays for the transaction at the moment the point is reached:
//   root.  — the decision owner: a coordinator with no upstream, or the
//            last agent once it owns the decision
//   casc.  — a cascaded (intermediate) coordinator: has an upstream and
//            downstream children of its own
//   sub.   — a leaf subordinate
//   rm.    — a local resource manager on the node
//   any.   — role-independent points (e.g. inquiry replies, which may be
//            answered from the archive by any former participant)
//   recovery. — points reached while replaying the recovery protocol
//
// Points come in before/after pairs around every log write — `*_force` for
// forced (synchronous durable) writes, `*_write` for non-forced buffered
// writes — and `after_*_send` points follow protocol message sends. A crash
// at a `before_` point loses the record; at an `after_` point the record is
// durable (forced) or buffered (non-forced) but the following protocol step
// never happens.
//
// The torture campaign (harness/torture.h) enumerates this catalog; the TM
// interns every name once at construction so reporting a hit is a flat
// array increment (see sim::FailureInjector).

#ifndef TPC_TM_CRASH_POINTS_H_
#define TPC_TM_CRASH_POINTS_H_

#include <cstddef>

namespace tpc::tm {

// X(enumerator, "role.point_name")
#define TPC_CRASH_POINT_LIST(X)                                         \
  /* coordinator: PN/PC commit-pending force before phase one */        \
  X(kRootBeforeCommitPendingForce, "root.before_commit_pending_force")  \
  X(kRootAfterCommitPendingForce, "root.after_commit_pending_force")    \
  X(kCascBeforeCommitPendingForce, "casc.before_commit_pending_force")  \
  X(kCascAfterCommitPendingForce, "casc.after_commit_pending_force")    \
  /* coordinator: after PREPARE flows go out */                         \
  X(kRootAfterPrepareSend, "root.after_prepare_send")                   \
  X(kCascAfterPrepareSend, "casc.after_prepare_send")                   \
  /* last-agent initiator: the deferred vote that delegates the
     decision */                                                        \
  X(kRootBeforeLaVoteForce, "root.before_la_vote_force")                \
  X(kRootAfterLaVoteForce, "root.after_la_vote_force")                  \
  X(kRootAfterLaVoteSend, "root.after_la_vote_send")                    \
  X(kRootAfterLaRoVoteSend, "root.after_la_ro_vote_send")               \
  /* commit decision record */                                         \
  X(kRootBeforeCommitForce, "root.before_commit_force")                 \
  X(kRootAfterCommitForce, "root.after_commit_force")                   \
  X(kCascBeforeCommitForce, "casc.before_commit_force")                 \
  X(kCascAfterCommitForce, "casc.after_commit_force")                   \
  X(kSubBeforeCommitForce, "sub.before_commit_force")                   \
  X(kSubAfterCommitForce, "sub.after_commit_force")                     \
  /* forced abort record (basic 2PC / PN) */                            \
  X(kRootBeforeAbortForce, "root.before_abort_force")                   \
  X(kRootAfterAbortForce, "root.after_abort_force")                     \
  X(kCascBeforeAbortForce, "casc.before_abort_force")                   \
  X(kCascAfterAbortForce, "casc.after_abort_force")                     \
  X(kSubBeforeAbortForce, "sub.before_abort_force")                     \
  X(kSubAfterAbortForce, "sub.after_abort_force")                       \
  /* non-forced abort record (PA subordinate side) */                   \
  X(kRootBeforeAbortWrite, "root.before_abort_write")                   \
  X(kRootAfterAbortWrite, "root.after_abort_write")                     \
  X(kCascBeforeAbortWrite, "casc.before_abort_write")                   \
  X(kCascAfterAbortWrite, "casc.after_abort_write")                     \
  X(kSubBeforeAbortWrite, "sub.before_abort_write")                     \
  X(kSubAfterAbortWrite, "sub.after_abort_write")                       \
  /* after the decision flows to the children go out */                 \
  X(kRootAfterDecisionSend, "root.after_decision_send")                 \
  X(kCascAfterDecisionSend, "casc.after_decision_send")                 \
  /* end (forget) record */                                             \
  X(kRootBeforeEndWrite, "root.before_end_write")                       \
  X(kRootAfterEndWrite, "root.after_end_write")                         \
  X(kCascBeforeEndWrite, "casc.before_end_write")                       \
  X(kCascAfterEndWrite, "casc.after_end_write")                         \
  X(kSubBeforeEndWrite, "sub.before_end_write")                         \
  X(kSubAfterEndWrite, "sub.after_end_write")                           \
  X(kCascBeforeEndForce, "casc.before_end_force")                       \
  X(kCascAfterEndForce, "casc.after_end_force")                         \
  X(kSubBeforeEndForce, "sub.before_end_force")                         \
  X(kSubAfterEndForce, "sub.after_end_force")                           \
  /* subordinate: PN join record on first PREPARE */                    \
  X(kSubBeforeJoinWrite, "sub.before_join_write")                       \
  X(kSubAfterJoinWrite, "sub.after_join_write")                         \
  /* subordinate: prepared force + vote */                              \
  X(kCascBeforePreparedForce, "casc.before_prepared_force")             \
  X(kCascAfterPreparedForce, "casc.after_prepared_force")               \
  X(kSubBeforePreparedForce, "sub.before_prepared_force")               \
  X(kSubAfterPreparedForce, "sub.after_prepared_force")                 \
  X(kCascAfterYesVoteSend, "casc.after_yes_vote_send")                  \
  X(kSubAfterYesVoteSend, "sub.after_yes_vote_send")                    \
  X(kSubAfterUnsolicitedVoteSend, "sub.after_unsolicited_vote_send")    \
  X(kCascAfterNoVoteSend, "casc.after_no_vote_send")                    \
  X(kSubAfterNoVoteSend, "sub.after_no_vote_send")                      \
  X(kCascAfterRoVoteSend, "casc.after_ro_vote_send")                    \
  X(kSubAfterRoVoteSend, "sub.after_ro_vote_send")                      \
  X(kCascAfterVoteResend, "casc.after_vote_resend")                     \
  X(kSubAfterVoteResend, "sub.after_vote_resend")                       \
  /* subordinate: ack flow upstream */                                  \
  X(kCascAfterAckSend, "casc.after_ack_send")                           \
  X(kSubAfterAckSend, "sub.after_ack_send")                             \
  /* heuristic decision */                                              \
  X(kSubBeforeHeuristicForce, "sub.before_heuristic_force")             \
  X(kSubAfterHeuristicForce, "sub.after_heuristic_force")               \
  X(kSubAfterHeurDecisionSend, "sub.after_heur_decision_send")          \
  /* inquiry traffic */                                                 \
  X(kSubAfterInquirySend, "sub.after_inquiry_send")                     \
  X(kRootAfterLaInquirySend, "root.after_la_inquiry_send")              \
  X(kAnyAfterInquiryReplySend, "any.after_inquiry_reply_send")          \
  /* recovery-driven decision re-sends */                               \
  X(kRecoveryAfterDecisionSend, "recovery.after_decision_send")         \
  /* paxos commit: participant 2a votes (the prepared force reuses the
     sub.*_prepared_force pair above) */                                \
  X(kRootAfterPaxosVoteSend, "root.after_paxos_vote_send")              \
  X(kSubAfterPaxosVoteSend, "sub.after_paxos_vote_send")                \
  /* paxos commit: co-located leader/acceptor — the ballot-0 self-accept
     snapshot rides the prepared record's force, so vote + accept cost
     one durable write (before_ loses both; after_ has both durable but
     the 2a fan-out never leaves) */                                    \
  X(kRootBeforeVoteAcceptForce, "root.before_vote_accept_force")        \
  X(kRootAfterVoteAcceptForce, "root.after_vote_accept_force")          \
  X(kSubBeforeVoteAcceptForce, "sub.before_vote_accept_force")          \
  X(kSubAfterVoteAcceptForce, "sub.after_vote_accept_force")            \
  /* paxos commit: acceptor durability + replies */                     \
  X(kAcceptorBeforeAcceptForce, "acceptor.before_accept_force")         \
  X(kAcceptorAfterAcceptForce, "acceptor.after_accept_force")           \
  X(kAcceptorAfterAcceptedSend, "acceptor.after_accepted_send")         \
  X(kAcceptorAfterPromiseSend, "acceptor.after_promise_send")           \
  /* paxos commit: bundled acceptor replies (one force covers every
     instance of the transaction; one 2b bundle per leader) */          \
  X(kAcceptorBeforeBundleForce, "acceptor.before_bundle_force")         \
  X(kAcceptorAfterBundleForce, "acceptor.after_bundle_force")           \
  X(kAcceptorAfterBundleSend, "acceptor.after_bundle_send")             \
  /* paxos commit: takeover by a new leader */                          \
  X(kSubAfterTakeoverSend, "sub.after_takeover_send")                   \
  X(kTakeoverAfterQuerySend, "takeover.after_query_send")               \
  X(kTakeoverAfterProposalSend, "takeover.after_proposal_send")

enum class CrashPt : unsigned {
#define TPC_CRASH_POINT_ENUM(id, name) id,
  TPC_CRASH_POINT_LIST(TPC_CRASH_POINT_ENUM)
#undef TPC_CRASH_POINT_ENUM
      kCount
};

inline constexpr size_t kCrashPointCount = static_cast<size_t>(CrashPt::kCount);

inline constexpr const char* kCrashPointNames[] = {
#define TPC_CRASH_POINT_NAME(id, name) name,
    TPC_CRASH_POINT_LIST(TPC_CRASH_POINT_NAME)
#undef TPC_CRASH_POINT_NAME
};

inline const char* CrashPointName(CrashPt p) {
  return kCrashPointNames[static_cast<size_t>(p)];
}

// Resource-manager crash points, interned by KVResourceManager when the
// harness enables node-level crash injection. `*_log` rather than `*_force`:
// an RM writing into its TM's own log appends its prepared and committed
// records non-forced (they ride the TM's forces; see kv_resource_manager.h),
// and only a standalone RM, or the logless family's prepared record, forces.
inline constexpr const char* kRmCrashPoints[] = {
    "rm.before_prepared_log", "rm.after_prepared_log",
    "rm.before_committed_log", "rm.after_committed_log",
    "rm.before_abort_log",     "rm.after_abort_log",
};
inline constexpr size_t kRmCrashPointCount =
    sizeof(kRmCrashPoints) / sizeof(kRmCrashPoints[0]);

}  // namespace tpc::tm

#endif  // TPC_TM_CRASH_POINTS_H_
