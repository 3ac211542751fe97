// Paxos Commit (Gray & Lamport, "Consensus on Transaction Commit"): the
// TransactionManager members that run the kPaxosCommit family — leader,
// acceptor and wire handlers. The core engine (transaction_manager.cc)
// calls in once per step of its phase machine; the outcome comes back
// through DecidePaxos into the core's decision and acknowledgment fan-out.
// Per-transaction state lives in Txn::paxos, acceptor state in
// PaxosAcceptor.

#include "tm/transaction_manager.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "util/format.h"

namespace tpc::tm {

bool TransactionManager::IsAcceptor() const {
  return AcceptorIndex(name_) < config_.acceptors.size();
}

size_t TransactionManager::AcceptorIndex(std::string_view name) const {
  size_t i = 0;
  while (i < config_.acceptors.size() && config_.acceptors[i] != name) ++i;
  return i;
}

uint64_t TransactionManager::PaxosBallot(uint64_t attempt) const {
  const uint64_t n = static_cast<uint64_t>(config_.acceptors.size());
  // Non-acceptor leaders draw from the top residue (rank n).
  const uint64_t rank = AcceptorIndex(name_);
  // Saturate instead of wrapping: at the cap every leader still draws a
  // distinct ballot (the rank residue survives), and a capped ballot can
  // never fall back under an already-promised one — dueling takeovers
  // plateau at the cap rather than colliding or regressing.
  const uint64_t cap =
      (std::numeric_limits<uint64_t>::max() - (n + 1)) / (n + 1);
  if (attempt > cap) attempt = cap;
  return attempt * (n + 1) + rank + 1;
}

TransactionManager::PaxosState::Inst* TransactionManager::FindInst(
    Txn& txn, std::string_view name) {
  for (auto& inst : txn.paxos.insts)
    if (inst.name == name) return &inst;
  return nullptr;
}

TransactionManager::PaxosState::Inst& TransactionManager::AdoptInst(
    Txn& txn, std::string_view name) {
  if (PaxosState::Inst* inst = FindInst(txn, name)) return *inst;
  txn.paxos.cohort.emplace_back(name);
  txn.paxos.insts.emplace_back();
  txn.paxos.insts.back().name.assign(name);
  return txn.paxos.insts.back();
}

void TransactionManager::ResetInsts(Txn& txn) {
  txn.paxos.insts.clear();
  for (const auto& member : txn.paxos.cohort) {
    txn.paxos.insts.emplace_back();
    txn.paxos.insts.back().name = member;
  }
}

void TransactionManager::SendPaxosPdu(const net::NodeId& peer, PduType type,
                                      uint64_t id, const PaxosBody& body) {
  // Paxos traffic runs between nodes that may never have exchanged app
  // data (leader -> acceptor, takeover -> cohort): make sure the session
  // exists before the send-path asserts on it.
  SessionSlot(peer);
  paxos_wire_.clear();
  if (type == PduType::kPaxosAcceptBundle ||
      type == PduType::kPaxosAcceptedBundle) {
    EncodePaxosBundle(body, &paxos_wire_);
  } else {
    EncodePaxosBody(body, &paxos_wire_);
  }
  Pdu pdu;
  pdu.type = type;
  pdu.txn = id;
  SendPdu(peer, std::move(pdu), paxos_wire_);
}

void TransactionManager::LogAcceptorState(uint64_t id, bool force,
                                          std::function<void()> done) {
  std::string snap;
  acceptor_.EncodeSnapshot(id, &snap);
  AppendTmRecord(id, wal::RecordType::kTmAccept, force, std::move(snap),
                 std::move(done));
}

// ---------------------------------------------------------------------------
// Votes, takeovers and the decision
// ---------------------------------------------------------------------------

void TransactionManager::StartPaxosCommit(Txn& txn) {
  // There is no last agent and no vote counting here — each participant
  // sends its vote to the acceptors (its own instance's ballot-0 2a), and
  // the acceptors' 2b replies come back to us. Prepare still tells the
  // cohort to prepare, and carries the cohort + acceptor set every
  // participant needs to lead a takeover if we die.
  txn.paxos.leader = true;
  txn.paxos.cohort.clear();
  txn.paxos.cohort.push_back(name_);
  for (const auto& child : txn.children) txn.paxos.cohort.push_back(child.peer);
  std::sort(txn.paxos.cohort.begin(), txn.paxos.cohort.end());
  ResetInsts(txn);
  if (!txn.children.empty()) {
    PaxosBody body;
    body.leader = name_;
    body.cohort = txn.paxos.cohort;
    body.acceptors = config_.acceptors;
    paxos_wire_.clear();
    EncodePaxosBody(body, &paxos_wire_);
    for (auto& child : txn.children) {
      child.prepare_sent = true;
      Pdu pdu;
      pdu.type = PduType::kPrepare;
      pdu.txn = txn.id;
      SendPdu(child.peer, std::move(pdu), paxos_wire_);
    }
    if (CrashHere(CrashPt::kRootAfterPrepareSend)) return;
  }
  PrepareLocalRms(txn);
}

bool TransactionManager::PaxosSelfAccept(Txn& txn, bool prepared) {
  if (!IsAcceptor()) return false;
  const uint64_t id = txn.id;
  const net::NodeId leader = txn.upstream.empty() ? name_ : txn.upstream;
  if (!acceptor_.Accept(id, name_, 0, prepared, txn.paxos.cohort, leader))
    return false;  // a takeover ballot already outbid our ballot-0 vote
  // The snapshot is appended NON-forced: the caller's prepared-record force
  // immediately follows and covers it, so vote + accept cost one durable
  // write. (A NO voter has no prepared force; its acceptance stays safely
  // volatile — Aborted is the free choice a takeover lands on anyway.)
  LogAcceptorState(id, /*force=*/false, nullptr);
  return true;
}

void TransactionManager::SendPaxosVote(Txn& txn, bool prepared,
                                       CrashPt after_send,
                                       bool self_accepted) {
  const uint64_t id = txn.id;
  txn.paxos.voted_self = true;
  // Stack body: the co-located self-delivery below may reuse paxos_wire_.
  PaxosBody body;
  body.ballot = 0;
  body.prepared = prepared;
  body.instance = name_;
  body.leader = txn.upstream.empty() ? name_ : txn.upstream;
  body.cohort = txn.paxos.cohort;
  body.acceptors = config_.acceptors;
  bool sent = false;
  for (const auto& acc : config_.acceptors) {
    if (acc == name_) continue;  // the self-accept rode the prepared force
    SendPaxosPdu(acc, PduType::kPaxosAccept, id, body);
    sent = true;
  }
  if (sent && CrashHere(after_send)) return;
  if (!IsAcceptor()) return;
  if (!self_accepted) {
    // The combined-force fold did not happen (a takeover outbid ballot 0
    // before we voted): run the accept path, which rechecks the ballot and
    // forces before any reply to a remote leader. May complete
    // synchronously.
    AcceptorOnAccept(body.leader, id, name_, prepared, body.cohort);
    return;
  }
  // Our acceptance already rode the prepared force; reply (bundled) once
  // the whole cohort's instances are in. May decide synchronously.
  AcceptorMaybeReply(body.leader, id);
}

void TransactionManager::PaxosVotePrepared(Txn& txn) {
  // The root reaches here once every local RM voted YES/RO and no NO
  // arrived; the decision then belongs to the consensus — it stays
  // kPreparing and learns the outcome from the acceptors' 2b's. A
  // subordinate's read-only subtree is not special-cased: its instance must
  // still reach a consensus value, and Prepared is correct for it.
  const uint64_t id = txn.id;
  const bool root = txn.upstream.empty();
  TmRecordBody body;
  body.upstream = txn.upstream;
  body.is_root = root;
  body.cohort = txn.paxos.cohort;
  // Co-located acceptor: fold the ballot-0 self-accept snapshot into the
  // prepared record's force, so vote + accept cost one durable write.
  const bool self_accepted = PaxosSelfAccept(txn, /*prepared=*/true);
  if (self_accepted && CrashHere(root ? CrashPt::kRootBeforeVoteAcceptForce
                                      : CrashPt::kSubBeforeVoteAcceptForce))
    return;
  // F = 0 degenerate: the root is the only acceptor, so the 2a fan-out
  // externalizes nothing — every later externalization (a 1b/2b reply's
  // snapshot force, or our own decision force) covers these buffered
  // records, and losing them in a crash aborts by presumption exactly as
  // 2PC would. The vote then costs no force at all, collapsing the
  // protocol to Presumed-Abort cost.
  const bool lazy_f0 = root && config_.acceptors.size() == 1 && IsAcceptor();
  AppendTmRecord(id, wal::RecordType::kTmPrepared,
                 /*force=*/!ForceDowngraded() && !lazy_f0, EncodeBody(body),
                 [this, id, root, self_accepted] {
    if (!root && CrashHere(CrashPt::kSubAfterPreparedForce)) return;
    if (self_accepted && CrashHere(root ? CrashPt::kRootAfterVoteAcceptForce
                                        : CrashPt::kSubAfterVoteAcceptForce))
      return;
    Txn* t = FindTxn(id);
    if (t == nullptr) return;
    if (root) {
      ArmPaxosRetry(*t);
    } else {
      t->voted_yes = true;
      t->phase = Phase::kInDoubt;
      t->outcome = Outcome::kInDoubt;
    }
    SendPaxosVote(*t, /*prepared=*/true,
                  root ? CrashPt::kRootAfterPaxosVoteSend
                       : CrashPt::kSubAfterPaxosVoteSend,
                  self_accepted);
    if (root || !up_) return;
    t = FindTxn(id);
    if (t == nullptr) return;
    ArmHeuristicTimer(*t);
    ArmTakeoverTimer(*t);
  });
}

void TransactionManager::PaxosVoteAborted(Txn& txn) {
  // The NO is an Aborted value for our instance at ballot 0; the leader
  // learns it from the acceptors' 2b majority. Locally we are done: abort
  // the subtree and forget, since aborts are presumed. The self-accept
  // stays volatile (no force follows): losing it in a crash is safe,
  // Aborted being the free choice a takeover lands on.
  const uint64_t id = txn.id;
  const bool self_accepted = PaxosSelfAccept(txn, /*prepared=*/false);
  SendPaxosVote(txn, /*prepared=*/false, CrashPt::kSubAfterPaxosVoteSend,
                self_accepted);
  AbortSubtreeAndForget(id);
}

void TransactionManager::ArmPaxosRetry(Txn& txn) {
  txn.vote_timer.Cancel(rt_);
  const uint64_t id = txn.id;
  const uint64_t epoch = epoch_;
  txn.vote_timer.Arm(rt_, config_.vote_timeout, [this, epoch, id] {
    if (!up_ || epoch != epoch_) return;
    Txn* t = FindTxn(id);
    if (t == nullptr) return;
    t->vote_timer.Fired();
    // kPreparing is the live ballot-0 round; kInDoubt is a recovered root
    // re-driving the consensus as a takeover leader. Both must keep
    // re-bidding until decided, or a stalled takeover (partition, dueling
    // leader) would block forever after its first attempt.
    if (t->phase != Phase::kPreparing && t->phase != Phase::kInDoubt) return;
    // Some instance is stuck (a crashed participant never voted, or our
    // 2a/2b traffic was lost): run a takeover round at a fresh ballot to
    // finish the consensus — Aborted by default for silent instances.
    StartPaxosTakeover(*t);
    if (!up_) return;
    t = FindTxn(id);
    if (t == nullptr || t->phase == Phase::kDeciding) return;
    ArmPaxosRetry(*t);
  });
}

void TransactionManager::ArmTakeoverTimer(Txn& txn) {
  // Paxos Commit never inquires: a PA-presuming answer from a recovered
  // pre-decision root would say "aborted" while a takeover leader may have
  // committed. Instead the in-doubt participant *takes over* the consensus
  // itself — this is what makes the protocol non-blocking.
  const uint64_t id = txn.id;
  const uint64_t epoch = epoch_;
  txn.inq_timer.Arm(rt_, config_.inquiry_delay, [this, epoch, id] {
    if (!up_ || epoch != epoch_) return;
    Txn* t = FindTxn(id);
    if (t == nullptr) return;
    t->inq_timer.Fired();
    if (t->phase != Phase::kInDoubt) return;
    StartPaxosTakeover(*t);
    if (!up_) return;
    if (CrashHere(CrashPt::kSubAfterTakeoverSend)) return;
    t = FindTxn(id);
    if (t == nullptr || t->phase == Phase::kDeciding) return;
    ArmTakeoverTimer(*t);  // keep trying until resolved
  });
}

void TransactionManager::StartPaxosTakeover(Txn& txn) {
  if (txn.phase == Phase::kDeciding) return;
  const uint64_t id = txn.id;
  txn.paxos.leader = true;
  txn.paxos.phase1 = true;
  txn.paxos.promises = 0;
  txn.paxos.ballot = PaxosBallot(txn.paxos.takeover_attempt++);
  // Phase 1 repopulates the discovered values.
  ResetInsts(txn);
  ctx_->trace().Add({rt_->Now(), sim::TraceKind::kState, name_, "", id,
                     StringPrintf("paxos takeover, ballot %llu",
                                  static_cast<unsigned long long>(
                                      txn.paxos.ballot))});
  // Tell the other cohort members we are driving, so they back their own
  // takeover timers off instead of dueling ballots.
  {
    PaxosBody note;
    note.leader = name_;
    note.cohort = txn.paxos.cohort;
    note.acceptors = config_.acceptors;
    for (const auto& member : txn.paxos.cohort) {
      if (member == name_) continue;
      SendPaxosPdu(member, PduType::kPaxosTakeover, id, note);
    }
  }
  // Phase 1a to every acceptor.
  PaxosBody query;
  query.ballot = txn.paxos.ballot;
  query.leader = name_;
  bool sent = false;
  for (const auto& acc : config_.acceptors) {
    if (acc == name_) continue;
    SendPaxosPdu(acc, PduType::kPaxosQuery, id, query);
    sent = true;
  }
  if (sent && CrashHere(CrashPt::kTakeoverAfterQuerySend)) return;
  if (IsAcceptor()) AcceptorOnQuery(name_, id, query.ballot);
}

void TransactionManager::SendPaxosProposals(Txn& txn) {
  txn.paxos.phase1 = false;
  const uint64_t id = txn.id;
  const uint64_t ballot = txn.paxos.ballot;
  // The classic rule: an instance whose value some acceptor reported must
  // be re-proposed at that value; a free instance (no acceptor accepted
  // anything) is proposed Aborted — its participant never voted, and
  // Aborted is always safe for an unvoted instance.
  for (auto& inst : txn.paxos.insts) {
    inst.acked_by = 0;
    inst.done = false;
    inst.value = inst.seen_any ? inst.seen_value : false;
  }
  // One 2a bundle per acceptor: every instance's proposal rides one PDU,
  // and the acceptor answers the whole transaction with one covering force
  // and one bundled 2b (the paper's bundling optimization) instead of a
  // force and a reply per instance.
  PaxosBody body;
  body.ballot = ballot;
  body.leader = name_;
  body.cohort = txn.paxos.cohort;
  body.acceptors = config_.acceptors;
  for (const auto& inst : txn.paxos.insts)
    body.accepted.push_back({inst.name, ballot, inst.value});
  for (const auto& acc : config_.acceptors) {
    if (acc == name_) continue;
    SendPaxosPdu(acc, PduType::kPaxosAcceptBundle, id, body);
  }
  if (CrashHere(CrashPt::kTakeoverAfterProposalSend)) return;
  if (IsAcceptor()) {
    // Copy what self-delivery needs: the bundle's force callback can
    // complete instances and even decide + forget the transaction.
    const std::vector<PaxosAccepted> mine = std::move(body.accepted);
    const std::vector<std::string> cohort = txn.paxos.cohort;
    AcceptorOnAcceptBundle(name_, id, ballot, mine, cohort);
  }
}

void TransactionManager::CheckPaxosOutcome(Txn& txn) {
  bool commit = true;
  for (const auto& inst : txn.paxos.insts) {
    if (!inst.done) return;
    if (!inst.value) commit = false;
  }
  DecidePaxos(txn, commit);
}

void TransactionManager::DecidePaxos(Txn& txn, bool commit) {
  if (txn.phase == Phase::kDeciding) return;
  CancelTimers(txn);
  txn.paxos.leader = false;
  txn.paxos.phase1 = false;
  // The consensus owner drives phase two for the whole cohort, root or not:
  // a takeover leader simply becomes the coordinator the root would have
  // been. Cohort members not already children gain a prepared-child entry;
  // under PA's decision rules, unnecessary or duplicate decisions are answered
  // idempotently from the receivers' archives.
  txn.upstream.clear();
  for (const auto& member : txn.paxos.cohort) {
    if (member == name_) continue;
    Child* child = nullptr;
    for (auto& c : txn.children)
      if (c.peer == member) child = &c;
    if (child == nullptr) {
      txn.children.emplace_back();
      child = &txn.children.back();
      child->peer = member;
    }
    child->voted = true;
    child->vote = rm::Vote::kYes;
    child->prepare_sent = true;
  }
  DecideAndPropagate(txn, commit);
}

void TransactionManager::RejoinPaxos(Txn& txn, const TmRecordBody& body) {
  // A takeover may still commit, so the participant re-joins the consensus.
  // The root (which has no upstream) re-runs the takeover immediately;
  // participants let the takeover timer fire.
  if (!body.cohort.empty()) txn.paxos.cohort = body.cohort;
  txn.paxos.voted_self = true;
  if (!body.is_root) {
    ArmTakeoverTimer(txn);
    return;
  }
  const uint64_t id = txn.id;
  StartPaxosTakeover(txn);
  if (!up_) return;
  Txn* t = FindTxn(id);
  if (t != nullptr && t->phase != Phase::kDeciding) ArmPaxosRetry(*t);
}

void TransactionManager::PaxosForget(Txn& txn) {
  const uint64_t id = txn.id;
  if (!txn.upstream.empty()) {
    // A locally-decided abort (NO voter): our acceptor state can only
    // re-abort, so reclaim it now; the owner's kPaxosEnd covers peers.
    if (!txn.commit_decision) AcceptorReclaim(id);
    return;
  }
  // The decision owner forgets only once the outcome is stable at every
  // cohort member (commit: all acks are in; abort: the free choice a
  // takeover lands on anyway) — acceptor state for this transaction is
  // dead weight everywhere. Reclaim ours, hint the rest.
  AcceptorReclaim(id);
  // Buffered, not sent: kPaxosEnd rides the session outbox and piggybacks
  // on the next message to each acceptor (zero extra flows) — reclamation
  // is a hint, never a protocol step.
  for (const auto& acc : config_.acceptors) {
    if (acc == name_) continue;
    Pdu pdu;
    pdu.type = PduType::kPaxosEnd;
    pdu.txn = id;
    BufferPdu(acc, std::move(pdu));
  }
}

// ---------------------------------------------------------------------------
// Acceptors, and the leader's ingress for their replies
// ---------------------------------------------------------------------------

void TransactionManager::AcceptorOnAccept(
    const net::NodeId& leader, uint64_t id, const net::NodeId& instance,
    bool prepared, const std::vector<std::string>& cohort) {
  if (!IsAcceptor()) return;  // stray traffic
  if (!acceptor_.Accept(id, instance, 0, prepared, cohort, leader))
    return;  // promised a takeover ballot: this vote is stale
  // Ballot-0 votes arrive one per participant. Defer the reply until the
  // whole cohort's instances are in, so the transaction costs this
  // acceptor ONE covering force and ONE bundled 2b instead of one of each
  // per instance (the paper's bundling optimization). Deferral is
  // liveness-safe: the leader cannot decide without every instance anyway,
  // and a lost vote is redriven by the takeover machinery.
  AcceptorMaybeReply(leader, id);
}

void TransactionManager::AcceptorMaybeReply(const net::NodeId& fallback_leader,
                                            uint64_t id) {
  const AcceptorTxn* state = acceptor_.Find(id);
  if (state == nullptr) return;
  if (!acceptor_.HasAllInstances(id)) return;  // defer; more votes coming
  const net::NodeId leader =
      state->leader0.empty() ? fallback_leader : state->leader0;
  if (leader != name_) {
    AcceptorForceAndReply(leader, id, /*ballot=*/0);
    return;
  }
  // Externalization rule: we are the ballot-0 leader, so acceptance and
  // observation live on one node — the decision record's force is the
  // durability barrier, and the snapshot rides non-forced under it. A
  // crash loses the acceptances and their observation together. This
  // branch can run twice for one transaction (when a peer's 2a completes
  // the cohort, and again after our own prepared force); the leader
  // counts our acceptor once, so the repeat adds nothing.
  LogAcceptorState(id, /*force=*/false, nullptr);
  AcceptorSend2b(leader, id, /*ballot=*/0, *state);
}

void TransactionManager::AcceptorOnAcceptBundle(
    const net::NodeId& leader, uint64_t id, uint64_t ballot,
    const std::vector<PaxosAccepted>& entries,
    const std::vector<std::string>& cohort) {
  if (!IsAcceptor() || entries.empty()) return;
  bool any = false;
  for (const PaxosAccepted& e : entries)
    any |= acceptor_.Accept(id, e.instance, ballot, e.prepared, cohort, "");
  if (!any) return;  // a higher ballot was promised: the proposer is stale
  AcceptorForceAndReply(leader, id, ballot);
}

void TransactionManager::AcceptorForceAndReply(const net::NodeId& leader,
                                               uint64_t id, uint64_t ballot) {
  if (CrashHere(CrashPt::kAcceptorBeforeBundleForce)) return;
  // One covering force for every instance of the transaction, then one
  // bundled 2b to the proposing leader.
  LogAcceptorState(id, /*force=*/true, [this, id, leader, ballot] {
    if (CrashHere(CrashPt::kAcceptorAfterBundleForce)) return;
    const AcceptorTxn* state = acceptor_.Find(id);
    // A takeover outbid `ballot` while the force was in flight: entries may
    // now hold the new leader's values, and a bundle misreporting them
    // could let the old leader count a cross-ballot majority. The new
    // leader's own bundle reply supersedes ours; stay silent.
    if (state == nullptr || state->promised != ballot) return;
    AcceptorSend2b(leader, id, ballot, *state);
  });
}

void TransactionManager::AcceptorSend2b(const net::NodeId& leader,
                                        uint64_t id, uint64_t ballot,
                                        const AcceptorTxn& state) {
  // Copy the entries out: delivered locally, LeaderOnAccepted can decide
  // the transaction and reclaim `state` under the iteration.
  paxos_entries_.clear();
  for (const auto& acc : state.accepted)
    if (acc.ballot == ballot)
      paxos_entries_.push_back({acc.name, acc.ballot, acc.prepared});
  if (leader == name_) {
    LeaderOnAcceptedEntries(id, name_);
    return;
  }
  PaxosBody reply;  // bundled 2b: every instance in one PDU
  reply.ballot = ballot;
  reply.accepted = paxos_entries_;
  SendPaxosPdu(leader, PduType::kPaxosAcceptedBundle, id, reply);
  CrashHere(CrashPt::kAcceptorAfterBundleSend);
}

void TransactionManager::AcceptorReclaim(uint64_t id) {
  if (!acceptor_.Erase(id)) return;
  // Tombstone: an empty snapshot — last-record-wins replay then ends with
  // the entry reclaimed instead of resurrected. Non-forced: losing it in a
  // crash resurrects a stale entry (bounded memory, not correctness).
  LogAcceptorState(id, /*force=*/false, nullptr);
}

void TransactionManager::AcceptorOnQuery(const net::NodeId& leader,
                                         uint64_t id, uint64_t ballot) {
  if (!IsAcceptor()) return;
  if (!acceptor_.Promise(id, ballot)) {
    // Nack: tell the stale leader which ballot outbid it (no durable
    // change happened, so no force).
    const uint64_t promised = acceptor_.Promised(id);
    if (leader == name_) {
      Txn* t = LeaderForPromise(id, ballot);
      if (t != nullptr) LeaderPromiseNack(*t, promised);
      return;
    }
    PaxosBody reply;
    reply.ballot = ballot;
    reply.granted = false;
    reply.promised = promised;
    SendPaxosPdu(leader, PduType::kPaxosPromise, id, reply);
    return;
  }
  if (CrashHere(CrashPt::kAcceptorBeforeAcceptForce)) return;
  LogAcceptorState(id, /*force=*/true, [this, id, leader, ballot] {
    const AcceptorTxn* state = acceptor_.Find(id);
    if (leader == name_) {
      Txn* t = LeaderForPromise(id, ballot);
      if (t == nullptr) return;
      if (state != nullptr) {
        if (t->paxos.cohort.size() < state->cohort.size())
          t->paxos.cohort = state->cohort;
        for (const auto& acc : state->accepted)
          LeaderMergeAccepted(*t, acc.name, acc.ballot, acc.prepared);
      }
      LeaderPromiseGranted(*t);
      return;
    }
    PaxosBody reply;  // 1b
    reply.ballot = ballot;
    reply.granted = true;
    if (state != nullptr) {
      reply.cohort = state->cohort;
      reply.leader = state->leader0;
      for (const auto& acc : state->accepted)
        reply.accepted.push_back({acc.name, acc.ballot, acc.prepared});
    }
    SendPaxosPdu(leader, PduType::kPaxosPromise, id, reply);
    CrashHere(CrashPt::kAcceptorAfterPromiseSend);
  });
}

void TransactionManager::LeaderOnAccepted(uint64_t id, size_t acceptor,
                                          std::string_view instance,
                                          uint64_t ballot, bool prepared) {
  Txn* txn = FindTxn(id);
  if (txn == nullptr || !txn->paxos.leader) return;
  if (txn->phase == Phase::kDeciding) return;
  if (txn->paxos.phase1) return;            // still collecting promises
  if (ballot != txn->paxos.ballot) return;  // stragglers of an old round
  PaxosState::Inst* inst = FindInst(*txn, instance);
  if (inst == nullptr || inst->done) return;
  // A majority is of distinct acceptors: a repeated 2b (our own acceptor's
  // local delivery, or a re-sent bundle) must not count twice.
  const uint64_t bit = uint64_t{1} << acceptor;
  if ((inst->acked_by & bit) != 0) return;
  inst->acked_by |= bit;
  inst->value = prepared;  // every 2b at one ballot carries the same value
  if (!PaxosAcceptor::IsMajority(std::popcount(inst->acked_by),
                                 config_.acceptors.size()))
    return;
  inst->done = true;
  CheckPaxosOutcome(*txn);
}

void TransactionManager::LeaderOnAcceptedEntries(uint64_t id,
                                                 std::string_view from) {
  const size_t acceptor = AcceptorIndex(from);
  if (acceptor == config_.acceptors.size()) return;  // not an acceptor
  for (const PaxosAccepted& e : paxos_entries_) {
    LeaderOnAccepted(id, acceptor, e.instance, e.ballot, e.prepared);
    if (!up_) return;
  }
}

TransactionManager::Txn* TransactionManager::LeaderForPromise(
    uint64_t id, uint64_t ballot) {
  Txn* txn = FindTxn(id);
  if (txn == nullptr || !txn->paxos.leader || !txn->paxos.phase1)
    return nullptr;
  if (txn->phase == Phase::kDeciding || txn->paxos.ballot != ballot)
    return nullptr;
  return txn;
}

void TransactionManager::LeaderMergeAccepted(Txn& txn,
                                             std::string_view instance,
                                             uint64_t ballot, bool prepared) {
  // An instance we did not know about (our cohort view was thinner than
  // the acceptor's) is adopted.
  PaxosState::Inst& inst = AdoptInst(txn, instance);
  if (!inst.seen_any || ballot >= inst.seen_ballot) {
    inst.seen_any = true;
    inst.seen_ballot = ballot;
    inst.seen_value = prepared;
  }
}

void TransactionManager::LeaderPromiseGranted(Txn& txn) {
  ++txn.paxos.promises;
  if (!PaxosAcceptor::IsMajority(txn.paxos.promises,
                                 config_.acceptors.size()))
    return;
  SendPaxosProposals(txn);
}

void TransactionManager::LeaderPromiseNack(Txn& txn, uint64_t promised) {
  // A higher ballot is active (another leader is driving). Stop this round
  // and let the retry timer re-run the takeover with a ballot above the
  // one that outbid us — immediate re-bidding would duel. `promised` is
  // wire data: the division keeps the derived attempt in range (PaxosBallot
  // saturates it again anyway), so a hostile value cannot wrap us to 0.
  const uint64_t n = static_cast<uint64_t>(config_.acceptors.size()) + 1;
  const uint64_t attempt = promised / n + 1;
  txn.paxos.takeover_attempt = std::max(txn.paxos.takeover_attempt, attempt);
  txn.paxos.phase1 = false;
}

// ---------------------------------------------------------------------------
// Wire handlers
// ---------------------------------------------------------------------------

void TransactionManager::OnPaxosAcceptPdu(const net::NodeId& from,
                                          const Pdu& pdu,
                                          std::string_view data) {
  if (!DecodePaxosBody(data, &paxos_in_).ok()) return;  // drop malformed
  // Singleton 2a's are participants' ballot-0 votes; a takeover proposes
  // with a bundle, so a singleton at any other ballot is dropped.
  if (paxos_in_.ballot != 0) return;
  const net::NodeId& leader =
      paxos_in_.leader.empty() ? from : paxos_in_.leader;
  AcceptorOnAccept(leader, pdu.txn, paxos_in_.instance, paxos_in_.prepared,
                   paxos_in_.cohort);
}

void TransactionManager::OnPaxosAcceptBundlePdu(const net::NodeId& from,
                                                const Pdu& pdu,
                                                std::string_view data) {
  if (!DecodePaxosBundle(data, &paxos_in_).ok()) return;  // drop malformed
  const net::NodeId& leader =
      paxos_in_.leader.empty() ? from : paxos_in_.leader;
  AcceptorOnAcceptBundle(leader, pdu.txn, paxos_in_.ballot,
                         paxos_in_.accepted, paxos_in_.cohort);
}

void TransactionManager::OnPaxosAcceptedBundlePdu(const net::NodeId& from,
                                                  const Pdu& pdu,
                                                  std::string_view data) {
  if (!DecodePaxosBundle(data, &paxos_in_).ok()) return;
  // Copy out of the reused decode scratch: completing an instance can
  // decide the transaction and drive sends that re-enter the codec.
  paxos_entries_.assign(paxos_in_.accepted.begin(), paxos_in_.accepted.end());
  LeaderOnAcceptedEntries(pdu.txn, from);
}

void TransactionManager::OnPaxosEndPdu(const Pdu& pdu) {
  // The decision owner finished resolving everywhere: our acceptor state
  // for this transaction can never be read by a takeover again.
  AcceptorReclaim(pdu.txn);
}

void TransactionManager::OnPaxosQueryPdu(const net::NodeId& from,
                                         const Pdu& pdu,
                                         std::string_view data) {
  if (!DecodePaxosBody(data, &paxos_in_).ok()) return;
  AcceptorOnQuery(from, pdu.txn, paxos_in_.ballot);
}

void TransactionManager::OnPaxosPromisePdu(const Pdu& pdu,
                                           std::string_view data) {
  if (!DecodePaxosBody(data, &paxos_in_).ok()) return;
  Txn* txn = LeaderForPromise(pdu.txn, paxos_in_.ballot);
  if (txn == nullptr) return;
  if (!paxos_in_.granted) {
    LeaderPromiseNack(*txn, paxos_in_.promised);
    return;
  }
  // Merge the acceptor's knowledge: a fuller cohort first, then the
  // accepted values.
  for (const auto& member : paxos_in_.cohort) AdoptInst(*txn, member);
  for (const auto& acc : paxos_in_.accepted)
    LeaderMergeAccepted(*txn, acc.instance, acc.ballot, acc.prepared);
  LeaderPromiseGranted(*txn);
}

void TransactionManager::OnPaxosTakeoverPdu(const Pdu& pdu,
                                            std::string_view data) {
  if (!DecodePaxosBody(data, &paxos_in_).ok()) return;
  Txn* txn = FindTxn(pdu.txn);
  if (txn == nullptr || txn->phase != Phase::kInDoubt) return;
  if (txn->paxos.leader) return;  // we are driving too; ballots arbitrate
  if (txn->paxos.cohort.size() < paxos_in_.cohort.size())
    txn->paxos.cohort = paxos_in_.cohort;
  // Back off: restart our takeover clock instead of starting a duel.
  txn->inq_timer.Cancel(rt_);
  ArmTakeoverTimer(*txn);
}

}  // namespace tpc::tm
