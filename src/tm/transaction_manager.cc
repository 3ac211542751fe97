#include "tm/transaction_manager.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "runtime/sim_runtime.h"
#include "util/binary_io.h"
#include "util/format.h"
#include "util/logging.h"

namespace tpc::tm {

// Body shared by the TM protocol records. Children are the peers a decision
// must reach during recovery; upstream is where acknowledgments (or
// inquiries) go.
struct TmRecordBody {
  std::string upstream;  // empty at the root
  bool is_root = false;
  bool heur_commit = false;  // kTmHeuristic only
  std::vector<std::string> children;
  /// Paxos Commit: the full cohort, persisted in the prepared record so a
  /// recovered participant can lead a takeover. Empty for other protocols.
  std::vector<std::string> cohort;
};

namespace {

std::string EncodeBody(const TmRecordBody& body) {
  Encoder enc;
  enc.PutString(body.upstream);
  enc.PutBool(body.is_root);
  enc.PutBool(body.heur_commit);
  enc.PutVarint(body.children.size());
  for (const auto& c : body.children) enc.PutString(c);
  enc.PutVarint(body.cohort.size());
  for (const auto& c : body.cohort) enc.PutString(c);
  return enc.Release();
}

Status DecodeBody(std::string_view data, TmRecordBody* body) {
  Decoder dec(data);
  TPC_RETURN_IF_ERROR(dec.GetString(&body->upstream));
  TPC_RETURN_IF_ERROR(dec.GetBool(&body->is_root));
  TPC_RETURN_IF_ERROR(dec.GetBool(&body->heur_commit));
  uint64_t n = 0;
  TPC_RETURN_IF_ERROR(dec.GetVarint(&n));
  body->children.resize(n);
  for (uint64_t i = 0; i < n; ++i)
    TPC_RETURN_IF_ERROR(dec.GetString(&body->children[i]));
  TPC_RETURN_IF_ERROR(dec.GetVarint(&n));
  body->cohort.resize(n);
  for (uint64_t i = 0; i < n; ++i)
    TPC_RETURN_IF_ERROR(dec.GetString(&body->cohort[i]));
  return Status::OK();
}

}  // namespace

TransactionManager::TransactionManager(sim::SimContext* ctx,
                                       net::Transport* network,
                                       wal::LogManager* log, std::string name,
                                       TmConfig config)
    : owned_rt_(std::make_unique<runtime::SimRuntime>(ctx)),
      rt_(owned_rt_.get()),
      ctx_(ctx),
      network_(network),
      log_(log),
      name_(std::move(name)),
      config_(config) {
  Init();
}

TransactionManager::TransactionManager(runtime::Runtime* rt,
                                       sim::SimContext* ctx,
                                       net::Transport* network,
                                       wal::LogManager* log, std::string name,
                                       TmConfig config)
    : rt_(rt),
      ctx_(ctx),
      network_(network),
      log_(log),
      name_(std::move(name)),
      config_(config) {
  Init();
}

void TransactionManager::Init() {
  rules_ = PresumptionsOf(config_.protocol);
  network_->Register(name_, this);
  self_id_ = network_->InternId(name_);
  // Intern the full crash-point catalog once; hot-path hits are then flat
  // array increments in the injector, no string work.
  sim::FailureInjector& failures = ctx_->failures();
  fi_node_ = failures.InternNode(name_);
  for (size_t i = 0; i < kCrashPointCount; ++i)
    fi_points_[i] = failures.InternPoint(kCrashPointNames[i]);
  // PaxosInst::acked_by has one bit per acceptor.
  TPC_CHECK(config_.acceptors.size() <= 64);
}

void TransactionManager::AttachRm(rm::KVResourceManager* rm) {
  rms_.push_back(rm);
  // Sharing the log (Section 4): an RM writing into our own log needs no
  // force our forces already give it. Its committed record follows our
  // decision; its prepared record precedes the force that makes our vote
  // or decision durable — unless this family votes without a prepared
  // force (logless one-phase), where the RM's prepared force is the one.
  if (rm->log_ == log_) {
    rm->force_committed_ = false;
    rm->force_prepared_ = !rules_.prepared_force;
  }
}

void TransactionManager::Connect(const net::NodeId& peer,
                                 SessionOptions options) {
  SessionSlot(peer).options = options;
}

// ---------------------------------------------------------------------------
// Plumbing
// ---------------------------------------------------------------------------

TransactionManager::TxnMeta& TransactionManager::MetaSlot(uint64_t id) {
  // May rehash: callers use the reference transiently, never across another
  // MetaSlot/GetOrCreateTxn call.
  return txn_meta_.GetOrCreate(id);
}

const TransactionManager::TxnMeta* TransactionManager::FindMeta(
    uint64_t id) const {
  return txn_meta_.Find(id);
}

TransactionManager::Txn& TransactionManager::GetOrCreateTxn(uint64_t id) {
  TxnMeta& meta = MetaSlot(id);
  if (meta.slot != kNoSlot) return txn_slab_[meta.slot];
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(txn_slab_.size());
    txn_slab_.emplace_back();
  }
  meta.slot = slot;
  ++live_txns_;
  Txn& txn = txn_slab_[slot];
  txn.id = id;
  txn.in_use = true;
  return txn;
}

TransactionManager::Txn* TransactionManager::FindTxn(uint64_t id) {
  const TxnMeta* meta = FindMeta(id);
  if (meta == nullptr || meta->slot == kNoSlot) return nullptr;
  return &txn_slab_[meta->slot];
}

const TransactionManager::Txn* TransactionManager::FindTxn(uint64_t id) const {
  const TxnMeta* meta = FindMeta(id);
  if (meta == nullptr || meta->slot == kNoSlot) return nullptr;
  return &txn_slab_[meta->slot];
}

TransactionManager::Session* TransactionManager::FindSession(
    const net::NodeId& peer) {
  const uint32_t sid = network_->IdOf(peer);
  if (sid == net::Transport::kNoId) return nullptr;
  return FindSessionById(sid);
}

TransactionManager::Session* TransactionManager::FindSessionById(uint32_t sid) {
  const auto it =
      std::lower_bound(session_ids_.begin(), session_ids_.end(), sid);
  if (it == session_ids_.end() || *it != sid) return nullptr;
  return &sessions_[session_slots_[it - session_ids_.begin()]];
}

TransactionManager::Session& TransactionManager::SessionSlot(
    const net::NodeId& peer) {
  const uint32_t sid = network_->InternId(peer);
  if (Session* existing = FindSessionById(sid)) return *existing;
  const uint32_t slot = static_cast<uint32_t>(sessions_.size());
  sessions_.emplace_back();
  sessions_.back().peer_id = sid;
  const auto it =
      std::lower_bound(session_ids_.begin(), session_ids_.end(), sid);
  session_slots_.insert(session_slots_.begin() + (it - session_ids_.begin()),
                        slot);
  session_ids_.insert(it, sid);
  RebuildSessionOrder();
  return sessions_.back();
}

void TransactionManager::RebuildSessionOrder() {
  session_order_.clear();
  for (uint32_t slot = 0; slot < sessions_.size(); ++slot)
    session_order_.push_back(slot);
  std::sort(session_order_.begin(), session_order_.end(),
            [this](uint32_t a, uint32_t b) {
              return network_->NameOf(sessions_[a].peer_id) <
                     network_->NameOf(sessions_[b].peer_id);
            });
}

void TransactionManager::AddPeer(Txn& txn, const net::NodeId& peer) {
  auto it = std::lower_bound(txn.peers.begin(), txn.peers.end(), peer);
  if (it == txn.peers.end() || *it != peer) txn.peers.insert(it, peer);
}

bool TransactionManager::HasPeer(const Txn& txn, const net::NodeId& peer) {
  return std::binary_search(txn.peers.begin(), txn.peers.end(), peer);
}

void TransactionManager::SendPdu(const net::NodeId& peer, const Pdu& pdu,
                                 std::string_view app_data) {
  TPC_CHECK(up_);
  const uint32_t sid = network_->IdOf(peer);
  TPC_CHECK(sid != net::Transport::kNoId);
  Session* session_ptr = FindSessionById(sid);
  TPC_CHECK(session_ptr != nullptr);
  Session& session = *session_ptr;

  const bool protocol_flow = pdu.type != PduType::kAppData;
  const uint64_t primary_txn = pdu.txn;

  // Flow accounting: a message whose primary PDU is protocol traffic counts
  // as one commit flow against that transaction. Piggybacked PDUs and app
  // data ride for free (the packet exists anyway) — this matches how the
  // paper credits the long-locks and implied-ack savings.
  if (protocol_flow) ++MetaSlot(primary_txn).cost.flows_sent;

  net::Message msg;
  msg.from = self_id_;
  msg.to = sid;
  msg.kind = net::MsgKind::kPdu;
  msg.txn = primary_txn;
  msg.payload = network_->AcquirePayload();
  std::string& buf = network_->PayloadBuffer(msg.payload);
  PduWriter writer(&buf);
  // Piggyback anything buffered for this peer (long-locks acks, deferred
  // last-agent decisions) — that is the whole point of the buffering.
  for (const Pdu& buffered : session.outbox) writer.Append(buffered);
  session.outbox.clear();
  if (app_data.empty()) {
    writer.Append(pdu);
  } else {
    writer.Append(pdu, app_data);  // app bytes go view -> buffer, copy-free
  }
  // The describe tag exists only for traces; skip building it when tracing
  // is off.
  if (network_->tracing()) DescribePayload(buf, &msg.trace_tag);
  TPC_CHECK_OK(network_->Send(std::move(msg)));
}

void TransactionManager::BufferPdu(const net::NodeId& peer, Pdu pdu) {
  Session* session = FindSession(peer);
  TPC_CHECK(session != nullptr);
  session->outbox.push_back(std::move(pdu));
}

void TransactionManager::AppendTmRecord(uint64_t txn, wal::RecordType type,
                                        bool force, std::string body,
                                        std::function<void()> done) {
  TxnCost& cost = MetaSlot(txn).cost;
  ++cost.tm_log_writes;
  if (force) ++cost.tm_log_forced;
  wal::LogRecord rec;
  rec.type = type;
  rec.txn = txn;
  rec.owner = name_ + ".tm";
  rec.body = std::move(body);
  if (!done) {
    log_->Append(rec, force);
    return;
  }
  const uint64_t epoch = epoch_;
  log_->Append(rec, force, [this, epoch, done = std::move(done)] {
    if (up_ && epoch == epoch_) done();
  });
}

std::string TransactionManager::DecisionBody(const Txn& txn, bool is_root) {
  TmRecordBody body;
  body.is_root = is_root;
  if (txn.has_upstream) body.upstream = txn.upstream;
  for (const auto& c : txn.children)
    if (!c.excluded) body.children.push_back(c.peer);
  return EncodeBody(body);
}

std::string TransactionManager::PreparedBody(const Txn& txn) const {
  TmRecordBody body;
  body.upstream = txn.upstream;
  for (const auto& c : txn.children)
    if (!(c.voted && c.vote == rm::Vote::kReadOnly && config_.read_only_opt))
      body.children.push_back(c.peer);
  return EncodeBody(body);
}

// ---------------------------------------------------------------------------
// Application interface
// ---------------------------------------------------------------------------

uint64_t TransactionManager::Begin() {
  uint64_t id = rt_->NextTxnId();
  GetOrCreateTxn(id);
  return id;
}

Status TransactionManager::SendWork(uint64_t txn_id, const net::NodeId& peer,
                                    std::string_view payload) {
  if (!up_) return Status::Unavailable(name_ + " is down");
  Session* session = FindSession(peer);
  if (session == nullptr)
    return Status::InvalidArgument("no session with " + peer);
  Txn& txn = GetOrCreateTxn(txn_id);
  AddPeer(txn, peer);
  session->suspended_leave_out = false;  // data wakes the server

  Pdu pdu;
  pdu.type = PduType::kAppData;
  pdu.txn = txn_id;
  SendPdu(peer, std::move(pdu), payload);
  return Status::OK();
}

void TransactionManager::Read(uint64_t txn, size_t rm_index,
                              std::string_view key,
                              rm::KVResourceManager::ReadCallback done) {
  GetOrCreateTxn(txn);
  rms_.at(rm_index)->Read(txn, key, std::move(done));
}

void TransactionManager::Write(uint64_t txn, size_t rm_index,
                               std::string_view key, std::string value,
                               rm::KVResourceManager::WriteCallback done) {
  Txn& t = GetOrCreateTxn(txn);
  // The one-phase family's prepare constraint: once this node prepared (the
  // early-prepare timer fired), the transaction's write set is frozen — a
  // late write can no longer be covered by the vote already sent. The same
  // rule holds for every protocol once phase one starts here.
  if (t.phase != Phase::kActive) {
    done(Status::FailedPrecondition("transaction already prepared"));
    return;
  }
  rms_.at(rm_index)->Write(txn, key, std::move(value), std::move(done));
}

void TransactionManager::Commit(uint64_t txn_id, CommitCallback done) {
  TPC_CHECK(up_);
  const TxnMeta* meta = FindMeta(txn_id);
  if (meta != nullptr && meta->slot == kNoSlot && meta->has_view) {
    // The transaction already ended here without the application: an
    // inquiry (or a stray decision) found it still active, aborted its work
    // and forgot it. Report that verdict; starting a fresh, empty
    // transaction under the same id would "commit" nothing.
    CommitResult result;
    result.outcome = meta->view.outcome;
    result.heuristic_damage = meta->view.damage_reported_here;
    ctx_->trace().Add(
        {rt_->Now(), sim::TraceKind::kState, name_, "", txn_id,
         StringPrintf("commit complete (%s, already ended)",
                      std::string(OutcomeToString(result.outcome)).c_str())});
    done(result);
    return;
  }
  Txn& txn = GetOrCreateTxn(txn_id);
  TPC_CHECK(txn.phase == Phase::kActive);
  txn.is_root = true;
  txn.has_app_cb = true;
  txn.app_cb = std::move(done);
  txn.commit_started = rt_->Now();
  ctx_->trace().Add({rt_->Now(), sim::TraceKind::kState, name_, "", txn_id,
                     "commit initiated"});
  StartPhaseOne(txn);
}

void TransactionManager::AbortTxn(uint64_t txn_id) {
  TPC_CHECK(up_);
  Txn& txn = GetOrCreateTxn(txn_id);
  TPC_CHECK(txn.phase == Phase::kActive);
  txn.is_root = true;
  // An abort needs to reach anyone who may have done work.
  for (const auto& peer : txn.peers) {
    Child child;
    child.peer = peer;
    txn.children.push_back(std::move(child));
  }
  DecideAndPropagate(txn, /*commit=*/false);
}

void TransactionManager::UnsolicitedPrepare(uint64_t txn_id) {
  TPC_CHECK(up_);
  Txn* txn = FindTxn(txn_id);
  TPC_CHECK(txn != nullptr);
  TPC_CHECK(txn->has_work_source);  // a server knows who its requester is
  TPC_CHECK(txn->phase == Phase::kActive);
  txn->has_upstream = true;
  txn->upstream = txn->work_source;
  txn->unsolicited_sent = true;
  StartPhaseOne(*txn);
}

// ---------------------------------------------------------------------------
// Coordinator path: phase one
// ---------------------------------------------------------------------------

void TransactionManager::ComputeParticipants(Txn& txn) {
  // Touched peers are always in. Untouched connected sessions join only in
  // include-idle mode, and even then the leave-out optimization can exclude
  // them (PA: any untouched server; PN: only a server that voted
  // OK_TO_LEAVE_OUT in an earlier commit and is suspended since).
  std::set<net::NodeId> existing;
  for (const auto& c : txn.children) existing.insert(c.peer);
  for (uint32_t slot : session_order_) {
    const Session& session = sessions_[slot];
    const net::NodeId& peer = network_->NameOf(session.peer_id);
    if (txn.has_upstream && peer == txn.upstream) continue;
    if (existing.count(peer)) continue;
    const bool touched = HasPeer(txn, peer);
    bool included = touched;
    if (!included && config_.include_idle_sessions) {
      const bool eligible_leave_out =
          config_.leave_out_opt &&
          (rules_.leave_out_idle || session.suspended_leave_out);
      included = !eligible_leave_out;
    }
    if (!included) continue;
    Child child;
    child.peer = peer;
    txn.children.push_back(std::move(child));
  }
}

void TransactionManager::StartPhaseOne(Txn& txn) {
  txn.phase = Phase::kPreparing;
  ComputeParticipants(txn);

  // PN: a coordinator (root or cascaded, including a last agent) must
  // remember its subordinates durably *before* any of them can become
  // dependent on it — it is the one responsible for driving recovery and
  // collecting heuristic-damage reports. PC's collecting record does the
  // same so that a commit can later be presumed.
  if (rules_.collecting_record && !txn.commit_pending_logged &&
      !txn.children.empty()) {
    if (CrashHere(CoordPt(txn, CrashPt::kRootBeforeCommitPendingForce,
                          CrashPt::kCascBeforeCommitPendingForce)))
      return;
    txn.commit_pending_logged = true;
    const uint64_t id = txn.id;
    const CrashPt after = CoordPt(txn, CrashPt::kRootAfterCommitPendingForce,
                                  CrashPt::kCascAfterCommitPendingForce);
    AppendTmRecord(id, wal::RecordType::kTmCommitPending, /*force=*/true,
                   DecisionBody(txn, /*is_root=*/!txn.has_upstream),
                   [this, id, after] {
      if (CrashHere(after)) return;
      if (Txn* t = FindTxn(id)) ContinuePhaseOne(*t);
    });
    return;
  }
  ContinuePhaseOne(txn);
}

void TransactionManager::ContinuePhaseOne(Txn& txn) {
  const uint64_t id = txn.id;

  if (rules_.consensus_vote && !txn.has_upstream) {
    // Paxos Commit: there is no last agent and no vote counting here — each
    // participant sends its vote to the acceptors (its own instance's
    // ballot-0 2a), and the acceptors' 2b replies come back to us. Prepare
    // still tells the cohort to prepare, and carries the cohort + acceptor
    // set every participant needs to lead a takeover if we die.
    txn.paxos_leader = true;
    txn.paxos_cohort.clear();
    txn.paxos_cohort.push_back(name_);
    for (const auto& child : txn.children)
      txn.paxos_cohort.push_back(child.peer);
    std::sort(txn.paxos_cohort.begin(), txn.paxos_cohort.end());
    txn.paxos_insts.clear();
    for (const auto& member : txn.paxos_cohort) {
      txn.paxos_insts.emplace_back();
      txn.paxos_insts.back().name = member;
    }
    if (!txn.children.empty()) {
      PaxosBody body;
      body.leader = name_;
      body.cohort = txn.paxos_cohort;
      body.acceptors = config_.acceptors;
      paxos_wire_.clear();
      EncodePaxosBody(body, &paxos_wire_);
      for (auto& child : txn.children) {
        child.prepare_sent = true;
        Pdu pdu;
        pdu.type = PduType::kPrepare;
        pdu.txn = id;
        SendPdu(child.peer, std::move(pdu), paxos_wire_);
      }
      if (CrashHere(CrashPt::kRootAfterPrepareSend)) return;
    }
    PrepareLocalRms(txn);
    return;
  }

  // Select the last agent. Only a node that owns the commit decision (a
  // root or a node the decision was delegated to) may delegate it further.
  const bool owns_decision = !txn.has_upstream || txn.i_am_last_agent;
  if (config_.last_agent_opt && owns_decision && !txn.children.empty()) {
    Child* pick = nullptr;
    sim::Time best_latency = -1;
    for (auto& child : txn.children) {
      if (child.voted) continue;  // vote already in hand (incl. initiator)
      const Session* session = FindSession(child.peer);
      const bool candidate =
          session != nullptr && session->options.last_agent_candidate;
      sim::Time latency = network_->LatencyBetween(name_, child.peer);
      if (candidate) latency += 1'000'000'000;  // candidates dominate
      if (latency > best_latency) {
        best_latency = latency;
        pick = &child;
      }
    }
    if (pick != nullptr) {
      pick->is_last_agent = true;
      txn.last_agent_peer = pick->peer;
      txn.awaiting_last_agent = true;
    }
  }

  // Send Prepare to everyone except the last agent and the already-voted.
  bool sent_prepare = false;
  for (auto& child : txn.children) {
    if (child.is_last_agent || child.voted) continue;
    if (!rules_.prepare_round) {
      // One-phase family: there is no Prepare round. The subordinate's
      // early-prepare timer produces its (unsolicited) vote; count it as
      // outstanding so the vote timer still guards a silent child.
      ++txn.votes_outstanding;
      continue;
    }
    child.prepare_sent = true;
    ++txn.votes_outstanding;
    Pdu pdu;
    pdu.type = PduType::kPrepare;
    pdu.txn = id;
    const Session* session = FindSession(child.peer);
    pdu.long_locks = session != nullptr && session->options.long_locks;
    SendPdu(child.peer, std::move(pdu));
    sent_prepare = true;
  }
  if (sent_prepare &&
      CrashHere(CoordPt(txn, CrashPt::kRootAfterPrepareSend,
                        CrashPt::kCascAfterPrepareSend)))
    return;

  if (txn.votes_outstanding > 0) {
    const uint64_t epoch = epoch_;
    txn.vote_timer.Arm(rt_, config_.vote_timeout, [this, epoch, id] {
      if (!up_ || epoch != epoch_) return;
      Txn* t = FindTxn(id);
      if (t == nullptr || t->phase != Phase::kPreparing) return;
      if (t->votes_outstanding == 0) return;
      t->vote_timer.Fired();
      t->any_no = true;  // missing votes decide abort
      t->votes_outstanding = 0;
      MaybePhaseOneComplete(*t);
    });
  }

  PrepareLocalRms(txn);
}

void TransactionManager::PrepareLocalRms(Txn& txn) {
  const uint64_t id = txn.id;
  txn.rms_outstanding = rms_.size();
  if (rms_.empty()) {
    MaybePhaseOneComplete(txn);
    return;
  }
  if (txn.has_upstream && !rules_.prepared_force &&
      std::any_of(rms_.begin(), rms_.end(),
                  [id](const rm::KVResourceManager* rm) {
                    return rm->HasUpdates(id);
                  })) {
    // Logless vote: no TM force precedes the YES. Our prepared record goes
    // in unforced right before the RM's forced prepared record, so that
    // force covers both and recovery finds the promise (and the upstream
    // to ask) instead of presuming abort under a committing coordinator.
    AppendTmRecord(id, wal::RecordType::kTmPrepared, /*force=*/false,
                   PreparedBody(txn), nullptr);
  }
  const uint64_t epoch = epoch_;
  for (auto* rm : rms_) {
    if (!up_) return;  // an RM crash point may have taken the node down
    rm->Prepare(id, [this, epoch, id](rm::VoteInfo info) {
      if (!up_ || epoch != epoch_) return;
      Txn* t = FindTxn(id);
      if (t == nullptr) return;
      TPC_CHECK(t->rms_outstanding > 0);
      --t->rms_outstanding;
      switch (info.vote) {
        case rm::Vote::kNo:
          t->any_no = true;
          break;
        case rm::Vote::kYes:
          t->local_updates = true;
          break;
        case rm::Vote::kReadOnly:
          break;
      }
      if (!info.reliable) t->all_reliable = false;
      if (!info.ok_to_leave_out) t->all_leave_out = false;
      MaybePhaseOneComplete(*t);
    });
  }
}

void TransactionManager::OnVotePdu(const net::NodeId& from, const Pdu& pdu) {
  // Last-agent vote: the sender hands us the commit decision.
  if (pdu.last_agent) {
    Txn& txn = GetOrCreateTxn(pdu.txn);
    if (txn.is_root && txn.has_app_cb) {
      // Two initiators for one transaction: protocol violation, abort.
      Pdu abort;
      abort.type = PduType::kAbort;
      abort.txn = pdu.txn;
      abort.from_last_agent = true;
      SendPdu(from, std::move(abort));
      if (txn.phase == Phase::kActive || txn.phase == Phase::kPreparing) {
        txn.any_no = true;
        if (txn.phase == Phase::kPreparing) MaybePhaseOneComplete(txn);
      }
      return;
    }
    txn.i_am_last_agent = true;
    txn.initiator_read_only = pdu.vote == rm::Vote::kReadOnly;
    txn.implied_ack_peer = from;
    AddPeer(txn, from);
    // Represent the initiator as an already-prepared child we must send the
    // decision to; its ack is implied by its next message.
    Child initiator;
    initiator.peer = from;
    initiator.voted = true;
    initiator.vote = pdu.vote;
    initiator.prepare_sent = true;
    txn.children.push_back(std::move(initiator));
    // The initiator requests long locks on its vote: our decision message
    // will be buffered for piggybacking.
    txn.initiator_requested_long_locks = pdu.vote_long_locks;
    // Now run our own phase one (we may cascade, even pick our own last
    // agent) and then decide.
    StartPhaseOne(txn);
    return;
  }

  Txn& txn = GetOrCreateTxn(pdu.txn);
  if (pdu.unsolicited && txn.phase == Phase::kActive) {
    // Early vote stashed until commit processing starts.
    AddPeer(txn, from);
    Child child;
    child.peer = from;
    child.voted = true;
    child.vote = pdu.vote;
    child.reliable = pdu.reliable;
    child.ok_leave_out = pdu.ok_to_leave_out;
    child.unsolicited = true;
    txn.children.push_back(std::move(child));
    if (pdu.vote == rm::Vote::kNo) txn.any_no = true;
    if (!pdu.reliable) txn.all_reliable = false;
    if (!pdu.ok_to_leave_out) txn.all_leave_out = false;
    return;
  }

  if (txn.phase != Phase::kPreparing) return;  // stale/duplicate vote
  for (auto& child : txn.children) {
    if (child.peer != from || child.voted) continue;
    child.voted = true;
    child.vote = pdu.vote;
    child.reliable = pdu.reliable;
    child.ok_leave_out = pdu.ok_to_leave_out;
    if (pdu.vote == rm::Vote::kNo) txn.any_no = true;
    if (!pdu.reliable) txn.all_reliable = false;
    if (!pdu.ok_to_leave_out) txn.all_leave_out = false;
    TPC_CHECK(txn.votes_outstanding > 0);
    --txn.votes_outstanding;
    MaybePhaseOneComplete(txn);
    return;
  }
}

void TransactionManager::MaybePhaseOneComplete(Txn& txn) {
  if (txn.phase != Phase::kPreparing) return;
  if (txn.votes_outstanding > 0 || txn.rms_outstanding > 0) return;
  txn.vote_timer.Cancel(rt_);

  if (rules_.consensus_vote && !txn.has_upstream) {
    if (txn.paxos_voted_self) return;  // consensus in flight; 2b's decide
    if (txn.any_no) {
      // A local RM voted NO before our own ballot-0 2a went out: no
      // acceptor has (or will ever) accept Prepared for our instance, so a
      // takeover's free choice for it defaults to Aborted — deciding abort
      // directly agrees with every possible consensus outcome.
      DecidePaxos(txn, /*commit=*/false);
      return;
    }
    StartPaxosCommit(txn);
    return;
  }

  if (txn.any_no) {
    if (txn.has_upstream && !txn.i_am_last_agent) {
      SendVote(txn);  // vote NO upward; abort our subtree
      return;
    }
    DecideAndPropagate(txn, /*commit=*/false);
    return;
  }

  // All votes are YES or read-only.
  const bool children_all_ro = std::all_of(
      txn.children.begin(), txn.children.end(), [&](const Child& c) {
        if (c.is_last_agent) return true;  // not voted yet, not a vote
        if (txn.i_am_last_agent && c.peer == txn.implied_ack_peer)
          return c.vote == rm::Vote::kReadOnly;
        return c.vote == rm::Vote::kReadOnly;
      });
  const bool subtree_read_only =
      config_.read_only_opt && children_all_ro && !txn.local_updates;

  if (txn.has_upstream && !txn.i_am_last_agent) {
    // Subordinate / cascaded coordinator: vote upward.
    SendVote(txn);
    return;
  }

  if (txn.awaiting_last_agent) {
    // Hand the decision to the last agent. A read-only initiator can skip
    // the prepared force-write (it has nothing at stake).
    const uint64_t id = txn.id;
    auto send_vote_to_last_agent = [this, id](rm::Vote vote) {
      Txn* t = FindTxn(id);
      if (t == nullptr) return;
      t->phase = Phase::kAwaitLastAgent;
      t->my_la_vote_ro = vote == rm::Vote::kReadOnly;
      Pdu pdu;
      pdu.type = PduType::kVote;
      pdu.txn = id;
      pdu.vote = vote;
      pdu.last_agent = true;
      const Session* session = FindSession(t->last_agent_peer);
      pdu.vote_long_locks = session != nullptr && session->options.long_locks;
      SendPdu(t->last_agent_peer, std::move(pdu));
      if (CrashHere(vote == rm::Vote::kReadOnly
                        ? CrashPt::kRootAfterLaRoVoteSend
                        : CrashPt::kRootAfterLaVoteSend))
        return;
      if (vote == rm::Vote::kYes) {
        t = FindTxn(id);
        // We are now in doubt: arm the usual in-doubt machinery.
        ArmHeuristicTimer(*t);
        ArmInquiryTimer(*t);
      }
    };

    if (subtree_read_only) {
      // Release read-only resources now (the read-only optimization).
      for (auto* rm : rms_) rm->EndReadOnly(txn.id);
      for (auto& child : txn.children)
        if (!child.is_last_agent) child.excluded = true;
      send_vote_to_last_agent(rm::Vote::kReadOnly);
      return;
    }
    if (CrashHere(CrashPt::kRootBeforeLaVoteForce)) return;
    TmRecordBody body;
    body.upstream = txn.last_agent_peer;  // decisions/inquiries go there
    body.is_root = true;
    for (const auto& c : txn.children)
      if (!c.is_last_agent) body.children.push_back(c.peer);
    AppendTmRecord(txn.id, wal::RecordType::kTmPrepared, /*force=*/true,
                   EncodeBody(body), [this, send_vote_to_last_agent] {
      if (CrashHere(CrashPt::kRootAfterLaVoteForce)) return;
      send_vote_to_last_agent(rm::Vote::kYes);
    });
    return;
  }

  if (subtree_read_only && !txn.i_am_last_agent) {
    // Entirely read-only transaction: commit outcome, second phase skipped
    // for everyone, and (PA) no logging at all. A collecting record forced
    // before Prepare (PN commit-pending, PC collecting) must still be
    // closed, or recovery would re-decide the transaction as an abort.
    txn.decided = true;
    txn.commit_decision = true;
    txn.outcome = Outcome::kCommitted;
    for (auto& child : txn.children) child.excluded = true;
    for (auto* rm : rms_) rm->EndReadOnly(txn.id);
    if (txn.commit_pending_logged) {
      AppendTmRecord(txn.id, wal::RecordType::kTmEnd, /*force=*/false, "",
                     nullptr);
      txn.end_written = true;
    }
    CompleteApp(txn, /*pending=*/false);
    Forget(txn);
    return;
  }

  if (txn.i_am_last_agent && subtree_read_only && txn.initiator_read_only) {
    // Fully read-only last-agent transaction: nothing at stake anywhere.
    // Reply with the outcome (the initiator's app needs it) and forget;
    // no logging, no implied-ack wait.
    txn.decided = true;
    txn.commit_decision = true;
    txn.outcome = Outcome::kCommitted;
    for (auto* rm : rms_) rm->EndReadOnly(txn.id);
    Pdu pdu;
    pdu.type = PduType::kCommit;
    pdu.txn = txn.id;
    pdu.from_last_agent = true;
    SendPdu(txn.implied_ack_peer, std::move(pdu));
    Forget(txn);
    return;
  }

  DecideAndPropagate(txn, /*commit=*/true);
}

// ---------------------------------------------------------------------------
// Decision and phase two
// ---------------------------------------------------------------------------

void TransactionManager::DecideAndPropagate(Txn& txn, bool commit) {
  txn.decided = true;
  txn.commit_decision = commit;
  txn.phase = Phase::kDeciding;
  txn.outcome = commit ? Outcome::kCommitted : Outcome::kAborted;
  if (!RuleFor(commit).owner_forces) {
    // PA abort: the root logs nothing; absence of information means abort.
    // (Paxos Commit inherits this: an abort outcome is pinned by the
    // acceptors' durable state, so the leader need not log it.)
    SendDecision(txn, commit);
    return;
  }
  const CrashPt before =
      commit ? CoordPt(txn, CrashPt::kRootBeforeCommitForce,
                       CrashPt::kCascBeforeCommitForce)
             : CoordPt(txn, CrashPt::kRootBeforeAbortForce,
                       CrashPt::kCascBeforeAbortForce);
  const CrashPt after =
      commit ? CoordPt(txn, CrashPt::kRootAfterCommitForce,
                       CrashPt::kCascAfterCommitForce)
             : CoordPt(txn, CrashPt::kRootAfterAbortForce,
                       CrashPt::kCascAfterAbortForce);
  if (CrashHere(before)) return;
  const uint64_t id = txn.id;
  // Under a shared log the host's force covers our commit record; an abort
  // record is forced regardless.
  AppendTmRecord(id,
                 commit ? wal::RecordType::kTmCommitted
                        : wal::RecordType::kTmAborted,
                 /*force=*/!commit || !ForceDowngraded(),
                 DecisionBody(txn, /*is_root=*/!txn.has_upstream),
                 [this, id, after, commit] {
    if (CrashHere(after)) return;
    Txn* t = FindTxn(id);
    if (t == nullptr) return;
    SendDecision(*t, commit);
  });
}

void TransactionManager::SendDecision(Txn& txn, bool commit) {
  const uint64_t id = txn.id;
  const DecisionRule& rule = RuleFor(commit);
  bool sent_decision = false;

  for (auto& child : txn.children) {
    if (child.is_last_agent) {
      // The last agent *made* this decision; it learns nothing from us and
      // its END waits on our implied ack (our next message to it).
      child.ack_required = false;
      continue;
    }
    const bool is_la_initiator =
        txn.i_am_last_agent && child.peer == txn.implied_ack_peer;
    // Read-only voters and left-out partners see no second phase — except a
    // read-only last-agent initiator, whose app still needs the outcome.
    if (child.voted && child.vote == rm::Vote::kReadOnly &&
        config_.read_only_opt && !is_la_initiator) {
      child.excluded = true;
    }
    if (child.excluded) continue;
    if (child.acked) {
      // Already resolved and acknowledged (a NO voter that aborted its
      // subtree and acked proactively): nothing to send.
      child.ack_required = true;
      continue;
    }
    // A child that never received a Prepare (vote timeout fired before we
    // contacted it) still gets the abort: it may hold work for the txn.

    // Ack requirements: none for a presumed decision (PA abort, PC commit),
    // none for NO voters, none for reliable subtrees when the optimization
    // is on, and the last agent's initiator acks implicitly.
    bool ack_required = rule.acknowledged;
    // A NO voter has nothing to resolve when aborts are presumed; under
    // PN/basic its ack still closes the late-acknowledgment loop (it may
    // have a subtree).
    if (child.voted && child.vote == rm::Vote::kNo &&
        !rules_.abort.acknowledged)
      ack_required = false;
    if (commit && child.reliable && config_.vote_reliable_opt)
      ack_required = false;
    if (is_la_initiator) ack_required = false;
    child.ack_required = ack_required;

    Pdu pdu;
    pdu.type = commit ? PduType::kCommit : PduType::kAbort;
    pdu.txn = id;
    pdu.from_last_agent = is_la_initiator;

    const Session* session = FindSession(child.peer);
    const bool buffer_decision =
        is_la_initiator && txn.initiator_requested_long_locks;
    if (buffer_decision) {
      // Last-agent + long-locks: the decision itself waits for the next
      // message on the session (Table 4's three-flows-per-two-transactions
      // pattern; also the paper's "no messages flow for the next
      // transaction" application-design hazard).
      BufferPdu(child.peer, std::move(pdu));
    } else {
      SendPdu(child.peer, std::move(pdu));
      sent_decision = true;
    }
    if (is_la_initiator && commit && child.vote != rm::Vote::kReadOnly) {
      SessionSlot(child.peer).implied_ack_txns.push_back(id);
      txn.awaiting_implied_ack = true;
      session = FindSession(child.peer);  // SessionSlot may grow sessions_
    }
    // Long-locks sessions deliberately defer the ack until the next
    // transaction begins — retrying the decision on a timer would defeat
    // the optimization (and the paper's "application design problem"
    // caveat is exactly that the wait can be unbounded).
    const bool long_locks_session =
        session != nullptr && session->options.long_locks;
    if (ack_required && !long_locks_session) ArmAckTimer(txn, child);
  }

  if (sent_decision &&
      CrashHere(CoordPt(txn, CrashPt::kRootAfterDecisionSend,
                        CrashPt::kCascAfterDecisionSend)))
    return;

  // Second phase against local resource managers.
  txn.rm_phase2_outstanding = rms_.size();
  const uint64_t epoch = epoch_;
  for (auto* rm : rms_) {
    if (!up_) return;  // an RM crash point may have taken the node down
    auto done = [this, epoch, id](Status st) {
      TPC_CHECK(st.ok());
      if (!up_ || epoch != epoch_) return;
      Txn* t = FindTxn(id);
      if (t == nullptr) return;
      TPC_CHECK(t->rm_phase2_outstanding > 0);
      --t->rm_phase2_outstanding;
      MaybeComplete(*t);
    };
    if (commit) {
      rm->Commit(id, std::move(done));
    } else {
      rm->Abort(id, std::move(done));
    }
  }
  if (!up_) return;
  if (rms_.empty()) MaybeComplete(txn);
}

void TransactionManager::ArmAckTimer(Txn& txn, Child& child) {
  const uint64_t id = txn.id;
  const net::NodeId peer = child.peer;
  const uint64_t epoch = epoch_;
  child.ack_timer.Arm(rt_, config_.ack_timeout, [this, epoch, id, peer] {
    if (!up_ || epoch != epoch_) return;
    Txn* t = FindTxn(id);
    if (t == nullptr) return;
    for (auto& c : t->children) {
      if (c.peer != peer || c.acked || !c.ack_required) continue;
      c.ack_timer.Fired();
      Pdu pdu;
      pdu.type = t->commit_decision ? PduType::kCommit : PduType::kAbort;
      pdu.txn = id;
      pdu.from_last_agent = t->i_am_last_agent && peer == t->implied_ack_peer;
      if (!c.retried) {
        // One retry (the paper's wait-for-outcome contract: one attempt to
        // contact a failed partner before giving up the wait).
        c.retried = true;
        SendPdu(peer, std::move(pdu));
        ArmAckTimer(*t, c);
        return;
      }
      // Still unreachable after the retry.
      t->subtree_pending = true;
      if (!config_.wait_for_outcome_block) {
        // Wait-for-outcome: stop blocking the application / the upstream
        // ack; recovery continues in the background.
        c.ack_required = false;
        ScheduleRecoveryRetry(id);
        if (!t->has_upstream || t->i_am_last_agent) {
          CompleteApp(*t, /*pending=*/true);
        } else if (!t->ack_sent) {
          // "Recovery is in progress" acknowledgment to our coordinator.
          DoSendAck(*t, /*pending=*/true);
        }
      } else {
        // Classic blocking behavior: keep retrying until the peer returns.
        SendPdu(peer, std::move(pdu));
        ArmAckTimer(*t, c);
      }
      return;
    }
  });
}

void TransactionManager::OnAckPdu(const net::NodeId& from, const Pdu& pdu) {
  Txn* txn = FindTxn(pdu.txn);
  if (txn == nullptr) {
    // Late/duplicate ack for a forgotten transaction: fold any damage
    // report into the archive (background wait-for-outcome resolutions).
    if (pdu.damage) {
      TxnMeta& meta = MetaSlot(pdu.txn);
      if (meta.has_view) meta.view.damage_reported_here = true;
    }
    return;
  }
  for (auto& child : txn->children) {
    if (child.peer != from) continue;
    child.ack_timer.Cancel(rt_);
    child.acked = true;
    // Aggregate the subtree's heuristic report.
    if (pdu.heur_commit) txn->heur_commit = true;
    if (pdu.heur_abort) txn->heur_abort = true;
    if (pdu.damage) txn->damage = true;
    if (pdu.outcome_pending) txn->subtree_pending = true;
    MaybeComplete(*txn);
    return;
  }
}

void TransactionManager::MaybeComplete(Txn& txn) {
  if (!txn.decided || txn.phase != Phase::kDeciding) return;
  if (txn.rm_phase2_outstanding > 0) return;
  for (const auto& child : txn.children)
    if (child.ack_required && !child.acked) return;
  if (txn.i_am_last_agent && txn.awaiting_implied_ack) {
    // Everything else is done, but the initiator's implied ack is still
    // outstanding: hold the END record until its next message arrives.
    return;
  }

  if (txn.has_upstream && !txn.i_am_last_agent) {
    // Subordinate / cascaded completion: END + ack upstream.
    AckUpstreamIfReady(txn);
    return;
  }

  // Root (or last-agent) completion.
  const bool logged_something =
      RuleFor(txn.commit_decision).owner_forces || txn.took_heuristic;
  const uint64_t id = txn.id;
  if (logged_something && !txn.end_written) {
    if (CrashHere(CrashPt::kRootBeforeEndWrite)) return;
    txn.end_written = true;
    AppendTmRecord(id, wal::RecordType::kTmEnd, /*force=*/false, "", nullptr);
    if (CrashHere(CrashPt::kRootAfterEndWrite)) return;
  }
  CompleteApp(txn, txn.subtree_pending);
  Forget(txn);
}

void TransactionManager::CompleteApp(Txn& txn, bool pending) {
  if (txn.app_completed || !txn.has_app_cb) {
    txn.app_completed = true;
    return;
  }
  txn.app_completed = true;
  CommitResult result;
  result.outcome = txn.outcome;
  result.heuristic_seen = txn.heur_commit || txn.heur_abort;
  // Damage: a reported heuristic decision that disagrees with the outcome.
  const bool mismatch = (txn.commit_decision && txn.heur_abort) ||
                        (!txn.commit_decision && txn.heur_commit) ||
                        txn.damage;
  result.heuristic_damage = mismatch;
  result.outcome_pending = pending;
  ctx_->trace().Add(
      {rt_->Now(), sim::TraceKind::kState, name_, "", txn.id,
       StringPrintf("commit complete (%s%s%s)",
                    std::string(OutcomeToString(txn.outcome)).c_str(),
                    mismatch ? ", damage" : "", pending ? ", pending" : "")});
  txn.app_cb(result);
}

void TransactionManager::WriteEndIfNeeded(Txn& txn, bool force,
                                          std::function<void()> done) {
  if (txn.end_written) {
    if (done) done();
    return;
  }
  // Only subordinate/cascaded completion routes through here; the root's END
  // is written inline in MaybeComplete.
  const CrashPt before =
      force ? SubPt(txn, CrashPt::kCascBeforeEndForce, CrashPt::kSubBeforeEndForce)
            : SubPt(txn, CrashPt::kCascBeforeEndWrite, CrashPt::kSubBeforeEndWrite);
  const CrashPt after =
      force ? SubPt(txn, CrashPt::kCascAfterEndForce, CrashPt::kSubAfterEndForce)
            : SubPt(txn, CrashPt::kCascAfterEndWrite, CrashPt::kSubAfterEndWrite);
  if (CrashHere(before)) return;
  txn.end_written = true;
  if (force) {
    AppendTmRecord(txn.id, wal::RecordType::kTmEnd, /*force=*/true, "",
                   [this, after, done = std::move(done)] {
                     if (CrashHere(after)) return;
                     if (done) done();
                   });
    return;
  }
  AppendTmRecord(txn.id, wal::RecordType::kTmEnd, /*force=*/false, "", nullptr);
  if (CrashHere(after)) return;
  if (done) done();
}

// ---------------------------------------------------------------------------
// Subordinate path
// ---------------------------------------------------------------------------

void TransactionManager::OnAppData(const net::NodeId& from, const Pdu& pdu,
                                   std::string_view data) {
  Txn& txn = GetOrCreateTxn(pdu.txn);
  AddPeer(txn, from);
  if (!txn.has_work_source) {
    txn.has_work_source = true;
    txn.work_source = from;
  }
  if (on_app_data_) on_app_data_(pdu.txn, from, data);
  if (!up_) return;
  // One-phase family: each burst of work (re)arms the quiesce timer; when
  // the data flow pauses long enough, this server prepares unsolicited —
  // the early prepare that removes the explicit voting phase.
  if (!rules_.prepare_round) {
    Txn* t = FindTxn(pdu.txn);
    if (t != nullptr && !t->is_root && t->phase == Phase::kActive &&
        t->has_work_source && !t->unsolicited_sent)
      ArmEarlyPrepare(*t);
  }
}

void TransactionManager::OnPreparePdu(const net::NodeId& from, const Pdu& pdu,
                                      std::string_view data) {
  Txn& txn = GetOrCreateTxn(pdu.txn);

  if (txn.is_root && txn.has_app_cb) {
    // Two initiators (the Figure 5 hazard class): vote NO; both trees abort.
    Pdu vote;
    vote.type = PduType::kVote;
    vote.txn = pdu.txn;
    vote.vote = rm::Vote::kNo;
    SendPdu(from, std::move(vote));
    if (txn.phase == Phase::kPreparing) {
      txn.any_no = true;
      MaybePhaseOneComplete(txn);
    }
    return;
  }

  if (txn.voted_yes || txn.phase == Phase::kInDoubt) {
    // Duplicate prepare (e.g. unsolicited vote raced with it): re-vote.
    SendVote(txn);
    return;
  }
  if (txn.phase != Phase::kActive) return;  // late prepare; ignore

  txn.has_upstream = true;
  txn.upstream = from;
  txn.upstream_long_locks = pdu.long_locks;
  AddPeer(txn, from);

  if (rules_.consensus_vote) {
    // The Prepare's body carries everything a participant needs to act
    // without the root: the cohort (instance set) and the acceptor set.
    if (DecodePaxosBody(data, &paxos_in_).ok() && !paxos_in_.cohort.empty())
      txn.paxos_cohort = paxos_in_.cohort;
  }

  if (rules_.join_record) {
    // PN notes the coordinator's identity as soon as commit processing
    // touches this node (non-forced; it rides the prepared force).
    if (CrashHere(CrashPt::kSubBeforeJoinWrite)) return;
    TmRecordBody body;
    body.upstream = from;
    AppendTmRecord(txn.id, wal::RecordType::kTmJoin, /*force=*/false,
                   EncodeBody(body), nullptr);
    if (CrashHere(CrashPt::kSubAfterJoinWrite)) return;
  }

  // Cascade phase one to our own subtree.
  StartPhaseOne(txn);
}

void TransactionManager::SendVote(Txn& txn) {
  const uint64_t id = txn.id;
  TPC_CHECK(txn.has_upstream);

  if (txn.phase == Phase::kInDoubt) {
    if (rules_.consensus_vote) {
      // Our vote goes to the acceptors, not the coordinator: re-fan the
      // ballot-0 2a (idempotent at the acceptors) instead of a kVote.
      SendPaxosVote(txn, /*prepared=*/true, CrashPt::kSubAfterPaxosVoteSend,
                    /*self_accepted=*/false);
      return;
    }
    // Re-vote (duplicate prepare): resend YES without re-logging.
    Pdu vote;
    vote.type = PduType::kVote;
    vote.txn = id;
    vote.vote = rm::Vote::kYes;
    vote.reliable = txn.all_reliable;
    vote.ok_to_leave_out = config_.ok_to_leave_out && txn.all_leave_out;
    const CrashPt resend = SubPt(txn, CrashPt::kCascAfterVoteResend,
                                 CrashPt::kSubAfterVoteResend);
    SendPdu(txn.upstream, std::move(vote));
    CrashHere(resend);
    return;
  }

  if (txn.any_no) {
    // Our subtree cannot commit: vote NO and abort everything below us.
    txn.phase = Phase::kDeciding;
    txn.decided = true;
    txn.commit_decision = false;
    txn.outcome = Outcome::kAborted;
    if (rules_.consensus_vote) {
      // The NO is an Aborted value for our instance at ballot 0; the leader
      // learns it from the acceptors' 2b majority. Locally we are done:
      // abort the subtree and forget, since aborts are presumed.
      // The self-accept stays volatile (no force follows): losing it in a
      // crash is safe, Aborted being the free choice a takeover lands on.
      const bool self_accepted = PaxosSelfAccept(txn, /*prepared=*/false);
      SendPaxosVote(txn, /*prepared=*/false, CrashPt::kSubAfterPaxosVoteSend,
                    self_accepted);
      AbortSubtreeAndForget(id);
      return;
    }
    Pdu vote;
    vote.type = PduType::kVote;
    vote.txn = id;
    vote.vote = rm::Vote::kNo;
    vote.unsolicited = txn.unsolicited_sent;
    const CrashPt no_sent = SubPt(txn, CrashPt::kCascAfterNoVoteSend,
                                  CrashPt::kSubAfterNoVoteSend);
    SendPdu(txn.upstream, std::move(vote));
    if (CrashHere(no_sent)) return;

    if (!rules_.abort.owner_forces) {
      // PA: nothing needs to be remembered or logged.
      AbortSubtreeAndForget(id);
      return;
    }
    // PN/basic: there is no presumption a prepared child could fall back
    // on, so we must durably remember the abort and drive the subtree to
    // completion ourselves (retrying through crashes). The normal
    // completion path then acknowledges upstream.
    if (CrashHere(SubPt(txn, CrashPt::kCascBeforeAbortForce,
                        CrashPt::kSubBeforeAbortForce)))
      return;
    TmRecordBody body;
    body.upstream = txn.upstream;
    for (const auto& c : txn.children)
      if (c.prepare_sent || c.voted) body.children.push_back(c.peer);
    const CrashPt after = SubPt(txn, CrashPt::kCascAfterAbortForce,
                                CrashPt::kSubAfterAbortForce);
    AppendTmRecord(id, wal::RecordType::kTmAborted, /*force=*/true,
                   EncodeBody(body), [this, id, after] {
      if (CrashHere(after)) return;
      Txn* t = FindTxn(id);
      if (t == nullptr) return;
      SendDecision(*t, /*commit=*/false);
    });
    return;
  }

  if (rules_.consensus_vote) {
    // Read-only is not special-cased: our instance must still reach a
    // consensus value, and Prepared is correct for a read-only subtree.
    TmRecordBody body;
    body.upstream = txn.upstream;
    body.cohort = txn.paxos_cohort;
    // Co-located acceptor: fold the ballot-0 self-accept snapshot into the
    // prepared record's force, so vote + accept cost one durable write.
    const bool self_accepted = PaxosSelfAccept(txn, /*prepared=*/true);
    if (self_accepted && CrashHere(CrashPt::kSubBeforeVoteAcceptForce))
      return;
    AppendTmRecord(id, wal::RecordType::kTmPrepared,
                   /*force=*/!ForceDowngraded(), EncodeBody(body),
                   [this, id, self_accepted] {
      if (CrashHere(CrashPt::kSubAfterPreparedForce)) return;
      if (self_accepted && CrashHere(CrashPt::kSubAfterVoteAcceptForce))
        return;
      Txn* t = FindTxn(id);
      if (t == nullptr) return;
      t->voted_yes = true;
      t->phase = Phase::kInDoubt;
      t->outcome = Outcome::kInDoubt;
      SendPaxosVote(*t, /*prepared=*/true, CrashPt::kSubAfterPaxosVoteSend,
                    self_accepted);
      if (!up_) return;
      t = FindTxn(id);
      if (t == nullptr) return;
      ArmHeuristicTimer(*t);
      ArmInquiryTimer(*t);  // paxos flavor: the takeover timer
    });
    return;
  }

  const bool children_all_ro = std::all_of(
      txn.children.begin(), txn.children.end(),
      [](const Child& c) { return c.vote == rm::Vote::kReadOnly; });
  const bool subtree_read_only =
      config_.read_only_opt && children_all_ro && !txn.local_updates;

  if (subtree_read_only) {
    // Read-only vote: no logs, locks released now, outcome never learned.
    // (Early release is the serialization hazard of Section 4.)
    txn.outcome = Outcome::kReadOnly;
    Pdu vote;
    vote.type = PduType::kVote;
    vote.txn = id;
    vote.vote = rm::Vote::kReadOnly;
    vote.reliable = txn.all_reliable;
    vote.ok_to_leave_out = config_.ok_to_leave_out && txn.all_leave_out;
    vote.unsolicited = txn.unsolicited_sent;
    const CrashPt ro_sent = SubPt(txn, CrashPt::kCascAfterRoVoteSend,
                                  CrashPt::kSubAfterRoVoteSend);
    SendPdu(txn.upstream, std::move(vote));
    if (CrashHere(ro_sent)) return;
    for (auto* rm : rms_) rm->EndReadOnly(id);
    txn.commit_decision = true;  // archive as committed-equivalent
    Forget(txn);
    return;
  }

  // YES vote: force the prepared record, then vote.
  const bool reliable = txn.all_reliable;
  const bool leave_out = config_.ok_to_leave_out && txn.all_leave_out;
  auto send_yes = [this, id, reliable, leave_out] {
    Txn* t = FindTxn(id);
    if (t == nullptr) return;
    t->voted_yes = true;
    t->my_vote_reliable = reliable;
    t->phase = Phase::kInDoubt;
    t->outcome = Outcome::kInDoubt;
    Pdu vote;
    vote.type = PduType::kVote;
    vote.txn = id;
    vote.vote = rm::Vote::kYes;
    vote.reliable = reliable;
    vote.ok_to_leave_out = leave_out;
    vote.unsolicited = t->unsolicited_sent;
    const CrashPt sent =
        t->unsolicited_sent ? CrashPt::kSubAfterUnsolicitedVoteSend
                            : SubPt(*t, CrashPt::kCascAfterYesVoteSend,
                                    CrashPt::kSubAfterYesVoteSend);
    SendPdu(t->upstream, std::move(vote));
    if (CrashHere(sent)) return;
    t = FindTxn(id);
    ArmHeuristicTimer(*t);
    ArmInquiryTimer(*t);
  };

  if (!rules_.prepared_force && txn.local_updates) {
    // Logless variant: no TM force of its own. PrepareLocalRms appended
    // our prepared record unforced just before the RM's forced prepared
    // record, so that one force already made the YES durable: a crash
    // from here on recovers in doubt and inquires. A cascaded subordinate
    // with no local updates has no RM force to ride; it forces its record
    // below, or a crash would forget the children it must tell.
    // See DESIGN.md 11.2.
    send_yes();
    return;
  }

  if (CrashHere(SubPt(txn, CrashPt::kCascBeforePreparedForce,
                      CrashPt::kSubBeforePreparedForce)))
    return;
  const CrashPt after_force = SubPt(txn, CrashPt::kCascAfterPreparedForce,
                                    CrashPt::kSubAfterPreparedForce);
  AppendTmRecord(id, wal::RecordType::kTmPrepared,
                 /*force=*/!ForceDowngraded(), PreparedBody(txn),
                 [this, after_force, send_yes] {
    if (CrashHere(after_force)) return;
    send_yes();
  });
}

void TransactionManager::OnDecisionPdu(const net::NodeId& from,
                                       const Pdu& pdu) {
  const bool commit = pdu.type == PduType::kCommit;
  Txn* txn = FindTxn(pdu.txn);

  if (txn == nullptr || txn->phase == Phase::kActive) {
    // Forgotten (or never-prepared) transaction receiving a decision:
    // abort any active work, then acknowledge from the archive so a
    // recovering coordinator can finish collecting acks.
    if (txn != nullptr && txn->phase == Phase::kActive) {
      AbortLocal(*txn);
      if (!up_) return;
      Forget(*txn);
    }
    if (RuleFor(commit).acknowledged) {
      Pdu ack;
      ack.type = PduType::kAck;
      ack.txn = pdu.txn;
      const TxnMeta* meta = FindMeta(pdu.txn);
      if (meta != nullptr && meta->has_view) {
        const Outcome o = meta->view.outcome;
        ack.heur_commit = o == Outcome::kHeuristicCommitted;
        ack.heur_abort = o == Outcome::kHeuristicAborted;
        ack.damage = (commit && o == Outcome::kHeuristicAborted) ||
                     (!commit && o == Outcome::kHeuristicCommitted) ||
                     meta->view.damage_reported_here;
      }
      SendPdu(from, std::move(ack));
    }
    return;
  }

  if (txn->phase == Phase::kAwaitLastAgent) {
    // The last agent we delegated to has decided.
    CancelTimers(*txn);
    if (txn->my_la_vote_ro) {
      // We voted read-only to the last agent: nothing to log or propagate
      // (our subtree was read-only too); report to the application. If the
      // decision was itself delegated to us by an upstream initiator (a
      // cascaded read-only delegation chain), relay it there exactly as a
      // fully read-only last agent replies — otherwise the outcome dies
      // here and every delegator above waits forever.
      txn->decided = true;
      txn->commit_decision = commit;
      txn->outcome = commit ? Outcome::kCommitted : Outcome::kAborted;
      if (txn->i_am_last_agent) {
        Pdu relay;
        relay.type = commit ? PduType::kCommit : PduType::kAbort;
        relay.txn = txn->id;
        relay.from_last_agent = true;
        SendPdu(txn->implied_ack_peer, std::move(relay));
      }
      CompleteApp(*txn, /*pending=*/false);
      Forget(*txn);
      return;
    }
    ApplyDecision(*txn, commit);
    return;
  }

  if (txn->phase == Phase::kInDoubt) {
    // Paxos Commit: the decision may come from a takeover leader rather
    // than the (possibly dead) root. The leader owns the decision now, so
    // acknowledgments must flow to it.
    if (rules_.consensus_vote && txn->has_upstream &&
        from != txn->upstream) {
      txn->upstream = from;
    }
    CancelTimers(*txn);
    if (txn->took_heuristic) {
      ResolveAfterHeuristic(*txn, commit);
      return;
    }
    ApplyDecision(*txn, commit);
    return;
  }

  if (txn->phase == Phase::kPreparing && commit && rules_.consensus_vote &&
      txn->paxos_voted_self) {
    // A takeover leader completed the consensus while we (the root) were
    // still collecting 2b's. Commit implies every instance — ours included —
    // was Prepared, so our local RMs are all prepared; adopt the decision.
    DecidePaxos(*txn, /*commit=*/true);
    return;
  }

  if (txn->phase == Phase::kPreparing && !commit) {
    // Abort while still preparing (e.g. a sibling voted NO).
    txn->any_no = true;
    if (txn->votes_outstanding == 0 && txn->rms_outstanding == 0)
      MaybePhaseOneComplete(*txn);
    return;
  }

  if (txn->phase == Phase::kDeciding && txn->decided &&
      !txn->commit_decision && !commit &&
      !(txn->has_upstream && from == txn->upstream)) {
    // Abort arriving from outside our own coordinator while we are already
    // aborting: this happens when two initiators raced (each side thinks
    // the other is its subordinate). Acknowledge directly — aborts are
    // final and idempotent — or the two trees livelock waiting for each
    // other's acks.
    if (rules_.abort.acknowledged) {
      Pdu ack;
      ack.type = PduType::kAck;
      ack.txn = pdu.txn;
      SendPdu(from, std::move(ack));
    }
    return;
  }
  // Duplicate decision from our coordinator while kDeciding: the normal
  // completion path will acknowledge (late-ack semantics preserved).
}

void TransactionManager::ResolveAfterHeuristic(Txn& txn, bool commit) {
  // Compare the heuristic decision with the real outcome.
  const bool we_committed = txn.outcome == Outcome::kHeuristicCommitted;
  const bool damage = we_committed != commit;
  txn.decided = true;
  txn.commit_decision = commit;
  txn.phase = Phase::kDeciding;
  if (damage) {
    ctx_->trace().Add({rt_->Now(), sim::TraceKind::kHeuristic, name_, "",
                       txn.id, "heuristic damage detected"});
  }
  txn.heur_commit = txn.heur_commit || we_committed;
  txn.heur_abort = txn.heur_abort || !we_committed;
  txn.damage = txn.damage || damage;
  // Propagate the real decision to our subtree (they are prepared and
  // must not be left blocked by our unilateral action); then the
  // normal completion path acks upstream with the damage report.
  SendDecision(txn, commit);
}

void TransactionManager::ApplyDecision(Txn& txn, bool commit) {
  const uint64_t id = txn.id;
  txn.decided = true;
  txn.commit_decision = commit;
  txn.phase = Phase::kDeciding;

  if (commit) {
    txn.outcome = Outcome::kCommitted;
    if (CrashHere(RolePt(txn, CrashPt::kRootBeforeCommitForce,
                         CrashPt::kCascBeforeCommitForce,
                         CrashPt::kSubBeforeCommitForce)))
      return;
    // Presumed commit: the subordinate's commit record need not be forced —
    // losing it leaves the transaction in doubt, and "no information"
    // resolves to commit.
    const bool force_commit =
        !ForceDowngraded() && rules_.commit.subordinate_forces;
    const CrashPt after = RolePt(txn, CrashPt::kRootAfterCommitForce,
                                 CrashPt::kCascAfterCommitForce,
                                 CrashPt::kSubAfterCommitForce);
    AppendTmRecord(id, wal::RecordType::kTmCommitted, force_commit,
                   DecisionBody(txn, /*is_root=*/false), [this, id, after] {
      if (CrashHere(after)) return;
      Txn* t = FindTxn(id);
      if (t == nullptr) return;
      SendDecision(*t, /*commit=*/true);
      if (!up_) return;
      t = FindTxn(id);
      if (t == nullptr) return;
      // Early acknowledgment: ack upstream as soon as our own commit is
      // durable, before the subtree acks arrive.
      if (config_.ack_timing == AckTiming::kEarly && t->has_upstream &&
          !t->i_am_last_agent && !t->ack_sent && rules_.commit.acknowledged) {
        DoSendAck(*t, /*pending=*/false);
      }
    });
    return;
  }

  txn.outcome = Outcome::kAborted;
  if (!rules_.abort.subordinate_forces) {
    // Non-forced abort record; no ack will be sent.
    if (CrashHere(RolePt(txn, CrashPt::kRootBeforeAbortWrite,
                         CrashPt::kCascBeforeAbortWrite,
                         CrashPt::kSubBeforeAbortWrite)))
      return;
    AppendTmRecord(id, wal::RecordType::kTmAborted, /*force=*/false, "",
                   nullptr);
    if (CrashHere(RolePt(txn, CrashPt::kRootAfterAbortWrite,
                         CrashPt::kCascAfterAbortWrite,
                         CrashPt::kSubAfterAbortWrite)))
      return;
    SendDecision(txn, /*commit=*/false);
    return;
  }
  if (CrashHere(RolePt(txn, CrashPt::kRootBeforeAbortForce,
                       CrashPt::kCascBeforeAbortForce,
                       CrashPt::kSubBeforeAbortForce)))
    return;
  const CrashPt after = RolePt(txn, CrashPt::kRootAfterAbortForce,
                               CrashPt::kCascAfterAbortForce,
                               CrashPt::kSubAfterAbortForce);
  AppendTmRecord(id, wal::RecordType::kTmAborted, /*force=*/true,
                 DecisionBody(txn, /*is_root=*/false), [this, id, after] {
    if (CrashHere(after)) return;
    Txn* t = FindTxn(id);
    if (t == nullptr) return;
    SendDecision(*t, /*commit=*/false);
  });
}

void TransactionManager::AckUpstreamIfReady(Txn& txn) {
  TPC_CHECK(txn.has_upstream);
  const uint64_t id = txn.id;

  // A presumed decision (PA abort, PC commit) is never acknowledged, and
  // there is nothing to close out: forget immediately.
  if (!RuleFor(txn.commit_decision).acknowledged) {
    Forget(txn);
    return;
  }

  // A NO voter aborted on its own initiative; the acknowledgment answers
  // the coordinator's Abort *command* ("force write an abort record before
  // acknowledging an abort command"), which is served from the archive
  // when that command arrives.
  if (!txn.commit_decision && !txn.voted_yes) {
    WriteEndIfNeeded(txn, /*force=*/false, nullptr);
    if (!up_) return;
    Forget(txn);
    return;
  }

  // Reliable subtrees skip the explicit ack: it is buffered as an "implied
  // ack" that can ride a later message but never costs a flow of its own.
  if (txn.commit_decision && txn.my_vote_reliable &&
      config_.vote_reliable_opt && !txn.ack_sent) {
    txn.ack_sent = true;
    Pdu ack;
    ack.type = PduType::kAck;
    ack.txn = id;
    BufferPdu(txn.upstream, std::move(ack));
    WriteEndIfNeeded(txn, /*force=*/false, nullptr);
    if (!up_) return;
    Forget(txn);
    return;
  }

  if (txn.ack_sent) {
    // Early ack (or pending ack) already went out; just close the books.
    WriteEndIfNeeded(txn, /*force=*/false, nullptr);
    if (!up_) return;
    Forget(txn);
    return;
  }

  if (!rules_.subordinates_inquire) {
    // PN: force the END record *before* acknowledging. Once we ack, the
    // coordinator may forget the transaction; with no presumption to fall
    // back on we must never come back asking.
    WriteEndIfNeeded(txn, /*force=*/true, [this, id] {
      Txn* t = FindTxn(id);
      if (t == nullptr) return;
      DoSendAck(*t, t->subtree_pending);
      if (!up_) return;
      t = FindTxn(id);
      if (t == nullptr) return;
      Forget(*t);
    });
    return;
  }

  DoSendAck(txn, txn.subtree_pending);
  if (!up_) return;
  Txn* t = FindTxn(id);
  if (t == nullptr) return;
  WriteEndIfNeeded(*t, /*force=*/false, nullptr);
  if (!up_) return;
  Forget(*t);
}

void TransactionManager::DoSendAck(Txn& txn, bool pending) {
  txn.ack_sent = true;
  Pdu ack;
  ack.type = PduType::kAck;
  ack.txn = txn.id;
  ack.outcome_pending = pending;
  // Heuristic report aggregation. PA (R*) reports damage to the immediate
  // coordinator only: what our children reported to us stops here. PN, whose
  // coordinators drive recovery, propagates the full report toward the root.
  const bool own_heur_commit = txn.outcome == Outcome::kHeuristicCommitted;
  const bool own_heur_abort = txn.outcome == Outcome::kHeuristicAborted;
  const bool own_damage = (txn.commit_decision && own_heur_abort) ||
                          (!txn.commit_decision && own_heur_commit);
  if (!rules_.subordinates_inquire) {
    ack.heur_commit = txn.heur_commit || own_heur_commit;
    ack.heur_abort = txn.heur_abort || own_heur_abort;
    ack.damage = txn.damage || own_damage;
  } else {
    ack.heur_commit = own_heur_commit;
    ack.heur_abort = own_heur_abort;
    ack.damage = own_damage;
  }

  if (txn.upstream_long_locks) {
    // Long locks: the ack rides the first message of the next transaction.
    BufferPdu(txn.upstream, std::move(ack));
    return;
  }
  const CrashPt sent =
      SubPt(txn, CrashPt::kCascAfterAckSend, CrashPt::kSubAfterAckSend);
  SendPdu(txn.upstream, std::move(ack));
  if (CrashHere(sent)) return;
}

// ---------------------------------------------------------------------------
// In-doubt handling: heuristics and recovery inquiries
// ---------------------------------------------------------------------------

void TransactionManager::ArmHeuristicTimer(Txn& txn) {
  if (config_.heuristic_policy == HeuristicPolicy::kNever) return;
  const uint64_t id = txn.id;
  const uint64_t epoch = epoch_;
  txn.heur_timer.Arm(rt_, config_.heuristic_delay, [this, epoch, id] {
    if (!up_ || epoch != epoch_) return;
    Txn* t = FindTxn(id);
    if (t == nullptr) return;
    t->heur_timer.Fired();
    if (t->phase != Phase::kInDoubt && t->phase != Phase::kAwaitLastAgent)
      return;
    TakeHeuristicDecision(*t);
  });
}

void TransactionManager::TakeHeuristicDecision(Txn& txn) {
  const bool commit = config_.heuristic_policy == HeuristicPolicy::kCommit;
  const uint64_t id = txn.id;
  if (CrashHere(CrashPt::kSubBeforeHeuristicForce)) return;
  txn.took_heuristic = true;
  txn.outcome =
      commit ? Outcome::kHeuristicCommitted : Outcome::kHeuristicAborted;
  ctx_->trace().Add({rt_->Now(), sim::TraceKind::kHeuristic, name_, "", id,
                     commit ? "heuristic commit" : "heuristic abort"});
  TmRecordBody body;
  body.upstream = txn.has_upstream ? txn.upstream : "";
  body.heur_commit = commit;
  AppendTmRecord(id, wal::RecordType::kTmHeuristic, /*force=*/true,
                 EncodeBody(body), [this, epoch = epoch_, id, commit] {
    if (!up_ || epoch != epoch_) return;
    if (CrashHere(CrashPt::kSubAfterHeuristicForce)) return;
    Txn* t = FindTxn(id);
    if (t == nullptr) return;
    // Apply the unilateral outcome locally and release the valuable locks —
    // the entire reason heuristics exist. We stay registered so the real
    // decision (whenever it arrives) can be compared and damage reported.
    for (auto* rm : rms_) {
      if (!up_) return;
      if (commit) {
        rm->Commit(id, [](Status st) { TPC_CHECK(st.ok()); });
      } else {
        rm->Abort(id, [](Status st) { TPC_CHECK(st.ok()); });
      }
    }
    if (!up_) return;
    t = FindTxn(id);
    if (t == nullptr) return;
    // Children (if any) get our heuristic decision as if it were real;
    // leaving them blocked would defeat the purpose.
    bool sent = false;
    for (auto& child : t->children) {
      child.ack_required = false;
      if (child.excluded || !child.voted || child.vote != rm::Vote::kYes)
        continue;
      Pdu pdu;
      pdu.type = commit ? PduType::kCommit : PduType::kAbort;
      pdu.txn = id;
      SendPdu(child.peer, std::move(pdu));
      sent = true;
    }
    if (sent && CrashHere(CrashPt::kSubAfterHeurDecisionSend)) return;
  });
}

void TransactionManager::ArmInquiryTimer(Txn& txn) {
  // Coordinator-driven recovery under PN: the subordinate waits.
  if (!rules_.subordinates_inquire) return;
  const uint64_t id = txn.id;
  const uint64_t epoch = epoch_;

  if (rules_.consensus_vote) {
    // Paxos Commit never inquires: a PA-presuming answer from a recovered
    // pre-decision root would say "aborted" while a takeover leader may
    // have committed. Instead the in-doubt participant *takes over* the
    // consensus itself — this is what makes the protocol non-blocking.
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
      if (t == nullptr || t->decided) return;
      ArmInquiryTimer(*t);  // keep trying until resolved
    });
    return;
  }

  txn.inq_timer.Arm(rt_, config_.inquiry_delay, [this, epoch, id] {
    if (!up_ || epoch != epoch_) return;
    Txn* t = FindTxn(id);
    if (t == nullptr) return;
    t->inq_timer.Fired();
    if (t->phase != Phase::kInDoubt && t->phase != Phase::kAwaitLastAgent)
      return;
    SendInquiry(*t);
    if (!up_) return;
    t = FindTxn(id);
    if (t == nullptr) return;
    ArmInquiryTimer(*t);  // keep asking until resolved
  });
}

void TransactionManager::SendInquiry(Txn& txn) {
  const bool la = txn.phase == Phase::kAwaitLastAgent;
  const net::NodeId target = la ? txn.last_agent_peer : txn.upstream;
  const CrashPt sent =
      la ? CrashPt::kRootAfterLaInquirySend : CrashPt::kSubAfterInquirySend;
  Pdu pdu;
  pdu.type = PduType::kInquiry;
  pdu.txn = txn.id;
  SendPdu(target, std::move(pdu));
  if (CrashHere(sent)) return;
}

void TransactionManager::OnInquiryPdu(const net::NodeId& from,
                                      const Pdu& pdu) {
  Pdu reply;
  reply.type = PduType::kInquiryReply;
  reply.txn = pdu.txn;

  Txn* txn = FindTxn(pdu.txn);
  if (txn != nullptr && txn->phase == Phase::kActive) {
    // A prepared participant thinks we own this transaction's decision,
    // but we never even began commit processing for it — the handoff (a
    // last-agent vote, typically) was lost with a crash and can never
    // arrive now (sessions are FIFO and a recovered initiator only
    // inquires or re-sends decisions). We never voted, so aborting our
    // own work and answering "aborted" is safe and unblocks the inquirer.
    AbortLocal(*txn);
    if (!up_) return;
    Forget(*txn);
    txn = nullptr;
  }
  if (txn != nullptr && txn->decided) {
    reply.answer = txn->commit_decision ? InquiryAnswer::kCommitted
                                        : InquiryAnswer::kAborted;
  } else if (txn != nullptr) {
    reply.answer = InquiryAnswer::kInDoubt;
  } else {
    const TxnMeta* meta = FindMeta(pdu.txn);
    if (meta != nullptr && meta->has_view) {
      reply.answer = CommittedEffects(meta->view.outcome)
                         ? InquiryAnswer::kCommitted
                         : InquiryAnswer::kAborted;
    } else {
      // The family's presumption: abort for PA (the one-phase family
      // inherits it), commit for PC. Baseline/PN cannot presume. Under
      // Paxos Commit the outcome belongs to the acceptor set and
      // participants resolve by takeover, not inquiry; answering "aborted"
      // here would race a takeover commit. Those inquirers stay blocked.
      reply.answer = rules_.no_record;
    }
  }
  SendPdu(from, std::move(reply));
  if (CrashHere(CrashPt::kAnyAfterInquiryReplySend)) return;
}

void TransactionManager::OnInquiryReplyPdu(const net::NodeId& from,
                                           const Pdu& pdu) {
  (void)from;
  Txn* txn = FindTxn(pdu.txn);
  if (txn == nullptr) return;
  if (txn->phase != Phase::kInDoubt && txn->phase != Phase::kAwaitLastAgent)
    return;
  switch (pdu.answer) {
    case InquiryAnswer::kCommitted:
    case InquiryAnswer::kAborted: {
      const bool commit = pdu.answer == InquiryAnswer::kCommitted;
      CancelTimers(*txn);
      // A participant that already took a heuristic decision must run the
      // damage comparison, exactly as when the decision arrives as a
      // Commit/Abort PDU — resolving via inquiry must not silently swallow
      // a heuristic mismatch.
      if (txn->took_heuristic) {
        ResolveAfterHeuristic(*txn, commit);
      } else {
        ApplyDecision(*txn, commit);
      }
      break;
    }
    case InquiryAnswer::kUnknown:
    case InquiryAnswer::kInDoubt:
      // Stay blocked; the inquiry timer will fire again.
      break;
  }
}

// ---------------------------------------------------------------------------
// One-phase family
// ---------------------------------------------------------------------------

void TransactionManager::ArmEarlyPrepare(Txn& txn) {
  txn.ep_timer.Cancel(rt_);
  const uint64_t id = txn.id;
  const uint64_t epoch = epoch_;
  txn.ep_timer.Arm(rt_, config_.early_prepare_delay, [this, epoch, id] {
    if (!up_ || epoch != epoch_) return;
    Txn* t = FindTxn(id);
    if (t == nullptr) return;
    t->ep_timer.Fired();
    if (t->phase != Phase::kActive || t->is_root || !t->has_work_source ||
        t->unsolicited_sent)
      return;
    UnsolicitedPrepare(id);
  });
}

// ---------------------------------------------------------------------------
// Paxos Commit
// ---------------------------------------------------------------------------

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

TransactionManager::Txn::PaxosInst* TransactionManager::FindInst(
    Txn& txn, std::string_view name) {
  for (auto& inst : txn.paxos_insts)
    if (inst.name == name) return &inst;
  return nullptr;
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

bool TransactionManager::PaxosSelfAccept(Txn& txn, bool prepared) {
  if (!IsAcceptor()) return false;
  const uint64_t id = txn.id;
  const net::NodeId leader = txn.has_upstream ? txn.upstream : name_;
  if (!acceptor_.Accept(id, name_, 0, prepared, txn.paxos_cohort, leader))
    return false;  // a takeover ballot already outbid our ballot-0 vote
  // The snapshot is appended NON-forced: the caller's prepared-record force
  // immediately follows and covers it, so vote + accept cost one durable
  // write. (A NO voter has no prepared force; its acceptance stays safely
  // volatile — Aborted is the free choice a takeover lands on anyway.)
  std::string snap;
  acceptor_.EncodeSnapshot(id, &snap);
  AppendTmRecord(id, wal::RecordType::kTmAccept, /*force=*/false,
                 std::move(snap), nullptr);
  return true;
}

void TransactionManager::SendPaxosVote(Txn& txn, bool prepared,
                                       CrashPt after_send,
                                       bool self_accepted) {
  const uint64_t id = txn.id;
  txn.paxos_voted_self = true;
  // Stack body: the co-located self-delivery below may reuse paxos_wire_.
  PaxosBody body;
  body.ballot = 0;
  body.prepared = prepared;
  body.instance = name_;
  body.leader = txn.has_upstream ? txn.upstream : name_;
  body.cohort = txn.paxos_cohort;
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

void TransactionManager::StartPaxosCommit(Txn& txn) {
  // Every local RM voted YES/RO and no NO arrived: our own instance
  // proposes Prepared. The decision itself now belongs to the consensus —
  // we stay kPreparing and learn the outcome from the acceptors' 2b's.
  const uint64_t id = txn.id;
  TmRecordBody body;
  body.is_root = true;
  body.cohort = txn.paxos_cohort;
  const bool self_accepted = PaxosSelfAccept(txn, /*prepared=*/true);
  if (self_accepted && CrashHere(CrashPt::kRootBeforeVoteAcceptForce)) return;
  // F = 0 degenerate: we are the only acceptor, so the 2a fan-out
  // externalizes nothing — every later externalization (a 1b/2b reply's
  // snapshot force, or our own decision force) covers these buffered
  // records, and losing them in a crash aborts by presumption exactly as
  // 2PC would. The vote then costs no force at all, collapsing the
  // protocol to Presumed-Abort cost.
  const bool lazy_f0 = config_.acceptors.size() == 1 && IsAcceptor();
  AppendTmRecord(id, wal::RecordType::kTmPrepared,
                 /*force=*/!ForceDowngraded() && !lazy_f0, EncodeBody(body),
                 [this, id, self_accepted] {
    if (self_accepted && CrashHere(CrashPt::kRootAfterVoteAcceptForce))
      return;
    Txn* t = FindTxn(id);
    if (t == nullptr) return;
    ArmPaxosRetry(*t);
    SendPaxosVote(*t, /*prepared=*/true, CrashPt::kRootAfterPaxosVoteSend,
                  self_accepted);
  });
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
    if (t->decided ||
        (t->phase != Phase::kPreparing && t->phase != Phase::kInDoubt))
      return;
    // Some instance is stuck (a crashed participant never voted, or our
    // 2a/2b traffic was lost): run a takeover round at a fresh ballot to
    // finish the consensus — Aborted by default for silent instances.
    StartPaxosTakeover(*t);
    if (!up_) return;
    t = FindTxn(id);
    if (t == nullptr || t->decided) return;
    ArmPaxosRetry(*t);
  });
}

void TransactionManager::StartPaxosTakeover(Txn& txn) {
  if (txn.decided) return;
  const uint64_t id = txn.id;
  txn.paxos_leader = true;
  txn.paxos_phase1 = true;
  txn.paxos_promises = 0;
  txn.paxos_ballot = PaxosBallot(txn.takeover_attempt++);
  // (Re)build the instance table from the cohort; phase 1 repopulates the
  // discovered values.
  txn.paxos_insts.clear();
  for (const auto& member : txn.paxos_cohort) {
    txn.paxos_insts.emplace_back();
    txn.paxos_insts.back().name = member;
  }
  ctx_->trace().Add({rt_->Now(), sim::TraceKind::kState, name_, "", id,
                     StringPrintf("paxos takeover, ballot %llu",
                                  static_cast<unsigned long long>(
                                      txn.paxos_ballot))});
  // Tell the other cohort members we are driving, so they back their own
  // takeover timers off instead of dueling ballots.
  {
    PaxosBody note;
    note.leader = name_;
    note.cohort = txn.paxos_cohort;
    note.acceptors = config_.acceptors;
    for (const auto& member : txn.paxos_cohort) {
      if (member == name_) continue;
      SendPaxosPdu(member, PduType::kPaxosTakeover, id, note);
    }
  }
  // Phase 1a to every acceptor.
  PaxosBody query;
  query.ballot = txn.paxos_ballot;
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
  txn.paxos_phase1 = false;
  const uint64_t id = txn.id;
  const uint64_t ballot = txn.paxos_ballot;
  // The classic rule: an instance whose value some acceptor reported must
  // be re-proposed at that value; a free instance (no acceptor accepted
  // anything) is proposed Aborted — its participant never voted, and
  // Aborted is always safe for an unvoted instance.
  for (auto& inst : txn.paxos_insts) {
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
  body.cohort = txn.paxos_cohort;
  body.acceptors = config_.acceptors;
  for (const auto& inst : txn.paxos_insts)
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
    const std::vector<std::string> cohort = txn.paxos_cohort;
    AcceptorOnAcceptBundle(name_, id, ballot, mine, cohort);
  }
}

void TransactionManager::CheckPaxosOutcome(Txn& txn) {
  bool commit = true;
  for (const auto& inst : txn.paxos_insts) {
    if (!inst.done) return;
    if (!inst.value) commit = false;
  }
  DecidePaxos(txn, commit);
}

void TransactionManager::DecidePaxos(Txn& txn, bool commit) {
  if (txn.decided) return;
  CancelTimers(txn);
  txn.paxos_leader = false;
  txn.paxos_phase1 = false;
  // The consensus owner drives phase two for the whole cohort, root or not:
  // a takeover leader simply becomes the coordinator the root would have
  // been. Cohort members not already children gain a prepared-child entry;
  // under PA's decision rules, unnecessary or duplicate decisions are answered
  // idempotently from the receivers' archives.
  txn.has_upstream = false;
  for (const auto& member : txn.paxos_cohort) {
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
  if (leader == name_) {
    // Externalization rule: we are the ballot-0 leader, so acceptance and
    // observation live on one node — the decision record's force is the
    // durability barrier, and the snapshot rides non-forced under it. A
    // crash loses the acceptances and their observation together. This
    // branch can run twice for one transaction (when a peer's 2a completes
    // the cohort, and again after our own prepared force); the leader
    // counts our acceptor once, so the repeat adds nothing.
    std::string snap;
    acceptor_.EncodeSnapshot(id, &snap);
    AppendTmRecord(id, wal::RecordType::kTmAccept, /*force=*/false,
                   std::move(snap), nullptr);
    // Copy the entries out: LeaderOnAccepted can decide the transaction
    // and reclaim the acceptor state under the iteration.
    paxos_entries_.clear();
    for (const auto& acc : state->accepted)
      paxos_entries_.push_back({acc.name, acc.ballot, acc.prepared});
    LeaderOnAcceptedEntries(id, name_);
    return;
  }
  if (CrashHere(CrashPt::kAcceptorBeforeBundleForce)) return;
  std::string snap;
  acceptor_.EncodeSnapshot(id, &snap);
  AppendTmRecord(id, wal::RecordType::kTmAccept, /*force=*/true,
                 std::move(snap), [this, id, leader] {
    if (CrashHere(CrashPt::kAcceptorAfterBundleForce)) return;
    const AcceptorTxn* state = acceptor_.Find(id);
    // promised != 0 means a takeover outbid the ballot-0 round while the
    // force was in flight: entries may now hold the new leader's values,
    // and a ballot-0 bundle misreporting them could let the old leader
    // count a cross-ballot majority. The new leader's own bundle reply
    // supersedes ours; stay silent.
    if (state == nullptr || state->promised != 0) return;
    PaxosBody reply;  // bundled 2b: every instance in one PDU
    reply.ballot = 0;
    reply.accepted.clear();
    for (const auto& acc : state->accepted)
      reply.accepted.push_back({acc.name, acc.ballot, acc.prepared});
    SendPaxosPdu(leader, PduType::kPaxosAcceptedBundle, id, reply);
    CrashHere(CrashPt::kAcceptorAfterBundleSend);
  });
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
  if (CrashHere(CrashPt::kAcceptorBeforeBundleForce)) return;
  // One covering force for every instance of the transaction, then one
  // bundled 2b to the proposing leader.
  std::string snap;
  acceptor_.EncodeSnapshot(id, &snap);
  AppendTmRecord(id, wal::RecordType::kTmAccept, /*force=*/true,
                 std::move(snap), [this, id, leader, ballot] {
    if (CrashHere(CrashPt::kAcceptorAfterBundleForce)) return;
    const AcceptorTxn* state = acceptor_.Find(id);
    // Outbid while the force was in flight: the higher-ballot leader's
    // reply supersedes ours (see the ballot-0 bundle path).
    if (state == nullptr || state->promised != ballot) return;
    if (leader == name_) {
      paxos_entries_.clear();
      for (const auto& acc : state->accepted)
        if (acc.ballot == ballot)
          paxos_entries_.push_back({acc.name, acc.ballot, acc.prepared});
      LeaderOnAcceptedEntries(id, name_);
      return;
    }
    PaxosBody reply;
    reply.ballot = ballot;
    for (const auto& acc : state->accepted)
      if (acc.ballot == ballot)
        reply.accepted.push_back({acc.name, acc.ballot, acc.prepared});
    SendPaxosPdu(leader, PduType::kPaxosAcceptedBundle, id, reply);
    CrashHere(CrashPt::kAcceptorAfterBundleSend);
  });
}

void TransactionManager::AcceptorReclaim(uint64_t id) {
  if (!acceptor_.Erase(id)) return;
  // Tombstone: an empty snapshot — last-record-wins replay then ends with
  // the entry reclaimed instead of resurrected. Non-forced: losing it in a
  // crash resurrects a stale entry (bounded memory, not correctness).
  std::string snap;
  acceptor_.EncodeSnapshot(id, &snap);
  AppendTmRecord(id, wal::RecordType::kTmAccept, /*force=*/false,
                 std::move(snap), nullptr);
}

void TransactionManager::PaxosBroadcastEnd(Txn& txn) {
  const uint64_t id = txn.id;
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
  std::string snap;
  acceptor_.EncodeSnapshot(id, &snap);
  AppendTmRecord(id, wal::RecordType::kTmAccept, /*force=*/true,
                 std::move(snap), [this, id, leader, ballot] {
    const AcceptorTxn* state = acceptor_.Find(id);
    if (leader == name_) {
      Txn* t = LeaderForPromise(id, ballot);
      if (t == nullptr) return;
      if (state != nullptr) {
        if (t->paxos_cohort.size() < state->cohort.size())
          t->paxos_cohort = state->cohort;
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
  if (txn == nullptr || !txn->paxos_leader || txn->decided) return;
  if (txn->paxos_phase1) return;            // still collecting promises
  if (ballot != txn->paxos_ballot) return;  // stragglers of an old round
  Txn::PaxosInst* inst = FindInst(*txn, instance);
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
  if (txn == nullptr || !txn->paxos_leader || !txn->paxos_phase1) return nullptr;
  if (txn->decided || txn->paxos_ballot != ballot) return nullptr;
  return txn;
}

void TransactionManager::LeaderMergeAccepted(Txn& txn,
                                             std::string_view instance,
                                             uint64_t ballot, bool prepared) {
  Txn::PaxosInst* inst = FindInst(txn, instance);
  if (inst == nullptr) {
    // An instance we did not know about (our cohort view was thinner than
    // the acceptor's): adopt it.
    txn.paxos_cohort.emplace_back(instance);
    txn.paxos_insts.emplace_back();
    inst = &txn.paxos_insts.back();
    inst->name.assign(instance);
  }
  if (!inst->seen_any || ballot >= inst->seen_ballot) {
    inst->seen_any = true;
    inst->seen_ballot = ballot;
    inst->seen_value = prepared;
  }
}

void TransactionManager::LeaderPromiseGranted(Txn& txn) {
  ++txn.paxos_promises;
  if (!PaxosAcceptor::IsMajority(txn.paxos_promises,
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
  if (attempt > txn.takeover_attempt) txn.takeover_attempt = attempt;
  txn.paxos_phase1 = false;
}

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
  // accepted values (LeaderMergeAccepted grows the instance table for
  // members we did not know).
  for (const auto& member : paxos_in_.cohort)
    if (FindInst(*txn, member) == nullptr) {
      txn->paxos_cohort.push_back(member);
      txn->paxos_insts.emplace_back();
      txn->paxos_insts.back().name = member;
    }
  for (const auto& acc : paxos_in_.accepted)
    LeaderMergeAccepted(*txn, acc.instance, acc.ballot, acc.prepared);
  LeaderPromiseGranted(*txn);
}

void TransactionManager::OnPaxosTakeoverPdu(const net::NodeId& from,
                                            const Pdu& pdu,
                                            std::string_view data) {
  (void)from;
  if (!DecodePaxosBody(data, &paxos_in_).ok()) return;
  Txn* txn = FindTxn(pdu.txn);
  if (txn == nullptr || txn->phase != Phase::kInDoubt || txn->decided) return;
  if (txn->paxos_leader) return;  // we are driving too; ballots arbitrate
  if (txn->paxos_cohort.size() < paxos_in_.cohort.size())
    txn->paxos_cohort = paxos_in_.cohort;
  // Back off: restart our takeover clock instead of starting a duel.
  txn->inq_timer.Cancel(rt_);
  ArmInquiryTimer(*txn);
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

void TransactionManager::AbortLocal(Txn& txn) {
  for (auto* rm : rms_) {
    if (!up_) return;
    rm->Abort(txn.id, [](Status st) { TPC_CHECK(st.ok()); });
  }
  if (!up_) return;
  txn.outcome = Outcome::kAborted;
}

void TransactionManager::AbortSubtreeAndForget(uint64_t id) {
  // SendDecision's RM callbacks can complete synchronously and forget the
  // transaction themselves, so it is looked up again before Forget (which
  // also cancels any child's ack timer).
  Txn* txn = FindTxn(id);
  if (txn == nullptr) return;
  SendDecision(*txn, /*commit=*/false);
  txn = FindTxn(id);
  if (txn != nullptr) Forget(*txn);
}

void TransactionManager::CancelTimers(Txn& txn) {
  txn.heur_timer.Cancel(rt_);
  txn.inq_timer.Cancel(rt_);
  txn.vote_timer.Cancel(rt_);
  txn.ep_timer.Cancel(rt_);
  for (auto& child : txn.children) child.ack_timer.Cancel(rt_);
}

void TransactionManager::Forget(Txn& txn) {
  CancelTimers(txn);
  if (rules_.consensus_vote && txn.decided) {
    if (!txn.has_upstream) {
      // The decision owner forgets only once the outcome is stable at every
      // cohort member (commit: all acks are in; abort: the free choice a
      // takeover lands on anyway) — acceptor state for this transaction is
      // dead weight everywhere. Reclaim ours, hint the rest.
      PaxosBroadcastEnd(txn);
    } else if (!txn.commit_decision) {
      // A locally-decided abort (NO voter): our acceptor state can only
      // re-abort, so reclaim it now; the owner's kPaxosEnd covers peers.
      AcceptorReclaim(txn.id);
    }
  }
  TxnView view;
  view.outcome = txn.outcome;
  const bool mismatch = (txn.commit_decision && txn.heur_abort) ||
                        (!txn.commit_decision && txn.heur_commit) ||
                        txn.damage;
  view.damage_reported_here = mismatch;

  // A committed transaction whose subordinate voted OK_TO_LEAVE_OUT
  // suspends that session (leave-out bookkeeping; the vote is a protected
  // variable — it only takes effect on commit).
  if (txn.commit_decision) {
    for (const auto& child : txn.children) {
      if (child.voted && child.ok_leave_out) {
        Session* session = FindSession(child.peer);
        if (session != nullptr) session->suspended_leave_out = true;
      }
    }
  }

  TxnMeta& meta = MetaSlot(txn.id);
  meta.has_view = true;
  meta.view = view;
  const uint32_t slot = meta.slot;
  meta.slot = kNoSlot;
  --live_txns_;
  // Reset the slab entry in place so captured closures and strings release
  // now, exactly where the old map erase destroyed them.
  txn_slab_[slot] = Txn{};
  free_slots_.push_back(slot);
}

void TransactionManager::NoteImpliedAck(uint32_t from_id,
                                        const net::NodeId& from) {
  Session* session = FindSessionById(from_id);
  if (session == nullptr || session->implied_ack_txns.empty()) return;
  // Completing a transaction may grow the session table, so drain a copy.
  const std::vector<uint64_t> ids = std::move(session->implied_ack_txns);
  session->implied_ack_txns.clear();
  for (uint64_t id : ids) {
    Txn* txn = FindTxn(id);
    if (txn == nullptr) continue;
    txn->awaiting_implied_ack = false;
    for (auto& child : txn->children)
      if (child.peer == from) child.acked = true;
    ctx_->trace().Add({rt_->Now(), sim::TraceKind::kState, name_, from, id,
                       "implied ack received"});
    MaybeComplete(*txn);
    if (!up_) return;  // an END crash point took the node down
  }
}

// ---------------------------------------------------------------------------
// Message dispatch
// ---------------------------------------------------------------------------

void TransactionManager::OnMessage(const net::Message& msg) {
  const net::NodeId& from = network_->NameOf(msg.from);
  const std::string_view payload = network_->PayloadOf(msg);

  // Validation pass: walk every frame before dispatching any, so a bundle
  // with a malformed tail is dropped whole — partial dispatch would create
  // protocol state (e.g. an in-doubt txn from a truncated Prepare bundle)
  // that the sender never committed to.
  Status bad;
  if (payload.empty()) {
    bad = Status::Corruption("empty pdu payload");
  } else {
    PduCursor check(payload);
    while (check.Next()) {
    }
    bad = check.status();
  }
  if (!bad.ok()) {
    // Corrupt or malformed traffic: drop it rather than crash. Protocol
    // retries and recovery treat a dropped message like any other loss.
    ctx_->trace().Add({rt_->Now(), sim::TraceKind::kApp, name_, from, 0,
                       "dropped malformed message: " +
                           std::string(bad.message())});
    return;
  }

  // Any traffic on a session acts as the implied acknowledgment for a
  // last-agent decision outstanding on it.
  NoteImpliedAck(msg.from, from);
  PduCursor cursor(payload);
  while (cursor.Next()) DispatchPdu(from, cursor.pdu(), cursor.data());
}

void TransactionManager::DispatchPdu(const net::NodeId& from, const Pdu& pdu,
                                     std::string_view data) {
  switch (pdu.type) {
    case PduType::kAppData:
      OnAppData(from, pdu, data);
      break;
    case PduType::kPrepare:
      OnPreparePdu(from, pdu, data);
      break;
    case PduType::kVote:
      OnVotePdu(from, pdu);
      break;
    case PduType::kCommit:
    case PduType::kAbort:
      OnDecisionPdu(from, pdu);
      break;
    case PduType::kAck:
      OnAckPdu(from, pdu);
      break;
    case PduType::kInquiry:
      OnInquiryPdu(from, pdu);
      break;
    case PduType::kInquiryReply:
      OnInquiryReplyPdu(from, pdu);
      break;
    case PduType::kPaxosAccept:
      OnPaxosAcceptPdu(from, pdu, data);
      break;
    case PduType::kPaxosAccepted:
      break;  // never sent: every 2b travels as a bundle
    case PduType::kPaxosQuery:
      OnPaxosQueryPdu(from, pdu, data);
      break;
    case PduType::kPaxosPromise:
      OnPaxosPromisePdu(pdu, data);
      break;
    case PduType::kPaxosTakeover:
      OnPaxosTakeoverPdu(from, pdu, data);
      break;
    case PduType::kPaxosAcceptBundle:
      OnPaxosAcceptBundlePdu(from, pdu, data);
      break;
    case PduType::kPaxosAcceptedBundle:
      OnPaxosAcceptedBundlePdu(from, pdu, data);
      break;
    case PduType::kPaxosEnd:
      OnPaxosEndPdu(pdu);
      break;
  }
}

// ---------------------------------------------------------------------------
// Crash & recovery
// ---------------------------------------------------------------------------

void TransactionManager::Crash() {
  TPC_CHECK(up_);
  up_ = false;
  ++epoch_;
  ctx_->trace().Add({rt_->Now(), sim::TraceKind::kCrash, name_, "", 0, ""});
  // Free every live slot. The archive views in TxnMeta survive the crash,
  // as the old separate archive_ map did.
  for (uint32_t slot = 0; slot < txn_slab_.size(); ++slot) {
    Txn& txn = txn_slab_[slot];
    if (!txn.in_use) continue;
    CancelTimers(txn);
    MetaSlot(txn.id).slot = kNoSlot;
    txn_slab_[slot] = Txn{};
    free_slots_.push_back(slot);
  }
  live_txns_ = 0;
  for (Session& session : sessions_) {
    session.outbox.clear();
    session.implied_ack_txns.clear();
  }
  // Volatile acceptor state is lost too; RecoverFromLog replays the forced
  // kTmAccept snapshots.
  acceptor_.Clear();
}

void TransactionManager::Restart() {
  TPC_CHECK(!up_);
  up_ = true;
  ++epoch_;
  ctx_->trace().Add({rt_->Now(), sim::TraceKind::kRecover, name_, "", 0, ""});
  RecoverFromLog();
}

void TransactionManager::RecoverFromLog() {
  const std::vector<wal::LogRecord> records = log_->Recover();

  // Resource managers first (store redo; collects their in-doubt lists).
  std::vector<std::vector<uint64_t>> rm_in_doubt;
  rm_in_doubt.reserve(rms_.size());
  for (auto* rm : rms_) rm_in_doubt.push_back(rm->Recover(records));

  // Classify TM state per transaction.
  struct TmTxnImage {
    bool commit_pending = false;
    bool prepared = false;
    bool committed = false;
    bool aborted = false;
    bool end = false;
    bool heuristic = false;
    bool heur_commit = false;
    TmRecordBody last_body;  // from the most recent state-bearing record
  };
  std::map<uint64_t, TmTxnImage> images;
  const std::string owner = name_ + ".tm";
  for (const auto& rec : records) {
    if (rec.owner != owner) continue;
    if (rec.type == wal::RecordType::kTmAccept) {
      // Acceptor snapshots are a separate state machine: restore them
      // directly (last record wins) without creating a TM image — an
      // acceptor-only node must not fabricate transaction state.
      TPC_CHECK_OK(acceptor_.RestoreSnapshot(rec.txn, rec.body));
      continue;
    }
    TmTxnImage& img = images[rec.txn];
    TmRecordBody body;
    switch (rec.type) {
      case wal::RecordType::kTmCommitPending:
        img.commit_pending = true;
        TPC_CHECK_OK(DecodeBody(rec.body, &body));
        img.last_body = body;
        break;
      case wal::RecordType::kTmPrepared:
        img.prepared = true;
        TPC_CHECK_OK(DecodeBody(rec.body, &body));
        img.last_body = body;
        break;
      case wal::RecordType::kTmCommitted:
        img.committed = true;
        TPC_CHECK_OK(DecodeBody(rec.body, &body));
        img.last_body = body;
        break;
      case wal::RecordType::kTmAborted:
        img.aborted = true;
        if (!rec.body.empty()) {
          TPC_CHECK_OK(DecodeBody(rec.body, &body));
          img.last_body = body;
        }
        break;
      case wal::RecordType::kTmEnd:
        img.end = true;
        break;
      case wal::RecordType::kTmHeuristic:
        img.heuristic = true;
        TPC_CHECK_OK(DecodeBody(rec.body, &body));
        img.heur_commit = body.heur_commit;
        if (img.last_body.upstream.empty())
          img.last_body.upstream = body.upstream;
        break;
      default:
        break;
    }
  }

  for (const auto& [id, img] : images) {
    if (img.end) {
      // Fully resolved before the crash; restore the archive view.
      TxnView view;
      view.outcome = img.heuristic ? (img.heur_commit
                                          ? Outcome::kHeuristicCommitted
                                          : Outcome::kHeuristicAborted)
                     : img.committed ? Outcome::kCommitted
                     : img.aborted   ? Outcome::kAborted
                                     : Outcome::kCommitted;
      TxnMeta& meta = MetaSlot(id);
      meta.has_view = true;
      meta.view = view;
      continue;
    }

    if (img.heuristic && !img.committed && !img.aborted) {
      // We decided unilaterally and then crashed before seeing the real
      // outcome. Restore the heuristic state; the coordinator's decision
      // retry (or our inquiry under PA/basic) triggers the damage check.
      Txn& txn = GetOrCreateTxn(id);
      txn.phase = Phase::kInDoubt;
      txn.took_heuristic = true;
      txn.voted_yes = true;
      txn.outcome = img.heur_commit ? Outcome::kHeuristicCommitted
                                    : Outcome::kHeuristicAborted;
      for (auto* rm : rms_) {
        if (rm->InDoubt(id)) rm->ResolveRecovered(id, img.heur_commit);
      }
      if (!img.last_body.upstream.empty()) {
        txn.has_upstream = true;
        txn.upstream = img.last_body.upstream;
        ArmInquiryTimer(txn);
      }
      continue;
    }

    if (img.committed || img.aborted) {
      // Decision reached but END not on disk: resume the decision phase.
      // Conservatively re-send to every child (duplicates are acknowledged
      // idempotently via the archive).
      const bool commit = img.committed;
      if (!commit && !rules_.abort.acknowledged) {
        // PA abort leaves nothing to resume (abort records are advisory).
        TxnMeta& meta = MetaSlot(id);
        meta.has_view = true;
        meta.view = TxnView{Outcome::kAborted, false};
        for (auto* rm : rms_)
          if (rm->InDoubt(id)) rm->ResolveRecovered(id, false);
        continue;
      }
      Txn& txn = GetOrCreateTxn(id);
      txn.decided = true;
      txn.commit_decision = commit;
      txn.outcome = commit ? Outcome::kCommitted : Outcome::kAborted;
      txn.phase = Phase::kDeciding;
      RestoreTree(txn, img.last_body);
      for (auto* rm : rms_) {
        if (rm->InDoubt(id)) rm->ResolveRecovered(id, commit);
      }
      for (auto& child : txn.children) {
        child.ack_required = RuleFor(commit).acknowledged;
        Pdu pdu;
        pdu.type = commit ? PduType::kCommit : PduType::kAbort;
        pdu.txn = id;
        SendPdu(child.peer, std::move(pdu));
        if (CrashHere(CrashPt::kRecoveryAfterDecisionSend)) return;
        if (child.ack_required) ArmAckTimer(txn, child);
      }
      MaybeComplete(txn);
      if (!up_) return;
      continue;
    }

    if (img.prepared) {
      // In doubt. PA/basic: inquire upstream. PN: wait for the coordinator
      // (it logged commit-pending and will drive recovery).
      Txn& txn = GetOrCreateTxn(id);
      txn.phase = Phase::kInDoubt;
      txn.outcome = Outcome::kInDoubt;
      txn.voted_yes = true;
      RestoreTree(txn, img.last_body);
      txn.rm_recovered_in_doubt = true;
      ArmHeuristicTimer(txn);
      if (rules_.consensus_vote) {
        // An in-doubt paxos participant never falls back to the PA
        // presumption (a takeover may still commit); it re-joins the
        // consensus instead. The root (which has no upstream) re-runs the
        // takeover immediately; participants let the takeover timer fire.
        if (!img.last_body.cohort.empty())
          txn.paxos_cohort = img.last_body.cohort;
        txn.paxos_voted_self = true;
        if (img.last_body.is_root) {
          StartPaxosTakeover(txn);
          if (!up_) return;
          Txn* t = FindTxn(id);
          if (t != nullptr && !t->decided) ArmPaxosRetry(*t);
        } else {
          ArmInquiryTimer(txn);
        }
        continue;
      }
      if (txn.has_upstream && rules_.subordinates_inquire) {
        ArmInquiryTimer(txn);
        SendInquiry(txn);
        if (!up_) return;
      }
      continue;
    }

    if (img.commit_pending) {
      // PN coordinator crashed before the decision: presume nothing, decide
      // abort, and drive the subordinates — the coordinator's duty in PN.
      Txn& txn = GetOrCreateTxn(id);
      RestoreTree(txn, img.last_body);
      for (auto* rm : rms_) {
        if (rm->InDoubt(id)) rm->ResolveRecovered(id, false);
      }
      DecideAndPropagate(txn, /*commit=*/false);
      if (!up_) return;
      continue;
    }

    // Join-only image: a non-forced join record survived (covered by a
    // later force) but the prepared force did not, so the vote was never
    // sent and nothing can have committed — abort any RM state by
    // presumption, exactly as if there were no TM record at all.
    for (auto* rm : rms_) {
      if (rm->InDoubt(id)) rm->ResolveRecovered(id, false);
    }
  }

  // RM in-doubt transactions with no TM record at all: the TM never voted,
  // since a YES leaves only after the TM's prepared record is durable (under
  // logless one-phase, by riding the RM's own prepared force). So no
  // coordinator can have committed — abort by presumption, which is safe
  // under every protocol.
  for (size_t i = 0; i < rms_.size(); ++i) {
    for (uint64_t id : rm_in_doubt[i]) {
      if (images.count(id)) continue;
      rms_[i]->ResolveRecovered(id, false);
    }
  }
}

void TransactionManager::RestoreTree(Txn& txn, const TmRecordBody& body) {
  txn.is_root = body.is_root;
  if (!body.upstream.empty()) {
    txn.has_upstream = true;
    txn.upstream = body.upstream;
  }
  for (const auto& peer : body.children) {
    Child child;
    child.peer = peer;
    child.voted = true;
    child.vote = rm::Vote::kYes;
    child.prepare_sent = true;
    txn.children.push_back(std::move(child));
  }
}

void TransactionManager::ScheduleRecoveryRetry(uint64_t id) {
  const uint64_t epoch = epoch_;
  rt_->ArmTimer(config_.recovery_retry_interval,
                               [this, epoch, id] {
    if (!up_ || epoch != epoch_) return;
    Txn* txn = FindTxn(id);
    if (txn == nullptr) return;
    bool outstanding = false;
    for (auto& child : txn->children) {
      if (child.acked || child.excluded) continue;
      // Even a child that never voted may hold prepared state (its vote
      // may have been lost); only read-only voters are certainly done.
      if (child.voted && child.vote == rm::Vote::kReadOnly) continue;
      outstanding = true;
      Pdu pdu;
      pdu.type = txn->commit_decision ? PduType::kCommit : PduType::kAbort;
      pdu.txn = id;
      SendPdu(child.peer, std::move(pdu));
      if (CrashHere(CrashPt::kRecoveryAfterDecisionSend)) return;
    }
    if (outstanding) ScheduleRecoveryRetry(id);
  });
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

TxnView TransactionManager::View(uint64_t id) const {
  if (const Txn* txn = FindTxn(id)) {
    TxnView view;
    view.outcome = txn->outcome;
    view.damage_reported_here = txn->damage ||
                                (txn->decided && txn->commit_decision &&
                                 txn->heur_abort) ||
                                (txn->decided && !txn->commit_decision &&
                                 txn->heur_commit);
    return view;
  }
  const TxnMeta* meta = FindMeta(id);
  if (meta != nullptr && meta->has_view) return meta->view;
  return TxnView{};
}

TxnCost TransactionManager::CostOf(uint64_t txn) const {
  const TxnMeta* meta = FindMeta(txn);
  return meta == nullptr ? TxnCost{} : meta->cost;
}

bool TransactionManager::Knows(uint64_t txn) const {
  return FindTxn(txn) != nullptr;
}

size_t TransactionManager::InDoubtCount() const {
  size_t n = 0;
  for (const Txn& txn : txn_slab_)
    if (txn.in_use && txn.phase == Phase::kInDoubt) ++n;
  return n;
}

uint64_t TransactionManager::ApproxBytes() const {
  uint64_t bytes = txn_meta_.ApproxBytes();
  bytes += acceptor_.ApproxBytes();
  bytes += sessions_.capacity() * sizeof(Session);
  for (const Session& s : sessions_)
    bytes += s.outbox.capacity() * sizeof(Pdu);
  bytes += session_ids_.capacity() * sizeof(uint32_t);
  bytes += session_slots_.capacity() * sizeof(uint32_t);
  bytes += session_order_.capacity() * sizeof(uint32_t);
  bytes += txn_slab_.size() * sizeof(Txn);
  for (const Txn& t : txn_slab_) {
    bytes += t.children.capacity() * sizeof(Child);
    bytes += t.peers.capacity() * sizeof(net::NodeId);
    bytes += t.paxos_insts.capacity() * sizeof(Txn::PaxosInst);
    bytes += t.paxos_cohort.capacity() * sizeof(std::string);
  }
  bytes += free_slots_.capacity() * sizeof(uint32_t);
  return bytes;
}

}  // namespace tpc::tm
