// TransactionManager: the commit-protocol engine — the paper's subject.
//
// One TransactionManager per simulated node. It coordinates the node's
// local resource managers and its session peers (other TMs) through the
// two-phase commit variants the paper analyzes and their extensions:
//
//   * seven protocol families, one row each of the presumption table in
//     tm/types.h: baseline 2PC, Presumed Abort and Presumed Nothing (the
//     paper's three), Presumed Commit, Paxos Commit, and one-phase commit
//     with and without the subordinate's prepared force. Paxos Commit's
//     leader, acceptor and wire handlers are members of this class defined
//     in paxos_commit.cc, and its per-transaction state is Txn::paxos;
//   * optimizations (composable via TmConfig/SessionOptions): read-only,
//     leave-inactive-partners-out, last agent, unsolicited vote, long locks,
//     vote reliable, wait-for-outcome, early/late acknowledgment; shared
//     logs and group commit live in the WAL layer but are honored here;
//   * failure handling: crash/restart with log-driven recovery,
//     in-doubt resolution per protocol presumption, heuristic decisions
//     with damage detection and protocol-specific reporting.
//
// Peer-to-peer model (PN): any participant may initiate commit; two
// concurrent initiators abort the transaction. Trees form dynamically from
// data flow: a peer that received APP_DATA for a transaction is in the
// commit tree, with the sender of the eventual Prepare as its coordinator.

#ifndef TPC_TM_TRANSACTION_MANAGER_H_
#define TPC_TM_TRANSACTION_MANAGER_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/transport.h"
#include "rm/kv_resource_manager.h"
#include "runtime/runtime.h"
#include "rm/resource_manager.h"
#include "sim/sim_context.h"
#include "tm/crash_points.h"
#include "tm/paxos_acceptor.h"
#include "tm/protocol_messages.h"
#include "tm/types.h"
#include "util/flat_map.h"
#include "util/status.h"
#include "wal/log_manager.h"

namespace tpc::tm {

/// Per-session (conversation) attributes.
struct SessionOptions {
  /// Coordinator side: prefer this peer as the last agent.
  bool last_agent_candidate = false;
  /// Coordinator side: request the long-locks variation on this session
  /// (the subordinate buffers its ack and piggybacks it on the first
  /// message of the next transaction).
  bool long_locks = false;
};

/// Node-level protocol configuration.
struct TmConfig {
  ProtocolKind protocol = ProtocolKind::kPresumedAbort;

  // --- normal-case optimizations -----------------------------------------
  /// Honor read-only votes (exclude RO voters from phase two, no logging).
  bool read_only_opt = true;
  /// Exclude suspended, untouched, OK_TO_LEAVE_OUT subtrees from the 2PC.
  bool leave_out_opt = false;
  /// Include connected-but-untouched sessions in commit processing (the
  /// pre-leave-out baseline behavior; needed to measure what leave-out and
  /// read-only save).
  bool include_idle_sessions = false;
  /// Delegate the commit decision to one subordinate (the last agent).
  bool last_agent_opt = false;
  /// Elide acknowledgments from subtrees that voted reliable.
  bool vote_reliable_opt = false;
  /// Cascaded-coordinator acknowledgment timing.
  AckTiming ack_timing = AckTiming::kLate;
  /// Block commit completion on full recovery (true = classic late ack);
  /// false = wait-for-outcome: one contact attempt, then return with
  /// "outcome pending" and finish recovery in the background.
  bool wait_for_outcome_block = true;
  /// This node advertises OK_TO_LEAVE_OUT on its YES/RO votes when its
  /// whole subtree agrees (it acts as a suspendable server).
  bool ok_to_leave_out = false;
  /// Shared log with a host TM: this node's log object is owned by another
  /// node and that node's forces cover ours, so our TM records need not be
  /// forced. (Used by the shared-logs accounting experiments.)
  bool shared_log_with_host = false;

  // --- protocol-family parameters ------------------------------------------
  /// Paxos Commit: the 2F+1 acceptor node names, identical at every node.
  /// Acceptors are co-located on existing nodes; a node that finds its own
  /// name here also plays acceptor. Empty unless protocol == kPaxosCommit.
  std::vector<std::string> acceptors;
  /// One-phase family: how long a subordinate lets a transaction go idle
  /// before preparing early (an unsolicited YES without waiting for the
  /// coordinator's Prepare — the "early prepare" that removes phase one).
  sim::Time early_prepare_delay = 10 * sim::kMillisecond;

  // --- failure behavior ----------------------------------------------------
  HeuristicPolicy heuristic_policy = HeuristicPolicy::kNever;
  sim::Time heuristic_delay = 60 * sim::kSecond;
  /// Coordinator: how long to wait for votes before deciding abort.
  sim::Time vote_timeout = 20 * sim::kSecond;
  /// Decision sender: per-attempt wait for an acknowledgment.
  sim::Time ack_timeout = 10 * sim::kSecond;
  /// PA subordinate: in-doubt duration before sending a recovery inquiry.
  sim::Time inquiry_delay = 15 * sim::kSecond;
  /// Background recovery retry cadence.
  sim::Time recovery_retry_interval = 30 * sim::kSecond;
};

/// Audit view of one transaction at one node (for cluster-wide consistency
/// checks and the reliability metrics).
struct TxnView {
  Outcome outcome = Outcome::kUnknown;
  bool damage_reported_here = false;  ///< a damage report reached this node
};

/// The transaction manager.
class TransactionManager : public net::Endpoint {
 public:
  /// Compatibility constructor for the sim path: owns a SimRuntime adapter
  /// over `ctx`, so every pre-seam call site (tests, benches, harness)
  /// compiles unchanged while exercising the adapter on every run.
  TransactionManager(sim::SimContext* ctx, net::Transport* network,
                     wal::LogManager* log, std::string name,
                     TmConfig config = {});

  /// Backend-explicit constructor. `rt` supplies the clock/timers/txn ids;
  /// `ctx` supplies the trace and failure injector (live nodes pass a
  /// private per-node SimContext for those); `network` is either the
  /// simulated interconnect or a live transport.
  TransactionManager(runtime::Runtime* rt, sim::SimContext* ctx,
                     net::Transport* network, wal::LogManager* log,
                     std::string name, TmConfig config = {});

  const std::string& name() const { return name_; }
  const TmConfig& config() const { return config_; }

  // --- wiring ---------------------------------------------------------------

  /// Attaches a local resource manager (not owned).
  void AttachRm(rm::KVResourceManager* rm);

  /// Declares a session with `peer` (call on both sides).
  void Connect(const net::NodeId& peer, SessionOptions options = {});

  /// Application upcall invoked when APP_DATA arrives (workloads use it to
  /// perform subordinate-side updates). `data` views the delivered payload
  /// in place and dies with the upcall — copy it to keep it.
  using AppDataHandler = std::function<void(
      uint64_t txn, const net::NodeId& from, std::string_view data)>;
  void SetAppDataHandler(AppDataHandler handler) {
    on_app_data_ = std::move(handler);
  }

  // --- application interface -------------------------------------------------

  /// Starts a new distributed transaction rooted here. Returns the txn id.
  uint64_t Begin();

  /// Sends application data to `peer`, enrolling it (and unsuspending a
  /// left-out session) in the transaction. Any acknowledgments buffered for
  /// `peer` (long locks / implied acks) piggyback on this flow.
  Status SendWork(uint64_t txn, const net::NodeId& peer,
                  std::string_view payload = {});

  /// Data operations against a local RM (index into attachment order).
  /// Keys are views so handlers can address data parsed straight out of a
  /// delivered payload without materializing strings.
  void Read(uint64_t txn, size_t rm_index, std::string_view key,
            rm::KVResourceManager::ReadCallback done);
  void Write(uint64_t txn, size_t rm_index, std::string_view key,
             std::string value, rm::KVResourceManager::WriteCallback done);

  /// Server-side unsolicited vote: prepare now and vote YES to the peer the
  /// work came from, without waiting for its Prepare.
  void UnsolicitedPrepare(uint64_t txn);

  /// Initiates commit processing; this node becomes the commit coordinator.
  void Commit(uint64_t txn, CommitCallback done);

  /// Aborts a transaction this node participates in.
  void AbortTxn(uint64_t txn);

  // --- failure & recovery -----------------------------------------------------

  /// Crash: volatile state vanishes; the log keeps its durable prefix.
  void Crash();

  /// Restart after a crash: scans the log and resumes/resolves protocol
  /// state (PN coordinators drive their subordinates; PA subordinates
  /// inquire upstream; RMs redo/undo and re-acquire in-doubt locks).
  void Restart();

  bool IsUp() const override { return up_; }

  // --- net::Endpoint -----------------------------------------------------------

  void OnMessage(const net::Message& msg) override;

  // --- introspection (tests, benches, audits) ----------------------------------

  /// This node's current view of `txn`.
  TxnView View(uint64_t txn) const;

  /// Cost counters for `txn` at this node (flows sent, TM log writes).
  TxnCost CostOf(uint64_t txn) const;

  /// True if a transaction is still tracked (not forgotten).
  bool Knows(uint64_t txn) const;

  /// Number of in-doubt transactions (blocked, for lock-time analysis).
  size_t InDoubtCount() const;

  /// Number of transactions currently tracked (for checkpoint safety).
  size_t ActiveTxnCount() const { return live_txns_; }

  /// Transactions still held by the co-located paxos acceptor (0 for
  /// non-acceptors). END-driven reclamation keeps this bounded by the
  /// in-flight window; tests gate the leak here.
  size_t AcceptorTxnCount() const { return acceptor_.txn_count(); }

  rm::KVResourceManager* rm(size_t index) { return rms_.at(index); }
  size_t rm_count() const { return rms_.size(); }

  /// Heap bytes held by this TM's own tables (sessions, txn slab, per-txn
  /// meta). Feeds the cluster memory budget. The key property at cluster
  /// scale: a node's footprint is O(fanout + transactions it touched), not
  /// O(cluster size) or O(global txn-id space).
  uint64_t ApproxBytes() const;

 private:
  struct Child {
    net::NodeId peer;
    bool prepare_sent = false;
    bool voted = false;
    rm::Vote vote = rm::Vote::kNo;
    bool reliable = false;
    bool ok_leave_out = false;
    bool is_last_agent = false;
    bool excluded = false;      ///< not part of phase two (RO / left out)
    bool ack_required = false;  ///< computed when the decision is sent
    bool acked = false;
    bool retried = false;       ///< wait-for-outcome single retry used
    runtime::Timer ack_timer;
  };

  enum class Phase : uint8_t {
    kActive,
    kPreparing,       ///< phase one in progress (this node coordinates it)
    kAwaitLastAgent,  ///< voted YES to the last agent; decision is theirs
    kInDoubt,         ///< prepared as subordinate, outcome unknown
    kDeciding,        ///< outcome known; phase two in progress
  };

  /// Paxos Commit's per-transaction state (paxos_commit.cc). It sits inline
  /// in Txn, so a Paxos transaction costs no allocation beyond its vectors.
  struct PaxosState {
    /// One consensus instance per cohort member (leader side).
    struct Inst {
      net::NodeId name;     ///< cohort member whose vote this instance is
      bool done = false;    ///< 2b majority reached at the current ballot
      bool value = false;   ///< instance outcome: Prepared (true) / Aborted
      /// Bit i set: config_.acceptors[i] sent its 2b at the current ballot.
      uint64_t acked_by = 0;
      // Takeover phase 1: highest-ballot accepted value reported in 1b.
      uint64_t seen_ballot = 0;
      bool seen_value = false;
      bool seen_any = false;
    };
    std::vector<Inst> insts;
    /// Every participant (instance) of the consensus, self included; learned
    /// from the root's Prepare and persisted in the prepared record so a
    /// recovered participant can lead a takeover.
    std::vector<net::NodeId> cohort;
    uint64_t ballot = 0;            ///< proposal ballot (0 = self-vote round)
    uint64_t takeover_attempt = 0;  ///< generates the next takeover ballot
    uint32_t promises = 0;          ///< granted 1b count at `ballot`
    bool leader = false;            ///< currently proposing (root or takeover)
    bool phase1 = false;            ///< collecting 1b promises
    bool voted_self = false;        ///< our ballot-0 2a fan-out happened
  };

  /// One transaction at this node. A free slab slot is default-constructed;
  /// a live one is the slot its id's TxnMeta points at.
  struct Txn {
    uint64_t id = 0;
    Phase phase = Phase::kActive;  ///< kDeciding: the outcome is known
    Outcome outcome = Outcome::kActive;
    bool is_root = false;
    net::NodeId upstream;     ///< our coordinator; empty: we own the decision
    net::NodeId work_source;  ///< peer whose data enrolled us (requester)
    std::vector<Child> children;
    /// Peers with data exchange this txn; kept sorted (AddPeer/HasPeer) so
    /// iteration matches the std::set order the protocol was built on.
    std::vector<net::NodeId> peers;

    // Phase-one aggregation.
    size_t votes_outstanding = 0;
    size_t rms_outstanding = 0;
    bool any_no = false;
    bool all_reliable = true;
    bool all_leave_out = true;
    bool local_updates = false;  ///< any local RM voted YES (has updates)

    // Subordinate-side context.
    bool upstream_long_locks = false;
    bool voted_yes = false;           ///< sent a YES (incl. unsolicited/LA path)
    bool unsolicited_sent = false;
    bool my_vote_reliable = false;    ///< our YES carried reliable=true

    // Decision state.
    bool commit_decision = false;

    // Last-agent handling.
    net::NodeId last_agent_peer;  ///< non-empty: we delegated the decision
    bool i_am_last_agent = false;
    bool initiator_read_only = false;  ///< last agent got an RO vote
    bool my_la_vote_ro = false;        ///< initiator voted RO to its last agent
    bool awaiting_implied_ack = false;
    net::NodeId implied_ack_peer;

    // PN bookkeeping.
    bool commit_pending_logged = false;

    /// Last agent side: the initiator's vote requested long locks, so our
    /// decision message is buffered for piggybacking.
    bool initiator_requested_long_locks = false;

    // Heuristic aggregation (what the subtree reported to us).
    bool heur_commit = false;
    bool heur_abort = false;
    bool damage = false;
    bool subtree_pending = false;

    // Heuristic state at this node.
    bool took_heuristic = false;

    // Application completion.
    CommitCallback app_cb;  ///< set by Commit: the application awaits us
    bool app_completed = false;

    // Phase-two RM countdown.
    size_t rm_phase2_outstanding = 0;
    bool end_written = false;
    bool ack_sent = false;  ///< subordinate: acknowledged upstream already

    // Timers.
    runtime::Timer heur_timer;
    runtime::Timer inq_timer;   ///< inquiry (paxos: takeover) timer
    runtime::Timer vote_timer;  ///< vote timeout (paxos: retry) timer
    /// One-phase family: quiesce timer driving the early prepare.
    runtime::Timer ep_timer;

    PaxosState paxos;
  };

  struct Session {
    /// The peer's interned network id (sessions_ is compact, O(fanout), so
    /// each entry must say who it talks to).
    uint32_t peer_id = net::Transport::kNoId;
    SessionOptions options;
    /// Peer is suspended after voting OK_TO_LEAVE_OUT (may be left out).
    bool suspended_leave_out = false;
    /// Outbound PDUs buffered for piggybacking (long-locks acks).
    std::vector<Pdu> outbox;
    /// As last agent: decisions sent whose END awaits the peer's implied
    /// ack, oldest first. The peer's next flow acknowledges all of them.
    std::vector<uint64_t> implied_ack_txns;
  };

  /// Everything keyed by transaction id, folded into one dense slot: the
  /// live transaction's slab index (kNoSlot once forgotten), the archived
  /// verdict kept for audits/inquiries after END, and the cost counters.
  struct TxnMeta {
    uint32_t slot = UINT32_MAX;  // == kNoSlot
    bool has_view = false;       ///< archived verdict present
    TxnView view;
    TxnCost cost;
  };

  static constexpr uint32_t kNoSlot = UINT32_MAX;

  // --- plumbing -------------------------------------------------------------
  void Init();  ///< shared constructor body (register, intern crash points)
  TxnMeta& MetaSlot(uint64_t id);
  const TxnMeta* FindMeta(uint64_t id) const;
  Txn& GetOrCreateTxn(uint64_t id);
  Txn* FindTxn(uint64_t id);
  const Txn* FindTxn(uint64_t id) const;
  /// The session slot for `peer`, or nullptr if none was ever declared.
  Session* FindSession(const net::NodeId& peer);
  /// Same, by interned network id. O(log fanout). Never allocates.
  Session* FindSessionById(uint32_t sid);
  /// The session slot for `peer`, creating (and connecting) it if absent —
  /// mirrors the seed's operator[] insertion semantics.
  Session& SessionSlot(const net::NodeId& peer);
  void RebuildSessionOrder();
  static void AddPeer(Txn& txn, const net::NodeId& peer);
  static bool HasPeer(const Txn& txn, const net::NodeId& peer);
  /// Sends `pdu` (plus anything buffered for the peer) as one message.
  /// kAppData bytes may arrive as `app_data` instead of `pdu.data`: the
  /// pooled path encodes them straight from the caller's view into the
  /// payload buffer, copy-free. The view only needs to live for this call.
  void SendPdu(const net::NodeId& peer, const Pdu& pdu,
               std::string_view app_data = {});
  void BufferPdu(const net::NodeId& peer, Pdu pdu);
  void AppendTmRecord(uint64_t txn, wal::RecordType type, bool force,
                      std::string body, std::function<void()> done);
  /// Body of a collecting or decision record: our upstream (if any) and
  /// every child still in phase two — whom recovery must reach.
  static std::string DecisionBody(const Txn& txn, bool is_root);
  /// Body of a subordinate's prepared record: our upstream and every child
  /// that did not vote read-only.
  std::string PreparedBody(const Txn& txn) const;
  bool ForceDowngraded() const { return config_.shared_log_with_host; }
  /// The presumption-table rule for a commit or an abort decision.
  const DecisionRule& RuleFor(bool commit) const {
    return commit ? rules_.commit : rules_.abort;
  }

  // --- crash-point instrumentation ------------------------------------------
  // Point names are interned once at construction; reporting a hit is a flat
  // array increment in the injector. When CrashHere returns true this node
  // just crashed: the caller must unwind without touching any Txn state
  // (slab slots were reset by Crash()).
  bool CrashHere(CrashPt p) {
    return ctx_->failures().CrashPoint(fi_node_, PointId(p));
  }
  uint32_t PointId(CrashPt p) const {
    return fi_points_[static_cast<size_t>(p)];
  }
  /// Coordinator-side role split: decision owner vs cascaded coordinator.
  static CrashPt CoordPt(const Txn& txn, CrashPt root, CrashPt casc) {
    return txn.upstream.empty() ? root : casc;
  }
  /// Subordinate-side role split: cascaded (has children) vs leaf.
  static CrashPt SubPt(const Txn& txn, CrashPt casc, CrashPt sub) {
    return txn.children.empty() ? sub : casc;
  }
  /// Three-way split for sites any role reaches.
  static CrashPt RolePt(const Txn& txn, CrashPt root, CrashPt casc,
                        CrashPt sub) {
    if (txn.upstream.empty()) return root;
    return txn.children.empty() ? sub : casc;
  }

  // --- coordinator path -------------------------------------------------------
  void StartPhaseOne(Txn& txn);
  void ComputeParticipants(Txn& txn);
  void ContinuePhaseOne(Txn& txn);
  void PrepareLocalRms(Txn& txn);
  void OnVotePdu(const net::NodeId& from, const Pdu& pdu);
  void MaybePhaseOneComplete(Txn& txn);
  void DecideAndPropagate(Txn& txn, bool commit);
  void SendDecision(Txn& txn, bool commit);
  void ArmAckTimer(Txn& txn, Child& child);
  void OnAckPdu(const net::NodeId& from, const Pdu& pdu);
  void MaybeComplete(Txn& txn);
  void CompleteApp(Txn& txn, bool pending);
  void WriteEndIfNeeded(Txn& txn, bool force, std::function<void()> done);

  /// Routes one decoded PDU to its handler. `data` is the kAppData payload
  /// view (empty for protocol PDUs).
  void DispatchPdu(const net::NodeId& from, const Pdu& pdu,
                   std::string_view data);

  // --- subordinate path ---------------------------------------------------------
  void OnAppData(const net::NodeId& from, const Pdu& pdu,
                 std::string_view data);
  void OnPreparePdu(const net::NodeId& from, const Pdu& pdu,
                    std::string_view data);
  void SendVote(Txn& txn);
  void OnDecisionPdu(const net::NodeId& from, const Pdu& pdu);
  void ApplyDecision(Txn& txn, bool commit);
  /// Resolves an in-doubt txn that already took a heuristic decision:
  /// runs the damage comparison against the real outcome, then propagates
  /// the real decision to the subtree. Shared by the decision-PDU and
  /// inquiry-reply paths.
  void ResolveAfterHeuristic(Txn& txn, bool commit);
  void AckUpstreamIfReady(Txn& txn);
  void DoSendAck(Txn& txn, bool pending);
  void ArmHeuristicTimer(Txn& txn);
  void TakeHeuristicDecision(Txn& txn);
  void ArmInquiryTimer(Txn& txn);
  void SendInquiry(Txn& txn);
  void OnInquiryPdu(const net::NodeId& from, const Pdu& pdu);
  void OnInquiryReplyPdu(const Pdu& pdu);

  // --- one-phase family ------------------------------------------------------
  /// (Re)arms the quiesce timer that triggers the early prepare once data
  /// flow pauses; fires UnsolicitedPrepare.
  void ArmEarlyPrepare(Txn& txn);

  // --- Paxos Commit (paxos_commit.cc) -----------------------------------------
  bool IsAcceptor() const;
  /// Position of `name` in config_.acceptors, or acceptors.size() when it is
  /// not an acceptor.
  size_t AcceptorIndex(std::string_view name) const;
  /// Ballot for this node's `attempt`-th takeover. Distinct leaders draw
  /// from distinct residues mod (acceptors + 1), so no two leaders ever
  /// share a ballot; 0 is reserved for the participants' self-votes. The
  /// 64-bit arithmetic saturates at a cap where the residues still differ,
  /// so dueling takeovers can never wrap a ballot back under a promised
  /// value or collide two leaders on one ballot.
  uint64_t PaxosBallot(uint64_t attempt) const;
  PaxosState::Inst* FindInst(Txn& txn, std::string_view name);
  /// FindInst, adopting a member our cohort view lacked.
  PaxosState::Inst& AdoptInst(Txn& txn, std::string_view name);
  /// Rebuilds the instance table from the cohort, every instance unvoted.
  static void ResetInsts(Txn& txn);
  /// Encodes `body` and sends `type` for txn `id` to `peer`. The bundle
  /// types (kPaxos*Bundle) use the repeated-instance bundle encoding.
  void SendPaxosPdu(const net::NodeId& peer, PduType type, uint64_t id,
                    const PaxosBody& body);
  /// Appends the acceptor's snapshot of `id` as a kTmAccept record.
  void LogAcceptorState(uint64_t id, bool force, std::function<void()> done);
  /// Fans the ballot-0 2a for our own instance out to the acceptor set;
  /// callers force the prepared record first. `prepared` is our vote.
  /// `self_accepted` reports whether the co-located ballot-0 self-accept
  /// already rode that force (PaxosSelfAccept) — if so, the self 2a is
  /// short-circuited into a direct 2b delivery.
  void SendPaxosVote(Txn& txn, bool prepared, CrashPt after_send,
                     bool self_accepted);
  /// Co-located leader/acceptor piggyback: applies our ballot-0 self-accept
  /// to the acceptor state machine and appends its snapshot non-forced, so
  /// the caller's immediately following prepared-record force makes vote
  /// and accept durable in ONE write (Gray & Lamport's first cost
  /// optimization). Returns false when this node is not an acceptor or a
  /// takeover ballot already outbid ballot 0.
  bool PaxosSelfAccept(Txn& txn, bool prepared);
  /// Root's phase one: the cohort becomes the instance set, Prepare carries
  /// it and the acceptor set to every child, then the local RMs prepare.
  void StartPaxosCommit(Txn& txn);
  /// Our subtree is prepared: force the prepared record (with the cohort),
  /// folding in the ballot-0 self-accept, and fan out our instance's 2a.
  /// The root then arms its retry timer, a subordinate its in-doubt ones.
  void PaxosVotePrepared(Txn& txn);
  /// A subordinate's NO: Aborted for our instance at ballot 0.
  void PaxosVoteAborted(Txn& txn);
  /// A prepared participant (or restarted root) assumes leadership: new
  /// ballot, 1a query to the acceptors, completes unfinished instances.
  void StartPaxosTakeover(Txn& txn);
  /// Phase 2 of a takeover: propose the discovered (or default Aborted)
  /// value for every instance at our ballot.
  void SendPaxosProposals(Txn& txn);
  /// Decides once every instance has a 2b majority: commit iff all Prepared.
  void CheckPaxosOutcome(Txn& txn);
  /// Leader-side liveness timer: re-runs the takeover until decided.
  void ArmPaxosRetry(Txn& txn);
  /// An in-doubt participant's timer: takes the consensus over until decided.
  void ArmTakeoverTimer(Txn& txn);
  /// Funnels a paxos outcome into the classic decision machinery: this node
  /// becomes the decision owner and drives phase two for the whole cohort.
  void DecidePaxos(Txn& txn, bool commit);
  /// A prepared participant's recovery: rejoin the consensus with the
  /// cohort from its prepared record, not the PA presumption.
  void RejoinPaxos(Txn& txn, const TmRecordBody& body);
  /// Forget's acceptor cleanup once the outcome is known: reclaim our own
  /// acceptor state and, as the decision owner, hint the other acceptors.
  void PaxosForget(Txn& txn);

  // Acceptor ingress (wire handlers and co-located self-delivery share
  // these). Acceptor state must be durable before it becomes observable
  // off-node: a snapshot force precedes every 2b/1b reply to a REMOTE
  // leader. A reply delivered locally to ourself-as-leader rides without
  // its own force — the decision record's force is the externalization
  // barrier, so a crash loses the acceptance and its observation together.
  /// Ballot-0 2a ingress (a participant's own vote; `leader` is the
  /// ballot-0 leader): records the vote, then AcceptorMaybeReply.
  void AcceptorOnAccept(const net::NodeId& leader, uint64_t id,
                        const net::NodeId& instance, bool prepared,
                        const std::vector<std::string>& cohort);
  /// Bundled 2a ingress (one PDU, every instance): applies all accepts,
  /// forces ONE covering snapshot, replies with ONE bundled 2b.
  void AcceptorOnAcceptBundle(const net::NodeId& leader, uint64_t id,
                              uint64_t ballot,
                              const std::vector<PaxosAccepted>& entries,
                              const std::vector<std::string>& cohort);
  /// Ballot-0 deferral: once every cohort instance holds a value, force one
  /// covering snapshot and send the leader one bundled 2b for the whole
  /// transaction (or deliver locally when we are the leader).
  void AcceptorMaybeReply(const net::NodeId& leader, uint64_t id);
  /// Forces one covering snapshot, then AcceptorSend2b unless `ballot` was
  /// outbid meanwhile.
  void AcceptorForceAndReply(const net::NodeId& leader, uint64_t id,
                             uint64_t ballot);
  /// One bundled 2b: every instance `state` accepted at `ballot`, sent to
  /// `leader` or, when we are the leader, delivered to ourself.
  void AcceptorSend2b(const net::NodeId& leader, uint64_t id, uint64_t ballot,
                      const AcceptorTxn& state);
  void AcceptorOnQuery(const net::NodeId& leader, uint64_t id,
                       uint64_t ballot);
  /// END-driven reclamation: erases the transaction from the acceptor state
  /// machine and appends an empty-snapshot tombstone (non-forced; it rides
  /// any later force) so recovery does not resurrect the entry.
  void AcceptorReclaim(uint64_t id);

  // Leader ingress for acceptor replies (wire + local short-circuit).
  /// One 2b from config_.acceptors[`acceptor`]; each acceptor counts once
  /// per instance and ballot toward the majority.
  void LeaderOnAccepted(uint64_t id, size_t acceptor,
                        std::string_view instance, uint64_t ballot,
                        bool prepared);
  /// LeaderOnAccepted for every entry of paxos_entries_, all sent by the
  /// acceptor named `from`. paxos_entries_ is a copy because completing an
  /// instance can decide the transaction and reclaim or re-decode the state
  /// the entries came from.
  void LeaderOnAcceptedEntries(uint64_t id, std::string_view from);
  Txn* LeaderForPromise(uint64_t id, uint64_t ballot);
  void LeaderMergeAccepted(Txn& txn, std::string_view instance,
                           uint64_t ballot, bool prepared);
  void LeaderPromiseGranted(Txn& txn);
  void LeaderPromiseNack(Txn& txn, uint64_t promised);

  void OnPaxosAcceptPdu(const net::NodeId& from, const Pdu& pdu,
                        std::string_view data);
  void OnPaxosQueryPdu(const net::NodeId& from, const Pdu& pdu,
                       std::string_view data);
  void OnPaxosPromisePdu(const Pdu& pdu, std::string_view data);
  void OnPaxosTakeoverPdu(const Pdu& pdu, std::string_view data);
  void OnPaxosAcceptBundlePdu(const net::NodeId& from, const Pdu& pdu,
                              std::string_view data);
  void OnPaxosAcceptedBundlePdu(const net::NodeId& from, const Pdu& pdu,
                                std::string_view data);
  void OnPaxosEndPdu(const Pdu& pdu);

  // --- shared ---------------------------------------------------------------
  void AbortLocal(Txn& txn);  ///< undo local RMs (pre-prepare abort)
  /// A NO voter whose aborts are presumed: abort the subtree and forget at
  /// once. Nobody acknowledges a presumed abort, and a prepared child that
  /// asks later is told "aborted" by presumption.
  void AbortSubtreeAndForget(uint64_t id);
  void CancelTimers(Txn& txn);
  void Forget(Txn& txn);
  /// Drains the implied acks awaited on the session with `from` (interned
  /// as `from_id`).
  void NoteImpliedAck(uint32_t from_id, const net::NodeId& from);

  // --- recovery ----------------------------------------------------------------
  void RecoverFromLog();
  /// Restores our place in the tree from the last durable record: root
  /// flag, upstream, and the children it names. Those are presumed prepared
  /// (voted YES): the record postdates their Prepare.
  static void RestoreTree(Txn& txn, const TmRecordBody& body);
  void ScheduleRecoveryRetry(uint64_t txn);

  std::unique_ptr<runtime::Runtime> owned_rt_;  ///< compat-ctor SimRuntime
  runtime::Runtime* rt_;
  sim::SimContext* ctx_;  ///< trace + failure injector only
  net::Transport* network_;
  wal::LogManager* log_;
  std::string name_;
  uint32_t self_id_;  ///< our interned network id, cached at construction
  uint32_t fi_node_;  ///< our interned failure-injector node id
  std::array<uint32_t, kCrashPointCount> fi_points_;  ///< interned point ids
  TmConfig config_;
  /// config_.protocol's row of the presumption table, cached once.
  Presumptions rules_;
  bool up_ = true;
  uint64_t epoch_ = 0;  ///< bumped on crash; stale timer closures no-op

  std::vector<rm::KVResourceManager*> rms_;

  // Sessions live in a compact vector (one entry per declared session, so a
  // node's session memory is O(fanout) even in a 2048-node cluster, not a
  // vector with holes sized by the largest interned network id). Lookups by
  // peer go through a sorted (peer id -> slot) index: one interner probe
  // plus a binary search over the fanout. session_order_ lists the slots
  // sorted by peer name so participant computation iterates in the same
  // (name-lexicographic) order the old std::map gave — that order is
  // trace-visible.
  std::vector<Session> sessions_;
  std::vector<uint32_t> session_ids_;    // sorted peer ids
  std::vector<uint32_t> session_slots_;  // parallel: slot in sessions_
  std::vector<uint32_t> session_order_;  // slots, sorted by peer name

  // Live transactions sit in a slab (deque: references stay stable while it
  // grows) with freed slots recycled through a free list. TxnMeta maps the
  // id to its slot and carries the archive view and cost counters. The map
  // is sparse: txn ids are global across the cluster, so a dense by-id
  // table would cost every node O(cluster-wide txn count).
  std::deque<Txn> txn_slab_;
  std::vector<uint32_t> free_slots_;
  size_t live_txns_ = 0;
  FlatId64Map<TxnMeta> txn_meta_;

  /// Paxos acceptor role state (co-located; empty unless this node's name is
  /// in config_.acceptors). Volatile — crash clears it, kTmAccept snapshots
  /// restore it.
  PaxosAcceptor acceptor_;
  /// Reusable encode buffer for outgoing PaxosBody payloads (steady-state
  /// paxos sends stay allocation-free once its capacity is warm).
  std::string paxos_wire_;
  /// Reusable decode target for incoming PaxosBody payloads.
  PaxosBody paxos_in_;
  /// Reusable entry scratch: bundle paths copy accepted entries here before
  /// delivering them, because completing an instance can decide the
  /// transaction and reclaim the acceptor state mid-iteration.
  std::vector<PaxosAccepted> paxos_entries_;

  AppDataHandler on_app_data_;
};

}  // namespace tpc::tm

#endif  // TPC_TM_TRANSACTION_MANAGER_H_
