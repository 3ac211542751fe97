// Protocol data units (PDUs) exchanged between transaction managers, and
// their wire encoding.
//
// A network message carries one or more PDUs: piggybacking is how the
// long-locks optimization folds a commit acknowledgment into the first data
// message of the next transaction, and how last-agent/long-locks pairs
// commit two transactions in three flows.
//
// Wire format: PDU frames are self-delimiting and packed back to back until
// the end of the payload (no count prefix), so PduWriter appends piggybacked
// bundles in place with no patching, and PduCursor walks a received payload
// without materializing a vector. The hot path is writer/cursor straight
// against the network's pooled payload buffers; EncodePdus/DecodePdus remain
// as the vector-based compatibility and fuzzing surface over the same bytes.

#ifndef TPC_TM_PROTOCOL_MESSAGES_H_
#define TPC_TM_PROTOCOL_MESSAGES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rm/resource_manager.h"
#include "tm/types.h"
#include "util/result.h"

namespace tpc::tm {

/// PDU discriminator.
enum class PduType : uint8_t {
  kAppData = 1,   ///< application data; enrolls the receiver in the txn
  kPrepare,       ///< phase-one request
  kVote,          ///< phase-one response (or unsolicited / last-agent vote)
  kCommit,        ///< commit decision
  kAbort,         ///< abort decision
  kAck,           ///< decision acknowledged (carries heuristic report)
  kInquiry,       ///< recovery: what happened to txn?
  kInquiryReply,  ///< recovery answer

  // Paxos Commit (Gray & Lamport). Each carries a PaxosBody in the frame's
  // data field; the frame layout itself is unchanged.
  kPaxosAccept,    ///< 2a: participant -> acceptor (its ballot-0 vote)
  /// Singleton 2b: no longer sent (every 2b is a kPaxosAcceptedBundle); the
  /// value keeps the PDU numbering and trace classifiers unchanged.
  kPaxosAccepted,
  kPaxosQuery,     ///< 1a: takeover leader -> acceptor (promise request)
  kPaxosPromise,   ///< 1b: acceptor -> takeover leader (grant or nack)
  kPaxosTakeover,  ///< stuck participant asks a candidate to lead

  // Bundled paxos traffic (the paper's cost optimization): all of one
  // transaction's instances ride in a single PDU whose data field holds the
  // repeated-instance bundle encoding (EncodePaxosBundle).
  kPaxosAcceptBundle,    ///< 2a bundle: takeover leader -> acceptor
  kPaxosAcceptedBundle,  ///< 2b bundle: acceptor -> leader, all instances
  kPaxosEnd,  ///< leader -> acceptor after full resolution: reclaim state
};

std::string_view PduTypeToString(PduType type);

/// One accepted instance reported in a 1b promise or carried in a 2a/2b
/// bundle: the participant whose instance it is, the ballot it was
/// accepted at, and the accepted value. Ballots are 64-bit end to end so
/// the takeover ballot arithmetic never wraps back under a promised value
/// (see TransactionManager::PaxosBallot).
struct PaxosAccepted {
  std::string instance;
  uint64_t ballot = 0;
  bool prepared = false;
};

/// Body of the paxos PDU family, carried in the frame's data field. A flat
/// union like Pdu: only the fields relevant to the PDU type are meaningful.
///
///   kPaxosAccept:   ballot, instance, prepared, leader, cohort, acceptors
///   kPaxosAccepted: ballot, instance, prepared
///   kPaxosQuery:    ballot
///   kPaxosPromise:  ballot, granted, promised (nack), accepted, cohort,
///                   acceptors, leader (ballot-0 leader, if known)
///   kPaxosTakeover: cohort, acceptors
struct PaxosBody {
  uint64_t ballot = 0;
  uint64_t promised = 0;  ///< nack: the higher ballot already promised
  bool granted = false;
  bool prepared = false;  ///< the proposed/accepted value of an instance
  std::string instance;   ///< which participant's instance
  std::string leader;     ///< where 2b replies go
  std::vector<std::string> cohort;     ///< all instances of the transaction
  std::vector<std::string> acceptors;  ///< the 2F+1 acceptor set
  std::vector<PaxosAccepted> accepted;

  /// Resets every field, keeping container capacity (decode-loop reuse).
  void Clear();
};

/// Appends the body's encoding to `out` (no clear — callers reuse a warm
/// scratch buffer and pass the result as the frame's data bytes).
void EncodePaxosBody(const PaxosBody& body, std::string* out);

/// Decodes a paxos body, reusing `out`'s container capacity. Corruption on
/// truncated or malformed input; implausible list sizes are rejected.
Status DecodePaxosBody(std::string_view data, PaxosBody* out);

/// Repeated-instance bundle codec (kPaxosAcceptBundle / kPaxosAcceptedBundle
/// data field). The bundle shares one ballot and leader across all entries:
/// the header (ballot, leader, cohort, acceptors) is encoded once, followed
/// by one (instance, prepared) pair per entry from `body.accepted` — entry
/// ballots are not encoded (they equal `body.ballot`; decode restores them).
/// A 2b bundle leaves leader/cohort/acceptors empty. Same reuse discipline
/// as EncodePaxosBody: append-only encode, capacity-reusing decode.
void EncodePaxosBundle(const PaxosBody& body, std::string* out);

/// Inverse of EncodePaxosBundle. Corruption on truncation at any bundle
/// boundary, on a malformed entry, and on trailing bytes; list sizes are
/// bounded. Fields not in the bundle format are cleared on `out`.
Status DecodePaxosBundle(std::string_view data, PaxosBody* out);

/// Body shared by the TM protocol log records. Children are the peers a
/// decision must reach during recovery; upstream is where acknowledgments
/// (or inquiries) go.
struct TmRecordBody {
  std::string upstream;  // empty at the root
  bool is_root = false;
  bool heur_commit = false;  // kTmHeuristic only
  std::vector<std::string> children;
  /// Paxos Commit: the full cohort, persisted in the prepared record so a
  /// recovered participant can lead a takeover. Empty for other protocols.
  std::vector<std::string> cohort;
};

std::string EncodeBody(const TmRecordBody& body);
Status DecodeBody(std::string_view data, TmRecordBody* body);

/// One protocol data unit. A tagged union kept flat for simplicity; only
/// the fields relevant to `type` are meaningful.
struct Pdu {
  PduType type = PduType::kAppData;
  uint64_t txn = 0;

  // kPrepare
  bool long_locks = false;  ///< coordinator requests the long-locks variation

  // kVote
  rm::Vote vote = rm::Vote::kNo;
  bool reliable = false;        ///< whole subtree is reliable
  bool ok_to_leave_out = false; ///< whole subtree may be suspended/left out
  bool unsolicited = false;     ///< sent without a Prepare
  bool last_agent = false;      ///< YES vote that transfers the commit decision
  bool vote_long_locks = false; ///< last-agent path: sender requests long locks

  // kAck / kInquiryReply heuristic report
  bool heur_commit = false;   ///< subtree contains a heuristic commit
  bool heur_abort = false;    ///< subtree contains a heuristic abort
  bool damage = false;        ///< heuristic decision conflicted with outcome
  bool outcome_pending = false;  ///< "recovery is in progress" ack

  // kCommit
  bool from_last_agent = false;  ///< decision flowing last agent -> initiator

  // kInquiryReply
  InquiryAnswer answer = InquiryAnswer::kUnknown;

  // kAppData
  std::string data;

  /// Appends this PDU's frame in place: one resize, then raw-pointer field
  /// writes — no temporary encoder or string.
  void EncodeTo(std::string* out) const { EncodeTo(out, data); }

  /// Same, but the app-data bytes come from `data_bytes` instead of the
  /// `data` member — the send path encodes application payloads straight
  /// from the caller's view into the pooled buffer, never owning a copy
  /// (symmetric with PduCursor::data() on receive).
  void EncodeTo(std::string* out, std::string_view data_bytes) const;
};

/// Encodes PDU frames directly into a caller-owned buffer — typically a
/// network pooled payload buffer (Network::PayloadBuffer), so a send
/// bundles piggybacked PDUs with zero intermediate copies or allocations
/// once the buffer's capacity is warm.
class PduWriter {
 public:
  explicit PduWriter(std::string* out) : out_(out) {}

  /// Appends one PDU frame after whatever the buffer already holds.
  void Append(const Pdu& pdu) {
    pdu.EncodeTo(out_);
    ++count_;
  }

  /// Appends a frame whose app-data bytes come from `data` rather than
  /// `pdu.data` (zero-copy app-data send).
  void Append(const Pdu& pdu, std::string_view data) {
    pdu.EncodeTo(out_, data);
    ++count_;
  }

  size_t count() const { return count_; }

 private:
  std::string* out_;
  size_t count_ = 0;
};

/// Iterates the PDU frames of a received payload in place, with no copies:
/// kAppData bytes are exposed as a string_view into the payload (pdu().data
/// is always left empty — use data()). Views live only as long as the
/// payload bytes, i.e. for the duration of the OnMessage upcall.
///
/// Usage:
///   PduCursor cursor(payload);
///   while (cursor.Next()) { use(cursor.pdu(), cursor.data()); }
///   if (!cursor.status().ok()) { /* malformed frame; drop the message */ }
class PduCursor {
 public:
  explicit PduCursor(std::string_view payload) : rest_(payload) {}

  /// Advances to the next frame. Returns false at the clean end of the
  /// payload or on a malformed frame — distinguish via status().
  bool Next();

  /// The current PDU (valid after Next() returned true). Its `data` member
  /// is always empty; app-data bytes are in data().
  const Pdu& pdu() const { return pdu_; }

  /// kAppData payload bytes of the current PDU, viewed in place.
  std::string_view data() const { return data_; }

  /// OK until a malformed frame is hit; then the decode error.
  const Status& status() const { return status_; }

  /// Frames successfully decoded so far.
  size_t index() const { return count_; }

 private:
  std::string_view rest_;
  Pdu pdu_;
  std::string_view data_;
  Status status_;
  size_t count_ = 0;
};

/// Encodes a bundle of PDUs into one network-message payload
/// (compatibility surface; the hot path appends via PduWriter).
std::string EncodePdus(const std::vector<Pdu>& pdus);

/// Decodes a network-message payload into owned PDUs (compatibility and
/// fuzzing surface over the same frames PduCursor walks). An empty payload
/// and a payload with any malformed frame are errors; a decoded kAppData
/// PDU carries its bytes in Pdu::data.
Result<std::vector<Pdu>> DecodePdus(std::string_view payload);

/// Human-readable tag for traces: "PREPARE" or "ACK+APP_DATA".
std::string DescribePdus(const std::vector<Pdu>& pdus);

/// Appends the same human-readable tag, derived from an encoded payload,
/// to `out`. It is the simulated network's trace describer
/// (net::Network::set_describer): a SEND or RECV line labels a PDU bundle
/// from the bytes on the wire. Frames after a malformed one are ignored.
void DescribePayload(std::string_view payload, std::string* out);

}  // namespace tpc::tm

#endif  // TPC_TM_PROTOCOL_MESSAGES_H_
