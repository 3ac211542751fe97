// Network message envelope. Payload encoding is owned by the protocol layer
// (see tm/protocol_messages.h); the network treats it as opaque bytes.
//
// Hot-path shape: a Message is 24 trivially copyable bytes. Sender and
// receiver are the network's interned uint32 node ids (names survive only at
// the trace-render boundary via Network::NameOf), and the payload is a
// handle into a network-owned pooled buffer (Network::AcquirePayload). A
// message carries no trace label: the simulated network derives one from
// the payload when it writes a trace line (Network::set_describer) — a
// steady-state Send touches no allocator.

#ifndef TPC_NET_MESSAGE_H_
#define TPC_NET_MESSAGE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace tpc::net {

/// Nodes are addressed by human-readable names ("coord", "sub1", ...), which
/// keeps traces and failure-injection points legible. The network interns
/// these into dense uint32 ids (see Network); messages carry only the ids.
using NodeId = std::string;

/// Coarse message classification. Dispatch is driven by the payload, never
/// by this tag; traces label a kPdu message by describing its payload and
/// every other message by its kind name.
enum class MsgKind : unsigned char {
  kPdu,    ///< protocol PDU bundle (tm/protocol_messages.h)
  kApp,    ///< application traffic
  kOther,  ///< anything else (tests, fuzzed garbage)
};

std::string_view MsgKindName(MsgKind kind);

/// Handle to a pooled payload buffer owned by the Network. A default
/// (invalid) ref means "no payload". The network releases the buffer back
/// to its free list once the message reaches a terminal state, so views of
/// a delivered payload are valid only for the duration of OnMessage.
struct PayloadRef {
  static constexpr uint32_t kNone = UINT32_MAX;
  uint32_t index = kNone;
  bool valid() const { return index != kNone; }
};

/// One network message: five plain fields, copied by value through every
/// delivery closure.
struct Message {
  uint32_t from = UINT32_MAX;  ///< interned sender id (Network::InternId)
  uint32_t to = UINT32_MAX;    ///< interned destination id
  MsgKind kind = MsgKind::kOther;
  PayloadRef payload;  ///< pooled buffer handle, opaque to the network
  uint64_t txn = 0;    ///< transaction id for trace correlation (0 = none)
};
static_assert(std::is_trivially_copyable_v<Message> && sizeof(Message) == 24,
              "delivery closures capture a Message by value");

/// The seed-era message shape: heap strings per message, addressed by
/// name. Kept as the by-name entry point for tests and benches that inject
/// traffic; Transport::SendLegacy resolves the names and copies the payload
/// onto the pooled path, preserving delivery semantics exactly.
struct LegacyMessage {
  NodeId from;
  NodeId to;
  MsgKind kind = MsgKind::kOther;
  std::string payload;
  uint64_t txn = 0;
};

inline std::string_view MsgKindName(MsgKind kind) {
  switch (kind) {
    case MsgKind::kPdu:
      return "PDU";
    case MsgKind::kApp:
      return "APP";
    case MsgKind::kOther:
      return "MSG";
  }
  return "MSG";
}

}  // namespace tpc::net

#endif  // TPC_NET_MESSAGE_H_
