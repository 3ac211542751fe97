// Simulated message-passing network.
//
// Models what the paper's analysis depends on: each message is a *flow* with
// a per-link latency; sessions between a pair of nodes deliver in order (as
// LU 6.2 conversations do); links and nodes can fail, silently dropping
// traffic. Per-node and per-link flow counts feed the cost accounting.
//
// Hot-path design: node names are interned into dense uint32 ids, messages
// carry only those ids, per-node counters live in flat vectors indexed by
// them, and all per-link state (latency override, link-down flag, loss
// rate, FIFO delivery floor) lives in one sparse open-addressed map keyed
// by the directed pair — a Send performs no string building and one integer
// hash probe, and a cluster's link memory is O(links used), not O(nodes²).
// Payload bytes live in a network-owned buffer pool with free-list reuse
// (senders encode in place via PayloadBuffer). The scheduled delivery
// closure captures the 24-byte message by value, which fits the event
// queue's inline buffer. In steady state a Send → deliver round trip
// performs zero allocations.
//
// Trace labels are resolved when a trace line is written: a kPdu message's
// SEND and RECV detail is the installed describer's rendering of its
// payload ("PREPARE+ACK"), any other message's is its kind name.

#ifndef TPC_NET_NETWORK_H_
#define TPC_NET_NETWORK_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "net/message.h"
#include "net/transport.h"
#include "sim/sim_context.h"
#include "util/flat_map.h"
#include "util/interner.h"
#include "util/status.h"

namespace tpc::net {

/// Aggregate traffic counters. Invariant: every *accepted* message is one
/// flow (messages_sent), and ends up delivered or dropped (or still in
/// flight). Sends that never enter the network — unknown sender or
/// destination, sender down — are counted as rejected, not sent.
/// Bytes are counted once at accept time (bytes_sent) and once at successful
/// delivery (bytes_delivered), so drop accounting is byte-accurate:
/// bytes_sent - bytes_delivered = bytes dropped or still in flight.
struct NetworkStats {
  uint64_t messages_sent = 0;      ///< accepted into the network
  uint64_t messages_delivered = 0;
  uint64_t messages_dropped = 0;   ///< link down, partition, or dead receiver
  uint64_t messages_rejected = 0;  ///< refused at the send API; not a flow
  uint64_t bytes_sent = 0;
  uint64_t bytes_delivered = 0;
};

/// The cluster interconnect: the deterministic Transport backend.
class Network : public Transport {
 public:
  /// Renders a payload as a trace label, appending to `out`.
  using Describer = void (*)(std::string_view payload, std::string* out);

  explicit Network(sim::SimContext* ctx) : ctx_(ctx) {}

  /// Registers a node. Names must be unique.
  void Register(const NodeId& id, Endpoint* endpoint) override;

  /// Latency applied when no per-link override exists.
  void set_default_latency(sim::Time latency) { default_latency_ = latency; }
  sim::Time default_latency() const { return default_latency_; }

  /// Overrides latency for both directions of the (a, b) link.
  void SetLinkLatency(const NodeId& a, const NodeId& b, sim::Time latency);

  /// Takes both directions of the (a, b) link down or up. Messages sent
  /// while a link is down are dropped silently (no error to the sender, as
  /// with a real partition).
  ///
  /// In-flight semantics (link flaps): the link state is checked both at
  /// send time and again at delivery time. A message sent while the link
  /// was up but *due for delivery during an outage* is dropped retroactively
  /// — it was on the wire when the link failed, so it never arrives. A
  /// message whose delivery time falls after the link recovers is delivered
  /// normally; the outage in between does not affect it. The FIFO delivery
  /// floor is unaffected by outages, so per-link ordering of surviving
  /// messages is preserved across a flap.
  void SetLinkDown(const NodeId& a, const NodeId& b, bool down);
  bool IsLinkDown(const NodeId& a, const NodeId& b) const;

  /// Sets a probabilistic loss rate on both directions of the (a, b) link:
  /// each accepted message is independently dropped with probability `p`
  /// (0 disables). Draws come from the SimContext RNG, so a given seed
  /// yields an identical loss pattern on every run. Lost messages count as
  /// dropped flows (the sender did the work) and do not advance the FIFO
  /// delivery floor.
  void SetLinkLossRate(const NodeId& a, const NodeId& b, double p);
  double LinkLossRate(const NodeId& a, const NodeId& b) const;

  /// Sends a message. The sender must be registered and up. Delivery is
  /// in-order per directed pair. Counting: every accepted message is one
  /// flow, even if it is later dropped (the sender did the work); a send
  /// that fails validation is rejected and never enters the network.
  /// Ownership: Send consumes msg.payload on every path — accepted, dropped,
  /// or rejected, the pooled buffer returns to the free list once the
  /// message reaches its terminal state. Callers never release it.
  Status Send(Message msg) override;

  /// Latency the next message from `a` to `b` would experience.
  sim::Time LatencyBetween(const NodeId& a, const NodeId& b) const override;

  const NetworkStats& stats() const { return stats_; }
  void ResetStats() { stats_ = NetworkStats(); }

  /// Messages accepted from `node` (its outbound flow count).
  uint64_t SentBy(const NodeId& node) const;

  /// Enables/disables trace entries for sends and deliveries (on by default;
  /// turn off for large throughput benches).
  void set_tracing(bool on) { tracing_ = on; }
  bool tracing() const override { return tracing_; }

  /// Installs the function that labels kPdu messages in traces (nullptr:
  /// they trace as "PDU"). It runs only when a trace line is written.
  void set_describer(Describer describer) { describer_ = describer; }

  // --- public interning surface --------------------------------------------
  // Node names map to dense uint32 ids. Components that keep per-peer flat
  // tables (the TM's session vector) index them by these ids instead of
  // hashing names per message.

  /// Interns `name`, returning its dense id (stable for the network's life).
  /// Interning does not register: link state may be configured before
  /// nodes attach.
  uint32_t InternId(const NodeId& name) override;
  /// Id of `name`, or kNoId if never interned. Never allocates.
  uint32_t IdOf(const NodeId& name) const override {
    return names_.Find(name);
  }
  /// The name interned as `id`. Requires a valid id.
  const NodeId& NameOf(uint32_t id) const override {
    return names_.NameOf(id);
  }

  // --- pooled payload buffers ----------------------------------------------
  // Senders acquire a buffer, encode the payload directly into it via
  // PayloadBuffer, and hand the ref to Send. Buffers keep their capacity
  // across reuse, so a warmed pool serves the steady state without touching
  // the allocator.

  /// Acquires a cleared buffer from the pool (capacity retained from its
  /// previous use).
  PayloadRef AcquirePayload() override;

  /// The mutable buffer behind `ref` — encode the payload in place here
  /// before Send. Requires a ref obtained from AcquirePayload.
  std::string& PayloadBuffer(PayloadRef ref) override {
    return payload_pool_[ref.index];
  }

  /// Read-only view of the bytes behind `ref`; empty for the null ref.
  std::string_view PayloadView(PayloadRef ref) const override {
    return ref.valid() ? std::string_view(payload_pool_[ref.index])
                       : std::string_view();
  }

  /// Heap bytes held by the network's own tables (interning, link state,
  /// payload pool). Feeds the cluster memory budget; the key property is
  /// that link state is O(links used), not O(nodes²).
  uint64_t ApproxBytes() const;

 private:
  static_assert(StringInterner::kNotFound == kNoId);
  static constexpr sim::Time kDefaultLatency = -1;  // sentinel in LinkState

  /// Per-directed-pair state, created lazily on first touch. A sparse
  /// topology of N nodes and L used links costs O(L) entries instead of the
  /// former four N×N matrices (which hit ~100 MB at 2048 nodes).
  struct LinkState {
    sim::Time latency = kDefaultLatency;  // kDefaultLatency: use default_latency_
    sim::Time floor = 0;                  // FIFO delivery floor
    double loss = 0.0;                    // per-message drop probability
    bool down = false;
  };

  static uint64_t PairKey(uint32_t a, uint32_t b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  void ReleasePayload(PayloadRef ref);
  void Deliver(const Message& msg);
  /// SEND/RECV trace detail for `msg`: the describer's label for a kPdu
  /// payload, else (or when that label is empty) the kind name.
  std::string TraceLabel(const Message& msg) const;

  sim::SimContext* ctx_;
  sim::Time default_latency_ = sim::kMillisecond;

  // Interning: name -> dense id, and id -> name for trace rendering.
  StringInterner names_;

  // Indexed by node id.
  std::vector<Endpoint*> endpoints_;  // nullptr: interned but not registered
  std::vector<uint64_t> sent_by_;

  // Sparse per-directed-pair link state keyed by PairKey(from, to). Only
  // pairs that ever carried a message or a configuration own an entry.
  FlatId64Map<LinkState> links_;

  // Payload buffer pool. A deque keeps buffer addresses stable while the
  // pool grows, so payload views held across a reentrant Send (an OnMessage
  // upcall that sends, forcing the pool to grow) never dangle.
  std::deque<std::string> payload_pool_;
  std::vector<uint32_t> payload_free_;

  NetworkStats stats_;
  bool tracing_ = true;
  Describer describer_ = nullptr;
};

}  // namespace tpc::net

#endif  // TPC_NET_NETWORK_H_
