// LiveTransport: the real-threads net::Transport backend.
//
// Send posts a delivery task to the destination node's mailbox, so
// OnMessage runs on the destination's serialized worker context — the same
// "delivery is an event on the receiver" shape the simulated Network gives
// the engines. The task carries the 24-byte message itself in Task's inline
// buffer, so a delivery allocates nothing. Per-pair FIFO falls out of
// construction: a sender posts its deliveries from one thread in Send
// order, and the destination mailbox preserves post order. The live
// transport writes no trace lines.
//
// The steady-state message path takes no transport-wide lock:
//   - The name, endpoint and mailbox tables are written only during setup
//     (Bind, Register, interning a new name) and are read without a lock
//     once the first Send has run. Setup after that point is a TPC_CHECK
//     failure, so a reader can never see a table move under it.
//   - Payload buffers live in segments that never move, and their free list
//     is a lock-free stack, so acquire, view and release are a few atomic
//     operations. Only growing the pool by one buffer takes a mutex.
//     Cross-thread visibility of a buffer's bytes rides the
//     destination-mailbox mutex (release on Post, acquire on drain), and
//     the free list's release/acquire hands a recycled buffer over.
//   - Stats are relaxed atomic counters.
//
// Crash semantics differ from the sim on purpose: there is no global
// "messages in flight" list to drop, so a message posted to a crashed node
// is discarded by the delivery task's IsUp() check on the destination
// thread — equivalent to the sim's deliver-time drop.

#ifndef TPC_RUNTIME_LIVE_TRANSPORT_H_
#define TPC_RUNTIME_LIVE_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "net/transport.h"
#include "runtime/live_runtime.h"
#include "util/interner.h"

namespace tpc::runtime {

class LiveTransport final : public net::Transport {
 public:
  struct Stats {
    uint64_t messages_sent = 0;
    uint64_t messages_delivered = 0;
    uint64_t messages_dropped = 0;  ///< destination down at delivery
    uint64_t messages_rejected = 0;
    uint64_t bytes_sent = 0;
  };

  LiveTransport() = default;
  ~LiveTransport() override;

  LiveTransport(const LiveTransport&) = delete;
  LiveTransport& operator=(const LiveTransport&) = delete;

  /// Associates `name` with the node runtime whose mailbox receives its
  /// deliveries. Must precede Register(name, ...); setup phase only.
  void Bind(const net::NodeId& name, LiveNodeRuntime* node);

  /// Setup phase only, after Bind(id, ...).
  void Register(const net::NodeId& id, net::Endpoint* endpoint) override;

  /// A new name may be interned only before the first Send; afterwards
  /// this is a lookup of an existing name.
  uint32_t InternId(const net::NodeId& name) override;
  uint32_t IdOf(const net::NodeId& name) const override;
  const net::NodeId& NameOf(uint32_t id) const override;

  net::PayloadRef AcquirePayload() override;
  std::string& PayloadBuffer(net::PayloadRef ref) override;
  std::string_view PayloadView(net::PayloadRef ref) const override;

  Status Send(net::Message msg) override;

  sim::Time LatencyBetween(const net::NodeId& a,
                           const net::NodeId& b) const override {
    (void)a;
    (void)b;
    return 0;  // the scheduler decides; engines only use this for traces
  }

  bool tracing() const override { return false; }

  Stats stats() const;

  /// Payload buffers the pool has created (its high-water mark of buffers
  /// in use at once).
  uint32_t payload_buffers() const {
    return pool_size_.load(std::memory_order_relaxed);
  }

 private:
  struct Peer {
    net::Endpoint* endpoint = nullptr;
    LiveNodeRuntime* mailbox = nullptr;
  };
  struct PayloadSlot {
    std::string buf;
    std::atomic<uint32_t> next{net::PayloadRef::kNone};  ///< free-list link
  };
  struct Counters {
    std::atomic<uint64_t> sent{0};
    std::atomic<uint64_t> delivered{0};
    std::atomic<uint64_t> dropped{0};
    std::atomic<uint64_t> rejected{0};
    std::atomic<uint64_t> bytes{0};
  };
  /// Where a pool index lives: segment k holds kFirstSegment << k slots and
  /// starts at index (2^k - 1) * kFirstSegment, so 27 segments cover every
  /// index below PayloadRef::kNone.
  struct SlotPosition {
    int segment;
    uint64_t offset;
  };
  static constexpr int kFirstSegmentBits = 6;
  static constexpr uint64_t kFirstSegment = uint64_t{1} << kFirstSegmentBits;
  static constexpr int kSegments = 27;

  /// Whether the first Send has run; the tables are read-only from then on.
  bool sealed() const { return sealed_.load(std::memory_order_relaxed); }
  Status Reject(const char* what, uint32_t id, net::PayloadRef payload);
  void Deliver(net::Endpoint* endpoint, const net::Message& msg);

  static SlotPosition PositionOf(uint32_t index);
  PayloadSlot& Slot(uint32_t index) const;
  net::PayloadRef GrowPool();
  void ReleasePayload(net::PayloadRef ref);

  // Setup-only tables.
  static_assert(StringInterner::kNotFound == kNoId);
  StringInterner names_;
  std::vector<Peer> peers_;
  std::atomic<bool> sealed_{false};

  // Payload pool: fixed segments plus a lock-free free stack whose head
  // packs the top index (low 32 bits) with a tag bumped by every update,
  // so a stale head never wins a compare-exchange (ABA).
  std::atomic<PayloadSlot*> segments_[kSegments] = {};
  std::atomic<uint64_t> free_head_{net::PayloadRef::kNone};
  std::atomic<uint32_t> pool_size_{0};
  std::mutex grow_mu_;

  Counters counters_;
};

}  // namespace tpc::runtime

#endif  // TPC_RUNTIME_LIVE_TRANSPORT_H_
