#include "runtime/live_transport.h"

#include <bit>

#include "util/logging.h"

namespace tpc::runtime {

namespace {

constexpr uint32_t kNoIndex = net::PayloadRef::kNone;

uint32_t HeadIndex(uint64_t head) { return static_cast<uint32_t>(head); }

uint64_t NextHead(uint64_t head, uint32_t index) {
  return ((head >> 32) + 1) << 32 | index;
}

}  // namespace

LiveTransport::~LiveTransport() {
  for (auto& segment : segments_) delete[] segment.load();
}

uint32_t LiveTransport::InternId(const net::NodeId& name) {
  const uint32_t id = names_.Find(name);
  if (id != kNoId) return id;
  TPC_CHECK(!sealed());  // a new name after the first Send
  peers_.emplace_back();
  return names_.Intern(name);
}

void LiveTransport::Bind(const net::NodeId& name, LiveNodeRuntime* node) {
  TPC_CHECK(node != nullptr);
  TPC_CHECK(!sealed());
  Peer& peer = peers_[InternId(name)];
  TPC_CHECK(peer.mailbox == nullptr);
  peer.mailbox = node;
}

void LiveTransport::Register(const net::NodeId& id, net::Endpoint* endpoint) {
  TPC_CHECK(endpoint != nullptr);
  TPC_CHECK(!sealed());
  Peer& peer = peers_[InternId(id)];
  TPC_CHECK(peer.endpoint == nullptr);  // names must be unique
  TPC_CHECK(peer.mailbox != nullptr);   // Bind must precede Register
  peer.endpoint = endpoint;
}

uint32_t LiveTransport::IdOf(const net::NodeId& name) const {
  return names_.Find(name);
}

const net::NodeId& LiveTransport::NameOf(uint32_t id) const {
  TPC_CHECK(id < names_.size());
  return names_.NameOf(id);
}

LiveTransport::SlotPosition LiveTransport::PositionOf(uint32_t index) {
  const uint64_t n = uint64_t{index} + kFirstSegment;
  const int segment = std::bit_width(n) - 1 - kFirstSegmentBits;
  return {segment, n - (kFirstSegment << segment)};
}

LiveTransport::PayloadSlot& LiveTransport::Slot(uint32_t index) const {
  const SlotPosition pos = PositionOf(index);
  return segments_[pos.segment].load(std::memory_order_acquire)[pos.offset];
}

net::PayloadRef LiveTransport::AcquirePayload() {
  uint64_t head = free_head_.load(std::memory_order_acquire);
  while (HeadIndex(head) != kNoIndex) {
    PayloadSlot& slot = Slot(HeadIndex(head));
    const uint32_t next = slot.next.load(std::memory_order_relaxed);
    if (free_head_.compare_exchange_weak(head, NextHead(head, next),
                                         std::memory_order_acquire)) {
      slot.buf.clear();
      return net::PayloadRef{HeadIndex(head)};
    }
  }
  return GrowPool();
}

net::PayloadRef LiveTransport::GrowPool() {
  std::lock_guard<std::mutex> lock(grow_mu_);
  const uint32_t index = pool_size_.load(std::memory_order_relaxed);
  TPC_CHECK(index != kNoIndex);
  const SlotPosition pos = PositionOf(index);
  if (pos.offset == 0) {
    segments_[pos.segment].store(
        new PayloadSlot[kFirstSegment << pos.segment],
        std::memory_order_release);
  }
  pool_size_.store(index + 1, std::memory_order_relaxed);
  return net::PayloadRef{index};
}

void LiveTransport::ReleasePayload(net::PayloadRef ref) {
  if (!ref.valid()) return;
  PayloadSlot& slot = Slot(ref.index);
  uint64_t head = free_head_.load(std::memory_order_relaxed);
  do {
    slot.next.store(HeadIndex(head), std::memory_order_relaxed);
  } while (!free_head_.compare_exchange_weak(head, NextHead(head, ref.index),
                                             std::memory_order_release,
                                             std::memory_order_relaxed));
}

std::string& LiveTransport::PayloadBuffer(net::PayloadRef ref) {
  return Slot(ref.index).buf;
}

std::string_view LiveTransport::PayloadView(net::PayloadRef ref) const {
  return ref.valid() ? std::string_view(Slot(ref.index).buf)
                     : std::string_view();
}

LiveTransport::Stats LiveTransport::stats() const {
  Stats s;
  s.messages_sent = counters_.sent.load(std::memory_order_relaxed);
  s.messages_delivered = counters_.delivered.load(std::memory_order_relaxed);
  s.messages_dropped = counters_.dropped.load(std::memory_order_relaxed);
  s.messages_rejected = counters_.rejected.load(std::memory_order_relaxed);
  s.bytes_sent = counters_.bytes.load(std::memory_order_relaxed);
  return s;
}

Status LiveTransport::Reject(const char* what, uint32_t id,
                             net::PayloadRef payload) {
  counters_.rejected.fetch_add(1, std::memory_order_relaxed);
  ReleasePayload(payload);
  return Status::InvalidArgument(
      std::string(what) +
      (id < names_.size() ? names_.NameOf(id) : "(uninterned id)"));
}

Status LiveTransport::Send(net::Message msg) {
  if (!sealed()) sealed_.store(true, std::memory_order_relaxed);
  if (msg.from >= peers_.size() || peers_[msg.from].endpoint == nullptr)
    return Reject("unknown sender: ", msg.from, msg.payload);
  if (msg.to >= peers_.size() || peers_[msg.to].endpoint == nullptr)
    return Reject("unknown destination: ", msg.to, msg.payload);
  // IsUp is owned by the node's thread; Send does not probe it. A message
  // from a node that crashed mid-task is dropped at delivery, like the
  // sim's deliver-time check.
  counters_.sent.fetch_add(1, std::memory_order_relaxed);
  if (msg.payload.valid()) {
    counters_.bytes.fetch_add(Slot(msg.payload.index).buf.size(),
                              std::memory_order_relaxed);
  }
  const Peer& dest = peers_[msg.to];
  // The task captures (this, endpoint, msg): 40 bytes, inside Task's
  // inline buffer, so a delivery allocates nothing.
  net::Endpoint* endpoint = dest.endpoint;
  dest.mailbox->Post(Task([this, endpoint, msg] { Deliver(endpoint, msg); }));
  return Status::OK();
}

void LiveTransport::Deliver(net::Endpoint* endpoint, const net::Message& msg) {
  // IsUp/OnMessage run on the destination's own serialized context; the
  // upcall may Send.
  if (endpoint->IsUp()) {
    endpoint->OnMessage(msg);
    counters_.delivered.fetch_add(1, std::memory_order_relaxed);
  } else {
    counters_.dropped.fetch_add(1, std::memory_order_relaxed);
  }
  ReleasePayload(msg.payload);
}

}  // namespace tpc::runtime
