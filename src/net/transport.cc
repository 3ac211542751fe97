#include "net/transport.h"

#include <utility>

namespace tpc::net {

Status Transport::SendLegacy(LegacyMessage msg) {
  Message out;
  out.from = IdOf(msg.from);
  out.to = IdOf(msg.to);
  out.kind = msg.kind;
  out.txn = msg.txn;
  if (!msg.payload.empty()) {
    out.payload = AcquirePayload();
    PayloadBuffer(out.payload).assign(msg.payload);
  }
  return Send(out);
}

}  // namespace tpc::net
