#include "sim/failure_injector.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace tpc::sim {

void FailureInjector::RegisterNode(const std::string& node, CrashFn crash,
                                   CrashFn restart) {
  NodeState& st = nodes_[InternNode(node)];
  st.crash = std::move(crash);
  st.restart = std::move(restart);
}

uint32_t FailureInjector::InternNode(const std::string& node) {
  const uint32_t id = node_ids_.Intern(node);
  if (id == nodes_.size()) {  // first sight
    nodes_.emplace_back();
    cells_.emplace_back();
  }
  return id;
}

uint32_t FailureInjector::InternPoint(const std::string& point) {
  return point_ids_.Intern(point);
}

FailureInjector::PointState& FailureInjector::Cell(uint32_t node,
                                                   uint32_t point) {
  TPC_CHECK(node < cells_.size());
  auto& per_node = cells_[node];
  if (point >= per_node.size()) {
    per_node.resize(std::max<size_t>(point_ids_.size(), point + 1));
  }
  return per_node[point];
}

void FailureInjector::ArmCrash(const std::string& node,
                               const std::string& point, int occurrence,
                               int epoch) {
  TPC_CHECK(occurrence >= 1);
  const uint32_t n = InternNode(node);
  const uint32_t p = InternPoint(point);
  Cell(n, p).armed = true;
  triggers_[PairKey(n, p)].push_back(Trigger{occurrence, epoch});
}

bool FailureInjector::CrashPoint(uint32_t node, uint32_t point) {
  TPC_CHECK(node < cells_.size());
  auto& per_node = cells_[node];
  if (point >= per_node.size()) {
    // First hit on a point interned after this node's row was last sized.
    per_node.resize(std::max<size_t>(point_ids_.size(), point + 1));
  }
  PointState& cell = per_node[point];
  ++cell.total_hits;
  const uint64_t count = ++cell.epoch_hits;
  if (!cell.armed) return false;

  auto it = triggers_.find(PairKey(node, point));
  if (it == triggers_.end()) return false;
  const int epoch = nodes_[node].epoch;
  for (auto& t : it->second) {
    if (t.fired) continue;
    if (t.epoch != kAnyEpoch && t.epoch != epoch) continue;
    if (count != static_cast<uint64_t>(t.occurrence)) continue;
    t.fired = true;
    CrashNode(node);
    return true;
  }
  return false;
}

bool FailureInjector::CrashPoint(const std::string& node,
                                 const std::string& point) {
  return CrashPoint(InternNode(node), InternPoint(point));
}

void FailureInjector::CrashNode(uint32_t node) {
  NodeState& st = nodes_[node];
  TPC_CHECK(st.crash != nullptr);
  st.crash();
  // New epoch: occurrence counters restart so triggers can target the
  // post-recovery lifetime of the node.
  ++st.epoch;
  for (PointState& cell : cells_[node]) cell.epoch_hits = 0;
}

void FailureInjector::CrashNow(const std::string& node) {
  const uint32_t n = node_ids_.Find(node);
  TPC_CHECK(n != StringInterner::kNotFound);
  CrashNode(n);
}

void FailureInjector::RestartNow(const std::string& node) {
  const uint32_t n = node_ids_.Find(node);
  TPC_CHECK(n != StringInterner::kNotFound);
  NodeState& st = nodes_[n];
  TPC_CHECK(st.restart != nullptr);
  st.restart();
}

void FailureInjector::ScheduleCrash(const std::string& node, Time at) {
  TPC_CHECK(events_ != nullptr);
  events_->ScheduleAt(at, [this, node] { CrashNow(node); });
}

void FailureInjector::ScheduleRestartAfter(const std::string& node,
                                           Time delay) {
  TPC_CHECK(events_ != nullptr);
  events_->ScheduleAfter(delay, [this, node] { RestartNow(node); });
}

void FailureInjector::ScheduleLinkFlap(const std::string& a,
                                       const std::string& b, Time down_at,
                                       Time up_at) {
  TPC_CHECK(events_ != nullptr);
  TPC_CHECK(link_fn_ != nullptr);
  TPC_CHECK(down_at <= up_at);
  events_->ScheduleAt(down_at, [this, a, b] { link_fn_(a, b, true); });
  events_->ScheduleAt(up_at, [this, a, b] { link_fn_(a, b, false); });
}

const FailureInjector::PointState* FailureInjector::FindCell(
    const std::string& node, const std::string& point) const {
  const uint32_t n = node_ids_.Find(node);
  const uint32_t p = point_ids_.Find(point);
  if (n == StringInterner::kNotFound || p == StringInterner::kNotFound)
    return nullptr;
  const auto& per_node = cells_[n];
  return p < per_node.size() ? &per_node[p] : nullptr;
}

uint64_t FailureInjector::hits(const std::string& node,
                               const std::string& point) const {
  const PointState* cell = FindCell(node, point);
  return cell == nullptr ? 0 : cell->total_hits;
}

uint64_t FailureInjector::epoch_hits(const std::string& node,
                                     const std::string& point) const {
  const PointState* cell = FindCell(node, point);
  return cell == nullptr ? 0 : cell->epoch_hits;
}

int FailureInjector::node_epoch(const std::string& node) const {
  const uint32_t n = node_ids_.Find(node);
  return n == StringInterner::kNotFound ? 0 : nodes_[n].epoch;
}

void FailureInjector::DisarmAll() {
  triggers_.clear();
  for (auto& per_node : cells_) {
    for (PointState& cell : per_node) cell.armed = false;
  }
}

void FailureInjector::Reset() {
  triggers_.clear();
  for (auto& per_node : cells_) {
    for (PointState& cell : per_node) cell = PointState{};
  }
  // Drop registrations too: an injector that outlives a harness must not
  // keep crash callbacks pointing into destroyed nodes. Interned ids stay
  // valid so components that cached them keep working after re-registration.
  for (NodeState& st : nodes_) st = NodeState{};
}

}  // namespace tpc::sim
