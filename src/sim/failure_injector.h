// Failure injection. Protocol code is instrumented with named *crash points*
// (e.g. "sub.after_prepared_force"); a test or bench arms triggers that crash
// a specific node the Nth time it reaches a point. Timed crashes, delayed
// restarts, and scheduled link flaps are supported via the event queue.
//
// Hot-path design: (node, point) pairs are interned to dense uint32 ids and
// the per-pair state (hit counters, armed flag) lives in flat per-node
// vectors, so an unarmed CrashPoint() is two array indexes and two counter
// increments — no string building, no hashing, no allocation. Instrumented
// components intern their node name and point names once at construction and
// report hits by id; the string overloads remain for tests and scripts.
//
// Occurrence counting is per *node epoch*: a node's epoch counters reset
// every time it crashes, so "crash the first time this point is reached
// after recovery" (double-failure schedules) is expressible by arming a
// trigger for a later epoch. hits() keeps whole-simulation totals.

#ifndef TPC_SIM_FAILURE_INJECTOR_H_
#define TPC_SIM_FAILURE_INJECTOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.h"
#include "util/interner.h"

namespace tpc::sim {

/// Decides when nodes crash. The harness registers a crash callback per node;
/// protocol code reports crash points; armed triggers fire the callback.
class FailureInjector {
 public:
  using CrashFn = std::function<void()>;
  /// Installed by the harness to flip a named link up/down (flap schedules).
  using LinkFn =
      std::function<void(const std::string& a, const std::string& b, bool down)>;

  /// Matches a trigger against any node epoch (the default).
  static constexpr int kAnyEpoch = -1;

  /// `events` enables the Schedule* entry points; a null injector still
  /// supports crash points (unit tests construct it bare).
  explicit FailureInjector(EventQueue* events = nullptr) : events_(events) {}

  /// Registers the functions that crash (and optionally restart) `node`.
  /// Re-registering overwrites the previous callbacks, so a harness rebuilt
  /// on a reused injector never leaves dangling closures behind.
  void RegisterNode(const std::string& node, CrashFn crash,
                    CrashFn restart = nullptr);

  /// Arms a trigger: crash `node` on the `occurrence`-th (1-based) time it
  /// reaches crash point `point` within node epoch `epoch` (0 = before the
  /// first crash, 1 = after the first recovery, ...; kAnyEpoch matches the
  /// current epoch's count whatever the epoch is).
  void ArmCrash(const std::string& node, const std::string& point,
                int occurrence = 1, int epoch = kAnyEpoch);

  // --- interning surface ----------------------------------------------------

  /// Dense id for `node`, assigning one on first sight. Interning does not
  /// register: instrumented components intern before the harness attaches.
  uint32_t InternNode(const std::string& node);
  /// Dense id for a crash-point name.
  uint32_t InternPoint(const std::string& point);

  /// Reached by protocol code (hot path: callers pass pre-interned ids).
  /// Fires an armed trigger if one matches. Returns true if the node
  /// crashed (caller must stop touching state).
  bool CrashPoint(uint32_t node, uint32_t point);

  /// By-name compatibility entry (tests, scripts): interns and forwards.
  bool CrashPoint(const std::string& node, const std::string& point);

  /// Crashes `node` immediately and starts its next epoch.
  void CrashNow(const std::string& node);

  /// Restarts `node` via its registered restart callback (if any).
  void RestartNow(const std::string& node);

  /// Schedules a crash / a restart through the event queue.
  void ScheduleCrash(const std::string& node, Time at);
  void ScheduleRestartAfter(const std::string& node, Time delay);

  // --- link faults ----------------------------------------------------------

  /// Installs the link controller (the harness wires it to the network).
  void SetLinkController(LinkFn fn) { link_fn_ = std::move(fn); }

  /// Schedules one flap of the (a, b) link: down at `down_at`, back up at
  /// `up_at`. Requires a link controller and an event queue.
  void ScheduleLinkFlap(const std::string& a, const std::string& b,
                        Time down_at, Time up_at);

  // --- introspection --------------------------------------------------------

  /// Crash-point hits observed over the whole simulation (armed or not).
  uint64_t hits(const std::string& node, const std::string& point) const;

  /// Hits within the node's current epoch (what triggers match against).
  uint64_t epoch_hits(const std::string& node, const std::string& point) const;

  /// The node's current epoch (number of crashes so far).
  int node_epoch(const std::string& node) const;

  /// Removes every armed trigger but keeps registrations, counters, and
  /// epochs: the torture oracle disarms before its restart passes so a
  /// pending trigger cannot fire mid-audit.
  void DisarmAll();

  /// Removes all armed triggers, counters, epochs, and node registrations
  /// (interned ids remain valid). Safe to call between harness rebuilds.
  void Reset();

 private:
  struct Trigger {
    int occurrence;
    int epoch;  ///< kAnyEpoch or a specific node epoch
    bool fired = false;
  };
  /// Flat per-(node, point) cell.
  struct PointState {
    uint64_t total_hits = 0;  ///< whole simulation
    uint64_t epoch_hits = 0;  ///< reset when the node crashes
    bool armed = false;       ///< any trigger targets this cell
  };
  struct NodeState {
    CrashFn crash;
    CrashFn restart;
    int epoch = 0;
  };

  static uint64_t PairKey(uint32_t node, uint32_t point) {
    return (static_cast<uint64_t>(node) << 32) | point;
  }
  PointState& Cell(uint32_t node, uint32_t point);
  /// The (node, point) cell by name, or nullptr if never touched.
  const PointState* FindCell(const std::string& node,
                             const std::string& point) const;
  void CrashNode(uint32_t node);

  EventQueue* events_;
  LinkFn link_fn_;

  StringInterner node_ids_;
  StringInterner point_ids_;

  std::vector<NodeState> nodes_;                 // indexed by node id
  std::vector<std::vector<PointState>> cells_;   // [node id][point id]
  std::unordered_map<uint64_t, std::vector<Trigger>> triggers_;
};

}  // namespace tpc::sim

#endif  // TPC_SIM_FAILURE_INJECTOR_H_
