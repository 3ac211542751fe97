// Discrete-event simulation kernel: a simulated clock and an event queue.
//
// All activity in the simulated cluster (message delivery, log-device I/O
// completion, timer pops) is an event scheduled at a simulated time. The
// kernel is single-threaded and fully deterministic: ties are broken by
// schedule order.
//
// Hot-path design:
//   - Handlers live in a slab indexed by a 32-bit slot carried inside the
//     queue entry, so dispatch performs zero hash lookups, and closures that
//     fit InlineFunction's buffer are scheduled without heap allocation.
//   - Events within the near horizon (16.4ms of simulated time — message
//     deliveries, log-device completions) go into a timing wheel with one
//     FIFO bucket per simulated microsecond: O(1) schedule and pop. Far
//     events (timeouts, think timers) go to an overflow 4-ary min-heap and
//     migrate into the wheel when the clock approaches them.
//   - Cancel() marks the slot as a tombstone (O(1)); tombstones are
//     reclaimed lazily when reached, and storage is compacted when they
//     outnumber live events, keeping Cancel O(log n) amortized and fixing
//     the seed's leak of cancelled far-future entries.
//
// Ordering invariant: execution order is exactly ascending (at, seq), where
// seq is schedule order — identical to a single global priority queue, so
// run order is bit-for-bit reproducible.

#ifndef TPC_SIM_EVENT_QUEUE_H_
#define TPC_SIM_EVENT_QUEUE_H_

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/inline_function.h"
#include "util/logging.h"

namespace tpc::sim {

/// Simulated time in microseconds.
using Time = int64_t;

constexpr Time kMicrosecond = 1;
constexpr Time kMillisecond = 1000;
constexpr Time kSecond = 1000 * 1000;

/// Handle used to cancel a scheduled event. Encodes (generation, slot) so a
/// stale handle can never cancel an unrelated later event that reused the
/// same slab slot. Never 0: generation 0 is skipped when it wraps, so id 0
/// can mean "unarmed" (runtime::Timer).
using EventId = uint64_t;

/// The simulation event loop.
class EventQueue {
 public:
  /// Event handler. The 48-byte buffer covers every hot-path closure in the
  /// system (a network delivery captures 32 bytes: the network pointer and
  /// the message; a std::function fits). Step and Run move a handler out of
  /// its slot before invoking it, so captures outlive reentrant scheduling.
  using Callback = InlineFunction<48>;

  EventQueue();

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedules `fn` to run at absolute simulated time `at` (>= now()).
  /// Events scheduled for the same instant run in schedule order. Templated
  /// so the closure is constructed directly in its slab slot.
  template <typename F>
  EventId ScheduleAt(Time at, F&& fn) {
    TPC_CHECK(at >= now_);
    const uint32_t slot = AllocSlot();
    Slot& s = slots_[slot];
    if (++s.gen == 0) s.gen = 1;
    s.fn.emplace(std::forward<F>(fn));
    s.armed = true;
    ++live_;
    const EventId id = (static_cast<EventId>(s.gen) << 32) | slot;
    Push(at, slot, s.gen);
    return id;
  }

  /// Schedules `fn` to run `delay` after now().
  template <typename F>
  EventId ScheduleAfter(Time delay, F&& fn) {
    return ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  /// Cancels a pending event. Returns false if it already ran or was
  /// cancelled before.
  bool Cancel(EventId id);

  /// Runs a single event; returns false when the queue is empty.
  bool Step();

  /// Runs until the queue drains or `max_events` have run.
  /// Returns the number of events executed.
  uint64_t Run(uint64_t max_events = UINT64_MAX);

  /// Runs events with time <= t, then sets now() to t.
  uint64_t RunUntil(Time t);

  /// Number of pending (non-cancelled) events.
  size_t pending() const { return live_; }

  /// Stored entries including not-yet-reclaimed cancellation tombstones.
  /// Bounded: compaction keeps far-future tombstones <= max(live, a small
  /// constant), so cancelled timers cannot leak.
  size_t queued() const { return wheel_count_ + heap_.size(); }

  /// Total events executed over this queue's lifetime.
  uint64_t executed() const { return executed_; }

 private:
  static constexpr size_t kWheelBits = 14;  // 16384us near horizon
  static constexpr size_t kWheelSize = size_t{1} << kWheelBits;
  static constexpr size_t kWheelMask = kWheelSize - 1;
  static constexpr size_t kBitmapWords = kWheelSize / 64;

  struct Slot {
    Callback fn;
    uint32_t gen = 0;    // bumped on every (re)allocation; never 0 once used
    bool armed = false;  // scheduled and not cancelled
  };

  /// Wheel bucket entry. The event time is implied by the bucket (one
  /// bucket per microsecond within the horizon) and FIFO order within a
  /// bucket is schedule order, so neither needs storing.
  struct WheelEntry {
    uint32_t slot;
    uint32_t gen;
  };

  /// Overflow heap entry for events beyond the wheel horizon.
  struct Entry {
    Time at;
    uint64_t seq;  // tie-breaker: FIFO within an instant
    uint32_t slot;
    uint32_t gen;
  };

  static bool Before(const Entry& x, const Entry& y) {
    return x.at != y.at ? x.at < y.at : x.seq < y.seq;
  }

  uint32_t AllocSlot();
  void Push(Time at, uint32_t slot, uint32_t gen);
  /// Finds the next live event (purging tombstones on the way) and leaves
  /// the cursor on it. False when the queue holds no live events.
  bool NextLiveTime(Time* at);
  /// Moves the wheel window to start at `base` (wheel must be empty) and
  /// migrates overflow events inside the new horizon into buckets.
  void AdvanceWheelTo(Time base);
  void Compact();

  // 4-ary overflow-heap primitives.
  void SiftUp(size_t i);
  void SiftDown(size_t i);
  void PopHeapTop();

  void SetBit(size_t i) { occupied_[i >> 6] |= uint64_t{1} << (i & 63); }
  void ClearBit(size_t i) { occupied_[i >> 6] &= ~(uint64_t{1} << (i & 63)); }
  /// First occupied bucket index scanning circularly from `idx`, or
  /// kWheelSize when the wheel is empty.
  size_t ScanFrom(size_t idx) const;

  Time now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  size_t live_ = 0;        // armed events
  size_t tombstones_ = 0;  // cancelled entries still stored
  size_t wheel_count_ = 0; // entries in wheel buckets (incl. tombstones)

  // Timing wheel covering [wheel_base_, wheel_base_ + kWheelSize).
  // Invariant: wheel_base_ <= now(), and the overflow heap only holds
  // events with at >= wheel_base_ + kWheelSize.
  Time wheel_base_ = 0;
  Time cursor_time_ = 0;   // scan position; buckets before it are empty
  size_t bucket_pos_ = 0;  // consumed prefix of the cursor's bucket
  std::vector<std::vector<WheelEntry>> wheel_;
  std::array<uint64_t, kBitmapWords> occupied_{};

  std::vector<Entry> heap_;  // 4-ary min-heap of far-future events
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;
};

}  // namespace tpc::sim

#endif  // TPC_SIM_EVENT_QUEUE_H_
