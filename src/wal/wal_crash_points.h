// Crash points instrumenting the WAL group-commit pipeline.
//
// Naming follows src/tm/crash_points.h (`role.point_name` with role `wal.`).
// WAL points fire only from *asynchronous* flush contexts — the group
// timer's pop and pipelining's submit-on-completion — never synchronously
// under `Append`/`RequestForce`. TM and RM call sites touch transaction
// state after Append returns, so a synchronous crash there would corrupt
// the very state recovery audits; the async-only rule keeps every WAL crash
// a clean "node dies between events" cut, matching the torture oracle's
// model.
//
// Windows covered:
//   before/after_flush_submit   — around handing a flush to the log device
//                                 (the in-flight-write-lost window)

#ifndef TPC_WAL_WAL_CRASH_POINTS_H_
#define TPC_WAL_WAL_CRASH_POINTS_H_

#include <cstddef>

namespace tpc::wal {

enum class WalCrashPt : unsigned {
  kBeforeFlushSubmit = 0,
  kAfterFlushSubmit,
  kCount
};

inline constexpr const char* kWalCrashPoints[] = {
    "wal.before_flush_submit",
    "wal.after_flush_submit",
};
inline constexpr size_t kWalCrashPointCount =
    sizeof(kWalCrashPoints) / sizeof(kWalCrashPoints[0]);
static_assert(kWalCrashPointCount == static_cast<size_t>(WalCrashPt::kCount));

inline const char* WalCrashPointName(WalCrashPt p) {
  return kWalCrashPoints[static_cast<size_t>(p)];
}

}  // namespace tpc::wal

#endif  // TPC_WAL_WAL_CRASH_POINTS_H_
