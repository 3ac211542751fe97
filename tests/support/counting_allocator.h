// Counting allocator for the zero-allocation tests. Linking
// counting_allocator.cc into a test binary replaces the global operator
// new/delete with malloc/free wrappers that count every allocation; a test
// reads the count across a warmed-up region. The replacements live in their
// own translation unit so the compiler never sees a test's `delete` paired
// with the `free` behind it.

#ifndef TPC_TESTS_SUPPORT_COUNTING_ALLOCATOR_H_
#define TPC_TESTS_SUPPORT_COUNTING_ALLOCATOR_H_

#include <cstdint>

namespace tpc::test_support {

/// Heap allocations made through the global operator new so far.
uint64_t AllocationCount();

}  // namespace tpc::test_support

#endif  // TPC_TESTS_SUPPORT_COUNTING_ALLOCATOR_H_
