#include "support/counting_allocator.h"

#include <cstdlib>
#include <new>

namespace {
uint64_t g_alloc_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tpc::test_support {

uint64_t AllocationCount() { return g_alloc_count; }

}  // namespace tpc::test_support
