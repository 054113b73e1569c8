#include "alloc_count.h"

#include <cstdlib>
#include <new>

namespace {
thread_local std::size_t allocations = 0;
thread_local std::size_t bytes = 0;
}  // namespace

// Out of line, so the compiler never pairs an inlined free() with a new
// expression (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++allocations;
  bytes += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace spb::test {

std::size_t allocations_here() { return allocations; }

std::size_t bytes_allocated_here() { return bytes; }

}  // namespace spb::test
