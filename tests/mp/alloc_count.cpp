#include "alloc_count.h"

#include <cstdlib>
#include <new>

namespace {
thread_local std::size_t allocations = 0;
}  // namespace

// Out of line, so the compiler never pairs an inlined free() with a new
// expression (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace spb::test {

std::size_t allocations_here() { return allocations; }

}  // namespace spb::test
