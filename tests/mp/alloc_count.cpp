#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
thread_local std::size_t allocations = 0;
thread_local std::size_t bytes = 0;
std::atomic<std::size_t> process_allocations{0};

void* counted_malloc(std::size_t n) noexcept {
  ++allocations;
  bytes += n;
  process_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

// Out of line, so the compiler never pairs an inlined free() with a new
// expression (-Wmismatched-new-delete).  The nothrow forms are replaced
// too (std::stable_sort's buffer uses them): every delete here frees with
// free(), so under AddressSanitizer every new must come from malloc().
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t n,
                                     const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace spb::test {

std::size_t allocations_here() { return allocations; }

std::size_t bytes_allocated_here() { return bytes; }

std::size_t allocations_in_process() {
  return process_allocations.load(std::memory_order_relaxed);
}

}  // namespace spb::test
