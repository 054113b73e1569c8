// Heap-allocation counting for test_mp, test_coll and test_serve:
// alloc_count.cpp replaces the global operator new of the whole binary, so
// a test can prove that an operation allocates nothing (or a fixed
// amount), or bound its bytes.
#pragma once

#include <cstddef>

namespace spb::test {

/// Heap allocations made by the calling thread so far.
std::size_t allocations_here();

/// Bytes requested by those allocations (frees are not subtracted).
std::size_t bytes_allocated_here();

/// Heap allocations made by every thread of the process so far.
std::size_t allocations_in_process();

}  // namespace spb::test
