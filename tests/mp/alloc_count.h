// Heap-allocation counting for test_mp: alloc_count.cpp replaces the
// global operator new of the whole binary, so a test can prove that an
// operation allocates nothing (or a fixed amount), or bound its bytes.
#pragma once

#include <cstddef>

namespace spb::test {

/// Heap allocations made by the calling thread so far.
std::size_t allocations_here();

/// Bytes requested by those allocations (frees are not subtracted).
std::size_t bytes_allocated_here();

}  // namespace spb::test
