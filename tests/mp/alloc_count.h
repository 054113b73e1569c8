// Heap-allocation counting for test_mp: alloc_count.cpp replaces the
// global operator new of the whole binary, so a test can prove that an
// operation allocates nothing (or a fixed amount).
#pragma once

#include <cstddef>

namespace spb::test {

/// Heap allocations made by the calling thread so far.
std::size_t allocations_here();

}  // namespace spb::test
