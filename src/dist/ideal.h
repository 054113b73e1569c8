// Ideal source distributions for the repositioning algorithms (paper
// Section 3).
//
// The paper observes that "the machine dimension effects the ideal
// distribution of sources" — e.g. R(20) on a 10x10 mesh is ideal with rows
// {0, 6} but not with rows {0, 5}, because rows 0 and 5 pair in Br_Lin's
// very first halving iteration and merge instead of spreading.  Rather
// than hard-coding patterns we *search* for ideal placements against the
// halving structure itself: a greedy construction adds one source at a
// time, maximizing the activity-growth profile (lexicographically), with
// ties broken towards the most spread-out placement (largest minimum
// distance — which also minimizes physical link contention on the mesh)
// and then the smallest index.  Results are memoized per (n, k).
#pragma once

#include <vector>

#include "common/types.h"
#include "dist/grid.h"

namespace spb::dist {

/// Greedy ideal placement of k sources on an n-position halving segment:
/// sorted positions such that the active set grows as fast as the merge
/// pattern allows (for k <= floor(n/2) it provably doubles every iteration
/// — the property tests assert this).  Memoized per process and safe to
/// call from any thread: a key's first caller searches it, concurrent
/// callers of the same key wait for that search, and other keys never do.
std::vector<int> ideal_positions(int n, int k);

/// Ideal placement of s sources for Br_Lin on the p-rank linear order.
std::vector<Rank> ideal_linear(const Grid& grid, int s);

/// Ideal placement for Br_xy_source: i = ceil(s/c) full rows (last
/// partial) at ideal_positions(rows, i), so the column phase doubles the
/// set of active rows every iteration.  Sorted.
std::vector<Rank> ideal_rows(const Grid& grid, int s);

/// Same construction along columns (used for Br_xy_dim when its fixed
/// dimension order makes columns the spreading dimension).
std::vector<Rank> ideal_cols(const Grid& grid, int s);

}  // namespace spb::dist
