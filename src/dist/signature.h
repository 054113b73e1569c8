// Canonical hashing of source distributions, used by the plan-cache keys:
// two source lists describing the same multiset of ranks must hash alike
// regardless of the order they arrive in, and any single-rank difference
// should change the hash (to splitmix64 quality).
#pragma once

#include <cstdint>
#include <span>

#include "common/types.h"

namespace spb::dist {

/// Order-independent hash of a source multiset: the ranks are folded in
/// ascending order through a splitmix64 chain.  Every generator's output
/// is sorted already; any other list is hashed through a sorted copy.
/// Duplicate ranks (not produced by the generators, but accepted)
/// contribute per occurrence.
std::uint64_t source_multiset_hash(std::span<const Rank> sources);

/// Hash-chaining step shared by the signature scheme: mixes `value` into
/// `seed` with a splitmix64 round (not commutative — order matters, which
/// is exactly what the canonicalized callers want).
std::uint64_t hash_mix(std::uint64_t seed, std::uint64_t value);

}  // namespace spb::dist
