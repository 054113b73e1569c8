// The plan cache: canonical-signature -> Plan, bounded LRU, sharded, with
// request coalescing and hit / miss / eviction statistics.  It is the
// concurrent heart of the serving layer (src/serve); with one shard it is
// the single-lock cache of the CLI tools (spb_plan, ext_planner).
//
// The signature key space is split over N independent shards (key % N),
// each shard a bounded LRU behind its own mutex, so lookups for different
// signatures contend only when they hash to the same shard.  Statistics
// are kept per shard and aggregated on demand; `stats()` is always the
// exact field-wise sum of `shard_stats()` (the hammer test pins this).
//
// A miss *coalesces*: the first requester of a signature registers an
// in-flight entry and computes the plan outside every lock; concurrent
// requesters for the same signature wait on that entry instead of planning
// again.  Consequences, all load-bearing for the serve layer:
//   * the planner runs exactly once per distinct in-flight signature, so
//     `misses` counts planner invocations exactly (one per group — the
//     PR-5 "double plan on a miss" race counted each racer as a miss);
//   * waiters are accounted as hits (they were served from cache work they
//     did not do) and additionally counted in `coalesced`;
//   * with capacity >= the working set, hits/misses/evictions are a pure
//     function of the request multiset — independent of thread count and
//     interleaving — which is what makes the serve stats deterministic.
//     `coalesced` alone depends on timing (how many requesters overlapped)
//     and is therefore excluded from deterministic serve reports.
//
// Eviction is per shard: total capacity is divided evenly and a shard
// evicts its own LRU tail, so a hot shard cannot evict a cold shard's
// entries.  With shards = 1 there is one global LRU order behind one
// mutex.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "plan/planner.h"

namespace spb::plan {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Lookups served by waiting on another requester's in-flight plan
  /// (a subset of `hits`; timing-dependent, unlike the other fields).
  std::uint64_t coalesced = 0;

  std::uint64_t lookups() const { return hits + misses; }
  double hit_rate() const {
    return lookups() == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(lookups());
  }

  CacheStats& operator+=(const CacheStats& o) {
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    coalesced += o.coalesced;
    return *this;
  }
};

/// A non-owning reference to a `Plan()` callable: plan_shared() takes its
/// compute step through one, so a hit builds no std::function (a lambda
/// capturing four references outgrows std::function's inline buffer, and
/// every call allocated).  The callable must outlive the call it is passed
/// to, as a lambda written in the argument list does.
class ComputeRef {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, ComputeRef> &&
             std::is_invocable_r_v<Plan, F&>)
  ComputeRef(F&& compute)  // NOLINT(google-explicit-constructor)
      : callable_(const_cast<void*>(
            static_cast<const void*>(std::addressof(compute)))),
        call_([](void* callable) -> Plan {
          return (*static_cast<std::remove_reference_t<F>*>(callable))();
        }) {}

  Plan operator()() const { return call_(callable_); }

 private:
  void* callable_;
  Plan (*call_)(void*);
};

class ShardedPlanCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 1024;
  static constexpr std::size_t kDefaultShards = 8;

  /// `capacity` is the total entry budget, divided evenly over `shards`
  /// (each shard gets at least one slot, so the effective capacity is
  /// max(shards, capacity) rounded up to a multiple of shards).
  explicit ShardedPlanCache(std::size_t capacity = kDefaultCapacity,
                            std::size_t shards = kDefaultShards);
  ~ShardedPlanCache();  // out of line: Shard is incomplete here

  /// The cached plan for the request's signature, planning through
  /// `planner` on a miss.  Returns by value: the caller's copy stays valid
  /// across later evictions and concurrent lookups.
  Plan plan(const Planner& planner, const std::vector<Rank>& sources,
            Bytes message_bytes, const std::string& dist_kind = "",
            const std::string& context = "");

  /// Coalescing core: on a miss, `compute` runs exactly once per in-flight
  /// group for `sig` (outside every cache lock); concurrent callers with
  /// the same signature wait for its result.  If `compute` throws, the
  /// owner rethrows and waiters receive a CheckError carrying its message.
  Plan plan(const Signature& sig, const std::function<Plan()>& compute);

  /// plan() without the copy: the serve hot path shares the cached entry
  /// (immutable once published; the pointer stays valid across evictions).
  std::shared_ptr<const Plan> plan_shared(const Signature& sig,
                                          ComputeRef compute);

  /// Cached lookup without planning: true and fills `out` on a hit (does
  /// not count toward the statistics and never waits on in-flight plans).
  bool peek(const Signature& sig, Plan& out) const;

  /// Aggregate statistics: the exact field-wise sum over all shards.
  CacheStats stats() const;
  /// Per-shard statistics, indexed by shard id.
  std::vector<CacheStats> shard_stats() const;

  std::size_t size() const;
  std::size_t shard_size(std::size_t shard) const;
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t capacity() const {
    return per_shard_capacity_ * shards_.size();
  }
  void clear();

  /// The shard a key maps to (exposed so tests can build per-shard
  /// workloads deliberately).
  std::size_t shard_of(std::uint64_t key) const {
    return static_cast<std::size_t>(key % shards_.size());
  }

 private:
  struct InFlight;
  struct Shard;

  std::size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace spb::plan
