#include "plan/sharded_cache.h"

#include <condition_variable>

#include "common/check.h"

namespace spb::plan {

/// One requester computes; everyone else arriving before the plan lands in
/// the LRU waits here.  Owned via shared_ptr so a waiter's handle stays
/// valid after the shard erases the in-flight entry.
struct ShardedPlanCache::InFlight {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool failed = false;
  std::string error;
  std::shared_ptr<const Plan> plan;
};

struct ShardedPlanCache::Shard {
  using LruList = std::list<std::pair<std::uint64_t, std::shared_ptr<const Plan>>>;

  mutable std::mutex mu;
  LruList lru;  // front = most recent
  std::unordered_map<std::uint64_t, LruList::iterator> index;
  std::unordered_map<std::uint64_t, std::shared_ptr<InFlight>> inflight;
  CacheStats stats;
};

ShardedPlanCache::~ShardedPlanCache() = default;

ShardedPlanCache::ShardedPlanCache(std::size_t capacity, std::size_t shards) {
  SPB_REQUIRE(capacity >= 1, "plan cache needs capacity >= 1");
  SPB_REQUIRE(shards >= 1, "plan cache needs at least one shard");
  per_shard_capacity_ = (capacity + shards - 1) / shards;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

Plan ShardedPlanCache::plan(const Planner& planner,
                            const std::vector<Rank>& sources,
                            Bytes message_bytes, const std::string& dist_kind,
                            const std::string& context) {
  const Signature sig = make_signature(planner.machine(), sources,
                                       message_bytes, dist_kind, context);
  return plan(sig, [&] {
    return planner.plan(sources, message_bytes, dist_kind, context);
  });
}

Plan ShardedPlanCache::plan(const Signature& sig,
                            const std::function<Plan()>& compute) {
  return *plan_shared(sig, compute);
}

std::shared_ptr<const Plan> ShardedPlanCache::plan_shared(
    const Signature& sig, ComputeRef compute) {
  const std::uint64_t key = sig.key();
  Shard& sh = *shards_[shard_of(key)];

  std::shared_ptr<InFlight> flight;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    const auto it = sh.index.find(key);
    if (it != sh.index.end()) {
      ++sh.stats.hits;
      sh.lru.splice(sh.lru.begin(), sh.lru, it->second);  // refresh recency
      return it->second->second;
    }
    const auto in = sh.inflight.find(key);
    if (in != sh.inflight.end()) {
      // Coalesce: someone is already planning this signature.
      ++sh.stats.hits;
      ++sh.stats.coalesced;
      flight = in->second;
    } else {
      // We plan; exactly one miss per in-flight group, by construction.
      ++sh.stats.misses;
      flight = std::make_shared<InFlight>();
      sh.inflight.emplace(key, flight);
      owner = true;
    }
  }

  if (!owner) {
    std::unique_lock<std::mutex> wait_lock(flight->mu);
    flight->cv.wait(wait_lock, [&] { return flight->done; });
    if (flight->failed)
      throw CheckError("coalesced plan failed: " + flight->error);
    return flight->plan;
  }

  // Owner path: plan outside every lock, publish, wake the waiters.
  std::shared_ptr<const Plan> fresh;
  try {
    fresh = std::make_shared<const Plan>(compute());
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> lock(sh.mu);
      sh.inflight.erase(key);
    }
    {
      std::lock_guard<std::mutex> flight_lock(flight->mu);
      flight->failed = true;
      flight->error = e.what();
      flight->done = true;
    }
    flight->cv.notify_all();
    throw;
  }

  {
    std::lock_guard<std::mutex> lock(sh.mu);
    sh.inflight.erase(key);
    sh.lru.emplace_front(key, fresh);
    sh.index.emplace(key, sh.lru.begin());
    while (sh.lru.size() > per_shard_capacity_) {
      sh.index.erase(sh.lru.back().first);
      sh.lru.pop_back();
      ++sh.stats.evictions;
    }
  }
  {
    std::lock_guard<std::mutex> flight_lock(flight->mu);
    flight->plan = std::move(fresh);
    flight->done = true;
  }
  flight->cv.notify_all();
  return flight->plan;
}

bool ShardedPlanCache::peek(const Signature& sig, Plan& out) const {
  const std::uint64_t key = sig.key();
  const Shard& sh = *shards_[shard_of(key)];
  std::lock_guard<std::mutex> lock(sh.mu);
  const auto it = sh.index.find(key);
  if (it == sh.index.end()) return false;
  out = *it->second->second;
  return true;
}

CacheStats ShardedPlanCache::stats() const {
  CacheStats total;
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->mu);
    total += sh->stats;
  }
  return total;
}

std::vector<CacheStats> ShardedPlanCache::shard_stats() const {
  std::vector<CacheStats> per;
  per.reserve(shards_.size());
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->mu);
    per.push_back(sh->stats);
  }
  return per;
}

std::size_t ShardedPlanCache::size() const {
  std::size_t total = 0;
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->mu);
    total += sh->lru.size();
  }
  return total;
}

std::size_t ShardedPlanCache::shard_size(std::size_t shard) const {
  SPB_REQUIRE(shard < shards_.size(), "shard index out of range");
  const Shard& sh = *shards_[shard];
  std::lock_guard<std::mutex> lock(sh.mu);
  return sh.lru.size();
}

void ShardedPlanCache::clear() {
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->mu);
    sh->lru.clear();
    sh->index.clear();
    sh->stats = CacheStats{};
    // In-flight plans are left alone: their owners still hold references
    // and will publish into the (now empty) shard when they finish.
  }
}

}  // namespace spb::plan
