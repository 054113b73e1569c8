#include "analyze/mutate.h"

#include <sstream>

#include "common/check.h"
#include "common/rng.h"
#include "mp/mailbox.h"
#include "mp/message.h"

namespace spb::analyze {

namespace {

using mp::ScheduleOp;

/// A tag value no algorithm uses (tags are small non-negative ints).
constexpr int kBogusTag = 1 << 20;

int pick(const std::vector<int>& candidates, std::uint64_t seed,
         const char* what) {
  SPB_REQUIRE(!candidates.empty(),
              "schedule has no eligible op for a " << what << " mutation");
  Rng rng(seed);
  return candidates[static_cast<std::size_t>(
      rng.next_below(candidates.size()))];
}

}  // namespace

std::string mutation_name(Mutation m) {
  switch (m) {
    case Mutation::kDropSend: return "drop-send";
    case Mutation::kTagMismatch: return "tag-mismatch";
    case Mutation::kDuplicateChunk: return "dup-chunk";
    case Mutation::kCyclicWait: return "cyclic-wait";
  }
  return "?";
}

Mutation mutation_from_name(const std::string& name) {
  for (const Mutation m : all_mutations())
    if (mutation_name(m) == name) return m;
  SPB_REQUIRE(false, "unknown mutation '" << name
                                          << "' (drop-send, tag-mismatch, "
                                             "dup-chunk, cyclic-wait)");
  return Mutation::kDropSend;  // unreachable
}

const std::vector<Mutation>& all_mutations() {
  static const std::vector<Mutation> kAll{
      Mutation::kDropSend, Mutation::kTagMismatch, Mutation::kDuplicateChunk,
      Mutation::kCyclicWait};
  return kAll;
}

MutationResult apply_mutation(const mp::Schedule& schedule, Mutation m,
                              std::uint64_t seed) {
  const auto& ops = schedule.ops();
  std::vector<mp::OpDraft> mutated;
  mutated.reserve(ops.size());
  for (const ScheduleOp& op : ops) mutated.push_back(schedule.draft(op.id));
  MutationResult out;
  std::ostringstream desc;

  switch (m) {
    case Mutation::kDropSend: {
      std::vector<int> candidates;
      for (const ScheduleOp& op : ops)
        if (op.is_send() && op.match >= 0) candidates.push_back(op.id);
      const int id = pick(candidates, seed, "drop-send");
      out.target_op = id;
      desc << "dropped " << schedule.describe(schedule.op(id));
      mutated.erase(mutated.begin() + id);
      break;
    }
    case Mutation::kTagMismatch: {
      // Only a send consumed by a tag-pinned receive is a guaranteed bug:
      // an any-tag receive would legitimately accept the new tag.
      std::vector<int> candidates;
      for (const ScheduleOp& op : ops) {
        if (!op.is_send() || op.match < 0) continue;
        if (ops[static_cast<std::size_t>(op.match)].tag != mp::kAnyTag)
          candidates.push_back(op.id);
      }
      const int id = pick(candidates, seed, "tag-mismatch");
      out.target_op = id;
      desc << "retagged " << schedule.describe(schedule.op(id)) << " to tag "
           << kBogusTag;
      mutated[static_cast<std::size_t>(id)].tag = kBogusTag;
      break;
    }
    case Mutation::kDuplicateChunk: {
      std::vector<int> candidates;
      for (const ScheduleOp& op : ops)
        if (op.is_send() && op.chunk_count > 0)
          candidates.push_back(op.id);
      const int id = pick(candidates, seed, "dup-chunk");
      out.target_op = id;
      std::vector<Rank>& chunks =
          mutated[static_cast<std::size_t>(id)].chunk_sources;
      desc << "duplicated chunk of source " << chunks.front() << " inside "
           << schedule.describe(schedule.op(id));
      chunks.push_back(chunks.front());
      break;
    }
    case Mutation::kCyclicWait: {
      // A send s1 (A -> B) followed on A by a receive r1 whose matched
      // send s2 originates on B.  Moving r1 in front of s1 makes A wait
      // for B's send before B's matching receive r2 can be fed — and if
      // B issues s2 only after r2 (gather-then-broadcast style), the wait
      // r1 -> s2 -> r2 -> s1 -> r1 closes into a cycle.  When B instead
      // sends s2 first, r2 is moved in front of s2 as well.
      struct Candidate {
        int s1, r1, s2, r2;
      };
      std::vector<int> ids;
      std::vector<Candidate> cands;
      for (const ScheduleOp& s1 : ops) {
        if (!s1.is_send() || s1.match < 0) continue;
        const ScheduleOp& r2 = ops[static_cast<std::size_t>(s1.match)];
        const Rank b = r2.rank;
        if (b == s1.rank) continue;
        for (const ScheduleOp& r1 : ops) {
          if (!r1.is_recv() || r1.rank != s1.rank || r1.id <= s1.id ||
              r1.match < 0)
            continue;
          const ScheduleOp& s2 = ops[static_cast<std::size_t>(r1.match)];
          if (s2.rank != b) continue;
          ids.push_back(s1.id);
          cands.push_back({s1.id, r1.id, s2.id, r2.id});
          break;
        }
      }
      const int id = pick(ids, seed, "cyclic-wait");
      Candidate c{};
      for (std::size_t i = 0; i < ids.size(); ++i)
        if (ids[i] == id) c = cands[i];
      out.target_op = c.s1;

      // Reorder by original id within the op list; from_ops() rebuilds
      // per-rank program order from list order and remaps match edges by
      // the ops' id fields.
      auto move_before = [&mutated](int move_id, int before_id) {
        std::size_t from = 0, to = 0;
        for (std::size_t i = 0; i < mutated.size(); ++i) {
          if (mutated[i].id == move_id) from = i;
          if (mutated[i].id == before_id) to = i;
        }
        mp::OpDraft op = std::move(mutated[from]);
        mutated.erase(mutated.begin() + static_cast<std::ptrdiff_t>(from));
        if (from < to) --to;
        mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(to),
                       std::move(op));
      };
      move_before(c.r1, c.s1);
      if (c.s2 < c.r2) move_before(c.r2, c.s2);
      desc << "reordered " << schedule.describe(schedule.op(c.r1))
           << " ahead of " << schedule.describe(schedule.op(c.s1))
           << (c.s2 < c.r2 ? " (both exchange sides)" : "")
           << " to close a circular wait";
      break;
    }
  }

  out.schedule =
      mp::Schedule::from_ops(schedule.rank_count(), std::move(mutated));
  out.description = desc.str();
  return out;
}

}  // namespace spb::analyze
