#include "stop/uncoordinated.h"

#include <memory>
#include <utility>
#include <vector>

#include "coll/pipeline.h"
#include "common/check.h"

namespace spb::stop {

namespace {

/// Message tags distinguish the independent trees; clear of the reserved
/// phase tags in mp/message.h.
constexpr int kTreeTagBase = 8;

struct UncoordPlan {
  std::shared_ptr<const std::vector<Rank>> seq;
  /// One broadcast tree per source, rooted at the source's position.
  std::vector<coll::BcastTree> trees;
  /// sources[i] matches trees[i].
  std::vector<Rank> sources;
};

sim::Task uncoord_program(mp::Comm& comm, mp::Payload& data,
                          std::shared_ptr<const UncoordPlan> plan,
                          int my_pos) {
  const int s = static_cast<int>(plan->trees.size());
  comm.begin_phase("flood");

  // Kick off my own tree, if I am a source (my payload is my original).
  int expected = s;
  for (int i = 0; i < s; ++i) {
    if (plan->sources[static_cast<std::size_t>(i)] != comm.rank()) continue;
    --expected;
    const mp::Payload original = data;
    for (const int child :
         plan->trees[static_cast<std::size_t>(i)].children(my_pos)) {
      co_await comm.send((*plan->seq)[static_cast<std::size_t>(child)],
                         original, kTreeTagBase + i);
    }
    comm.mark_iteration();
  }

  // Forward-and-collect: every other tree delivers exactly one message
  // here; forward it down that tree, then keep the chunk.
  for (int k = 0; k < expected; ++k) {
    mp::Message m = co_await comm.recv(mp::kAnySource, mp::kAnyTag);
    const int tree = m.tag - kTreeTagBase;
    SPB_CHECK_MSG(tree >= 0 && tree < s,
                  "unexpected tag " << m.tag << " in uncoordinated bcast");
    for (const int child :
         plan->trees[static_cast<std::size_t>(tree)].children(my_pos)) {
      co_await comm.send((*plan->seq)[static_cast<std::size_t>(child)],
                         m.payload, m.tag);
    }
    // No combining: chunks are simply kept (gatherv-style placement).
    data.merge(m.payload);
    comm.mark_iteration();
  }
  comm.end_phase();
}

}  // namespace

ProgramFactory Uncoordinated::prepare(const Frame& frame) const {
  auto plan = std::make_shared<UncoordPlan>();
  plan->seq = frame.ranks();
  plan->sources = frame.sources();
  plan->trees.reserve(plan->sources.size());
  for (const Rank src : plan->sources)
    plan->trees.push_back(
        coll::BcastTree::from_halving(frame.size(), frame.position_of(src)));

  return [frame, plan](mp::Comm& comm, mp::Payload& data) {
    return uncoord_program(comm, data, plan,
                           frame.position_of(comm.rank()));
  };
}

AlgorithmPtr make_uncoordinated() {
  return std::make_shared<const Uncoordinated>();
}

}  // namespace spb::stop
