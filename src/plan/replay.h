// The seeded replay stream: a mixed stream of plan requests that exercises
// the plan cache — plan once, execute many.  spb_plan --replay plans it
// through a one-shard cache; spb_serve --demo and bench/ext_serve send it
// over the serve wire protocol.
//
// 32 templates are drawn once from a generator seeded
// seed ^ 0x9e3779b97f4a7c15: a distribution, a source count among p/8,
// p/4, 3p/8 and p/2, a length among 512 B, 1 KB, 6 KB and 32 KB, and a
// distribution seed 1..4.  Each request picks a template with a generator
// seeded `seed` and jitters its length inside the length's power-of-two
// bucket, so exact lengths vary and signatures do not.  N requests over 32
// templates keep the steady-state hit rate high without hand-tuning.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "dist/distribution.h"

namespace spb::plan {

struct ReplayRequest {
  dist::Kind kind = dist::Kind::kEqual;
  int sources = 1;
  Bytes len = 0;
  std::uint64_t dist_seed = 1;
};

class ReplayStream {
 public:
  /// The stream `seed` for a machine of `p` processors.
  ReplayStream(int p, std::uint64_t seed);

  ReplayRequest next();

 private:
  std::vector<ReplayRequest> pool_;  // the templates, lengths unjittered
  Rng rng_;
};

/// `r` as a plan request line of the serve wire protocol.
std::string wire_line(const ReplayRequest& r);

}  // namespace spb::plan
