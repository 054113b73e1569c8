// The approach the paper dismisses in Section 2: "allow each source
// processor to initiate its own 1-to-p broadcast, independent of the
// location and number of source processors.  Such a solution seems
// attractive for dynamic broadcasting situations since it does not
// require synchronization ... However, having the s broadcasting
// processes take place without interaction and coordination leads to poor
// performance due to arising congestion and the large number of messages
// in the system."
//
// Implemented faithfully: every source roots its own halving broadcast
// tree; messages are never combined; each rank forwards whatever tree
// traffic arrives (trees are told apart by message tag).  s*(p-1)
// messages total versus the O(p log p) of the coordinated algorithms —
// the figure table's ext_uncoordinated entry measures where that bites.
#pragma once

#include "stop/algorithm.h"

namespace spb::stop {

class Uncoordinated final : public Algorithm {
 public:
  std::string name() const override { return "Uncoord_1toAll"; }
  ProgramFactory prepare(const Frame& frame) const override;
};

AlgorithmPtr make_uncoordinated();

}  // namespace spb::stop
