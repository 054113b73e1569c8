// Extension (beyond the paper): Allgatherv_RD — the recursive
// halving/doubling allgatherv that modern MPI implementations use for the
// s-to-p pattern.  Structurally it is Br_Lin's merge pattern, but each
// received block lands at its pre-computed offset in the result buffer
// (gatherv semantics), so there is no combining cost.  The figure table's
// ext_modern_mpi entry uses it to show why MPI collectives absorbed this
// problem: the combining cost was the only thing separating Br_Lin from a
// vendor-grade collective.
#pragma once

#include "stop/algorithm.h"

namespace spb::stop {

class AllgathervRd final : public Algorithm {
 public:
  std::string name() const override { return "Allgatherv_RD"; }
  bool mpi_flavored() const override { return true; }
  ProgramFactory prepare(const Frame& frame) const override;
};

/// Registry factory (listed by all_algorithms()).
AlgorithmPtr make_allgatherv_rd();

}  // namespace spb::stop
