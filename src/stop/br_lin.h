// Algorithm Br_Lin (paper Section 2): the frame's ranks form a (logical)
// linear array; recursive halving with message combining broadcasts all
// sources in ceil(log2 p) iterations.
#pragma once

#include "stop/algorithm.h"

namespace spb::stop {

class BrLin final : public Algorithm {
 public:
  std::string name() const override { return "Br_Lin"; }
  ProgramFactory prepare(const Frame& frame) const override;
};

/// The paper's aside made concrete: "When the underlying architecture is
/// a mesh, the indexing may correspond to a snake-like row-major
/// indexing" — the same halving pattern over the boustrophedon order, so
/// consecutive linear positions are always physical mesh neighbours.
/// The figure table's abl_snake entry compares it against the plain
/// row-major order.
class BrLinSnake final : public Algorithm {
 public:
  std::string name() const override { return "Br_Lin_snake"; }
  ProgramFactory prepare(const Frame& frame) const override;
};

AlgorithmPtr make_br_lin_snake();

}  // namespace spb::stop
