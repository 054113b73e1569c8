// A Frame is the slice of the machine an algorithm instance operates on: an
// ordered list of ranks viewed as an rows x cols logical grid, with the
// sources among them.  Whole-machine runs use one frame covering all p
// ranks; the partitioning algorithms (Part_*) run one broadcast per group,
// each on its own sub-frame.
#pragma once

#include <memory>
#include <vector>

#include "common/types.h"
#include "dist/grid.h"
#include "stop/problem.h"

namespace spb::stop {

/// Machine-dependent execution knobs algorithms honour (propagated from
/// machine::MachineConfig through Frame::whole into every sub-frame).
struct ExecutionHints {
  /// If > 0, the 2-Step broadcast phase pipelines in segments of this many
  /// bytes (vendor-tuned collectives); 0 = store-and-forward halving (the
  /// paper's own NX implementation).
  Bytes bcast_segment_bytes = 0;
};

class Frame {
 public:
  /// Whole-machine frame of a problem.
  static Frame whole(const Problem& pb);

  /// Sub-frame over an explicit rank list (row-major over rows x cols).
  /// `sources` must be a subset of `ranks`.
  static Frame sub(std::vector<Rank> ranks, int rows, int cols,
                   std::vector<Rank> sources, Bytes message_bytes,
                   ExecutionHints hints = {});

  int size() const { return static_cast<int>(ranks_->size()); }
  int rows() const { return rows_; }
  int cols() const { return cols_; }
  dist::Grid grid() const { return {rows_, cols_}; }
  Bytes message_bytes() const { return message_bytes_; }
  const ExecutionHints& hints() const { return hints_; }

  /// Row-major rank list; position i sits at grid cell (i/cols, i%cols).
  const std::shared_ptr<const std::vector<Rank>>& ranks() const {
    return ranks_;
  }
  Rank rank_at(int pos) const { return (*ranks_)[static_cast<std::size_t>(pos)]; }

  /// Position of a rank inside the frame (throws if absent).
  int position_of(Rank r) const;
  bool contains(Rank r) const;

  /// Sorted global source ranks inside this frame.
  const std::vector<Rank>& sources() const { return sources_; }
  /// Activity flags indexed by frame position.
  std::vector<char> active_flags() const;

  /// Sources per grid row / column (frame-local coordinates).
  std::vector<int> row_source_counts() const;
  std::vector<int> col_source_counts() const;

 private:
  std::shared_ptr<const std::vector<Rank>> ranks_;
  /// Position of each rank, indexed by rank (-1 for non-members); shared
  /// like ranks_, so copying a frame into a program factory copies no
  /// index.
  std::shared_ptr<const std::vector<int>> position_;
  int rows_ = 1;
  int cols_ = 1;
  std::vector<Rank> sources_;
  Bytes message_bytes_ = 0;
  ExecutionHints hints_;
};

}  // namespace spb::stop
