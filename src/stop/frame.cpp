#include "stop/frame.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/check.h"

namespace spb::stop {

Frame Frame::whole(const Problem& pb) {
  pb.validate();
  std::vector<Rank> ranks(static_cast<std::size_t>(pb.p()));
  std::iota(ranks.begin(), ranks.end(), 0);
  return sub(std::move(ranks), pb.machine.rows, pb.machine.cols, pb.sources,
             pb.message_bytes,
             ExecutionHints{pb.machine.bcast_segment_bytes});
}

Frame Frame::sub(std::vector<Rank> ranks, int rows, int cols,
                 std::vector<Rank> sources, Bytes message_bytes,
                 ExecutionHints hints) {
  SPB_REQUIRE(!ranks.empty(), "frame needs at least one rank");
  SPB_REQUIRE(rows >= 1 && cols >= 1 &&
                  rows * cols == static_cast<int>(ranks.size()),
              "frame grid " << rows << "x" << cols << " does not cover "
                            << ranks.size() << " ranks");
  SPB_REQUIRE(std::is_sorted(sources.begin(), sources.end()),
              "frame sources must be sorted");

  Frame f;
  f.rows_ = rows;
  f.cols_ = cols;
  f.message_bytes_ = message_bytes;
  f.hints_ = hints;
  Rank top = 0;
  for (const Rank r : ranks) {
    SPB_REQUIRE(r >= 0, "rank " << r << " in a frame is negative");
    top = std::max(top, r);
  }
  std::vector<int> position(static_cast<std::size_t>(top) + 1, -1);
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    int& at = position[static_cast<std::size_t>(ranks[i])];
    SPB_REQUIRE(at < 0, "rank " << ranks[i] << " appears twice in the frame");
    at = static_cast<int>(i);
  }
  f.position_ = std::make_shared<const std::vector<int>>(std::move(position));
  for (const Rank s : sources)
    SPB_REQUIRE(f.contains(s),
                "source " << s << " is not a member of the frame");
  f.ranks_ = std::make_shared<const std::vector<Rank>>(std::move(ranks));
  f.sources_ = std::move(sources);
  return f;
}

int Frame::position_of(Rank r) const {
  SPB_REQUIRE(contains(r), "rank " << r << " is not a member of the frame");
  return (*position_)[static_cast<std::size_t>(r)];
}

bool Frame::contains(Rank r) const {
  return r >= 0 && static_cast<std::size_t>(r) < position_->size() &&
         (*position_)[static_cast<std::size_t>(r)] >= 0;
}

std::vector<char> Frame::active_flags() const {
  std::vector<char> flags(static_cast<std::size_t>(size()), 0);
  for (const Rank s : sources_)
    flags[static_cast<std::size_t>(position_of(s))] = 1;
  return flags;
}

std::vector<int> Frame::row_source_counts() const {
  std::vector<int> counts(static_cast<std::size_t>(rows_), 0);
  for (const Rank s : sources_)
    ++counts[static_cast<std::size_t>(position_of(s) / cols_)];
  return counts;
}

std::vector<int> Frame::col_source_counts() const {
  std::vector<int> counts(static_cast<std::size_t>(cols_), 0);
  for (const Rank s : sources_)
    ++counts[static_cast<std::size_t>(position_of(s) % cols_)];
  return counts;
}

}  // namespace spb::stop
