#include "mp/payload.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/check.h"

namespace spb::mp {

Payload Payload::original(Rank source, Bytes bytes) {
  SPB_REQUIRE(source >= 0, "source rank must be non-negative");
  SPB_REQUIRE(bytes > 0, "an original message must have positive size");
  Payload p;
  p.chunks_.push_back({source, bytes});
  p.total_bytes_ = bytes;
  return p;
}

Payload Payload::of(std::vector<Chunk> chunks) {
  std::sort(chunks.begin(), chunks.end(),
            [](const Chunk& a, const Chunk& b) { return a.source < b.source; });
  for (std::size_t i = 1; i < chunks.size(); ++i)
    SPB_REQUIRE(chunks[i - 1].source != chunks[i].source,
                "duplicate source " << chunks[i].source << " in payload");
  Payload p;
  p.chunks_.reserve(chunks.size());
  for (const Chunk& c : chunks) {
    p.chunks_.push_back(c);
    p.total_bytes_ += c.bytes;
  }
  return p;
}

bool Payload::has_source(Rank source) const {
  return std::binary_search(
      chunks_.begin(), chunks_.end(), Chunk{source, 0},
      [](const Chunk& a, const Chunk& b) { return a.source < b.source; });
}

// Merges other.chunks_ into chunks_.  The one sharing check of the merge
// decides where the result goes: in place when this payload owns its
// storage alone and it has room (a payload that accumulates chunks over
// several receives settles into one buffer), otherwise straight into a new
// block — the detach of a shared block, or growth — which leaves the old
// storage, and every payload sharing it, untouched.  Three shapes, fastest
// first:
//  * disjoint source ranges (the halving algorithms merge contiguous rank
//    ranges, so nearly every simulated merge lands here): pure append or
//    prepend, memcpy only, no per-element comparisons;
//  * new block: one fused validate-and-merge pass into it (this payload
//    stays untouched until the final move, preserving the strong
//    exception guarantee);
//  * in place: a read-only validate/count pass, then a backward merge that
//    writes each element exactly once.
void Payload::merge_impl(const Payload& other, bool allow_dup) {
  const std::size_t n = chunks_.size();
  const std::size_t m = other.chunks_.size();
  if (m == 0) return;
  if (n == 0) {
    chunks_ = other.chunks_;  // reuses storage we own alone, else shares
    total_bytes_ = other.total_bytes_;
    return;
  }

  const bool in_place = n + m <= chunks_.writable_capacity();
  const Chunk* a = chunks_.data();
  const Chunk* b = other.chunks_.data();

  const bool append = a[n - 1].source < b[0].source;
  if (append || b[m - 1].source < a[0].source) {
    // The result is a then b (append) or b then a (prepend).
    const std::size_t a_at = append ? 0 : m;
    const std::size_t b_at = append ? n : 0;
    if (in_place) {
      chunks_.resize_within_capacity(n + m);
      Chunk* out = chunks_.data();
      if (!append) std::memmove(out + a_at, out, n * sizeof(Chunk));
      std::memcpy(out + b_at, b, m * sizeof(Chunk));
    } else {
      ChunkStore merged = ChunkStore::with_capacity(n + m);
      merged.resize_within_capacity(n + m);
      Chunk* out = merged.data();
      std::memcpy(out + a_at, a, n * sizeof(Chunk));
      std::memcpy(out + b_at, b, m * sizeof(Chunk));
      chunks_ = std::move(merged);
    }
    total_bytes_ += other.total_bytes_;
    return;
  }

  if (!in_place) {
    // Validate and merge in one forward pass straight into the new block.
    // A CheckError mid-pass discards it and leaves this payload untouched.
    ChunkStore merged = ChunkStore::with_capacity(n + m);
    merged.resize_within_capacity(n + m);
    Chunk* out = merged.data();
    std::size_t i = 0, j = 0, k = 0;
    Bytes dup_bytes = 0;
    while (i < n && j < m) {
      if (a[i].source < b[j].source) {
        out[k++] = a[i++];
      } else if (b[j].source < a[i].source) {
        out[k++] = b[j++];
      } else {
        SPB_CHECK_MSG(allow_dup, "source " << a[i].source << " received twice");
        SPB_CHECK_MSG(a[i].bytes == b[j].bytes,
                      "source " << a[i].source << " has conflicting sizes "
                                << a[i].bytes << " vs " << b[j].bytes);
        dup_bytes += a[i].bytes;
        out[k++] = a[i++];
        ++j;
      }
    }
    while (i < n) out[k++] = a[i++];
    while (j < m) out[k++] = b[j++];
    merged.resize_within_capacity(k);
    chunks_ = std::move(merged);
    total_bytes_ += other.total_bytes_ - dup_bytes;
    return;
  }

  if (!allow_dup) {
    // Duplicates are an error here, so the final size is n + m and no
    // count pass is needed: one backward merge, branchless in the steady
    // state (i + j == k throughout, so writes never clobber unread
    // elements).  A duplicate aborts mid-merge; undo_partial_merge
    // reconstructs the original contents, so the CheckError still leaves
    // the payload untouched.
    chunks_.resize_within_capacity(n + m);  // fits: n + m <= capacity
    Chunk* out = chunks_.data();
    std::size_t i = n;
    std::size_t j = m;
    std::size_t k = n + m;
    while (i > 0 && j > 0) {
      const Rank as = out[i - 1].source;
      const Rank bs = b[j - 1].source;
      if (as == bs) {
        undo_partial_merge(b, n, m, j, k);
        SPB_CHECK_MSG(false, "source " << as << " received twice");
      }
      const bool take_a = as > bs;
      const Chunk* src = take_a ? &out[i - 1] : &b[j - 1];
      out[--k] = *src;
      i -= static_cast<std::size_t>(take_a);
      j -= static_cast<std::size_t>(!take_a);
    }
    while (j > 0) out[--k] = b[--j];
    // Remaining prefix of `a` is already in place (i == k when j == 0).
    total_bytes_ += other.total_bytes_;
    return;
  }

  // Dedup merge: duplicates shrink the result, so a validate/count pass
  // (read-only — a CheckError leaves the payload untouched) determines
  // the final size before the backward merge.
  std::size_t dups = 0;
  Bytes dup_bytes = 0;
  for (std::size_t i = 0, j = 0; i < n && j < m;) {
    if (a[i].source < b[j].source) {
      ++i;
    } else if (b[j].source < a[i].source) {
      ++j;
    } else {
      SPB_CHECK_MSG(a[i].bytes == b[j].bytes,
                    "source " << a[i].source << " has conflicting sizes "
                              << a[i].bytes << " vs " << b[j].bytes);
      ++dups;
      dup_bytes += a[i].bytes;
      ++i;
      ++j;
    }
  }

  const std::size_t total = n + m - dups;
  chunks_.resize_within_capacity(total);  // fits: n + m <= capacity
  Chunk* out = chunks_.data();

  // Backward merge: the tail of the destination is free space, so writing
  // from the end never clobbers unread source elements.
  std::size_t i = n;
  std::size_t j = m;
  std::size_t k = total;
  while (j > 0) {
    if (i > 0 && out[i - 1].source > b[j - 1].source) {
      out[--k] = out[--i];
    } else if (i > 0 && out[i - 1].source == b[j - 1].source) {
      out[--k] = out[--i];  // duplicate collapses to one copy
      --j;
    } else {
      out[--k] = b[--j];
    }
  }
  // Remaining prefix of `a` is already in place (i == k when j == 0).

  total_bytes_ += other.total_bytes_ - dup_bytes;
}

// Rolls an aborted in-place backward merge back to the original contents.
// State on entry: the merged tail [k, n+m) holds the sorted union of the
// consumed suffixes a[i..n) and b[j..m); positions [min(k, n), n) of the
// original contents were overwritten by it.  Every consumed a-element
// still exists inside that tail, so walking the tail backward and
// skipping the elements that came from b (unambiguous: the suffixes are
// duplicate-free — the offending pair was never copied) restores the
// overwritten slots exactly.  Cold path: runs only when an algorithm bug
// delivered the same source twice.
void Payload::undo_partial_merge(const Chunk* b, std::size_t n,
                                 std::size_t m, std::size_t j,
                                 std::size_t k) {
  Chunk* out = chunks_.data();
  // The restore region [k, n) overlaps the tail the originals are read
  // back from, and the scan can reach a slot after the restore rewrote it
  // — so scan a snapshot of the tail instead.  The copy is fine here: this
  // path runs only on the way to a CheckError.
  const std::vector<Chunk> tail(out + k, out + n + m);
  std::size_t q = tail.size();  // scans the snapshot backward
  std::size_t bj = m;           // scans b's consumed suffix backward
  for (std::size_t p = n; p > k;) {
    --q;
    if (bj > j && tail[q].source == b[bj - 1].source) {
      --bj;  // b's copy, not ours
      continue;
    }
    out[--p] = tail[q];
  }
  chunks_.resize_within_capacity(n);
}

void Payload::merge(const Payload& other) {
  merge_impl(other, /*allow_dup=*/false);
}

void Payload::merge_dedup(const Payload& other) {
  merge_impl(other, /*allow_dup=*/true);
}

std::string Payload::to_string() const {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    if (i > 0) os << ", ";
    os << chunks_[i].source << ':' << chunks_[i].bytes;
  }
  os << '}';
  return os.str();
}

}  // namespace spb::mp
