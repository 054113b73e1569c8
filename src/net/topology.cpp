#include "net/topology.h"

#include <bit>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/check.h"

namespace spb::net {

namespace {

/// Dimension-ordered walk from node `from` to node `to` of a row-major mesh
/// `cols` wide, calling emit(node, dir) for each hop with dir 0/1 = +x/-x
/// and 2/3 = +y/-y.  An x hop moves the id by one, a y hop by a row.
template <typename Emit>
void walk_mesh(int from, int to, int cols, bool y_first, Emit emit) {
  int at = from;
  const auto leg = [&](int delta, int stride, int dir) {
    const int step = delta > 0 ? stride : -stride;
    for (int i = std::abs(delta); i > 0; --i, at += step)
      emit(at, delta > 0 ? dir : dir + 1);
  };
  const int dx = to % cols - from % cols;
  const int dy = to / cols - from / cols;
  if (y_first) {
    leg(dy, cols, 2);
    leg(dx, 1, 0);
  } else {
    leg(dx, 1, 0);
    leg(dy, cols, 2);
  }
}

}  // namespace

std::string Topology::describe_link(LinkId id) const {
  SPB_REQUIRE(id >= 0 && id < link_space(), "link id " << id
                                                       << " out of range");
  const int slots = slots_per_node();
  const NodeId node = id / slots;
  const int dir = id % slots;
  static constexpr const char* kDir[6] = {"+x", "-x", "+y", "-y", "+z", "-z"};
  const Coord c = coord(node);
  std::ostringstream os;
  os << "link(" << c.x() << "," << c.y() << "," << c.z() << ")";
  // Mesh/torus slots have cardinal names; higher-degree topologies
  // (hypercubes) label the dimension index instead.
  if (slots <= 6) {
    os << kDir[dir];
  } else {
    os << "dim" << dir;
  }
  return os.str();
}

// ---------------------------------------------------------------- Linear

LinearArray::LinearArray(int n) : n_(n) {
  SPB_REQUIRE(n >= 1, "LinearArray needs at least one node");
}

void LinearArray::walk(NodeId a, NodeId b, bool /*alt*/,
                       std::vector<LinkId>& out) const {
  SPB_REQUIRE(a >= 0 && a < n_ && b >= 0 && b < n_, "node out of range");
  out.clear();
  const int step = a < b ? 1 : -1;
  const int dir = a < b ? 0 : 1;  // slot 0 = +x, slot 1 = -x
  for (NodeId at = a; at != b; at += step) out.push_back(at * 2 + dir);
}

int LinearArray::hops(NodeId a, NodeId b) const {
  SPB_REQUIRE(a >= 0 && a < n_ && b >= 0 && b < n_, "node out of range");
  return std::abs(a - b);
}

std::string LinearArray::name() const {
  return "array " + std::to_string(n_);
}

// ---------------------------------------------------------------- Mesh2D

Mesh2D::Mesh2D(int rows, int cols, bool y_first)
    : rows_(rows), cols_(cols), y_first_(y_first) {
  SPB_REQUIRE(rows >= 1 && cols >= 1, "Mesh2D needs positive dimensions");
  SPB_REQUIRE(std::int64_t{rows} * cols <= kMaxNodes,
              "mesh too large (" << std::int64_t{rows} * cols << " nodes)");
}

Coord Mesh2D::coord(NodeId n) const {
  SPB_REQUIRE(n >= 0 && n < node_count(), "node out of range");
  return {n % cols_, n / cols_, 0};  // x = column, y = row
}

NodeId Mesh2D::node_at(const Coord& c) const {
  SPB_REQUIRE(c.x() >= 0 && c.x() < cols_ && c.y() >= 0 && c.y() < rows_,
              "coordinate out of range");
  return c.y() * cols_ + c.x();
}

void Mesh2D::walk(NodeId a, NodeId b, bool alt,
                  std::vector<LinkId>& out) const {
  SPB_REQUIRE(a >= 0 && a < node_count() && b >= 0 && b < node_count(),
              "node out of range");
  out.clear();
  walk_mesh(a, b, cols_, y_first_ != alt,
            [&](NodeId n, int dir) { out.push_back(n * 4 + dir); });
}

int Mesh2D::hops(NodeId a, NodeId b) const {
  const Coord ca = coord(a);
  const Coord cb = coord(b);
  return std::abs(ca.x() - cb.x()) + std::abs(ca.y() - cb.y());
}

std::string Mesh2D::name() const {
  return "mesh2d " + std::to_string(rows_) + "x" + std::to_string(cols_);
}

// -------------------------------------------------------------- Hypercube

Hypercube::Hypercube(int dims) : dims_(dims) {
  SPB_REQUIRE(dims >= 1 && dims <= 16, "Hypercube needs 1..16 dimensions");
}

Coord Hypercube::coord(NodeId n) const {
  SPB_REQUIRE(n >= 0 && n < node_count(), "node out of range");
  return {n, 0, 0};
}

NodeId Hypercube::node_at(const Coord& c) const {
  SPB_REQUIRE(c.x() >= 0 && c.x() < node_count() && c.y() == 0 && c.z() == 0,
              "coordinate out of range");
  return c.x();
}

void Hypercube::walk(NodeId a, NodeId b, bool /*alt*/,
                     std::vector<LinkId>& out) const {
  SPB_REQUIRE(a >= 0 && a < node_count() && b >= 0 && b < node_count(),
              "node out of range");
  // E-cube: fix differing bits from dimension 0 upward; link slot d of a
  // node is its dimension-d channel.
  out.clear();
  NodeId at = a;
  for (int d = 0; d < dims_; ++d) {
    const NodeId bit = NodeId{1} << d;
    if ((at & bit) == (b & bit)) continue;
    out.push_back(at * dims_ + d);
    at ^= bit;
  }
  SPB_CHECK(at == b);
}

int Hypercube::hops(NodeId a, NodeId b) const {
  SPB_REQUIRE(a >= 0 && a < node_count() && b >= 0 && b < node_count(),
              "node out of range");
  return std::popcount(static_cast<unsigned>(a ^ b));
}

std::string Hypercube::name() const {
  return "hypercube " + std::to_string(dims_) + "d";
}

// ---------------------------------------------------------------- TorusND

TorusND::TorusND(std::vector<int> dims) : dims_(std::move(dims)) {
  SPB_REQUIRE(!dims_.empty() && ndims() <= Coord::kMaxDims,
              "torus needs 1.." << Coord::kMaxDims << " dimensions, got "
                                << dims_.size());
  std::int64_t nodes = 1;
  for (const int d : dims_) {
    SPB_REQUIRE(d >= 1, "torus dimensions must be positive");
    strides_.push_back(static_cast<int>(nodes));
    nodes *= d;
    SPB_REQUIRE(nodes <= kMaxNodes, "torus too large (" << nodes << " nodes)");
  }
  nodes_ = static_cast<int>(nodes);
}

Coord TorusND::coord(NodeId n) const {
  SPB_REQUIRE(n >= 0 && n < nodes_, "node out of range");
  Coord c;
  int rem = n;
  for (int k = 0; k < ndims(); ++k) {
    c[k] = rem % dim(k);
    rem /= dim(k);
  }
  return c;
}

NodeId TorusND::node_at(const Coord& c) const {
  for (int k = ndims(); k < Coord::kMaxDims; ++k)
    SPB_REQUIRE(c[k] == 0, "coordinate uses dimension " << k
                                                        << " beyond the torus");
  NodeId id = 0;
  for (int k = ndims() - 1; k >= 0; --k) {
    SPB_REQUIRE(c[k] >= 0 && c[k] < dim(k), "coordinate out of range");
    id = id * dim(k) + c[k];
  }
  return id;
}

int TorusND::torus_delta(int from, int to, int size) {
  int forward = to - from;
  if (forward < 0) forward += size;
  const int backward = forward - size;  // <= 0
  // Shorter direction; positive (forward) on ties for determinism.
  return forward <= -backward ? forward : backward;
}

void TorusND::walk(NodeId a, NodeId b, bool alt,
                   std::vector<LinkId>& out) const {
  SPB_REQUIRE(a >= 0 && a < nodes_ && b >= 0 && b < nodes_,
              "node out of range");
  out.clear();
  const int n = ndims();
  const int slots = slots_per_node();
  // Both endpoints' coordinates, one division per dimension each.
  std::array<int, Coord::kMaxDims> ca{};
  std::array<int, Coord::kMaxDims> cb{};
  for (int k = 0, ra = a, rb = b; k < n; ++k) {
    const int size = dims_[static_cast<std::size_t>(k)];
    ca[static_cast<std::size_t>(k)] = ra % size;
    cb[static_cast<std::size_t>(k)] = rb % size;
    ra /= size;
    rb /= size;
  }
  NodeId at = a;
  // Walk dimension k with wraparound, taking the shorter direction
  // (positive on ties); slot 2k is +dim k, slot 2k+1 is -dim k.  The
  // alternate route walks the dimensions highest-first.
  for (int i = 0; i < n; ++i) {
    const auto k = static_cast<std::size_t>(alt ? n - 1 - i : i);
    const int size = dims_[k];
    const int stride = strides_[k];
    int c = ca[k];
    const int delta = torus_delta(c, cb[k], size);
    const int step = delta >= 0 ? 1 : -1;
    const int slot = static_cast<int>(2 * k) + (delta >= 0 ? 0 : 1);
    for (int h = std::abs(delta); h > 0; --h) {
      out.push_back(at * slots + slot);
      int next = c + step;
      next = next == size ? 0 : next < 0 ? size - 1 : next;
      at += (next - c) * stride;
      c = next;
    }
  }
  SPB_CHECK(at == b);
}

int TorusND::hops(NodeId a, NodeId b) const {
  const Coord ca = coord(a);
  const Coord cb = coord(b);
  int total = 0;
  for (int k = 0; k < ndims(); ++k)
    total += std::abs(torus_delta(ca[k], cb[k], dim(k)));
  return total;
}

std::string TorusND::name() const {
  std::string s = "torus ";
  for (int k = 0; k < ndims(); ++k) {
    if (k > 0) s += "x";
    s += std::to_string(dim(k));
  }
  return s;
}

std::string TorusND::describe_link(LinkId id) const {
  SPB_REQUIRE(id >= 0 && id < link_space(), "link id " << id
                                                       << " out of range");
  const int slots = slots_per_node();
  const Coord c = coord(id / slots);
  const int dir = id % slots;
  std::ostringstream os;
  os << "link(";
  for (int k = 0; k < std::max(ndims(), 3); ++k) os << (k ? "," : "") << c[k];
  os << ")";
  static constexpr const char* kDir[6] = {"+x", "-x", "+y", "-y", "+z", "-z"};
  if (slots <= 6) {
    os << kDir[dir];
  } else {
    os << (dir % 2 != 0 ? "-d" : "+d") << dir / 2;
  }
  return os.str();
}

// ---------------------------------------------------------------- Torus3D

std::string Torus3D::name() const {
  return "torus3d " + std::to_string(dx()) + "x" + std::to_string(dy()) + "x" +
         std::to_string(dz());
}

// ---------------------------------------------------------------- Cluster

namespace {

/// Most balanced factorization rows * cols == n, rows <= cols, for laying
/// the cluster's nodes out as a near-square mesh.
void near_square(int n, int& rows, int& cols) {
  rows = 1;
  for (int d = 1; static_cast<std::int64_t>(d) * d <= n; ++d)
    if (n % d == 0) rows = d;
  cols = n / rows;
}

}  // namespace

Cluster::Cluster(int nodes, int cores, double mesh_bw_scale)
    : cores_(cores), mesh_scale_(mesh_bw_scale) {
  SPB_REQUIRE(nodes >= 1 && cores >= 1, "Cluster needs positive dimensions");
  SPB_REQUIRE(mesh_bw_scale > 0.0 && mesh_bw_scale <= 1.0,
              "mesh bandwidth scale must be in (0, 1]");
  SPB_REQUIRE(std::int64_t{nodes} * cores <= kMaxNodes, "cluster too large");
  near_square(nodes, nrows_, ncols_);
}

Coord Cluster::coord(NodeId n) const {
  SPB_REQUIRE(n >= 0 && n < node_count(), "node out of range");
  const int node = n / cores_;
  return {node % ncols_, node / ncols_, n % cores_};
}

NodeId Cluster::node_at(const Coord& c) const {
  SPB_REQUIRE(c.x() >= 0 && c.x() < ncols_ && c.y() >= 0 && c.y() < nrows_ &&
                  c.z() >= 0 && c.z() < cores_,
              "coordinate out of range");
  return (c.y() * ncols_ + c.x()) * cores_ + c.z();
}

void Cluster::walk(NodeId a, NodeId b, bool alt,
                   std::vector<LinkId>& out) const {
  SPB_REQUIRE(a >= 0 && a < node_count() && b >= 0 && b < node_count(),
              "node out of range");
  out.clear();
  if (a == b) return;
  out.push_back(a * 6 + 0);  // core -> node switch
  // The node mesh, XY (YX for the alternate route); every mesh channel
  // (slots 2..5) belongs to the node's core 0.
  walk_mesh(a / cores_, b / cores_, ncols_, alt, [&](int node, int dir) {
    out.push_back(node * cores_ * 6 + 2 + dir);
  });
  out.push_back(b * 6 + 1);  // node switch -> core
}

int Cluster::hops(NodeId a, NodeId b) const {
  SPB_REQUIRE(a >= 0 && a < node_count() && b >= 0 && b < node_count(),
              "node out of range");
  if (a == b) return 0;
  const int na = a / cores_;
  const int nb = b / cores_;
  if (na == nb) return 2;
  const int dx = std::abs(na % ncols_ - nb % ncols_);
  const int dy = std::abs(na / ncols_ - nb / ncols_);
  return 2 + dx + dy;
}

std::string Cluster::name() const {
  return "cluster " + std::to_string(nodes()) + "x" + std::to_string(cores_);
}

std::string Cluster::describe_link(LinkId id) const {
  SPB_REQUIRE(id >= 0 && id < link_space(), "link id " << id
                                                       << " out of range");
  const NodeId core = id / 6;
  const int slot = id % 6;
  const int node = core / cores_;
  std::ostringstream os;
  if (slot < 2) {
    os << "xbar(n" << node << ".c" << core % cores_ << ")"
       << (slot == 0 ? "in" : "out");
  } else {
    static constexpr const char* kDir[4] = {"+x", "-x", "+y", "-y"};
    os << "node(" << node % ncols_ << "," << node / ncols_ << ")"
       << kDir[slot - 2];
  }
  return os.str();
}

double Cluster::link_bandwidth_scale(LinkId id) const {
  return id % 6 >= 2 ? mesh_scale_ : 1.0;
}

}  // namespace spb::net
