// Interconnect topologies: linear array, 2-D mesh (Intel Paragon style),
// hypercube, the k-ary n-cube torus family (Cray T3D style in 3-D), and a
// two-level cluster (node-local crossbar + slower inter-node mesh).
//
// A topology owns the geometry only — node coordinates, directed links, and
// the deterministic dimension-ordered route between two nodes.  Timing and
// contention live in net::NetworkModel.
//
// Routes are walked hop by hop over node ids (a fixed stride per dimension,
// no coordinate conversion per hop) into a caller-owned buffer: route_into
// with a warm buffer allocates nothing, which is what lets the network
// model re-walk every route per reserved message instead of memoizing them.
//
// Link identifiers: every node has a fixed number of outgoing directed
// channel slots (2 for the array, 4 for the mesh, 2 per dimension for a
// torus), and LinkId = node * slots + direction.  Border slots of
// non-wrapping topologies are simply never used by any route.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"

namespace spb::net {

/// Coordinates of a node in up to kMaxDims dimensions; unused dimensions
/// are zero.  The historical x/y/z accessors name the first three
/// dimensions, so 2-D/3-D topologies keep a typed view while the k-ary
/// n-cube family indexes dimensions directly.
struct Coord {
  static constexpr int kMaxDims = 8;

  constexpr Coord() = default;
  constexpr Coord(int x, int y = 0, int z = 0) : d{x, y, z} {}

  int& operator[](int dim) { return d[static_cast<std::size_t>(dim)]; }
  int operator[](int dim) const { return d[static_cast<std::size_t>(dim)]; }

  int& x() { return d[0]; }
  int& y() { return d[1]; }
  int& z() { return d[2]; }
  int x() const { return d[0]; }
  int y() const { return d[1]; }
  int z() const { return d[2]; }

  std::array<int, kMaxDims> d{};

  bool operator==(const Coord&) const = default;
};

class Topology {
 public:
  /// Largest node count any topology accepts (keeps every LinkId and the
  /// per-link tables comfortably inside int).
  static constexpr std::int64_t kMaxNodes = std::int64_t{1} << 22;

  virtual ~Topology() = default;

  /// Number of nodes.
  virtual int node_count() const = 0;

  /// Size of the LinkId space (node_count * outgoing slots per node).
  virtual int link_space() const = 0;

  /// Deterministic dimension-ordered route from a to b as a sequence of
  /// directed links, written over `out` (cleared first; its capacity is
  /// reused, so a warm buffer makes this allocation-free).  Empty iff
  /// a == b.
  void route_into(NodeId a, NodeId b, std::vector<LinkId>& out) const {
    walk(a, b, /*alt=*/false, out);
  }

  /// route_into into a fresh vector.
  std::vector<LinkId> route(NodeId a, NodeId b) const {
    std::vector<LinkId> path;
    route_into(a, b, path);
    return path;
  }

  /// A deterministic alternate route using the opposite dimension order,
  /// where the topology has one (mesh: YX instead of XY, torus: the
  /// dimensions highest-first instead of lowest-first), else the primary
  /// route.  The fault-aware network model tries it when the primary route
  /// crosses a degraded link.
  std::vector<LinkId> alt_route(NodeId a, NodeId b) const {
    std::vector<LinkId> path;
    walk(a, b, /*alt=*/true, path);
    return path;
  }

  /// Hop distance (length of route(a, b) without materializing it).
  virtual int hops(NodeId a, NodeId b) const = 0;

  /// Node coordinates, for diagnostics and tests.
  virtual Coord coord(NodeId n) const = 0;

  /// Inverse of coord().
  virtual NodeId node_at(const Coord& c) const = 0;

  /// Human-readable name, e.g. "mesh2d 10x10".
  virtual std::string name() const = 0;

  /// Human-readable link description for congestion diagnostics.
  virtual std::string describe_link(LinkId id) const;

  /// Relative bandwidth of one directed link as a fraction of
  /// NetParams::bytes_per_us, always in (0, 1].  Hierarchical machines
  /// override this: NetParams carries the fastest tier (the intra-node
  /// crossbar) and slower tiers scale down, so no transfer ever beats the
  /// uncontended bound the flat model promises.
  virtual double link_bandwidth_scale(LinkId) const { return 1.0; }

  /// Outgoing channel slots per node (2, 4 or 6).
  virtual int slots_per_node() const = 0;

 protected:
  /// Writes the primary route (alt = false) or the alternate one over `out`.
  virtual void walk(NodeId a, NodeId b, bool alt,
                    std::vector<LinkId>& out) const = 0;
};

/// 1-D array of n nodes with bidirectional neighbour links (no wraparound).
class LinearArray final : public Topology {
 public:
  explicit LinearArray(int n);

  int node_count() const override { return n_; }
  int link_space() const override { return n_ * 2; }
  int hops(NodeId a, NodeId b) const override;
  Coord coord(NodeId n) const override { return {n, 0, 0}; }
  NodeId node_at(const Coord& c) const override { return c.x(); }
  std::string name() const override;
  int slots_per_node() const override { return 2; }

 private:
  void walk(NodeId a, NodeId b, bool alt,
            std::vector<LinkId>& out) const override;

  int n_;
};

/// 2-D mesh of rows x cols nodes, no wraparound, dimension-ordered
/// routing: XY by default (first along the row to the destination column,
/// then along the column), YX when `y_first` is set — the
/// ablation_routing bench compares the two.  Node (r, c) has id
/// r * cols + c (row-major), matching the paper's processor indexing.
class Mesh2D final : public Topology {
 public:
  Mesh2D(int rows, int cols, bool y_first = false);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  bool y_first() const { return y_first_; }

  int node_count() const override { return rows_ * cols_; }
  int link_space() const override { return node_count() * 4; }
  int hops(NodeId a, NodeId b) const override;
  Coord coord(NodeId n) const override;
  NodeId node_at(const Coord& c) const override;
  std::string name() const override;
  int slots_per_node() const override { return 4; }

 private:
  void walk(NodeId a, NodeId b, bool alt,
            std::vector<LinkId>& out) const override;

  int rows_;
  int cols_;
  bool y_first_;
};

/// Hypercube of 2^dims nodes; node ids are bit strings, neighbours differ
/// in one bit, e-cube routing fixes differing bits from the lowest to the
/// highest.  Not one of the paper's machines, but the natural home of the
/// Br_Lin pattern — pairing i with i + p/2 is exactly a top-dimension
/// exchange, so every halving iteration uses a dedicated link per node
/// (see bench/ext_hypercube).
class Hypercube final : public Topology {
 public:
  explicit Hypercube(int dims);

  int dims() const { return dims_; }

  int node_count() const override { return 1 << dims_; }
  int link_space() const override { return node_count() * dims_; }
  int hops(NodeId a, NodeId b) const override;
  Coord coord(NodeId n) const override;
  NodeId node_at(const Coord& c) const override;
  std::string name() const override;
  int slots_per_node() const override { return dims_; }

 private:
  void walk(NodeId a, NodeId b, bool alt,
            std::vector<LinkId>& out) const override;

  int dims_;
};

/// k-ary n-cube: a torus of arbitrary per-dimension sizes with wraparound
/// in every dimension.  Node ids are mixed-radix with dimension 0 fastest
/// (id = (..(c[n-1] * d[n-2] + c[n-2]) * .. ) * d[0] + c[0]); routing is
/// dimension-ordered lowest-to-highest taking the shorter wrap direction
/// (positive on ties), and alt_route walks the dimensions in the opposite
/// order.  Every node owns two channel slots per dimension:
/// slot 2k = +dim k, slot 2k + 1 = -dim k.
class TorusND : public Topology {
 public:
  explicit TorusND(std::vector<int> dims);

  int ndims() const { return static_cast<int>(dims_.size()); }
  int dim(int k) const { return dims_[static_cast<std::size_t>(k)]; }
  const std::vector<int>& dims() const { return dims_; }

  int node_count() const override { return nodes_; }
  int link_space() const override { return nodes_ * slots_per_node(); }
  int hops(NodeId a, NodeId b) const override;
  Coord coord(NodeId n) const override;
  NodeId node_at(const Coord& c) const override;
  std::string name() const override;
  std::string describe_link(LinkId id) const override;
  int slots_per_node() const override { return 2 * ndims(); }

  /// Signed step count along one dimension of size `size`: the shorter wrap
  /// direction, positive on ties.
  static int torus_delta(int from, int to, int size);

 private:
  void walk(NodeId a, NodeId b, bool alt,
            std::vector<LinkId>& out) const override;

  std::vector<int> dims_;
  /// Node-id stride of each dimension (dimension 0 fastest).
  std::vector<int> strides_;
  int nodes_;
};

/// 3-D torus of dx x dy x dz nodes — the T3D interconnect.  A TorusND with
/// the historical name and typed accessors; slot encoding, ids and routes
/// are byte-identical to the general family's 3-D case.
class Torus3D final : public TorusND {
 public:
  Torus3D(int dx, int dy, int dz) : TorusND({dx, dy, dz}) {}

  int dx() const { return dim(0); }
  int dy() const { return dim(1); }
  int dz() const { return dim(2); }

  std::string name() const override;
};

/// Two-level cluster: `nodes` compute nodes, each holding `cores`
/// processors on a node-local crossbar, with the nodes joined by a slower
/// 2-D mesh — the shared-vs-distributed-memory split.  Topology "nodes"
/// are cores, id = node * cores + core; coordinates are
/// (node column, node row, core).  Each core owns 6 channel slots:
///
///   slot 0 = crossbar port into the node switch (first hop of every route
///            leaving the core),
///   slot 1 = crossbar port out of the node switch (last hop of every
///            route entering the core),
///   slots 2..5 = the node's mesh channels +x/-x/+y/-y, owned by core 0 of
///            the node, so all cores of a node contend on the same four
///            inter-node links.
///
/// Inter-node routes are dimension-ordered XY over the node mesh (YX for
/// alt_route); intra-node routes are [src crossbar-in, dst crossbar-out].
/// Mesh links report bandwidth scale `mesh_bw_scale` < 1; crossbar ports
/// run at the full NetParams rate.
class Cluster final : public Topology {
 public:
  Cluster(int nodes, int cores, double mesh_bw_scale = 0.25);

  int nodes() const { return nrows_ * ncols_; }
  int cores() const { return cores_; }
  int node_rows() const { return nrows_; }
  int node_cols() const { return ncols_; }
  double mesh_bw_scale() const { return mesh_scale_; }

  int node_count() const override { return nodes() * cores_; }
  int link_space() const override { return node_count() * 6; }
  int hops(NodeId a, NodeId b) const override;
  Coord coord(NodeId n) const override;
  NodeId node_at(const Coord& c) const override;
  std::string name() const override;
  std::string describe_link(LinkId id) const override;
  double link_bandwidth_scale(LinkId id) const override;
  int slots_per_node() const override { return 6; }

 private:
  void walk(NodeId a, NodeId b, bool alt,
            std::vector<LinkId>& out) const override;

  int nrows_;
  int ncols_;
  int cores_;
  double mesh_scale_;
};

}  // namespace spb::net
