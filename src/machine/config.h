// Machine models.
//
// machine::paragon(rows, cols) — Intel Paragon XP/S style: the application
// owns a dedicated rows x cols submesh (identity rank-to-node mapping),
// wormhole-routed 2-D mesh, NX message layer.  MPI-flavoured algorithms pay
// an extra per-message software cost (the paper measured MPI versions 2-5%
// slower than NX).
//
// machine::t3d(p, seed) — Cray T3D style: p virtual processors placed on a
// 512-node 3-D torus (the Pittsburgh Supercomputing Center machine the
// paper used) by a seeded random mapping, because "the mapping of virtual
// to physical processors cannot be controlled by the user".  Higher link
// bandwidth (300 MB/s channels, six per node) and a leaner MPI stack.
//
// All timing constants are calibrated to mid-1990s published measurements
// (NX latency ~50 us, achieved NX bandwidth well below the 200 MB/s wire
// rate; T3D MPI latency ~30 us).  Absolute simulated times are not meant to
// equal the paper's milliseconds — the *relationships* between algorithms,
// distributions and machine shapes are what the benchmarks check.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "mp/runtime.h"
#include "net/mapping.h"
#include "net/network.h"
#include "net/topology.h"

namespace spb::machine {

struct MachineConfig {
  std::string name;
  std::shared_ptr<const net::Topology> topology;
  net::NetParams net;
  mp::CommParams comm;
  net::RankMapping mapping = net::RankMapping::identity(1);

  /// Logical processor count (ranks).
  int p = 1;

  /// Logical mesh view of the rank space used by the source distributions
  /// and the Br_xy_* algorithms: rank = row * cols + col.  On the Paragon
  /// this coincides with the physical mesh; on the T3D it is purely
  /// logical.
  int rows = 1;
  int cols = 1;

  /// Extra per-message software cost applied when an algorithm is
  /// MPI-flavoured (0 where the baseline layer already is MPI).
  double mpi_extra_us = 0.0;

  /// Segment size of the 2-Step broadcast phase: 0 = store-and-forward
  /// (the paper's own NX code on the Paragon); > 0 = pipelined vendor
  /// collective (Cray's MPI on the T3D).
  Bytes bcast_segment_bytes = 0;

  /// Two-level cluster machines: processors per node (0 = flat machine)
  /// and the inter-node link bandwidth as a fraction of net.bytes_per_us
  /// (net carries the fast intra-node tier; 1.0 on flat machines).
  /// Calibration::from_machine prices the two tiers separately from these.
  int cores_per_node = 0;
  double inter_node_bw_scale = 1.0;

  /// Builds a runtime for this machine, with `mpi_extra_us` applied if the
  /// algorithm runs on the portable MPI layer.
  mp::Runtime make_runtime(bool mpi_flavored) const;
};

/// Intel Paragon submesh of rows x cols processors.
MachineConfig paragon(int rows, int cols);

/// Parses a CLI machine spec by delegating to machine::Registry: the
/// registered families are paragonRxC, t3dP[:SEED], hypercubeD,
/// torusK1xK2x... and clusterNxM.  Throws CheckError enumerating the
/// registered patterns on anything else.
MachineConfig from_name(const std::string& name);

/// Cray T3D partition of p virtual processors on a 512-node torus.  The
/// logical mesh view is the most balanced factorization rows*cols == p with
/// rows <= cols.
///
/// The mapping of virtual to physical processors "cannot be controlled by
/// the user" (paper Section 5): algorithms must not rely on it.  We model
/// it as a seeded random scatter over the torus; pass scatter_seed = 0 for
/// a contiguous sub-brick placement instead (the figure table's
/// abl_mapping entry compares the two).
MachineConfig t3d(int p, std::uint64_t scatter_seed = 1);

/// The most balanced factorization rows * cols == p, rows <= cols, used for
/// the T3D logical grid (exposed for tests).
void balanced_factors(int p, int& rows, int& cols);

/// Extension (not one of the paper's machines): an iPSC/860-style
/// hypercube of 2^dims processors with Paragon-era software overheads.
/// Br_Lin's halving pattern maps one iteration per cube dimension, so its
/// exchanges are contention-free here — the figure table's ext_hypercube
/// entry measures the effect against a mesh of the same size.
MachineConfig hypercube(int dims);

/// k-ary n-cube torus machine (net::TorusND) with T3D-class links and
/// software, dedicated to the application: ranks map to nodes
/// contiguously, the logical grid is the most balanced factorization of
/// the node count.  The machine axis ROADMAP item 4 asks for — tori the
/// 1996 hardware could not reach (torus8x8x16, torus4x4x4x4, ...).
MachineConfig torus(const std::vector<int>& dims);

/// Two-level cluster of `nodes` compute nodes x `cores` processors each
/// (net::Cluster): node-local crossbar at the full net rate, inter-node
/// mesh at a quarter of it.  The logical grid is nodes x cores with one
/// row per node, so row-oriented algorithms (and the Hier_* family) align
/// with the machine hierarchy.
MachineConfig cluster(int nodes, int cores);

}  // namespace spb::machine
