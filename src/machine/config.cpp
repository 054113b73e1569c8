#include "machine/config.h"

#include <cstddef>
#include <cstdint>

#include "common/check.h"
#include "common/math.h"
#include "machine/registry.h"

namespace spb::machine {

MachineConfig from_name(const std::string& name) {
  return Registry::instance().parse(name);
}

mp::Runtime MachineConfig::make_runtime(bool mpi_flavored) const {
  mp::CommParams cp = comm;
  if (mpi_flavored) cp.mpi_extra_us += mpi_extra_us;
  return mp::Runtime(topology, net, cp, mapping);
}

void balanced_factors(int p, int& rows, int& cols) {
  SPB_REQUIRE(p >= 1, "p must be positive");
  rows = 1;
  for (int d = 1; static_cast<std::int64_t>(d) * d <= p; ++d)
    if (p % d == 0) rows = d;
  cols = p / rows;
}

MachineConfig paragon(int rows, int cols) {
  SPB_REQUIRE(rows >= 1 && cols >= 1, "paragon needs positive dimensions");
  const std::int64_t nodes = std::int64_t{rows} * cols;
  SPB_REQUIRE(nodes <= net::Topology::kMaxNodes,
              "machine 'paragon" << rows << "x" << cols << "' is too large: "
                                 << nodes << " nodes (at most "
                                 << net::Topology::kMaxNodes << ")");
  MachineConfig m;
  m.name = "paragon " + std::to_string(rows) + "x" + std::to_string(cols);
  m.topology = std::make_shared<net::Mesh2D>(rows, cols);
  m.p = rows * cols;
  m.rows = rows;
  m.cols = cols;
  m.mapping = net::RankMapping::identity(m.p);

  // Interconnect: 200 MB/s wire rate per channel; sustained point-to-point
  // rates observed on NX were far lower, dominated by the node interface.
  m.net.alpha_us = 6.0;
  m.net.per_hop_us = 0.04;
  m.net.bytes_per_us = 160.0;  // ~160 MB/s sustained per channel
  m.net.inject_channels = 1;
  m.net.eject_channels = 1;

  // NX software layer: ~50 us one-way small-message latency split between
  // sender and receiver; i860 copy bandwidth bounds message combining.
  m.comm.send_overhead_us = 22.0;
  m.comm.recv_overhead_us = 22.0;
  m.comm.combine_fixed_us = 3.0;
  m.comm.combine_per_byte_us = 0.008;  // ~125 MB/s memcpy
  m.comm.header_bytes = 32;
  m.comm.chunk_header_bytes = 8;

  // The paper: "a performance loss of 2 to 5% in every MPI implementation".
  m.mpi_extra_us = 14.0;
  return m;
}

MachineConfig hypercube(int dims) {
  SPB_REQUIRE(dims >= 1 && dims <= 10, "hypercube dims must be 1..10");
  MachineConfig m;
  const int p = 1 << dims;
  m.name = "hypercube " + std::to_string(dims) + "d";
  m.topology = std::make_shared<net::Hypercube>(dims);
  m.p = p;
  balanced_factors(p, m.rows, m.cols);
  m.mapping = net::RankMapping::identity(p);

  // iPSC/860-class machine: Paragon-era software, somewhat slower links.
  m.net.alpha_us = 8.0;
  m.net.per_hop_us = 0.05;
  m.net.bytes_per_us = 120.0;
  m.net.inject_channels = 1;
  m.net.eject_channels = 1;

  m.comm.send_overhead_us = 25.0;
  m.comm.recv_overhead_us = 25.0;
  m.comm.combine_fixed_us = 3.0;
  m.comm.combine_per_byte_us = 0.008;
  m.comm.header_bytes = 32;
  m.comm.chunk_header_bytes = 8;
  m.mpi_extra_us = 14.0;
  return m;
}

MachineConfig t3d(int p, std::uint64_t scatter_seed) {
  SPB_REQUIRE(p >= 1 && p <= 512, "t3d partition size must be 1..512");
  MachineConfig m;
  m.name = "t3d p=" + std::to_string(p);
  m.topology = std::make_shared<net::Torus3D>(8, 8, 8);
  m.p = p;
  balanced_factors(p, m.rows, m.cols);
  m.mapping = scatter_seed == 0
                  ? net::RankMapping::identity(p)
                  : net::RankMapping::random(p, 512, scatter_seed);

  // Interconnect: 300 MB/s per channel, six channels per node, very low
  // routing latency; we give each node two DMA engines per direction to
  // reflect the much higher node-interface throughput.
  m.net.alpha_us = 2.0;
  m.net.per_hop_us = 0.02;
  m.net.bytes_per_us = 280.0;
  m.net.inject_channels = 2;
  m.net.eject_channels = 2;

  // MPI on the T3D: ~50 us one-way latency (25 us per side).  Combining
  // messages through the portable MPI layer costs an extra pack/unpack
  // traversal (~40 MB/s effective), which — relative to the fast network —
  // makes merging far more expensive than on the Paragon.  This is the
  // "higher wait cost and the cost of combining messages" the paper blames
  // for Br_Lin's poor T3D showing; the figure table's abl_combine entry
  // sweeps it.
  m.comm.send_overhead_us = 25.0;
  m.comm.recv_overhead_us = 35.0;
  m.comm.combine_fixed_us = 15.0;
  m.comm.combine_per_byte_us = 0.025;
  m.comm.header_bytes = 32;
  m.comm.chunk_header_bytes = 8;

  // Everything on the T3D already runs on MPI; no extra penalty.  The
  // MPI_AllGather broadcast phase is the vendor collective, which
  // pipelines large messages in segments.
  m.mpi_extra_us = 0.0;
  m.bcast_segment_bytes = 16384;
  return m;
}

MachineConfig torus(const std::vector<int>& dims) {
  auto topo = std::make_shared<net::TorusND>(dims);
  MachineConfig m;
  m.name = topo->name();
  m.p = topo->node_count();
  m.topology = std::move(topo);
  balanced_factors(m.p, m.rows, m.cols);
  m.mapping = net::RankMapping::identity(m.p);

  // T3D-class interconnect and software (see t3d()), but a dedicated
  // machine: the application owns the whole torus, so placement is
  // contiguous instead of the T3D's uncontrollable scatter.
  m.net.alpha_us = 2.0;
  m.net.per_hop_us = 0.02;
  m.net.bytes_per_us = 280.0;
  m.net.inject_channels = 2;
  m.net.eject_channels = 2;

  m.comm.send_overhead_us = 25.0;
  m.comm.recv_overhead_us = 35.0;
  m.comm.combine_fixed_us = 15.0;
  m.comm.combine_per_byte_us = 0.025;
  m.comm.header_bytes = 32;
  m.comm.chunk_header_bytes = 8;

  m.mpi_extra_us = 0.0;
  m.bcast_segment_bytes = 16384;
  return m;
}

MachineConfig cluster(int nodes, int cores) {
  // Inter-node mesh links run at a quarter of the crossbar rate; the
  // topology reports this per link and the cost model prices it via
  // inter_node_bw_scale.
  constexpr double kMeshScale = 0.25;
  auto topo = std::make_shared<net::Cluster>(nodes, cores, kMeshScale);
  MachineConfig m;
  m.name = topo->name();
  m.p = topo->node_count();
  m.rows = topo->nodes();  // one logical row per node
  m.cols = cores;
  m.topology = std::move(topo);
  m.mapping = net::RankMapping::identity(m.p);
  m.cores_per_node = cores;
  m.inter_node_bw_scale = kMeshScale;

  // Mid-90s SMP-cluster numbers: shared-memory-class crossbar inside a
  // node, cabled mesh between boxes with a real per-hop head latency, a
  // lean MPI stack everywhere.
  m.net.alpha_us = 3.0;
  m.net.per_hop_us = 0.3;
  m.net.bytes_per_us = 320.0;
  m.net.inject_channels = 1;
  m.net.eject_channels = 1;

  m.comm.send_overhead_us = 18.0;
  m.comm.recv_overhead_us = 18.0;
  m.comm.combine_fixed_us = 3.0;
  m.comm.combine_per_byte_us = 0.006;
  m.comm.header_bytes = 32;
  m.comm.chunk_header_bytes = 8;

  m.mpi_extra_us = 0.0;
  m.bcast_segment_bytes = 16384;
  return m;
}

}  // namespace spb::machine
