// Cluster example: distribute LAMMPS across simulated nodes (the paper's
// future-work direction) and study how network quality changes scaling.
//
//   $ ./cluster_scaling
#include <cstdio>

#include "mpi/mpi.h"
#include "platforms/platforms.h"
#include "workloads/lammps.h"

int main() {
  using namespace bridge;
  const SocConfig node = makePlatform(PlatformId::kMilkVSim, 4);
  LammpsConfig lmp;
  lmp.atoms = 16000;

  std::printf("LAMMPS LJ across MilkVSim nodes (4 ranks/node)\n");
  std::printf("%-8s %18s %18s %18s\n", "nodes", "10Gbps/2us (ms)",
              "100Gbps/1us (ms)", "1Gbps/20us (ms)");
  for (const unsigned nodes : {1u, 2u, 4u}) {
    double ms[3];
    int i = 0;
    for (const auto& [gbps, us] :
         {std::pair{10.0, 2.0}, std::pair{100.0, 1.0},
          std::pair{1.0, 20.0}}) {
      ClusterConfig cc;
      cc.nodes = nodes;
      cc.ranks_per_node = 4;
      cc.network.bandwidth_gbps = gbps;
      cc.network.latency_us = us;
      const MpiRunResult r = runClusterProgram(
          node, cc, [&](int rank, int nranks) {
            return makeLammpsRank(LammpsBenchmark::kLennardJones, rank,
                                  nranks, lmp);
          });
      ms[i++] = cyclesToSeconds(r.cycles, node.freq_ghz) * 1e3;
    }
    std::printf("%-8u %18.3f %18.3f %18.3f\n", nodes, ms[0], ms[1], ms[2]);
  }
  std::printf("\n(Halo exchanges cross node boundaries once the spatial "
              "decomposition spans nodes;\n a slow network erases the "
              "benefit of added nodes.)\n");
  return 0;
}
