// Future-work study (paper §7): multi-node FireSim simulation. Scales NPB
// EP / CG / MG from 1 to 8 nodes (4 ranks per node, total work fixed) on
// the Banana Pi simulation model connected by a 10 Gbps network — the
// study the paper proposes running on the BxE cluster / AWS FPGAs.
#include <cstdio>

#include "mpi/mpi.h"
#include "platforms/platforms.h"
#include "workloads/npb.h"

int main() {
  using namespace bridge;
  std::printf("Multi-node scaling on BananaPiSim nodes (4 ranks/node, "
              "10 Gbps / 2 us network)\n");
  std::printf("%-6s %14s %14s %14s %16s\n", "nodes", "EP (ms)", "CG (ms)",
              "MG (ms)", "inter-node msgs");

  for (const unsigned nodes : {1u, 2u, 4u, 8u}) {
    ClusterConfig cc;
    cc.nodes = nodes;
    cc.ranks_per_node = 4;
    double ms[3];
    std::uint64_t msgs = 0;
    int i = 0;
    for (const NpbBenchmark b :
         {NpbBenchmark::kEP, NpbBenchmark::kCG, NpbBenchmark::kMG}) {
      NpbConfig cfg;
      cfg.scale = 0.5;
      const SocConfig node = makePlatform(PlatformId::kBananaPiSim, 4);
      const MpiRunResult r = runClusterProgram(
          node, cc, [&](int rank, int nranks) {
            return makeNpbRank(b, rank, nranks, cfg);
          });
      ms[i++] = cyclesToSeconds(r.cycles, node.freq_ghz) * 1e3;
      msgs += r.inter_messages;
    }
    std::printf("%-6u %14.3f %14.3f %14.3f %16llu\n", nodes, ms[0], ms[1],
                ms[2], static_cast<unsigned long long>(msgs));
  }
  std::printf("\n(EP scales nearly ideally; CG's per-iteration allreduces "
              "and MG's halo exchanges\n pay the network's latency and "
              "bandwidth as node count grows.)\n");
  return 0;
}
