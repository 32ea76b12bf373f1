#include "mpi/mpi.h"

#include <gtest/gtest.h>

#include "platforms/platforms.h"
#include "trace/kernel.h"
#include "workloads/npb.h"

namespace bridge {
namespace {

TraceSourcePtr compute(int iters) {
  KernelBuilder b("compute");
  b.segment(iters).add(alu(intReg(5), intReg(6)));
  return b.build();
}

ClusterConfig twoByTwo() {
  ClusterConfig c;
  c.nodes = 2;
  c.ranks_per_node = 2;
  return c;
}

TEST(Cluster, ComputeOnlyRunsAllRanks) {
  const MpiRunResult r = runClusterProgram(
      makePlatform(PlatformId::kBananaPiSim, 2), twoByTwo(),
      [](int, int) { return compute(1000); });
  EXPECT_EQ(r.rank_cycles.size(), 4u);
  EXPECT_GT(r.retired, 4u * 1000u);
  EXPECT_EQ(r.inter_messages, 0u);
}

TEST(Cluster, RejectsUndersizedNodes) {
  ClusterConfig c;
  c.nodes = 2;
  c.ranks_per_node = 4;
  EXPECT_THROW(
      runClusterProgram(makePlatform(PlatformId::kBananaPiSim, 2), c,
                        [](int, int) { return compute(10); }),
      std::invalid_argument);
}

TEST(Cluster, IntraNodeMessagesAvoidTheNetwork) {
  // Ranks 0 and 1 live on node 0: their message is intra-node.
  const MpiRunResult r = runClusterProgram(
      makePlatform(PlatformId::kBananaPiSim, 2), twoByTwo(),
      [](int rank, int) {
        auto seq = std::make_unique<SequenceTrace>("p");
        if (rank == 0) {
          seq->appendOp(makeMpiOp(MpiKind::kSend, 1, 4096, 0));
        } else if (rank == 1) {
          seq->appendOp(makeMpiOp(MpiKind::kRecv, 0, 4096, 0));
        } else {
          seq->append(compute(10));
        }
        return seq;
      });
  EXPECT_GE(r.messages - r.inter_messages, 1u);
  EXPECT_EQ(r.inter_messages, 0u);
}

TEST(Cluster, CrossNodeMessagesPayLatencyAndCountAsInterNode) {
  // Rank 0 (node 0) -> rank 2 (node 1).
  auto run = [](double latency_us) {
    ClusterConfig c;
    c.nodes = 2;
    c.ranks_per_node = 2;
    c.network.latency_us = latency_us;
    return runClusterProgram(
        makePlatform(PlatformId::kBananaPiSim, 2), c,
        [](int rank, int) {
          auto seq = std::make_unique<SequenceTrace>("p");
          if (rank == 0) {
            seq->appendOp(makeMpiOp(MpiKind::kSend, 2, 65536, 0));
          } else if (rank == 2) {
            seq->appendOp(makeMpiOp(MpiKind::kRecv, 0, 65536, 0));
          }
          return seq;
        });
  };
  const MpiRunResult fast = run(1.0);
  const MpiRunResult slow = run(50.0);
  EXPECT_EQ(fast.inter_messages, 1u);
  EXPECT_EQ(fast.inter_bytes, 65536u);
  EXPECT_GT(slow.cycles, fast.cycles + 10000);  // ~49us at 1.6 GHz
}

TEST(Cluster, BandwidthBoundsLargeTransfers) {
  auto run = [](double gbps) {
    ClusterConfig c;
    c.nodes = 2;
    c.ranks_per_node = 1;
    c.network.bandwidth_gbps = gbps;
    return runClusterProgram(
               makePlatform(PlatformId::kBananaPiSim, 1), c,
               [](int rank, int) {
                 auto seq = std::make_unique<SequenceTrace>("p");
                 if (rank == 0) {
                   seq->appendOp(makeMpiOp(MpiKind::kSend, 1, 8 << 20, 0));
                 } else {
                   seq->appendOp(makeMpiOp(MpiKind::kRecv, 0, 8 << 20, 0));
                 }
                 return seq;
               })
        .cycles;
  };
  // 8 MiB at 10 vs 100 Gbps: ~6.7ms vs ~0.67ms of wire time.
  EXPECT_GT(run(10.0), run(100.0));
}

TEST(Cluster, CollectivesSpanNodes) {
  const MpiRunResult r = runClusterProgram(
      makePlatform(PlatformId::kBananaPiSim, 2), twoByTwo(),
      [](int, int) {
        auto seq = std::make_unique<SequenceTrace>("p");
        seq->appendOp(makeMpiOp(MpiKind::kAllreduce, 0, 4096));
        return seq;
      });
  EXPECT_GT(r.inter_messages, 0u);  // the binomial tree crosses nodes
  EXPECT_GT(r.messages - r.inter_messages, 0u);
}

TEST(Cluster, MismatchedCollectivesThrow) {
  EXPECT_THROW(
      runClusterProgram(makePlatform(PlatformId::kBananaPiSim, 2),
                        twoByTwo(),
                        [](int rank, int) {
                          auto seq = std::make_unique<SequenceTrace>("p");
                          seq->appendOp(makeMpiOp(
                              rank == 0 ? MpiKind::kBarrier
                                        : MpiKind::kAllreduce,
                              0, 8));
                          return seq;
                        }),
      std::runtime_error);
}

TEST(Cluster, DeadlockDetected) {
  EXPECT_THROW(
      runClusterProgram(makePlatform(PlatformId::kBananaPiSim, 2),
                        twoByTwo(),
                        [](int, int) {
                          auto seq = std::make_unique<SequenceTrace>("p");
                          seq->appendOp(
                              makeMpiOp(MpiKind::kRecv, kAnyPeer, 8, 0));
                          return seq;
                        }),
      std::runtime_error);
}

TEST(Cluster, EpWeakScalingAcrossNodes) {
  // EP with its single tiny allreduce scales nearly perfectly: doubling
  // nodes with the same total work halves the runtime.
  NpbConfig cfg;
  cfg.scale = 0.3;
  auto run = [&](unsigned nodes) {
    ClusterConfig c;
    c.nodes = nodes;
    c.ranks_per_node = 2;
    return runClusterProgram(
               makePlatform(PlatformId::kBananaPiSim, 2), c,
               [&](int rank, int nranks) {
                 return makeNpbRank(NpbBenchmark::kEP, rank, nranks, cfg);
               })
        .cycles;
  };
  const Cycle one = run(1);
  const Cycle two = run(2);
  EXPECT_LT(two, one);
  EXPECT_GT(static_cast<double>(one) / two, 1.6);
}

TEST(Cluster, NodeOfMapsBlockwise) {
  Soc node0(makePlatform(PlatformId::kBananaPiSim, 2));
  Soc node1(makePlatform(PlatformId::kBananaPiSim, 2));
  std::vector<TraceSourcePtr> traces;
  for (int r = 0; r < 4; ++r) traces.push_back(compute(1));
  MpiSimulation sim({&node0, &node1}, std::move(traces));
  EXPECT_EQ(sim.numRanks(), 4);
  EXPECT_EQ(sim.nodeOf(0), 0u);
  EXPECT_EQ(sim.nodeOf(1), 0u);
  EXPECT_EQ(sim.nodeOf(2), 1u);
  EXPECT_EQ(sim.nodeOf(3), 1u);
}

// A one-node cluster is the single-SoC runtime: same scheduler, same
// transfers, same counters.
void expectSameRun(const SocConfig& node, const RankProgram& program) {
  ClusterConfig c;
  c.nodes = 1;
  c.ranks_per_node = 4;
  c.mpi = MpiParams{};
  const MpiRunResult cluster = runClusterProgram(node, c, program);
  Soc soc(node);
  const MpiRunResult single = runMpiProgram(&soc, 4, program);
  EXPECT_EQ(cluster.cycles, single.cycles);
  EXPECT_EQ(cluster.rank_cycles, single.rank_cycles);
  EXPECT_EQ(cluster.retired, single.retired);
  EXPECT_EQ(cluster.messages, single.messages);
  EXPECT_EQ(cluster.bytes_moved, single.bytes_moved);
  EXPECT_EQ(cluster.inter_messages, 0u);
}

TEST(Cluster, OneNodeEqualsOneSocOnEveryMpiOp) {
  // An eager send (0 -> 1), a rendezvous send (2 -> 3), a waitall, then
  // every collective kind, with uneven compute so arrivals differ.
  const RankProgram program = [](int rank, int) {
    auto seq = std::make_unique<SequenceTrace>("p");
    seq->append(compute(100 * (rank + 1)));
    if (rank == 0) seq->appendOp(makeMpiOp(MpiKind::kSend, 1, 4096, 7));
    if (rank == 1) seq->appendOp(makeMpiOp(MpiKind::kRecv, 0, 4096, 7));
    if (rank == 2) seq->appendOp(makeMpiOp(MpiKind::kSend, 3, 65536, 9));
    if (rank == 3) seq->appendOp(makeMpiOp(MpiKind::kRecv, 2, 65536, 9));
    seq->appendOp(makeMpiOp(MpiKind::kWaitall, 0, 0));
    seq->appendOp(makeMpiOp(MpiKind::kBarrier, 0, 0));
    seq->appendOp(makeMpiOp(MpiKind::kBcast, 2, 16384));
    seq->appendOp(makeMpiOp(MpiKind::kReduce, 1, 8192));
    seq->appendOp(makeMpiOp(MpiKind::kAllreduce, 0, 64));
    seq->appendOp(makeMpiOp(MpiKind::kAlltoall, 0, 12288));
    seq->append(compute(50));
    return seq;
  };
  expectSameRun(makePlatform(PlatformId::kBananaPiSim, 4), program);
  expectSameRun(makePlatform(PlatformId::kMilkVSim, 4), program);
}

TEST(Cluster, OneNodeEqualsOneSocOnNpbCg) {
  NpbConfig cfg;
  cfg.scale = 0.1;
  expectSameRun(makePlatform(PlatformId::kBananaPiSim, 4),
                [&](int rank, int nranks) {
                  return makeNpbRank(NpbBenchmark::kCG, rank, nranks, cfg);
                });
}

// Pinned multi-node results (2 nodes x 2 ranks, BananaPiSim, default
// network and software cost). A change to these is a change to the
// multi-node model, not a refactoring.
TEST(Cluster, PinnedTwoNodeCg) {
  NpbConfig cfg;
  cfg.scale = 0.3;
  const MpiRunResult r = runClusterProgram(
      makePlatform(PlatformId::kBananaPiSim, 2), twoByTwo(),
      [&](int rank, int nranks) {
        return makeNpbRank(NpbBenchmark::kCG, rank, nranks, cfg);
      });
  EXPECT_EQ(r.cycles, 2720725u);
  EXPECT_EQ(r.inter_messages, 30u);
  EXPECT_EQ(r.inter_bytes, 129120u);
}

TEST(Cluster, PinnedTwoNodeAlltoall) {
  const MpiRunResult r = runClusterProgram(
      makePlatform(PlatformId::kBananaPiSim, 2), twoByTwo(), [](int, int) {
        auto seq = std::make_unique<SequenceTrace>("p");
        seq->appendOp(makeMpiOp(MpiKind::kAlltoall, 0, 16384));
        return seq;
      });
  EXPECT_EQ(r.cycles, 509013u);
  EXPECT_EQ(r.inter_messages, 8u);
  EXPECT_EQ(r.inter_bytes, 131072u);
}

}  // namespace
}  // namespace bridge
