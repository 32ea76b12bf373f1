// Simulated message-passing runtime.
//
// The paper runs every multi-rank workload as intra-node MPI over shared
// memory (1-4 ranks on one cluster), and its §7 names multi-node FireSim
// runs (up to eight nodes) as the next step. One runtime covers both: ranks
// are placed block-wise on a list of SoC nodes, rank r on core
// r % ranks_per_node of node r / ranks_per_node, so a single-SoC run is the
// one-node case. Sends and receives are matched by (peer, tag).
//
// Within a node, payloads move through the *simulated* memory hierarchy
// (sender copy-in to a shared buffer, receiver copy-out), so message cost
// reflects the platform's L2/bus/DRAM — which is what makes strong-scaling
// shape platform-dependent, as in the paper.
//
// Between nodes, the sender's copy drains to its NIC, the payload
// serializes at link bandwidth, flies for the link latency and lands
// through the receiver's NIC and memory system. Each node has one NIC
// calendar per direction, so concurrent flows share the wire honestly.
// Sends are eager only within a node; across nodes they always rendezvous.
//
// Scheduling: the runnable rank with the smallest local clock advances, up
// to a bounded skew, so shared-resource contention between cores and MPI
// rendezvous stay causal.
//
// Collectives are implemented with the textbook algorithms (dissemination
// barrier, binomial-tree bcast, recursive-doubling allreduce, pairwise
// alltoall) on top of the pt2pt cost model, so their scaling emerges rather
// than being curve-fit — including the network penalty of these naive
// (non-hierarchical) collectives once their hops cross nodes.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/calendar.h"
#include "soc/soc.h"
#include "trace/trace_source.h"

namespace bridge {

struct MpiParams {
  double alpha_ns = 500.0;       // per-message software latency
  std::uint64_t eager_limit = 8192;  // bytes; larger messages rendezvous
  Cycle skew_slack = 512;        // max clock skew between runnable ranks
};

/// The links between nodes of a multi-node run.
struct NetworkParams {
  double latency_us = 2.0;       // one-way NIC-to-NIC latency
  double bandwidth_gbps = 10.0;  // per-link (paper: 10 Gbps X540-T2)
};

/// A multi-node run: `nodes` identical SoCs with `ranks_per_node` ranks
/// each, joined by `network`.
struct ClusterConfig {
  unsigned nodes = 2;
  unsigned ranks_per_node = 4;
  NetworkParams network;
  MpiParams mpi{.alpha_ns = 800.0};  // multi-node MPI software cost
};

struct MpiRunResult {
  Cycle cycles = 0;                  // completion of the slowest rank
  std::vector<Cycle> rank_cycles;    // per-rank completion
  std::uint64_t retired = 0;         // micro-ops retired across ranks
  std::uint64_t messages = 0;        // pt2pt transfers (incl. collectives)
  std::uint64_t bytes_moved = 0;
  std::uint64_t inter_messages = 0;  // the part of `messages` between nodes
  std::uint64_t inter_bytes = 0;     // the part of `bytes_moved` between nodes
};

/// Builds one rank's trace; invoked with (rank, nranks).
using RankProgram = std::function<TraceSourcePtr(int, int)>;

class MpiSimulation {
 public:
  /// One trace per rank, placed block-wise: the rank count must be a
  /// multiple of the node count, and every node needs at least
  /// (ranks / nodes) cores. `network` matters only with several nodes.
  MpiSimulation(std::vector<Soc*> nodes,
                std::vector<TraceSourcePtr> rank_traces,
                const MpiParams& params = {},
                const NetworkParams& network = {});

  /// The one-node case: `soc` must have at least `nranks` cores.
  MpiSimulation(Soc* soc, std::vector<TraceSourcePtr> rank_traces,
                const MpiParams& params = {});

  /// Run all ranks to completion. Throws std::runtime_error on deadlock
  /// (mismatched send/recv or collective programs).
  MpiRunResult run();

  int numRanks() const { return static_cast<int>(ranks_.size()); }
  unsigned nodeOf(int rank) const { return ranks_.at(rank).node; }

 private:
  struct RankState {
    TraceSourcePtr trace;
    CoreModel* core = nullptr;
    unsigned node = 0;
    unsigned local = 0;  // core index within the node
    bool done = false;
    bool blocked = false;
    MicroOp pending{};   // the MPI op we are blocked on
    Cycle arrive = 0;    // core drain time at the MPI call site
  };

  struct PostedSend {
    int src = 0;
    std::int32_t tag = 0;
    std::uint64_t bytes = 0;
    Cycle data_ready = 0;  // shm buffer filled (eager) / sender arrive
    bool eager = false;
  };

  struct PostedRecv {
    std::int32_t peer = kAnyPeer;
    std::int32_t tag = 0;
    Cycle arrive = 0;
  };

  void step(int rank);
  void handleMpiOp(int rank, const MicroOp& op);
  void trySendRecvMatch(int dst);
  /// Cost of one matched transfer; unblocks participants as appropriate.
  void completeTransfer(int src, int dst, const PostedSend& send,
                        Cycle recv_arrive);
  void tryCollective(MpiKind kind);
  void resolveCollective(MpiKind kind);

  /// Pt2pt schedule primitive used by rendezvous sends and collectives:
  /// data leaves `src` at `t_src`, lands at `dst` no earlier than `t_dst`;
  /// returns (src_done, dst_done). Crosses the network when the ranks live
  /// on different nodes.
  std::pair<Cycle, Cycle> transferCost(int src, int dst,
                                       std::uint64_t bytes, Cycle t_src,
                                       Cycle t_dst);

  /// `bytes` from `from` to `to` through the memory of `rank`'s node, by
  /// `rank`'s core, starting at `start`; returns completion.
  Cycle copy(int rank, Addr from, Addr to, std::uint64_t bytes, Cycle start);
  Addr shmBuffer(int src, int dst) const;
  Addr rankBuffer(int rank) const;
  void unblock(int rank, Cycle resume);

  std::vector<Soc*> nodes_;
  unsigned ranks_per_node_ = 0;
  MpiParams params_;
  Cycle alpha_ = 0;
  std::vector<RankState> ranks_;
  // Unmatched queues, indexed by destination (sends) / receiver (recvs).
  std::vector<std::deque<PostedSend>> sends_;
  std::vector<std::deque<PostedRecv>> recvs_;

  // Per-node NIC serialization, one calendar per direction.
  std::vector<BusyCalendar> nic_tx_;
  std::vector<BusyCalendar> nic_rx_;
  Cycle net_latency_ = 0;
  double cycles_per_byte_ = 0.0;

  MpiRunResult result_;
};

/// Convenience: build traces from a RankProgram and run.
MpiRunResult runMpiProgram(Soc* soc, int nranks, const RankProgram& program,
                           const MpiParams& params = {});

/// Builds `cluster.nodes` SoCs from `node_config` (cores >=
/// ranks_per_node) and runs `program(rank, nranks)` on every rank.
MpiRunResult runClusterProgram(const SocConfig& node_config,
                               const ClusterConfig& cluster,
                               const RankProgram& program);

}  // namespace bridge
