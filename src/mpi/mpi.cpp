#include "mpi/mpi.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace bridge {

namespace {
// Synthetic address map, per node: per-core application buffers and
// per-pair shared message buffers. Reusing the same shm region per pair
// means small messages become cache-resident after warmup, as on real
// shared-memory MPI.
constexpr Addr kRankBufBase = 0x9000'0000;
constexpr Addr kRankBufStride = 0x0200'0000;
constexpr Addr kShmBase = 0xE000'0000;
constexpr Addr kShmStride = 0x0040'0000;
constexpr unsigned kStepQuantum = 4096;  // max uops per scheduling slice
}  // namespace

MpiSimulation::MpiSimulation(std::vector<Soc*> nodes,
                             std::vector<TraceSourcePtr> rank_traces,
                             const MpiParams& params,
                             const NetworkParams& network)
    : nodes_(std::move(nodes)), params_(params) {
  const std::size_t n = rank_traces.size();
  if (nodes_.empty() || n == 0 || n % nodes_.size() != 0) {
    throw std::invalid_argument(
        "rank count must be a positive multiple of the node count");
  }
  ranks_per_node_ = static_cast<unsigned>(n / nodes_.size());
  for (const Soc* soc : nodes_) {
    assert(soc != nullptr);
    if (soc->numCores() < ranks_per_node_) {
      throw std::invalid_argument("a node has fewer cores than ranks/node");
    }
  }

  const double freq = nodes_[0]->config().freq_ghz;
  alpha_ = nsToCycles(params.alpha_ns, freq);
  net_latency_ = nsToCycles(network.latency_us * 1000.0, freq);
  // bytes per cycle = (gbps / 8) bytes-per-ns / freq cycles-per-ns.
  const double bytes_per_cycle = (network.bandwidth_gbps / 8.0) / freq;
  cycles_per_byte_ = bytes_per_cycle > 0 ? 1.0 / bytes_per_cycle : 0.0;
  nic_tx_.resize(nodes_.size());
  nic_rx_.resize(nodes_.size());

  ranks_.resize(n);
  sends_.resize(n);
  recvs_.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    RankState& st = ranks_[r];
    st.node = static_cast<unsigned>(r) / ranks_per_node_;
    st.local = static_cast<unsigned>(r) % ranks_per_node_;
    st.core = &nodes_[st.node]->core(st.local);
    st.trace = std::move(rank_traces[r]);
  }
  result_.rank_cycles.assign(n, 0);
}

MpiSimulation::MpiSimulation(Soc* soc,
                             std::vector<TraceSourcePtr> rank_traces,
                             const MpiParams& params)
    : MpiSimulation(std::vector<Soc*>{soc}, std::move(rank_traces),
                    params) {}

Cycle MpiSimulation::copy(int rank, Addr from, Addr to, std::uint64_t bytes,
                          Cycle start) {
  const RankState& st = ranks_[rank];
  return nodes_[st.node]->mem().bulkCopy(st.local, from, to, bytes, start);
}

Addr MpiSimulation::shmBuffer(int src, int dst) const {
  const unsigned slot =
      ranks_[src].local * ranks_per_node_ + ranks_[dst].local;
  return kShmBase + static_cast<Addr>(slot) * kShmStride;
}

Addr MpiSimulation::rankBuffer(int rank) const {
  return kRankBufBase + static_cast<Addr>(ranks_[rank].local) * kRankBufStride;
}

void MpiSimulation::unblock(int rank, Cycle resume) {
  RankState& st = ranks_[rank];
  assert(st.blocked);
  st.core->skipTo(resume);
  st.blocked = false;
}

MpiRunResult MpiSimulation::run() {
  const int n = static_cast<int>(ranks_.size());
  while (true) {
    // Pick the runnable rank with the smallest local clock.
    int pick = -1;
    Cycle best = kCycleNever;
    bool all_done = true;
    for (int r = 0; r < n; ++r) {
      const RankState& st = ranks_[r];
      if (st.done) continue;
      all_done = false;
      if (!st.blocked && st.core->now() < best) {
        best = st.core->now();
        pick = r;
      }
    }
    if (all_done) break;
    if (pick < 0) {
      throw std::runtime_error(
          "MPI deadlock: all live ranks blocked (mismatched program?)");
    }
    step(pick);
  }

  result_.cycles = 0;
  result_.retired = 0;
  for (int r = 0; r < n; ++r) {
    result_.cycles = std::max(result_.cycles, result_.rank_cycles[r]);
    result_.retired += ranks_[r].core->retired();
  }
  return result_;
}

void MpiSimulation::step(int rank) {
  RankState& st = ranks_[rank];
  // Bounded skew: stop once we pass the next runnable rank's clock by the
  // slack, so shared-resource contention stays causal.
  Cycle limit = kCycleNever;
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    if (static_cast<int>(r) == rank) continue;
    const RankState& other = ranks_[r];
    if (!other.done && !other.blocked) {
      limit = std::min(limit, other.core->now() + params_.skew_slack);
    }
  }

  MicroOp op;
  for (unsigned i = 0; i < kStepQuantum; ++i) {
    if (st.core->now() > limit) return;
    if (!st.trace->next(&op)) {
      st.done = true;
      result_.rank_cycles[rank] = st.core->drain();
      return;
    }
    if (op.cls == OpClass::kMpi) {
      handleMpiOp(rank, op);
      return;
    }
    st.core->consume(op);
  }
}

void MpiSimulation::handleMpiOp(int rank, const MicroOp& op) {
  RankState& st = ranks_[rank];
  st.arrive = st.core->drain();
  st.pending = op;
  st.blocked = true;

  switch (op.mpi.kind) {
    case MpiKind::kSend: {
      const int dst = op.mpi.peer;
      if (dst < 0 || dst >= static_cast<int>(ranks_.size()) || dst == rank) {
        throw std::invalid_argument("kSend: bad peer rank");
      }
      PostedSend s;
      s.src = rank;
      s.tag = op.mpi.tag;
      s.bytes = op.mpi.bytes;
      // Eager only within a node: copy into the shared buffer now and
      // return to the app.
      s.eager = op.mpi.bytes <= params_.eager_limit &&
                ranks_[dst].node == st.node;
      if (s.eager) {
        s.data_ready = copy(rank, rankBuffer(rank), shmBuffer(rank, dst),
                            op.mpi.bytes, st.arrive + alpha_);
        unblock(rank, s.data_ready);
      } else {
        s.data_ready = st.arrive;  // rendezvous: waits for the receiver
      }
      sends_[dst].push_back(s);
      trySendRecvMatch(dst);
      break;
    }
    case MpiKind::kRecv: {
      PostedRecv r;
      r.peer = op.mpi.peer;
      r.tag = op.mpi.tag;
      r.arrive = st.arrive;
      recvs_[rank].push_back(r);
      trySendRecvMatch(rank);
      break;
    }
    case MpiKind::kWaitall:
      // All our sends/recvs are blocking; a waitall is a local no-op.
      unblock(rank, st.arrive + alpha_ / 4);
      break;
    case MpiKind::kBarrier:
    case MpiKind::kBcast:
    case MpiKind::kReduce:
    case MpiKind::kAllreduce:
    case MpiKind::kAlltoall:
      tryCollective(op.mpi.kind);
      break;
    case MpiKind::kNone:
      throw std::invalid_argument("kMpi micro-op with kind kNone");
  }
}

void MpiSimulation::trySendRecvMatch(int dst) {
  auto& rq = recvs_[dst];
  auto& sq = sends_[dst];
  while (!rq.empty()) {
    const PostedRecv recv = rq.front();
    // MPI matching order: the first posted send that satisfies (peer, tag).
    auto it = std::find_if(sq.begin(), sq.end(), [&](const PostedSend& s) {
      return (recv.peer == kAnyPeer || recv.peer == s.src) &&
             (recv.tag == -1 || recv.tag == s.tag);
    });
    if (it == sq.end()) return;
    const PostedSend send = *it;
    sq.erase(it);
    rq.pop_front();
    completeTransfer(send.src, dst, send, recv.arrive);
  }
}

void MpiSimulation::completeTransfer(int src, int dst,
                                     const PostedSend& send,
                                     Cycle recv_arrive) {
  if (!send.eager) {
    // Rendezvous: both sides handshake, then the payload moves.
    const auto [src_done, dst_done] =
        transferCost(src, dst, send.bytes, send.data_ready, recv_arrive);
    unblock(src, src_done);
    unblock(dst, dst_done);
    return;
  }
  // Eager: the sender already resumed at copy-in completion; the receiver
  // drains the shared buffer once both the data and the receiver are ready.
  ++result_.messages;
  result_.bytes_moved += send.bytes;
  const Cycle start = std::max(send.data_ready, recv_arrive + alpha_);
  unblock(dst, copy(dst, shmBuffer(src, dst), rankBuffer(dst), send.bytes,
                    start));
}

std::pair<Cycle, Cycle> MpiSimulation::transferCost(int src, int dst,
                                                    std::uint64_t bytes,
                                                    Cycle t_src,
                                                    Cycle t_dst) {
  ++result_.messages;
  result_.bytes_moved += bytes;
  const RankState& s = ranks_[src];
  const RankState& d = ranks_[dst];
  if (s.node == d.node) {
    // The sender streams in, the receiver streams out (pipelining between
    // the two copies is folded into bulkCopy cost).
    const Cycle start = std::max(t_src, t_dst) + alpha_;
    const Cycle in_done =
        copy(src, rankBuffer(src), shmBuffer(src, dst), bytes, start);
    const Cycle out_done =
        copy(dst, shmBuffer(src, dst), rankBuffer(dst), bytes, in_done);
    return {in_done, out_done};
  }

  // Between nodes: the sender drains its buffer to the NIC, the wire
  // serializes at link bandwidth, the flight adds latency, the receiver's
  // NIC and memory system land the payload.
  ++result_.inter_messages;
  result_.inter_bytes += bytes;
  const Cycle wire = std::max<Cycle>(
      1, static_cast<Cycle>(static_cast<double>(bytes) * cycles_per_byte_));
  const Cycle nic_in =
      copy(src, rankBuffer(src), shmBuffer(src, src), bytes, t_src + alpha_);
  const Cycle tx_start = nic_tx_[s.node].reserve(nic_in, wire);
  const Cycle rx_done =
      nic_rx_[d.node].reserve(tx_start + wire + net_latency_, wire) + wire;
  const Cycle out_done = copy(dst, shmBuffer(dst, dst), rankBuffer(dst),
                              bytes, std::max(rx_done, t_dst + alpha_));
  // The sender completes once the NIC has taken the data (buffered send).
  return {tx_start + wire, out_done};
}

void MpiSimulation::tryCollective(MpiKind kind) {
  // All ranks must reach their next collective before it resolves.
  std::size_t arrived = 0;
  for (const RankState& st : ranks_) {
    if (st.done) {
      throw std::runtime_error(
          "collective posted after some rank already finished");
    }
    if (st.blocked && st.pending.cls == OpClass::kMpi &&
        st.pending.mpi.kind != MpiKind::kSend &&
        st.pending.mpi.kind != MpiKind::kRecv &&
        st.pending.mpi.kind != MpiKind::kWaitall) {
      ++arrived;
    }
  }
  if (arrived != ranks_.size()) return;
  for (const RankState& st : ranks_) {
    if (st.pending.mpi.kind != kind) {
      throw std::runtime_error("mismatched collective kinds across ranks");
    }
  }
  resolveCollective(kind);
}

MpiRunResult runMpiProgram(Soc* soc, int nranks, const RankProgram& program,
                           const MpiParams& params) {
  std::vector<TraceSourcePtr> traces;
  traces.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) traces.push_back(program(r, nranks));
  MpiSimulation sim(soc, std::move(traces), params);
  return sim.run();
}

MpiRunResult runClusterProgram(const SocConfig& node_config,
                               const ClusterConfig& cluster,
                               const RankProgram& program) {
  std::vector<std::unique_ptr<Soc>> socs;
  std::vector<Soc*> nodes;
  for (unsigned n = 0; n < cluster.nodes; ++n) {
    socs.push_back(std::make_unique<Soc>(node_config));
    nodes.push_back(socs.back().get());
  }
  const int nranks = static_cast<int>(cluster.nodes * cluster.ranks_per_node);
  std::vector<TraceSourcePtr> traces;
  traces.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) traces.push_back(program(r, nranks));
  MpiSimulation sim(std::move(nodes), std::move(traces), cluster.mpi,
                    cluster.network);
  return sim.run();
}

}  // namespace bridge
