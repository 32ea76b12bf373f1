// Collective algorithms for the simulated MPI runtime.
//
// Implemented with the standard distributed algorithms so scaling behaviour
// emerges from the pt2pt cost model rather than curve fitting:
//   barrier   — dissemination (ceil(log2 n) rounds of 8-byte messages)
//   bcast     — binomial tree from the root
//   reduce    — binomial tree to the root, with per-element combine cost
//   allreduce — reduce + bcast (general n; the paper only needs n <= 4)
//   alltoall  — pairwise exchange, n-1 rounds
#include <algorithm>
#include <stdexcept>
#include <vector>

#include "mpi/mpi.h"

namespace bridge {

namespace {
// Per-element combine cost of a reduction (one fp add + bookkeeping).
constexpr Cycle kCombineCyclesPerElement = 2;
constexpr std::uint64_t kElementBytes = 8;
}  // namespace

void MpiSimulation::resolveCollective(MpiKind kind) {
  const int n = numRanks();
  std::vector<Cycle> t(n);
  // Every rank pays the runtime's software entry cost once, even in the
  // degenerate single-rank case.
  for (int i = 0; i < n; ++i) t[i] = ranks_[i].arrive + alpha_;
  const std::uint64_t bytes = ranks_[0].pending.mpi.bytes;
  const int root = std::max(0, ranks_[0].pending.mpi.peer);

  auto combineCost = [&](std::uint64_t b) {
    return kCombineCyclesPerElement * (b / kElementBytes + 1);
  };

  switch (kind) {
    case MpiKind::kBarrier: {
      for (int k = 1; k < n; k <<= 1) {
        std::vector<Cycle> send_done(n), recv_done(n);
        for (int i = 0; i < n; ++i) {
          const int dst = (i + k) % n;
          const auto [s, r] = transferCost(i, dst, 8, t[i], t[dst]);
          send_done[i] = s;
          recv_done[dst] = r;
        }
        for (int i = 0; i < n; ++i) {
          t[i] = std::max(send_done[i], recv_done[i]);
        }
      }
      break;
    }
    case MpiKind::kBcast: {
      // Binomial tree rooted at `root` (relative ranks).
      for (int k = 1; k < n; k <<= 1) {
        for (int rel = 0; rel < k && rel + k < n; ++rel) {
          const int src = (root + rel) % n;
          const int dst = (root + rel + k) % n;
          const auto [s, r] = transferCost(src, dst, bytes, t[src], t[dst]);
          t[src] = s;
          t[dst] = std::max(t[dst], r);
        }
      }
      break;
    }
    case MpiKind::kReduce:
    case MpiKind::kAllreduce: {
      // Binomial reduce toward the root.
      for (int k = 1; k < n; k <<= 1) {
        for (int rel = 0; rel + k < n; rel += 2 * k) {
          const int dst = (root + rel) % n;       // receives and combines
          const int src = (root + rel + k) % n;   // sends its partial
          const auto [s, r] = transferCost(src, dst, bytes, t[src], t[dst]);
          t[src] = s;
          t[dst] = std::max(t[dst], r) + combineCost(bytes);
        }
      }
      if (kind == MpiKind::kAllreduce) {
        // Broadcast the result back down the same tree.
        for (int k = 1; k < n; k <<= 1) {
          for (int rel = 0; rel < k && rel + k < n; ++rel) {
            const int src = (root + rel) % n;
            const int dst = (root + rel + k) % n;
            const auto [s, r] = transferCost(src, dst, bytes, t[src], t[dst]);
            t[src] = s;
            t[dst] = std::max(t[dst], r);
          }
        }
      }
      break;
    }
    case MpiKind::kAlltoall: {
      // Pairwise exchange: in round s, rank i exchanges with (i + s) % n;
      // `bytes` is the per-destination payload.
      for (int s = 1; s < n; ++s) {
        std::vector<Cycle> next = t;
        for (int i = 0; i < n; ++i) {
          const int dst = (i + s) % n;
          const auto [sd, rd] = transferCost(i, dst, bytes, t[i], t[dst]);
          next[i] = std::max(next[i], sd);
          next[dst] = std::max(next[dst], rd);
        }
        t = next;
      }
      break;
    }
    default:
      throw std::logic_error("resolveCollective: not a collective");
  }

  for (int i = 0; i < n; ++i) unblock(i, t[i]);
}

}  // namespace bridge
