// Simulator-component throughput benchmarks (google-benchmark): how fast
// the timing models themselves run on the host. These guard against
// regressions that would make full-figure sweeps impractically slow.
#include <benchmark/benchmark.h>

#include "branch/composite.h"
#include "branch/tage.h"
#include "cache/hierarchy.h"
#include "core/inorder.h"
#include "core/ooo.h"
#include "dram/controller.h"
#include "platforms/platforms.h"
#include "sim/rng.h"
#include "soc/soc.h"
#include "trace/kernel.h"
#include "workloads/microbench.h"

namespace {

using namespace bridge;

void BM_TagePredict(benchmark::State& state) {
  TagePredictor tage;
  Xorshift64Star rng(1);
  Addr pc = 0x400;
  for (auto _ : state) {
    const bool taken = rng.nextBool(0.6);
    benchmark::DoNotOptimize(tage.predict(pc));
    tage.update(pc, taken);
    pc = 0x400 + (rng.next() & 0xFF) * 4;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TagePredict);

void BM_CacheAccess(benchmark::State& state) {
  SetAssocCache cache({static_cast<unsigned>(state.range(0)), 8});
  Xorshift64Star rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.access(rng.nextBelow(1 << 22), false).hit);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess)->Arg(64)->Arg(1024)->Arg(16384);

void BM_DramRead(benchmark::State& state) {
  DramController dram(ddr3_2000_quadrank(), 2.0);
  Xorshift64Star rng(3);
  Cycle t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dram.read(rng.nextBelow(1 << 24) * 64, t));
    t += 4;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramRead);

void BM_HierarchyLoad(benchmark::State& state) {
  StatRegistry stats;
  SocConfig cfg = makePlatform(PlatformId::kMilkVSim, 1);
  MemSysParams mp = cfg.mem;
  mp.freq_ghz = cfg.freq_ghz;
  MemoryHierarchy mem(1, mp, &stats);
  Xorshift64Star rng(4);
  Cycle t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mem.load(0, 0x400, rng.nextBelow(1 << 22), t).complete);
    t += 2;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyLoad);

void BM_InOrderCoreUopThroughput(benchmark::State& state) {
  Soc soc(makePlatform(PlatformId::kBananaPiSim, 1));
  MicroOp op;
  op.cls = OpClass::kIntAlu;
  op.dst = intReg(5);
  op.src0 = intReg(6);
  op.pc = 0x400;
  for (auto _ : state) {
    soc.core(0).consume(op);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InOrderCoreUopThroughput);

void BM_OooCoreUopThroughput(benchmark::State& state) {
  Soc soc(makePlatform(PlatformId::kMilkVSim, 1));
  MicroOp op;
  op.cls = OpClass::kIntAlu;
  op.dst = intReg(5);
  op.src0 = intReg(6);
  op.pc = 0x400;
  for (auto _ : state) {
    soc.core(0).consume(op);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OooCoreUopThroughput);

void BM_MicrobenchTraceGeneration(benchmark::State& state) {
  auto trace = makeMicrobench("CCh", 100.0);  // effectively unbounded
  MicroOp op;
  for (auto _ : state) {
    if (!trace->next(&op)) {
      trace = makeMicrobench("CCh", 100.0);
      trace->next(&op);
    }
    benchmark::DoNotOptimize(op.pc);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MicrobenchTraceGeneration);

void BM_EndToEndKernel(benchmark::State& state) {
  for (auto _ : state) {
    Soc soc(makePlatform(PlatformId::kBananaPiSim, 1));
    auto trace = makeMicrobench("ED1", 0.05);
    benchmark::DoNotOptimize(soc.runTrace(*trace));
  }
}
BENCHMARK(BM_EndToEndKernel)->Unit(benchmark::kMillisecond);

}  // namespace
