// Untraced build: every probe hook is a no-op.
#include "probe.h"

namespace hostbench {

bool probeActive() { return false; }
void probeSetPhase(Phase) {}
ProbeTotals probeTotals(Phase) { return {}; }
SpanCost probeSpanCost() { return {}; }
void probeCalibrate(double, double, Phase, double) {}
void probeBalance(Phase, Layer) {}
void probeWriteCellSpans(const std::string&) {}

}  // namespace hostbench
