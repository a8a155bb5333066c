// SAT core: absolute CDCL times on the reduction-shaped stress corpus
// (reductions/sat_encode.h).
//
// Three families: planted 3-colorable graphs (satisfiable, the shape the
// colorability reductions emit), pigeonhole PHP(n+1, n) (unsatisfiable,
// needs clause learning), and the scrambled implication chain (pure
// propagation: watched literals walk it once). The solver's work on each
// family at its largest size here — conflicts, decisions, propagations and
// watch-list visits — is gated deterministically by
// tests/work_bounds_test.cc; this bench records the wall time.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "reductions/sat_encode.h"
#include "solvers/sat.h"
#include "workload/random_gen.h"

namespace pw {
namespace {

void RunSolve(benchmark::State& state, const ClausalFormula& formula,
              bool expected_sat, const char* label) {
  bool sat = !expected_sat;
  SatStats stats;
  for (auto _ : state) {
    SatResult result = SolveCnf(formula);
    sat = result.sat;
    stats = result.stats;
    benchmark::DoNotOptimize(result);
  }
  state.counters["verdict_ok"] = (sat == expected_sat) ? 1 : 0;
  state.counters["vars"] = formula.num_vars;
  state.counters["clauses"] = static_cast<double>(formula.clauses.size());
  state.counters["conflicts"] = static_cast<double>(stats.conflicts);
  state.counters["watch_visits"] = static_cast<double>(stats.watch_visits);
  state.SetLabel(label);
}

ClausalFormula ColoringInstance(int nodes) {
  auto rng = benchutil::Rng(211u + static_cast<uint32_t>(nodes));
  return GraphColoringToCnf(RandomThreeColorableGraph(nodes, 0.5, rng), 3);
}

void BM_Coloring(benchmark::State& state) {
  int nodes = static_cast<int>(state.range(0));
  RunSolve(state, ColoringInstance(nodes), /*expected_sat=*/true,
           "planted 3-coloring, SAT");
}
BENCHMARK(BM_Coloring)
    ->RangeMultiplier(2)
    ->Range(16, 64)
    ->Unit(benchmark::kMicrosecond);

void BM_Pigeonhole(benchmark::State& state) {
  int holes = static_cast<int>(state.range(0));
  RunSolve(state, PigeonholeCnf(holes), /*expected_sat=*/false,
           "PHP(n+1, n), UNSAT");
}
BENCHMARK(BM_Pigeonhole)->DenseRange(4, 6)->Unit(benchmark::kMicrosecond);

void BM_Chain(benchmark::State& state) {
  int length = static_cast<int>(state.range(0));
  RunSolve(state, ScrambledImplicationChainCnf(length),
           /*expected_sat=*/false, "scrambled implication chain, UNSAT");
}
BENCHMARK(BM_Chain)
    ->RangeMultiplier(4)
    ->Range(256, 4096)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace pw

int main(int argc, char** argv) {
  pw::benchutil::Header(
      "SAT core: CDCL on the reduction-shaped corpus",
      "Claim: the trail-based CDCL engine (watched literals, 1UIP learning, "
      "backjumping, restarts) decides planted 3-coloring, pigeonhole and "
      "propagation-heavy implication chains while logging checkable "
      "certificates. Its work counters are gated by "
      "tests/work_bounds_test.cc.");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
