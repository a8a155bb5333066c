// THM 5.1 — unbounded possibility.
//
//   (1) PTIME on Codd-tables via bipartite matching, scaling to thousands
//       of pattern facts.
//   (2) NP-complete on e-tables, (3) on i-tables: the 3CNF-satisfiability
//       reductions, cross-checked against the CDCL SAT core.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "decision/possibility.h"
#include "reductions/satisfiability.h"
#include "solvers/sat.h"
#include "workload/random_gen.h"

namespace pw {
namespace {

// (1) PTIME.
void BM_Thm51_CoddPossibility_PTIME(benchmark::State& state) {
  auto rng = benchutil::Rng(51);
  int rows = static_cast<int>(state.range(0));
  RandomCTableOptions options;
  options.arity = 2;
  options.num_rows = rows;
  options.num_constants = 8;
  options.num_variables = 10'000'000;
  CTable t = RandomCTable(options, rng);
  CDatabase db{t};
  Instance pattern({RandomRelation(2, rows / 2, 8, rng)});
  for (auto _ : state) {
    auto r = PossUnboundedCoddTables(db, pattern);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("Thm 5.1(1): matching, PTIME");
}
BENCHMARK(BM_Thm51_CoddPossibility_PTIME)
    ->RangeMultiplier(4)
    ->Range(16, 4096)
    ->Unit(benchmark::kMicrosecond);

// (2) NP on e-tables: 3CNF near the satisfiability threshold.
void BM_Thm51_ETablePossibility_NP(benchmark::State& state) {
  auto rng = benchutil::Rng(53 + static_cast<uint32_t>(state.range(0)));
  int vars = static_cast<int>(state.range(0));
  ClausalFormula cnf = RandomClausalFormula(vars, 4 * vars, 3, rng);
  UnboundedPossibilityInstance inst = SatToETablePossibility(cnf);
  bool expected = IsSatisfiable(cnf);
  bool got = expected;
  for (auto _ : state) {
    got = PossibilityUnbounded(View::Identity(), inst.database, inst.pattern);
    benchmark::DoNotOptimize(got);
  }
  state.counters["agrees_with_sat_solver"] = (got == expected) ? 1 : 0;
  state.SetLabel("Thm 5.1(2): e-table, NP-complete");
}
BENCHMARK(BM_Thm51_ETablePossibility_NP)
    ->DenseRange(3, 9, 2)
    ->Unit(benchmark::kMicrosecond);

// (3) NP on i-tables.
void BM_Thm51_ITablePossibility_NP(benchmark::State& state) {
  auto rng = benchutil::Rng(59 + static_cast<uint32_t>(state.range(0)));
  int vars = static_cast<int>(state.range(0));
  ClausalFormula cnf = RandomClausalFormula(vars, 4 * vars, 3, rng);
  UnboundedPossibilityInstance inst = SatToITablePossibility(cnf);
  bool expected = IsSatisfiable(cnf);
  bool got = expected;
  for (auto _ : state) {
    got = PossibilityUnbounded(View::Identity(), inst.database, inst.pattern);
    benchmark::DoNotOptimize(got);
  }
  state.counters["agrees_with_sat_solver"] = (got == expected) ? 1 : 0;
  state.SetLabel("Thm 5.1(3): i-table, NP-complete");
}
BENCHMARK(BM_Thm51_ITablePossibility_NP)
    ->DenseRange(3, 9, 2)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace pw

int main(int argc, char** argv) {
  pw::benchutil::Header(
      "THM 5.1: unbounded possibility POSS(*, -)",
      "Claim: PTIME on Codd-tables (matching saturating the pattern); "
      "NP-complete already for a single e-table or i-table "
      "(3CNF satisfiability).");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
