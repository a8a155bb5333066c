// EXTENSION — conditioned DATALOG on c-tables.
//
// The paper observes (Section 5, discussion of Theorem 5.2) that positive
// existential views embed into c-tables without exponential growth, while
// "this growth may be unavoidable for first order and DATALOG queries".
// This bench measures exactly that: the conditioned transitive-closure
// fixpoint on null-laden chains, reporting rows derived, subsumption and
// duplicate-suppression work.
//
// The fixpoint benches (*_SemiNaive, *_IndexedJoin, *_StratumSched) record
// absolute times of the one evaluation path for the perf trajectory; their
// work counters are gated deterministically by tests/work_bounds_test.cc.
// The SharedNullChain workload repeats the same few conditions across rows,
// which is where interning (memoized And, duplicate ids) pays off most.
// CI parses the JSON output and fails when the fast side of a regime pair
// regresses past 2x its twin (tools/check_bench_regression.py).
// The *_Magic / *_FullFixpoint pairs measure query-directed evaluation: a
// selective point query answered through the magic-set rewrite against the
// full fixpoint restricted afterwards, on a ground chain and on a DAG whose
// demand runs through a null. The *_Incremental / *_Recompute pair
// measures incremental view maintenance: an update stream folded into a
// maintained MaterializedView against rerunning the fixpoint from scratch
// after every update.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "datalog/eval.h"
#include "datalog/ivm.h"
#include "ilalgebra/datalog_ctable.h"
#include "tables/ctable.h"
#include "tables/updates.h"

namespace pw {
namespace {

DatalogProgram TransitiveClosure() {
  DatalogProgram p({2, 2}, 1);
  DatalogRule base;
  base.head = {1, Tuple{V(100), V(101)}};
  base.body = {{0, Tuple{V(100), V(101)}}};
  p.AddRule(base);
  DatalogRule step;
  step.head = {1, Tuple{V(100), V(102)}};
  step.body = {{1, Tuple{V(100), V(101)}}, {0, Tuple{V(101), V(102)}}};
  p.AddRule(step);
  return p;
}

/// Chain 0 -> 1 -> ... -> n where every `gap`-th edge goes through a null.
/// With `shared` the same null is reused for every gap (repeated
/// conditions); otherwise each gap gets a fresh null (condition diversity).
CDatabase NullChain(int n, int gap, bool shared = false) {
  CTable t(2);
  for (int i = 0; i < n; ++i) {
    if (gap > 0 && i % gap == gap - 1) {
      VarId null = shared ? 0 : i;
      t.AddRow(Tuple{C(i), V(null)});
      t.AddRow(Tuple{V(null), C(i + 1)});
    } else {
      t.AddRow(Tuple{C(i), C(i + 1)});
    }
  }
  return CDatabase{t};
}

void RunFixpoint(benchmark::State& state, const CDatabase& db,
                 const char* label) {
  DatalogProgram tc = TransitiveClosure();
  ConditionedFixpointStats stats;
  for (auto _ : state) {
    CDatabase out = DatalogOnCTables(tc, db, &stats);
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows"] = static_cast<double>(stats.derived_rows);
  state.counters["subsumed"] = static_cast<double>(stats.subsumed_rows);
  state.counters["dups"] = static_cast<double>(stats.duplicate_rows);
  state.counters["rounds"] = static_cast<double>(stats.rounds);
  state.counters["probes"] = static_cast<double>(stats.index_probes);
  state.counters["hits"] = static_cast<double>(stats.index_hits);
  state.SetLabel(label);
}

void BM_ConditionedTC_GroundChain_SemiNaive(benchmark::State& state) {
  CDatabase db = NullChain(static_cast<int>(state.range(0)), /*gap=*/0);
  RunFixpoint(state, db, "ground chain, semi-naive interned");
}
BENCHMARK(BM_ConditionedTC_GroundChain_SemiNaive)
    ->DenseRange(8, 32, 8)
    ->Unit(benchmark::kMicrosecond);

// Lineage growth is exponential in the number of nulls (every pair of null
// endpoints yields conditional cross-paths), so this bench stays at the
// smoke sizes. The un-capped diversity sweep lives in the
// *_NullChainDiversity_DDBackend / _Antichain pair below, where the
// decision-diagram backend keeps the large sizes tractable.
void BM_ConditionedTC_NullChain_SemiNaive(benchmark::State& state) {
  CDatabase db = NullChain(static_cast<int>(state.range(0)), /*gap=*/3);
  RunFixpoint(state, db, "null chain, semi-naive interned");
}
BENCHMARK(BM_ConditionedTC_NullChain_SemiNaive)
    ->DenseRange(6, 9, 3)
    ->Unit(benchmark::kMicrosecond);

// Indexed body-atom matching: the step rule q(x,z) :- q(x,y), p(y,z)
// matches each delta row against p through the hash index on p's first
// column instead of scanning all n edges — an O(n + output) join loop
// rather than O(n * delta).
void BM_ConditionedTC_GroundChain_IndexedJoin(benchmark::State& state) {
  CDatabase db = NullChain(static_cast<int>(state.range(0)), /*gap=*/0);
  RunFixpoint(state, db, "ground chain, semi-naive indexed join");
}
BENCHMARK(BM_ConditionedTC_GroundChain_IndexedJoin)
    ->DenseRange(8, 32, 8)
    ->Unit(benchmark::kMicrosecond);

void BM_ConditionedTC_SharedNullChain_IndexedJoin(benchmark::State& state) {
  CDatabase db =
      NullChain(static_cast<int>(state.range(0)), /*gap=*/3, /*shared=*/true);
  RunFixpoint(state, db, "shared-null chain, semi-naive indexed join");
}
BENCHMARK(BM_ConditionedTC_SharedNullChain_IndexedJoin)
    ->DenseRange(8, 24, 8)
    ->Unit(benchmark::kMicrosecond);

/// A goal query answered by the magic-set rewrite (DatalogQueryOnCTables)
/// or, with `magic` false, by the reference it must equal: the full
/// fixpoint's goal table restricted to the bindings, with the global
/// condition attached.
CTable QueryGoal(const DatalogProgram& program, const CDatabase& db, int goal,
                 const std::vector<std::optional<ConstId>>& bindings,
                 bool magic, ConditionedFixpointStats* stats) {
  if (magic) return DatalogQueryOnCTables(program, db, goal, bindings, stats);
  ConditionInterner& interner = ConditionInterner::Global();
  ConjId global_id = db.CombinedGlobalId(interner);
  CDatabase full = DatalogOnCTables(program, db, stats);
  CTable out = RestrictTableToGoal(full.table(static_cast<size_t>(goal)),
                                   bindings, global_id, interner);
  out.SetGlobal(db.CombinedGlobal(), global_id, interner);
  return out;
}

// Demand-driven (magic-set) point query: who does node 0 reach? The full
// fixpoint derives all O(n^2) transitive-closure facts before restricting to
// the goal; the magic-set rewrite (DatalogQueryOnCTables) derives only the
// O(n) demand-reachable ones. Paired as *_Magic / *_FullFixpoint for the CI
// gate — the magic path must stay well under the 2x budget (it is expected
// to be >= 10x faster at the largest smoke size).
void RunPointQuery(benchmark::State& state, bool magic, const char* label) {
  CDatabase db = NullChain(static_cast<int>(state.range(0)), /*gap=*/0);
  DatalogProgram tc = TransitiveClosure();
  std::vector<std::optional<ConstId>> bindings{ConstId{0}, std::nullopt};
  ConditionedFixpointStats stats;
  for (auto _ : state) {
    CTable out = QueryGoal(tc, db, /*goal=*/1, bindings, magic, &stats);
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows"] = static_cast<double>(stats.derived_rows);
  state.counters["rounds"] = static_cast<double>(stats.rounds);
  state.counters["magic_facts"] = static_cast<double>(stats.magic_facts);
  state.counters["rules_adorned"] = static_cast<double>(stats.rules_adorned);
  state.counters["demand_pruned"] = static_cast<double>(stats.demand_pruned);
  state.SetLabel(label);
}

void BM_ConditionedTC_PointQuery_Magic(benchmark::State& state) {
  RunPointQuery(state, /*magic=*/true,
                "tc(0, ?) on a ground chain, magic-set demand evaluation");
}
BENCHMARK(BM_ConditionedTC_PointQuery_Magic)
    ->DenseRange(64, 256, 64)
    ->Unit(benchmark::kMicrosecond);

void BM_ConditionedTC_PointQuery_FullFixpoint(benchmark::State& state) {
  RunPointQuery(state, /*magic=*/false,
                "tc(0, ?) on a ground chain, full fixpoint then restrict");
}
BENCHMARK(BM_ConditionedTC_PointQuery_FullFixpoint)
    ->DenseRange(64, 256, 64)
    ->Unit(benchmark::kMicrosecond);

/// Right-recursive transitive closure, edge = predicate 0, tc = 1:
/// tc(X,Y) :- edge(X,Y).  tc(X,Y) :- edge(X,Z), tc(Z,Y).
DatalogProgram RightRecursiveTc() {
  DatalogProgram p({2, 2}, 1);
  p.AddRule({{1, {V(0), V(1)}}, {{0, {V(0), V(1)}}}});
  p.AddRule({{1, {V(0), V(1)}}, {{0, {V(0), V(2)}}, {1, {V(2), V(1)}}}});
  return p;
}

/// A forward DAG on `n` nodes with two out-edges per node, at most 6 ahead,
/// plus two edges routed through one shared null: i -> ?x -> i+3 at
/// i = n/3 and 2n/3 (the shape of the end-to-end view workload).
CDatabase NullRoutedDag(int n) {
  CTable t(2);
  for (int i = 0; i < n; ++i) {
    for (int j : {i + 1 + i % 3, i + 4 + (i / 3) % 3}) {
      if (j < n) t.AddRow(Tuple{C(i), C(j)});
    }
  }
  for (int k = 1; k <= 2; ++k) {
    t.AddRow(Tuple{C(k * n / 3), V(0)});
    t.AddRow(Tuple{V(0), C(k * n / 3 + 3)});
  }
  return CDatabase{t};
}

/// Rows as (tuple, interned condition id), sorted: equal iff two answers
/// are identical up to row order.
std::vector<std::pair<Tuple, ConjId>> RowsWithIds(const CTable& t) {
  std::vector<std::pair<Tuple, ConjId>> out;
  for (const CRow& row : t.rows()) {
    out.emplace_back(row.tuple, row.LocalId(ConditionInterner::Global()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Demand through a null: tc(0, ?) on the null-routed DAG reaches ?x, so a
// demand fact m.tc#bf(?x) matches every keyed probe of its guard under an
// ?x = c condition. A guarded rewrite builds the closure of every demanded
// node and loses to the full fixpoint; the goal is right-linear, so the
// factored rewrite (datalog/magic.h) derives only demand facts and the
// goal's own answers. `agrees_with_full` is 1 iff both paths return
// identical rows.
void RunNullRoutedQuery(benchmark::State& state, bool magic,
                        const char* label) {
  CDatabase db = NullRoutedDag(static_cast<int>(state.range(0)));
  DatalogProgram tc = RightRecursiveTc();
  std::vector<std::optional<ConstId>> bindings{ConstId{0}, std::nullopt};
  const CTable reference =
      QueryGoal(tc, db, /*goal=*/1, bindings, !magic, nullptr);
  ConditionedFixpointStats stats;
  CTable out;
  for (auto _ : state) {
    out = QueryGoal(tc, db, /*goal=*/1, bindings, magic, &stats);
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows"] = static_cast<double>(stats.derived_rows);
  state.counters["magic_facts"] = static_cast<double>(stats.magic_facts);
  state.counters["join_work"] =
      static_cast<double>(stats.index_hits + stats.pruned_branches);
  state.counters["agrees_with_full"] =
      RowsWithIds(out) == RowsWithIds(reference) ? 1 : 0;
  state.SetLabel(label);
}

void BM_ConditionedTC_NullRoutedQuery_Magic(benchmark::State& state) {
  RunNullRoutedQuery(state, /*magic=*/true,
                     "tc(0, ?) on a null-routed DAG, magic-set demand");
}
BENCHMARK(BM_ConditionedTC_NullRoutedQuery_Magic)
    ->DenseRange(30, 90, 30)
    ->Unit(benchmark::kMicrosecond);

void BM_ConditionedTC_NullRoutedQuery_FullFixpoint(benchmark::State& state) {
  RunNullRoutedQuery(state, /*magic=*/false,
                     "tc(0, ?) on a null-routed DAG, full fixpoint");
}
BENCHMARK(BM_ConditionedTC_NullRoutedQuery_FullFixpoint)
    ->DenseRange(30, 90, 30)
    ->Unit(benchmark::kMicrosecond);

// Live updates: a stream of edge insertions extending the chain, with a
// delete + reinsert of an existing edge every 24th step. The incremental
// side maintains one MaterializedView (datalog/ivm.h): each insertion seeds
// the converged semi-naive state and resumes, so the cost tracks the
// insertion's derivation cone; each deletion takes the covered fast path or
// the cone over-delete/re-derive. The recompute side applies the same
// updates to the base table and reruns the full fixpoint from scratch after
// every one. Both sides pay the initial materialization inside the timed
// region. Paired as *_Incremental / *_Recompute for the CI gate — the
// maintained view must stay well under the 2x budget (expected >= 5x faster
// at the smoke sizes).
void RunUpdateStream(benchmark::State& state, bool incremental,
                     const char* label) {
  const int n = static_cast<int>(state.range(0));
  DatalogProgram tc = TransitiveClosure();
  size_t derived = 0;
  size_t covered = 0;
  size_t rebuilds = 0;
  for (auto _ : state) {
    CDatabase db = NullChain(n, /*gap=*/0);
    if (incremental) {
      MaterializedView view(tc, db);
      for (int u = 0; u < n; ++u) {
        if (u % 24 == 23) {
          Fact edge{u, u + 1};
          view.Delete(0, edge);
          view.Insert(0, edge);
        } else {
          view.Insert(0, {n + u, n + u + 1});
        }
      }
      benchmark::DoNotOptimize(view);
      IvmStats stats = view.stats();
      derived = stats.fixpoint.derived_rows;
      covered = stats.deletes_covered;
      rebuilds = stats.cone_rebuilds;
    } else {
      CTable base = db.table(0);
      derived = 0;
      for (int u = 0; u < n; ++u) {
        if (u % 24 == 23) {
          Fact edge{u, u + 1};
          DeleteFactInPlace(base, edge);
          InsertFactInPlace(base, edge);
        } else {
          InsertFactInPlace(base, {n + u, n + u + 1});
        }
        ConditionedFixpointStats stats;
        CDatabase out = DatalogOnCTables(tc, CDatabase{base}, &stats);
        benchmark::DoNotOptimize(out);
        derived += stats.derived_rows;
      }
    }
  }
  state.counters["rows"] = static_cast<double>(derived);
  if (incremental) {
    state.counters["covered"] = static_cast<double>(covered);
    state.counters["rebuilds"] = static_cast<double>(rebuilds);
  }
  state.SetLabel(label);
}

void BM_ConditionedTC_UpdateStream_Incremental(benchmark::State& state) {
  RunUpdateStream(state, /*incremental=*/true,
                  "edge-update stream, maintained view (IVM)");
}
BENCHMARK(BM_ConditionedTC_UpdateStream_Incremental)
    ->DenseRange(32, 64, 32)
    ->Unit(benchmark::kMicrosecond);

void BM_ConditionedTC_UpdateStream_Recompute(benchmark::State& state) {
  RunUpdateStream(state, /*incremental=*/false,
                  "edge-update stream, full recompute per update");
}
BENCHMARK(BM_ConditionedTC_UpdateStream_Recompute)
    ->DenseRange(32, 64, 32)
    ->Unit(benchmark::kMicrosecond);

// The antichain blowup, head-on: with a fresh null every gap, the lineage of
// a far-reachable tuple is a disjunction over exponentially many equality
// patterns, and the conjunctive backend keeps each disjunct as its own
// antichain row. The decision-diagram backend keeps ONE row per tuple whose
// condition is a hash-consed diagram, so And/Or stay polynomial in diagram
// size and the sweep runs un-capped past the sizes the null-chain bench
// above must stop at. Each iteration evaluates against a fresh private
// interner and freshly built base table, so both sides start cold — the
// comparison is backend vs backend, not warm memo tables vs a per-query
// diagram store. Paired as *_DDBackend / *_Antichain for the CI gate with a
// tightened 1.2x budget — DD must never lose the low-diversity sizes by
// more than 1.2x, and must beat the antichain by >= 5x at the largest size
// (tools/check_bench_regression.py enforces both).
void RunDiversitySweep(benchmark::State& state, ConditionBackendKind backend,
                       const char* label) {
  const int n = static_cast<int>(state.range(0));
  DatalogProgram tc = TransitiveClosure();
  ConditionedFixpointStats stats;
  for (auto _ : state) {
    ConditionInterner interner;
    CDatabase db = NullChain(n, /*gap=*/3);
    DatalogCTableOptions options;
    options.interner = &interner;
    options.condition_backend = backend;
    CDatabase out = DatalogOnCTables(tc, db, &stats, options);
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows"] = static_cast<double>(stats.derived_rows);
  state.counters["subsumed"] = static_cast<double>(stats.subsumed_rows);
  state.counters["rounds"] = static_cast<double>(stats.rounds);
  state.SetLabel(label);
}

void BM_ConditionedTC_NullChainDiversity_DDBackend(benchmark::State& state) {
  RunDiversitySweep(state, ConditionBackendKind::kDecisionDiagrams,
                    "null chain, semi-naive, decision diagrams");
}
BENCHMARK(BM_ConditionedTC_NullChainDiversity_DDBackend)
    ->DenseRange(6, 12, 3)
    ->Unit(benchmark::kMicrosecond);

void BM_ConditionedTC_NullChainDiversity_Antichain(benchmark::State& state) {
  RunDiversitySweep(state, ConditionBackendKind::kConjunctions,
                    "null chain, semi-naive, antichain rows");
}
BENCHMARK(BM_ConditionedTC_NullChainDiversity_Antichain)
    ->DenseRange(6, 12, 3)
    ->Unit(benchmark::kMicrosecond);

// Stratum scheduling on a layered multi-SCC program: transitive closure at
// the bottom (the only recursive SCC), then a cascade of nonrecursive join
// layers, plus a dead rule guarded by a rule-less predicate. The stratum
// schedule evaluates SCCs in topological order — delta rounds confined to
// the bottom SCC, one pass per nonrecursive layer, the dead rule skipped
// outright.
DatalogProgram LayeredCascade() {
  constexpr int kLayers = 6;
  // Predicates: 0 = edge (EDB), 1 = tc (recursive), 2..1+kLayers the
  // nonrecursive cascade, 2+kLayers = barren (no rules; bodies naming it
  // are dead).
  const int barren = 2 + kLayers;
  DatalogProgram p(std::vector<int>(static_cast<size_t>(barren) + 1, 2), 1);
  DatalogRule base;
  base.head = {1, Tuple{V(100), V(101)}};
  base.body = {{0, Tuple{V(100), V(101)}}};
  p.AddRule(base);
  DatalogRule step;
  step.head = {1, Tuple{V(100), V(102)}};
  step.body = {{1, Tuple{V(100), V(101)}}, {0, Tuple{V(101), V(102)}}};
  p.AddRule(step);
  for (int l = 0; l < kLayers; ++l) {
    const int head = 2 + l;
    DatalogRule copy;
    copy.head = {head, Tuple{V(100), V(101)}};
    copy.body = {{head - 1, Tuple{V(100), V(101)}}};
    p.AddRule(copy);
    DatalogRule join;
    join.head = {head, Tuple{V(100), V(102)}};
    join.body = {{head - 1, Tuple{V(100), V(101)}},
                 {0, Tuple{V(101), V(102)}}};
    p.AddRule(join);
  }
  DatalogRule dead;
  dead.head = {2 + kLayers - 1, Tuple{V(100), V(101)}};
  dead.body = {{1, Tuple{V(100), V(101)}}, {barren, Tuple{V(100), V(101)}}};
  p.AddRule(dead);
  return p;
}

void RunLayered(benchmark::State& state, const char* label) {
  CDatabase db = NullChain(static_cast<int>(state.range(0)), /*gap=*/0);
  DatalogProgram cascade = LayeredCascade();
  ConditionedFixpointStats stats;
  for (auto _ : state) {
    CDatabase out = DatalogOnCTables(cascade, db, &stats);
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows"] = static_cast<double>(stats.derived_rows);
  state.counters["rounds"] = static_cast<double>(stats.rounds);
  state.counters["strata"] = static_cast<double>(stats.strata);
  state.counters["dead_skipped"] =
      static_cast<double>(stats.dead_rules_skipped);
  state.SetLabel(label);
}

void BM_ConditionedLayers_Cascade_StratumSched(benchmark::State& state) {
  RunLayered(state, "layered cascade, SCC-scheduled semi-naive");
}
BENCHMARK(BM_ConditionedLayers_Cascade_StratumSched)
    ->DenseRange(8, 24, 8)
    ->Unit(benchmark::kMicrosecond);

// One shared null across every gap: the same handful of conditions recurs in
// every derivation, so the memoized And/Implies caches and the (tuple, id)
// duplicate check carry the load.
void BM_ConditionedTC_SharedNullChain_SemiNaive(benchmark::State& state) {
  CDatabase db =
      NullChain(static_cast<int>(state.range(0)), /*gap=*/3, /*shared=*/true);
  RunFixpoint(state, db, "shared-null chain, semi-naive interned");
}
BENCHMARK(BM_ConditionedTC_SharedNullChain_SemiNaive)
    ->DenseRange(8, 24, 8)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace pw

int main(int argc, char** argv) {
  pw::benchutil::Header(
      "EXTENSION: conditioned DATALOG fixpoint on c-tables",
      "The paper: c-table images of DATALOG queries exist but 'this growth "
      "may be unavoidable'. Time the semi-naive interned fixpoint on ground, "
      "null-laden, and shared-null chains under conditioned transitive "
      "closure.");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
