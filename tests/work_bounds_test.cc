// Deterministic work bounds for the evaluation fast paths and the SAT core.
//
// Each case runs one benchmark shape (bench/ext_conditioned_datalog.cc,
// bench/join_index.cc, bench/thm52_bounded_possibility.cc,
// bench/sat_core.cc, and the end-to-end view_maintenance workload's
// conditioned transitive closure) at a fixed size and asserts the stats
// counters of the one evaluation path:
//
//   - mechanism floors: the index is probed, the semi-naive deltas derive
//     each ground row once, fused joins never fall back to nested loops or
//     scans, the planner fuses every leaf, the stratum schedule fires one
//     stratum per firing SCC, the interner's And cache carries the self-join;
//   - work ceilings: join work (index hits plus pruned branches, or pairs
//     enumerated) and row work (derived plus subsumed rows) stay within 1.25x
//     of the values measured when these bounds were set;
//   - IVM work ceilings: over a fixed insert/delete stream, the rows
//     over-deleted, the cone rebuilds, and the fixpoint's derived rows and
//     index builds stay within 1.25x of the measured values, so a delete
//     that clears or re-derives more than it does today fails;
//   - SAT work ceilings: conflicts, decisions, propagations and watch-list
//     visits of the CDCL core, also within 1.25x of the measured values. On
//     the pure-propagation chain the watch-visit ceiling is linear in the
//     chain length, so a propagation loop that re-scans the clause list per
//     assigned literal (quadratic) fails it; conflict analysis that stops
//     learning blows the pigeonhole and coloring conflict ceilings.
//
// The counters are a function of the input alone (private interners, fresh
// tables), so the bounds hold in every build mode and under sanitizers. A
// fast path that silently falls back to a slower algorithm — scanning
// instead of probing, re-firing old rows, skipping the planner — moves a
// counter past its bound even when its wall time would not show it.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "condition/backend.h"
#include "condition/interner.h"
#include "datalog/ivm.h"
#include "datalog/program.h"
#include "ilalgebra/ctable_eval.h"
#include "ilalgebra/datalog_ctable.h"
#include "reductions/sat_encode.h"
#include "solvers/sat.h"
#include "tables/ctable.h"
#include "test_util.h"
#include "workload/random_gen.h"

namespace pw {
namespace {

// --- Shapes (identical to the benchmarks') ----------------------------------

using testutil::NullChain;
using testutil::TransitiveClosure;

/// Transitive closure, then six nonrecursive join layers, plus a dead rule
/// guarded by a rule-less predicate: seven SCCs fire.
DatalogProgram LayeredCascade() {
  constexpr int kLayers = 6;
  const int barren = 2 + kLayers;
  DatalogProgram p(std::vector<int>(static_cast<size_t>(barren) + 1, 2), 1);
  DatalogProgram tc = TransitiveClosure();
  for (const DatalogRule& rule : tc.rules()) p.AddRule(rule);
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

/// L = chain edges (i, i+1), R = successor edges (i+1, i+2); every
/// `null_gap`-th R row carries a fresh null at the join column.
CDatabase JoinInput(int n, int null_gap) {
  CTable l(2);
  CTable r(2);
  for (int i = 0; i < n; ++i) {
    l.AddRow(Tuple{C(i), C(i + 1)});
    if (null_gap > 0 && i % null_gap == null_gap - 1) {
      r.AddRow(Tuple{V(i), C(i + 2)});
    } else {
      r.AddRow(Tuple{C(i + 1), C(i + 2)});
    }
  }
  return CDatabase(std::vector<CTable>{std::move(l), std::move(r)});
}

/// 4-way chain join over fan-out-8 edges with the selective filter on the
/// last relation in written order.
CDatabase Chain4Input(int n) {
  int m = std::max(1, n / 8);
  CTable a(2);
  CTable b(2);
  CTable c(2);
  CTable d(2);
  for (int i = 0; i < n; ++i) {
    int v = i % m;
    a.AddRow(Tuple{C(100000 + i), C(v)});
    b.AddRow(Tuple{C(v), C(m + v)});
    c.AddRow(Tuple{C(m + v), C(2 * m + v)});
    d.AddRow(Tuple{C(2 * m + v), C(3 * m + i)});
  }
  return CDatabase(std::vector<CTable>{std::move(a), std::move(b),
                                       std::move(c), std::move(d)});
}

RaExpr Chain4Query(int n) {
  int m = std::max(1, n / 8);
  RaExpr j = RaExpr::Join(
      RaExpr::Join(
          RaExpr::Join(RaExpr::Rel(0, 2), RaExpr::Rel(1, 2), {{1, 0}}),
          RaExpr::Rel(2, 2), {{3, 0}}),
      RaExpr::Rel(3, 2), {{5, 0}});
  return RaExpr::Select(
      j, {SelectAtom::Eq(ColOrConst::Col(7), ColOrConst::Const(3 * m))});
}

/// The Theorem 5.2(1) image bench's input: local conditions drawn from small
/// pools, so the self-join conjoins the same pairs over and over.
CDatabase RepeatedConditionDb(int rows, uint32_t seed) {
  std::mt19937 rng(seed);
  RandomCTableOptions options;
  options.arity = 2;
  options.num_rows = rows;
  options.num_constants = 3;
  options.num_variables = 4;
  options.num_local_atoms = 2;
  options.num_global_atoms = 1;
  options.equality_probability = 0.3;
  return CDatabase{RandomCTable(options, rng)};
}

RaExpr SelfJoinQuery() {
  return RaExpr::ProjectCols(
      RaExpr::Select(RaExpr::Product(RaExpr::Rel(0, 2), RaExpr::Rel(0, 2)),
                     {SelectAtom::Eq(ColOrConst::Col(1), ColOrConst::Col(2))}),
      {0, 3});
}

// --- Runners ----------------------------------------------------------------

ConditionedFixpointStats RunFixpoint(const DatalogProgram& program,
                                     const CDatabase& db) {
  ConditionInterner interner;
  DatalogCTableOptions options;
  options.interner = &interner;
  // The bounds were measured on the antichain backend; pin it so a
  // PW_CONDITION_BACKEND setting does not change the shape under test.
  options.condition_backend = ConditionBackendKind::kConjunctions;
  ConditionedFixpointStats stats;
  DatalogOnCTables(program, db, &stats, options);
  return stats;
}

CTableEvalStats RunQuery(const RaExpr& q, const CDatabase& db,
                         ConditionInterner& interner) {
  CTableEvalStats stats;
  CTableEvalOptions options;
  options.interner = &interner;
  options.stats = &stats;
  EXPECT_TRUE(EvalOnCTables(q, db, options).has_value());
  return stats;
}

size_t JoinWork(const ConditionedFixpointStats& s) {
  return s.index_hits + s.pruned_branches;
}

size_t RowWork(const ConditionedFixpointStats& s) {
  return s.derived_rows + s.subsumed_rows;
}

// --- Conditioned fixpoint (bench/ext_conditioned_datalog.cc) ----------------

TEST(WorkBoundsTest, GroundChainDerivesEachRowOnceThroughTheIndex) {
  // ConditionedTC_GroundChain at n = 32: 528 closure rows. Each semi-naive
  // round joins only the previous round's delta, so no ground row is ever
  // derived twice, and the step rule probes the edge index on its join
  // column instead of scanning.
  ConditionedFixpointStats s = RunFixpoint(TransitiveClosure(),
                                           NullChain(32, /*gap=*/0));
  EXPECT_EQ(s.duplicate_rows, 0u);
  EXPECT_GT(s.index_probes, 0u);
  EXPECT_LE(JoinWork(s), 620u);  // measured 496
  EXPECT_LE(RowWork(s), 700u);   // measured 560: 528 closure rows + 32 seeds
}

TEST(WorkBoundsTest, NullChainFixpointWorkStaysBounded) {
  // ConditionedTC_NullChain at n = 9, a fresh null every third edge.
  ConditionedFixpointStats s = RunFixpoint(TransitiveClosure(),
                                           NullChain(9, /*gap=*/3));
  EXPECT_GT(s.index_probes, 0u);
  EXPECT_EQ(s.duplicate_rows, 0u);
  EXPECT_LE(JoinWork(s), 15845u);  // measured 12676
  EXPECT_LE(RowWork(s), 13243u);   // measured 10595
}

TEST(WorkBoundsTest, SharedNullChainFixpointWorkStaysBounded) {
  // ConditionedTC_SharedNullChain at n = 24: one null reused at every gap.
  ConditionedFixpointStats s = RunFixpoint(
      TransitiveClosure(), NullChain(24, /*gap=*/3, /*shared=*/true));
  EXPECT_GT(s.index_probes, 0u);
  EXPECT_LE(s.duplicate_rows, 227u);  // measured 182
  EXPECT_LE(JoinWork(s), 17506u);     // measured 14005
  EXPECT_LE(RowWork(s), 8568u);       // measured 6855
}

TEST(WorkBoundsTest, CascadeFiresOneStratumPerScc) {
  // ConditionedLayers_Cascade at n = 24: the closure SCC and the six
  // nonrecursive layers each fire once as a stratum; the dead rule is
  // skipped without firing.
  ConditionedFixpointStats s = RunFixpoint(LayeredCascade(),
                                           NullChain(24, /*gap=*/0));
  EXPECT_EQ(s.strata, 7u);
  EXPECT_GE(s.dead_rules_skipped, 1u);
  // One round per nonrecursive layer, the closure's rounds below them: a
  // schedule that iterated a nonrecursive stratum would add idle rounds.
  EXPECT_LE(s.rounds, 31u);            // measured 31
  // Each layer's copy and join rules derive overlapping tuples, so some
  // duplicates are inherent to the program.
  EXPECT_LE(s.duplicate_rows, 2070u);  // measured 1656
  EXPECT_LE(JoinWork(s), 2415u);       // measured 1932
  EXPECT_LE(RowWork(s), 2655u);        // measured 2124
}

// --- Maintained views (perfbench view_maintenance) ---------------------------

TEST(WorkBoundsTest, IvmDeleteStreamWorkStaysBounded) {
  // A full view of the transitive closure over the 30-node null-routed DAG
  // (the end-to-end view workload's shape), driven through a fixed stream:
  // deletes of ground edges, of a just-inserted edge and of facts that the
  // null-routed rows can produce (which split those rows into guarded
  // replacements), between plain and conditional inserts. Every such delete
  // left a live trace, so it over-deletes the tc cone and re-derives it.
  // Three more deletes hit only a row whose condition contradicts the
  // global one (x9 = 1 against x9 = 0): never seeded, it left no trace, so
  // the covered fast path absorbs each delete with no rebuild.
  CDatabase db = testutil::NullRoutedDag(30);
  CTable& edges = db.mutable_table(0);
  edges.SetGlobal(Conjunction{Eq(V(9), C(0))});
  for (int k = 0; k < 3; ++k) {
    edges.AddRow(Tuple{V(5 + k), C(29 - k)}, Conjunction{Eq(V(9), C(1))});
  }
  ConditionInterner interner;
  MaterializedViewOptions options;
  options.eval.interner = &interner;
  options.eval.condition_backend = ConditionBackendKind::kConjunctions;
  MaterializedView view(TransitiveClosure(), std::move(db), options);
  view.Delete(0, Fact{0, 1});
  view.Insert(0, Fact{0, 1});
  view.Delete(0, Fact{25, 29});  // covered
  view.Insert(0, Fact{5, 29});
  view.Delete(0, Fact{5, 29});
  view.Delete(0, Fact{10, 13});  // (10, ?x) and (?x, 13)
  view.Delete(0, Fact{24, 28});  // covered
  view.Delete(0, Fact{20, 23});
  EXPECT_TRUE(view.InsertIf(0, Fact{2, 26}, Conjunction{Neq(V(0), C(13))}));
  view.Delete(0, Fact{12, 13});
  view.Delete(0, Fact{2, 26});
  view.Delete(0, Fact{23, 27});  // covered
  view.Insert(0, Fact{26, 3});
  view.Delete(0, Fact{3, 4});
  IvmStats s = view.stats();
  EXPECT_EQ(s.updates_applied, 14u);
  EXPECT_EQ(s.deletes_covered, 3u);
  EXPECT_LE(s.cone_rebuilds, 8u);              // measured 7
  EXPECT_LE(s.rows_overdeleted, 12137u);       // measured 9710
  EXPECT_LE(s.fixpoint.derived_rows, 22903u);  // measured 18323
  EXPECT_LE(s.fixpoint.index_builds, 13u);     // measured 11
}

// --- Planned joins (bench/join_index.cc) ------------------------------------

TEST(WorkBoundsTest, EquiJoinsProbeWithoutScanning) {
  // EquiJoin_Ground at n = 512 and EquiJoin_Nulls at n = 256: the probe
  // side's keys are ground, so every pair comes from an index probe.
  struct Case {
    int n;
    int gap;
    size_t max_pairs;
  };
  // Measured 512 and 4336 pairs.
  for (Case c : {Case{512, 0, 640}, Case{256, 16, 5420}}) {
    SCOPED_TRACE("n=" + std::to_string(c.n));
    ConditionInterner interner;
    RaExpr q = RaExpr::Join(RaExpr::Rel(0, 2), RaExpr::Rel(1, 2), {{1, 0}});
    CTableEvalStats s = RunQuery(q, JoinInput(c.n, c.gap), interner);
    EXPECT_EQ(s.hash_joins, 1u);
    EXPECT_EQ(s.nested_loop_products, 0u);
    EXPECT_EQ(s.scan_pairs, 0u);
    EXPECT_EQ(s.index_probes, static_cast<size_t>(c.n));
    EXPECT_LE(s.join_pairs, c.max_pairs);
  }
}

TEST(WorkBoundsTest, Chain4PlansAllFourLeaves) {
  // Chain4_SelectiveTail at n = 512: the planner fuses all four leaves,
  // seeds at the filtered tail and walks the chain backwards by probes.
  ConditionInterner interner;
  CTableEvalStats s = RunQuery(Chain4Query(512), Chain4Input(512), interner);
  EXPECT_EQ(s.planned_joins, 1u);
  EXPECT_EQ(s.planned_join_leaves, 4u);
  EXPECT_EQ(s.hash_joins, 3u);
  EXPECT_EQ(s.nested_loop_products, 0u);
  EXPECT_EQ(s.scan_pairs, 0u);
  EXPECT_LE(s.index_probes, 91u);  // measured 73
  EXPECT_LE(s.join_pairs, 730u);   // measured 584
}

// --- Interned image (bench/thm52_bounded_possibility.cc) --------------------

TEST(WorkBoundsTest, SelfJoinImageHitsTheAndCache) {
  // Thm52_Image at 256 rows: the self-join conjoins pairs of local
  // conditions from small pools, so most And calls are answered from the
  // interner's pair cache.
  ConditionInterner interner;
  CDatabase db = RepeatedConditionDb(256, /*seed=*/79);
  CTableEvalStats s = RunQuery(SelfJoinQuery(), db, interner);
  const ConditionInterner::Stats& is = interner.stats();
  double hit_ratio = static_cast<double>(is.and_hits) /
                     static_cast<double>(std::max<uint64_t>(is.and_calls, 1));
  EXPECT_EQ(s.planned_joins, 1u);
  EXPECT_EQ(s.nested_loop_products, 0u);
  EXPECT_GE(hit_ratio, 0.75);                     // measured 0.784
  EXPECT_LE(is.and_calls, 34106u);                 // measured 27285
  EXPECT_LE(interner.num_conjunctions(), 3572u);   // measured 2858
  EXPECT_LE(s.join_pairs + s.scan_pairs, 50560u);  // measured 40448
}

// --- SAT core (bench/sat_core.cc) --------------------------------------------

/// Solves `formula` and checks the expected verdict; returns the work.
SatStats SolveForStats(const ClausalFormula& formula, bool expected_sat) {
  SatResult result = SolveCnf(formula);
  EXPECT_EQ(result.sat, expected_sat);
  return result.stats;
}

TEST(WorkBoundsTest, SatChainPropagatesInLinearWork) {
  // Chain at length 4096: the root units force every link by propagation
  // alone, with no decision and one root conflict. Each clause is visited
  // about once through its watches.
  SatStats s = SolveForStats(ScrambledImplicationChainCnf(4096), false);
  EXPECT_LE(s.conflicts, 1);         // measured 1
  EXPECT_LE(s.decisions, 0);         // measured 0
  EXPECT_LE(s.propagations, 5115);   // measured 4092
  EXPECT_LE(s.watch_visits, 5116);   // measured 4093
}

TEST(WorkBoundsTest, SatPigeonholeLearnsItsWayOut) {
  // Pigeonhole at 6 holes, PHP(7, 6): unsatisfiable, refuted by learned
  // clauses and restarts.
  SatStats s = SolveForStats(PigeonholeCnf(6), false);
  EXPECT_LE(s.conflicts, 1296);        // measured 1037
  EXPECT_LE(s.decisions, 1645);        // measured 1316
  EXPECT_LE(s.propagations, 18521);    // measured 14817
  EXPECT_LE(s.watch_visits, 362587);   // measured 290070
}

TEST(WorkBoundsTest, SatColoringFindsThePlantedColoring) {
  // Coloring at 64 nodes: the planted 3-colorable graph of the bench
  // (seed 211 + 64, edge probability 0.5), satisfiable.
  std::mt19937 rng(211u + 64u);
  ClausalFormula cnf =
      GraphColoringToCnf(RandomThreeColorableGraph(64, 0.5, rng), 3);
  SatStats s = SolveForStats(cnf, true);
  EXPECT_LE(s.conflicts, 10);        // measured 8
  EXPECT_LE(s.decisions, 18);        // measured 15
  EXPECT_LE(s.propagations, 687);    // measured 550
  EXPECT_LE(s.watch_visits, 2456);   // measured 1965
}

}  // namespace
}  // namespace pw
