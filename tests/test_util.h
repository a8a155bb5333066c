// Shared fixtures and helpers for the pworlds test suite.
//
// Collects the setup that used to be copy-pasted across the test files:
// compact table construction, the standard small shapes for randomized
// property tests (small enough for exhaustive world enumeration), canonical
// world rendering up to renaming of fresh constants, the paper's Fig. 3
// example table, and the two checks every conditioned fixpoint must pass:
// the per-world oracle and the canonical form of its output.

#ifndef PW_TESTS_TEST_UTIL_H_
#define PW_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "condition/backend.h"
#include "condition/interner.h"
#include "core/instance.h"
#include "core/tuple.h"
#include "datalog/eval.h"
#include "datalog/program.h"
#include "ra/eval.h"
#include "ra/expr.h"
#include "tables/ctable.h"
#include "tables/text_format.h"
#include "tables/world_enum.h"
#include "workload/random_gen.h"

namespace pw {
namespace testutil {

/// Builds a table from unconditioned rows: MakeTable(2, {{C(1), V(0)}, ...}).
inline CTable MakeTable(int arity, const std::vector<Tuple>& rows) {
  CTable t(arity);
  for (const Tuple& row : rows) t.AddRow(row);
  return t;
}

/// Builds a table from conditioned rows.
inline CTable MakeTable(int arity, const std::vector<CRow>& rows) {
  CTable t(arity);
  for (const CRow& row : rows) t.AddRow(row.tuple, row.local());
  return t;
}

/// The standard shape of the randomized property tests: constants and
/// variables from pools small enough that exhaustive world enumeration stays
/// cheap. Tune condition-atom counts per test.
inline RandomCTableOptions SmallCTableOptions(int arity, int num_rows,
                                              int num_constants,
                                              int num_variables,
                                              int num_local_atoms = 0,
                                              int num_global_atoms = 0) {
  RandomCTableOptions options;
  options.arity = arity;
  options.num_rows = num_rows;
  options.num_constants = num_constants;
  options.num_variables = num_variables;
  options.num_local_atoms = num_local_atoms;
  options.num_global_atoms = num_global_atoms;
  return options;
}

/// A shape whose variable pool is so large that repeats are unlikely — the
/// generated tables are (almost always) Codd-tables.
inline RandomCTableOptions CoddishCTableOptions(int arity, int num_rows,
                                                int num_constants,
                                                int num_variables = 200) {
  return SmallCTableOptions(arity, num_rows, num_constants, num_variables);
}

/// The paper's Fig. 3 Codd-table T = {(x1,1,x2), (x3,2,3), (1,x4,x5),
/// (1,2,3), (1,2,x6)} with I0 = {112, 323, 145, 123} as its companion
/// instance; MEMB(T, I0) answers yes.
inline CTable PaperFig3Table() {
  return MakeTable(3, std::vector<Tuple>{{V(1), C(1), V(2)},
                                         {V(3), C(2), C(3)},
                                         {C(1), V(4), V(5)},
                                         {C(1), C(2), C(3)},
                                         {C(1), C(2), V(6)}});
}

inline Instance PaperFig3Instance() {
  return Instance({Relation(3, {{1, 1, 2}, {3, 2, 3}, {1, 4, 5}, {1, 2, 3}})});
}

/// A tiny two-row c-table with a local and a global condition — enough to
/// leave the Codd/e/i/g classes and exercise every condition code path.
inline CTable TinyConditionedTable() {
  CTable t = MakeTable(
      2, std::vector<CRow>{{{C(1), V(0)}, Conjunction{Neq(V(0), C(2))}},
                           {{V(1), V(0)}, Conjunction()}});
  t.SetGlobal(Conjunction{Neq(V(1), C(3))});
  return t;
}

/// Left-recursive transitive closure, edge = predicate 0, tc = 1:
/// tc(X,Y) :- edge(X,Y).  tc(X,Z) :- tc(X,Y), edge(Y,Z).
inline DatalogProgram TransitiveClosure() {
  DatalogProgram p({2, 2}, 1);
  p.AddRule({{1, {V(100), V(101)}}, {{0, {V(100), V(101)}}}});
  p.AddRule({{1, {V(100), V(102)}},
             {{1, {V(100), V(101)}}, {0, {V(101), V(102)}}}});
  return p;
}

/// Chain 0 -> 1 -> ... -> n where every `gap`-th edge goes through a null
/// (0: none): the same null at every gap when `shared`, otherwise a fresh
/// one per gap.
inline CDatabase NullChain(int n, int gap, bool shared = false) {
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

/// Right-recursive transitive closure, edge = predicate 0, tc = 1:
/// tc(X,Y) :- edge(X,Y).  tc(X,Y) :- edge(X,Z), tc(Z,Y).
/// Its magic rewrite for tc(s, ?) guards the recursive rule with three
/// atoms: tc#bf(X,Y) :- m.tc#bf(X), edge(X,Z), tc#bf(Z,Y).
inline DatalogProgram RightRecursiveTc() {
  DatalogProgram p({2, 2}, 1);
  p.AddRule({{1, {V(0), V(1)}}, {{0, {V(0), V(1)}}}});
  p.AddRule({{1, {V(0), V(1)}}, {{0, {V(0), V(2)}}, {1, {V(2), V(1)}}}});
  return p;
}

/// A forward DAG on `n` nodes with two out-edges per node, at most 6 ahead
/// (i -> i+1+i%3 and i -> i+4+(i/3)%3, where they stay below n), plus two
/// edges routed through one shared null: i -> ?x -> i+3 at i = n/3, 2n/3.
inline CDatabase NullRoutedDag(int n) {
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

/// Renders a world canonically up to renaming of constants outside `known`:
/// tries every permutation of placeholder names for the fresh constants and
/// keeps the lexicographically least rendering. (Worlds in these tests carry
/// at most a handful of fresh constants.)
inline std::string CanonicalWorldString(const Instance& world,
                                        const std::vector<ConstId>& known) {
  std::vector<ConstId> fresh;
  for (ConstId c : world.Constants()) {
    if (std::find(known.begin(), known.end(), c) == known.end()) {
      fresh.push_back(c);
    }
  }
  if (fresh.empty()) return world.ToString();
  std::vector<ConstId> placeholders;
  for (size_t i = 0; i < fresh.size(); ++i) {
    placeholders.push_back(900000 + static_cast<ConstId>(i));
  }
  std::sort(fresh.begin(), fresh.end());
  std::string best;
  do {
    std::vector<Relation> renamed;
    for (size_t p = 0; p < world.num_relations(); ++p) {
      Relation r(world.relation(p).arity());
      for (Fact f : world.relation(p)) {
        for (ConstId& c : f) {
          auto it = std::find(fresh.begin(), fresh.end(), c);
          if (it != fresh.end()) {
            c = placeholders[it - fresh.begin()];
          }
        }
        r.Insert(f);
      }
      renamed.push_back(std::move(r));
    }
    std::string s = Instance(std::move(renamed)).ToString();
    if (best.empty() || s < best) best = s;
  } while (std::next_permutation(fresh.begin(), fresh.end()));
  return best;
}

/// The sorted, deduplicated canonical renderings of rep(db) over a shared
/// constant context.
inline std::vector<std::string> CanonicalWorlds(
    const CDatabase& db, const std::vector<ConstId>& extra) {
  WorldEnumOptions options;
  options.extra_constants = extra;
  std::vector<std::string> out;
  ForEachWorld(db, options, [&](const Instance& world, const Valuation&) {
    out.push_back(CanonicalWorldString(world, extra));
    return true;
  });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// The canonical renderings of q(rep(db)) — the per-world oracle: evaluate
/// the query on each enumerated world of `db` with the plain complete-
/// information evaluator.
inline std::vector<std::string> CanonicalImageWorlds(
    const RaQuery& q, const CDatabase& db, const std::vector<ConstId>& extra) {
  WorldEnumOptions options;
  options.extra_constants = extra;
  std::vector<std::string> out;
  ForEachWorld(db, options, [&](const Instance& world, const Valuation&) {
    out.push_back(CanonicalWorldString(EvalQuery(q, world), extra));
    return true;
  });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// The per-world oracle of a conditioned fixpoint: for every valuation
/// satisfying `db`'s global condition, sigma(image) == the DATALOG fixpoint
/// of sigma(db), computed by the complete-database evaluator.
inline void ExpectRepresentsFixpointOfEveryWorld(const DatalogProgram& program,
                                                 const CDatabase& db,
                                                 const CDatabase& image) {
  WorldEnumOptions wopts;
  bool all_match = true;
  ForEachSatisfyingValuation(db, wopts, [&](const Valuation& v) {
    Instance world = v.Apply(db);
    Instance expected = SemiNaiveEval(program, world);
    Instance got = v.Apply(image);
    if (got != expected) {
      all_match = false;
      return false;
    }
    return true;
  });
  EXPECT_TRUE(all_match) << FormatCDatabase(db) << image.ToString();
}

/// Asserts that a conditioned fixpoint's exported tables are canonical:
/// every row is satisfiable together with the global condition, and no row's
/// condition implies that of another row with the same tuple (each tuple
/// keeps a covering antichain of its weakest conditions — no duplicates, no
/// subsumed rows). On the decision-diagram backend a tuple's rows are the
/// disjuncts of its one diagram: mutually exclusive and each satisfiable,
/// but checked against the global condition only as a whole, so there a
/// row need only be satisfiable on its own.
inline void ExpectCanonicalFixpoint(const CDatabase& image) {
  ConditionInterner& interner = ConditionInterner::Global();
  const bool dd =
      ResolveConditionBackendKind(ConditionBackendKind::kDefault) ==
      ConditionBackendKind::kDecisionDiagrams;
  const ConjId global = dd ? ConditionInterner::kTrueConj
                           : image.CombinedGlobalId(interner);
  for (size_t p = 0; p < image.num_tables(); ++p) {
    const CTable& table = image.table(p);
    for (size_t i = 0; i < table.num_rows(); ++i) {
      const CRow& row = table.row(i);
      const ConjId cond = row.LocalId(interner);
      EXPECT_TRUE(interner.Satisfiable(interner.And(global, cond)))
          << "row " << i << " of table " << p
          << " holds in no world:\n" << image.ToString();
      for (size_t j = 0; j < table.num_rows(); ++j) {
        if (j == i || table.row(j).tuple != row.tuple) continue;
        EXPECT_FALSE(interner.Implies(cond, table.row(j).LocalId(interner)))
            << "row " << i << " of table " << p << " is subsumed by row "
            << j << ":\n" << image.ToString();
      }
    }
  }
}

}  // namespace testutil
}  // namespace pw

#endif  // PW_TESTS_TEST_UTIL_H_
