// Differential test harness: the fast paths against the per-world oracle.
//
// Families, all randomized with fixed seeds so failures reproduce (set
// PW_DIFF_SEED to rerun a single case — see "Debuggability" below):
//
//  1. Positive existential queries — the Imielinski–Lipski c-table
//     evaluation must satisfy the representation-system identity of the
//     paper's Section 4 discussion:
//
//       rep(EvalQueryOnCTables(q, T))  ==  { EvalQuery(q, I) : I in rep(T) }
//
//     worlds compared canonically up to renaming of fresh constants over a
//     shared constant context. Queries are drawn from a generator covering
//     every operator of the fragment (select with = and !=, generalized
//     project with constants, product, equi-join shapes that fuse into hash
//     joins, union) at random shapes, and the result is additionally piped
//     through Minimized(), which must preserve the represented worlds.
//     Single-table and multi-table (c-database) inputs are both covered,
//     and a dedicated family generates n-ary join shapes (3-5-way products,
//     mixed pushable/cross-side conjuncts, interleaved projections) for the
//     join planner.
//
//  2. Conditioned DATALOG views — the conditioned fixpoint must represent
//     exactly the pointwise DATALOG fixpoint of the input's worlds (the
//     complete-database evaluator run on every world), and its output must
//     be canonical (every row satisfiable with the global condition, no
//     same-tuple row implying another), on randomized programs (one or two
//     extensional predicates) over randomized c-tables.
//
//  3. Query-directed (magic-set) evaluation — for random programs and random
//     goal binding patterns, DatalogQueryOnCTables through the magic-set
//     rewrite must return exactly the full fixpoint's facts restricted to
//     the goal (same tuples, interned-id-identical conditions), and must
//     represent the per-world goal answers; the demand-path possibility
//     procedure must agree with the possibility search.
//
//  4. Multi-output queries and nested views — the image database of both
//     intensional outputs must represent the pointwise relation pairs, and
//     a second DATALOG program (or an RA expression) evaluated over the
//     first program's intensional output must act pointwise on the
//     represented worlds.
//
//  5. Updates — randomized Insert/Delete/InsertFactIf sequences must act
//     pointwise on the represented worlds, including when a DATALOG view is
//     then evaluated over the updated table.
//
//  6. Incremental view maintenance — a MaterializedView (datalog/ivm.h)
//     driven through randomized interleavings of inserts, conditional
//     inserts, and deletes must stay *identical* — same tuples, same
//     interned condition ids — to recomputing the fixpoint from scratch on
//     its updated base, must represent the per-world fixpoints of that base
//     and must stay canonical, for full views and for magic-set demand
//     views (Answers() vs DatalogQueryOnCTables), with a second program
//     evaluated over the maintained output as a nested downstream consumer.
//
//  7. Condition algebra — randomized And/Or expression trees over random
//     interned conjunctions pushed through the decision-diagram backend:
//     its SatisfiableWith verdicts and AppendDisjuncts DNF expansions must
//     agree with a small-model enumeration oracle (valuations over the
//     mentioned constants plus one fresh value per variable — complete for
//     boolean combinations of =/!= atoms over the infinite domain), and the
//     disjunction check certainty asks (ConjImpliesDisjunction, on the
//     expansion and on its covering antichain) must decide validity,
//     tautology under a global condition and pairwise implication as the
//     oracle does.
//
//  8. Decision-diagram fixpoints — the conditioned DATALOG fixpoint on the
//     decision-diagram backend must represent the same worlds as the
//     antichain backend's fixpoint, and must satisfy the per-world oracle
//     directly.
//
//  9. Certainty — CertainFactInTable (the one certainty question: the
//     global condition implies the disjunction of the fact's per-row
//     alternatives) must return the verdict of the per-world oracle: the
//     fact is in every enumerated world. ExistsWorldOtherThan, which decides
//     its per-fact half through CertainFactInTable, must agree with the
//     same worlds: some world differs from the instance.
//
// 10. Containment of views — for random positive existential lhs views over
//     one or two random c-tables and random e-table or i-table rhs, the
//     Pi-2-p containment search (which tests each distinct lhs image once)
//     and the containment dispatcher must agree with a world-by-world
//     oracle: every lhs world's image must equal some rhs world.
//
// 11. Factored magic-set goals — hand-written right-linear shapes (several
//     exit rules, mixed bound and free positions, constants in the
//     recursive atom, intensional atoms before it) and near misses that must
//     keep the guarded rewrite (a free variable reused in the prefix or
//     repeated in the head, the recursive atom not last, two recursive
//     atoms, mutual recursion, a changed adornment), over random
//     null-carrying tables: the rewrite takes the pinned route, the answer
//     is identical to the restricted full fixpoint and to the per-world
//     oracle, and a demand view stays so under updates.
//
// Families 1-6 additionally run wholesale on the decision-diagram backend
// via the PW_CONDITION_BACKEND=dd environment variable (the CI matrix's
// tsan-dd cell does exactly that).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "condition/atom_cnf.h"
#include "condition/backend.h"
#include "condition/dd_backend.h"
#include "datalog/eval.h"
#include "datalog/ivm.h"
#include "decision/certainty.h"
#include "decision/containment.h"
#include "decision/possibility.h"
#include "decision/view.h"
#include "decision/world_csp.h"
#include "ilalgebra/ctable_eval.h"
#include "ilalgebra/datalog_ctable.h"
#include "ra/eval.h"
#include "tables/text_format.h"
#include "tables/updates.h"
#include "test_util.h"
#include "workload/random_gen.h"

namespace pw {
namespace {

// --- Debuggability ----------------------------------------------------------
//
// Every randomized case is identified by its RNG seed. On failure the
// assertion messages carry the offending program and c-table in replayable
// text form (tables/text_format.h — FormatCTable round-trips through
// ParseCTable), and a SCOPED_TRACE line names the seed. Setting the
// PW_DIFF_SEED environment variable to that seed reruns exactly the matching
// case and skips every other one:
//
//   PW_DIFF_SEED=3007 ctest -R differential --output-on-failure

/// The PW_DIFF_SEED filter, or 0 when unset.
unsigned SeedFilter() {
  const char* s = std::getenv("PW_DIFF_SEED");
  return s == nullptr ? 0u
                      : static_cast<unsigned>(std::strtoul(s, nullptr, 10));
}

bool RunSeed(unsigned seed) {
  unsigned filter = SeedFilter();
  return filter == 0u || filter == seed;
}

/// Opens a randomized case: skips it when PW_DIFF_SEED selects another seed,
/// and stamps the seed onto every failure message in scope.
#define PW_DIFF_CASE(seed)                                          \
  if (!RunSeed(seed)) GTEST_SKIP() << "skipped by PW_DIFF_SEED";    \
  SCOPED_TRACE("replay with PW_DIFF_SEED=" + std::to_string(seed))

/// A random positive existential expression over `num_rels` binary
/// relations. Depth-bounded; every operator of the fragment can appear,
/// including equi-join shapes (selection directly over a product) that the
/// evaluator fuses into hash joins.
RaExpr RandomPosExistential(std::mt19937& rng, int depth, int num_rels = 1) {
  std::uniform_int_distribution<int> pick(0, depth <= 0 ? 0 : 5);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> small_const(0, 3);
  std::uniform_int_distribution<int> rel(0, num_rels - 1);
  switch (pick(rng)) {
    case 0:
      return RaExpr::Rel(rel(rng), 2);
    case 1: {  // select: one or two random atoms over the two columns
      RaExpr in = RandomPosExistential(rng, depth - 1, num_rels);
      std::uniform_int_distribution<int> col(0, in.arity() - 1);
      std::vector<SelectAtom> atoms;
      int n = 1 + coin(rng);
      for (int i = 0; i < n; ++i) {
        ColOrConst lhs = ColOrConst::Col(col(rng));
        ColOrConst rhs = coin(rng) ? ColOrConst::Col(col(rng))
                                   : ColOrConst::Const(small_const(rng));
        atoms.push_back(coin(rng) ? SelectAtom::Eq(lhs, rhs)
                                  : SelectAtom::Neq(lhs, rhs));
      }
      return RaExpr::Select(in, std::move(atoms));
    }
    case 2: {  // generalized project to arity 2 (may duplicate / emit consts)
      RaExpr in = RandomPosExistential(rng, depth - 1, num_rels);
      std::uniform_int_distribution<int> col(0, in.arity() - 1);
      std::vector<ColOrConst> outputs;
      for (int i = 0; i < 2; ++i) {
        outputs.push_back(coin(rng) == 0 && i == 1
                              ? ColOrConst::Const(small_const(rng))
                              : ColOrConst::Col(col(rng)));
      }
      return RaExpr::Project(in, std::move(outputs));
    }
    case 3: {  // product of two shallow subexpressions, projected back to 2
      RaExpr l = RandomPosExistential(rng, 0, num_rels);
      RaExpr r = RandomPosExistential(rng, 0, num_rels);
      RaExpr prod = RaExpr::Product(l, r);
      std::uniform_int_distribution<int> col(0, prod.arity() - 1);
      return RaExpr::ProjectCols(prod, {col(rng), col(rng)});
    }
    case 4: {  // equi-join: selection directly over a product (fuses into a
               // hash join), an optional extra atom of any shape, projected
               // back to 2
      RaExpr l = RandomPosExistential(rng, 0, num_rels);
      RaExpr r = RandomPosExistential(rng, 0, num_rels);
      RaExpr prod = RaExpr::Product(l, r);
      std::uniform_int_distribution<int> lcol(0, l.arity() - 1);
      std::uniform_int_distribution<int> rcol(l.arity(), prod.arity() - 1);
      std::uniform_int_distribution<int> col(0, prod.arity() - 1);
      std::vector<SelectAtom> atoms;
      atoms.push_back(SelectAtom::Eq(ColOrConst::Col(lcol(rng)),
                                     ColOrConst::Col(rcol(rng))));
      if (coin(rng)) {  // side filter, cross inequality, or constant test
        ColOrConst lhs = ColOrConst::Col(col(rng));
        ColOrConst rhs = coin(rng) ? ColOrConst::Col(col(rng))
                                   : ColOrConst::Const(small_const(rng));
        atoms.push_back(coin(rng) ? SelectAtom::Eq(lhs, rhs)
                                  : SelectAtom::Neq(lhs, rhs));
      }
      RaExpr sel = RaExpr::Select(prod, std::move(atoms));
      return RaExpr::ProjectCols(sel, {col(rng), col(rng)});
    }
    default: {  // union of two same-arity subexpressions
      RaExpr l = RandomPosExistential(rng, depth - 1, num_rels);
      RaExpr r = RandomPosExistential(rng, depth - 1, num_rels);
      if (l.arity() != r.arity()) return l;
      return RaExpr::Union(l, r);
    }
  }
}

/// A random n-ary join-shaped query: 3-5 relation leaves combined into a
/// product tree of random shape (left-deep, right-deep, bushy), selections
/// with cross-side equi-join conjuncts, pushable one-side atoms, and
/// cross-side inequalities interleaved at random depths, projections
/// (reordering, duplicating, dropping columns) interleaved between joins,
/// projected back to arity 2 at the top — exactly the shapes the n-ary
/// planner normalizes.
RaExpr RandomNaryJoin(std::mt19937& rng, int num_rels) {
  std::uniform_int_distribution<int> nleaves(3, 5);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> d4(0, 3);
  std::uniform_int_distribution<int> small_const(0, 3);
  std::uniform_int_distribution<int> rel(0, num_rels - 1);

  // Leaves: plain refs, one-leaf selections, column-swapping projections.
  std::vector<RaExpr> parts;
  int n = nleaves(rng);
  for (int i = 0; i < n; ++i) {
    RaExpr leaf = RaExpr::Rel(rel(rng), 2);
    if (d4(rng) == 0) {
      leaf = RaExpr::Select(
          leaf, {coin(rng)
                     ? SelectAtom::Eq(ColOrConst::Col(coin(rng)),
                                      ColOrConst::Const(small_const(rng)))
                     : SelectAtom::Neq(ColOrConst::Col(coin(rng)),
                                       ColOrConst::Const(small_const(rng)))});
    } else if (d4(rng) == 0) {
      leaf = RaExpr::ProjectCols(leaf, {1, 0});
    }
    parts.push_back(leaf);
  }

  // Merge adjacent subtrees at random until one remains: random tree shape,
  // preserving left-to-right leaf order. Each merge is a product, usually
  // topped with a selection carrying a cross-side equi-join conjunct (plus
  // an occasional extra atom of any shape), occasionally topped with a
  // projection that reorders/duplicates/drops columns.
  while (parts.size() > 1) {
    std::uniform_int_distribution<size_t> at(0, parts.size() - 2);
    size_t i = at(rng);
    RaExpr l = parts[i];
    RaExpr r = parts[i + 1];
    RaExpr merged = RaExpr::Product(l, r);
    if (d4(rng) != 0) {  // usually: join the two sides
      std::uniform_int_distribution<int> lcol(0, l.arity() - 1);
      std::uniform_int_distribution<int> rcol(l.arity(), merged.arity() - 1);
      std::uniform_int_distribution<int> col(0, merged.arity() - 1);
      std::vector<SelectAtom> atoms;
      atoms.push_back(SelectAtom::Eq(ColOrConst::Col(lcol(rng)),
                                     ColOrConst::Col(rcol(rng))));
      if (coin(rng)) {  // pushable one-side atom, cross inequality, or
                        // constant test — mixed conjunct kinds
        ColOrConst lhs = ColOrConst::Col(col(rng));
        ColOrConst rhs = coin(rng) ? ColOrConst::Col(col(rng))
                                   : ColOrConst::Const(small_const(rng));
        atoms.push_back(coin(rng) ? SelectAtom::Eq(lhs, rhs)
                                  : SelectAtom::Neq(lhs, rhs));
      }
      merged = RaExpr::Select(merged, std::move(atoms));
    }
    if (d4(rng) == 0 && merged.arity() > 2) {  // interleaved projection
      std::uniform_int_distribution<int> col(0, merged.arity() - 1);
      std::uniform_int_distribution<int> width(2, merged.arity() - 1);
      std::vector<int> cols;
      int w = width(rng);
      for (int c = 0; c < w; ++c) cols.push_back(col(rng));
      merged = RaExpr::ProjectCols(merged, cols);
    }
    parts[i] = merged;
    parts.erase(parts.begin() + static_cast<ptrdiff_t>(i) + 1);
  }
  std::uniform_int_distribution<int> col(0, parts[0].arity() - 1);
  return RaExpr::ProjectCols(parts[0], {col(rng), col(rng)});
}

/// Shared constant context: everything either side could mention.
std::vector<ConstId> SharedContext(const CDatabase& db, const CTable& image) {
  std::vector<ConstId> extra = image.Constants();
  for (ConstId c : db.Constants()) extra.push_back(c);
  for (ConstId c = 0; c <= 3; ++c) extra.push_back(c);  // query constants
  return extra;
}

class DifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialTest, CTableEvalAgreesWithPerWorldEval) {
  // 25 parameter seeds x 5 pairs each = 125 randomized (query, c-table)
  // pairs.
  const unsigned case_seed = 1000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  for (int round = 0; round < 5; ++round) {
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/3, /*num_constants=*/2, /*num_variables=*/2,
        /*num_local_atoms=*/GetParam() % 2,
        /*num_global_atoms=*/GetParam() % 3);
    CTable t = RandomCTable(options, rng);
    CDatabase db{t};
    RaExpr q = RandomPosExistential(rng, 2);

    auto fast = EvalQueryOnCTables({q}, db);
    ASSERT_TRUE(fast.has_value());

    std::vector<ConstId> extra = SharedContext(db, fast->table(0));
    std::vector<std::string> oracle =
        testutil::CanonicalImageWorlds({q}, db, extra);
    EXPECT_EQ(testutil::CanonicalWorlds(*fast, extra), oracle)
        << "c-table image diverged on " << q.ToString() << "\n"
        << FormatCTable(t);

    // Minimized()-after-eval: minimization must preserve the represented
    // image worlds (it runs on the indexed-join output, global attached).
    CDatabase minimized{fast->table(0).Minimized()};
    EXPECT_EQ(testutil::CanonicalWorlds(minimized, extra), oracle)
        << "Minimized() after eval diverged on " << q.ToString() << "\n"
        << FormatCTable(t);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest, ::testing::Range(0, 25));

// N-ary join shapes: 3-5-way products with mixed pushable/cross-side
// conjuncts and interleaved projections, checked against per-world
// evaluation.
class NaryJoinDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(NaryJoinDifferentialTest, PlannedJoinAgreesWithNestedLoopAndWorlds) {
  const unsigned case_seed = 6000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  for (int round = 0; round < 3; ++round) {
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/2, /*num_constants=*/2, /*num_variables=*/2,
        /*num_local_atoms=*/GetParam() % 2,
        /*num_global_atoms=*/GetParam() % 2);
    CTable t0 = RandomCTable(options, rng);
    CTable t1 = RandomCTable(options, rng);
    CDatabase db(std::vector<CTable>{t0, t1});
    RaExpr q = RandomNaryJoin(rng, /*num_rels=*/2);

    auto fast = EvalQueryOnCTables({q}, db);
    ASSERT_TRUE(fast.has_value());

    std::vector<ConstId> extra = SharedContext(db, fast->table(0));
    std::vector<std::string> oracle =
        testutil::CanonicalImageWorlds({q}, db, extra);
    EXPECT_EQ(testutil::CanonicalWorlds(*fast, extra), oracle)
        << "planned join diverged on " << q.ToString() << "\n"
        << FormatCDatabase(db);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NaryJoinDifferentialTest,
                         ::testing::Range(0, 20));

// Multi-table inputs: queries draw from (and join across) two member
// c-tables whose shared variables link the tables like equality conditions;
// the combined global condition spans both members.
class MultiTableDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(MultiTableDifferentialTest, CTableEvalAgreesWithPerWorldEval) {
  const unsigned case_seed = 2000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  for (int round = 0; round < 3; ++round) {
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/2, /*num_constants=*/2, /*num_variables=*/2,
        /*num_local_atoms=*/GetParam() % 2,
        /*num_global_atoms=*/GetParam() % 2);
    CTable t0 = RandomCTable(options, rng);
    CTable t1 = RandomCTable(options, rng);
    CDatabase db(std::vector<CTable>{t0, t1});
    RaExpr q = RandomPosExistential(rng, 2, /*num_rels=*/2);

    auto fast = EvalQueryOnCTables({q}, db);
    ASSERT_TRUE(fast.has_value());

    std::vector<ConstId> extra = SharedContext(db, fast->table(0));
    std::vector<std::string> oracle =
        testutil::CanonicalImageWorlds({q}, db, extra);
    EXPECT_EQ(testutil::CanonicalWorlds(*fast, extra), oracle)
        << "c-table image diverged on " << q.ToString() << "\n"
        << FormatCDatabase(db);

    CDatabase minimized{fast->table(0).Minimized()};
    EXPECT_EQ(testutil::CanonicalWorlds(minimized, extra), oracle)
        << "Minimized() after eval diverged on " << q.ToString() << "\n"
        << FormatCDatabase(db);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiTableDifferentialTest,
                         ::testing::Range(0, 15));

TEST(DifferentialEdgeTest, UnsatisfiableGlobalYieldsNoWorlds) {
  CTable t = testutil::MakeTable(2, std::vector<Tuple>{{C(1), V(0)}});
  t.SetGlobal(Conjunction{Eq(V(0), C(1)), Eq(V(0), C(2))});
  CDatabase db{t};
  RaExpr q = RaExpr::Rel(0, 2);
  auto image = EvalQueryOnCTables({q}, db);
  ASSERT_TRUE(image.has_value());
  EXPECT_TRUE(testutil::CanonicalWorlds(*image, db.Constants()).empty());
  EXPECT_TRUE(testutil::CanonicalImageWorlds({q}, db, db.Constants()).empty());
}

// --- Conditioned DATALOG views ----------------------------------------------

/// A random range-restricted pure DATALOG program: `num_edb` binary
/// extensional predicates, two binary intensional ones, 2-4 rules with 1-2
/// body atoms over rule variables and small constants.
DatalogProgram RandomDatalogProgram(std::mt19937& rng, int num_edb = 1) {
  DatalogProgram p(std::vector<int>(num_edb + 2, 2), num_edb);
  std::uniform_int_distribution<int> num_rules(2, 4);
  std::uniform_int_distribution<int> body_len(1, 2);
  std::uniform_int_distribution<int> any_pred(0, num_edb + 1);
  std::uniform_int_distribution<int> idb_pred(num_edb, num_edb + 1);
  std::uniform_int_distribution<VarId> var(100, 102);
  std::uniform_int_distribution<int> small_const(0, 2);
  std::uniform_int_distribution<int> d10(0, 9);
  int n = num_rules(rng);
  for (int r = 0; r < n; ++r) {
    DatalogRule rule;
    std::vector<VarId> body_vars;
    int len = body_len(rng);
    for (int b = 0; b < len; ++b) {
      DatalogAtom atom;
      atom.predicate = any_pred(rng);
      for (int i = 0; i < 2; ++i) {
        if (d10(rng) == 0) {
          atom.args.push_back(C(small_const(rng)));
        } else {
          VarId v = var(rng);
          atom.args.push_back(V(v));
          body_vars.push_back(v);
        }
      }
      rule.body.push_back(std::move(atom));
    }
    rule.head.predicate = idb_pred(rng);
    for (int i = 0; i < 2; ++i) {
      if (body_vars.empty() || d10(rng) == 0) {
        rule.head.args.push_back(C(small_const(rng)));
      } else {
        std::uniform_int_distribution<size_t> pick(0, body_vars.size() - 1);
        rule.head.args.push_back(V(body_vars[pick(rng)]));
      }
    }
    p.AddRule(std::move(rule));
  }
  EXPECT_EQ(p.Validate(), "");
  return p;
}

/// Rows of a table rendered canonically (tuple + interner-canonical local
/// condition), sorted — the "identical up to row order" comparison key.
std::vector<std::string> CanonicalRowSet(const CTable& t) {
  ConditionInterner& interner = ConditionInterner::Global();
  std::vector<std::string> out;
  for (const CRow& row : t.rows()) {
    out.push_back(ToString(row.tuple) + " :: " +
                  interner.Resolve(row.LocalId(interner)).ToString());
  }
  std::sort(out.begin(), out.end());
  return out;
}

using testutil::ExpectCanonicalFixpoint;
using testutil::ExpectRepresentsFixpointOfEveryWorld;

class DatalogDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DatalogDifferentialTest, SemiNaiveAgreesWithNaiveAndPerWorld) {
  // 25 parameter seeds x 4 (program, c-table) pairs: the conditioned
  // fixpoint must represent the per-world fixpoints exactly — the
  // complete-database evaluator's semi-naive result on every world — and
  // its output must be canonical (no unsatisfiable, duplicate or subsumed
  // row).
  const unsigned case_seed = 3000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  for (int round = 0; round < 4; ++round) {
    DatalogProgram program = RandomDatalogProgram(rng);
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/3, /*num_constants=*/3, /*num_variables=*/2,
        /*num_local_atoms=*/GetParam() % 2,
        /*num_global_atoms=*/GetParam() % 2);
    CTable t = RandomCTable(options, rng);
    CDatabase db{t};

    CDatabase fast = DatalogOnCTables(program, db);
    ExpectRepresentsFixpointOfEveryWorld(program, db, fast);
    ExpectCanonicalFixpoint(fast);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DatalogDifferentialTest,
                         ::testing::Range(0, 25));

// Multi-table c-database inputs: two extensional predicates seeded from two
// member c-tables (shared variables link them), random rules joining across
// both — the conditioned fixpoint vs per-world evaluation.
class DatalogMultiTableDifferentialTest
    : public ::testing::TestWithParam<int> {};

TEST_P(DatalogMultiTableDifferentialTest, AgreesAcrossStrategiesAndWorlds) {
  const unsigned case_seed = 5000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  for (int round = 0; round < 3; ++round) {
    DatalogProgram program = RandomDatalogProgram(rng, /*num_edb=*/2);
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/2, /*num_constants=*/3, /*num_variables=*/2,
        /*num_local_atoms=*/GetParam() % 2,
        /*num_global_atoms=*/GetParam() % 2);
    CTable t0 = RandomCTable(options, rng);
    CTable t1 = RandomCTable(options, rng);
    CDatabase db(std::vector<CTable>{t0, t1});

    CDatabase fast = DatalogOnCTables(program, db);
    ExpectRepresentsFixpointOfEveryWorld(program, db, fast);
    ExpectCanonicalFixpoint(fast);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DatalogMultiTableDifferentialTest,
                         ::testing::Range(0, 15));

// --- Query-directed (magic-set) evaluation ----------------------------------

/// A random goal binding: each position independently bound to a small
/// constant or left free.
std::vector<std::optional<ConstId>> RandomBindings(std::mt19937& rng,
                                                   int arity) {
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> small_const(0, 2);
  std::vector<std::optional<ConstId>> out;
  for (int i = 0; i < arity; ++i) {
    out.push_back(coin(rng) ? std::optional<ConstId>(small_const(rng))
                            : std::nullopt);
  }
  return out;
}

std::string BindingsString(const std::vector<std::optional<ConstId>>& b) {
  std::string out = "(";
  for (size_t i = 0; i < b.size(); ++i) {
    if (i > 0) out += ",";
    out += b[i].has_value() ? std::to_string(*b[i]) : "_";
  }
  return out + ")";
}

bool MatchesBindings(const Fact& fact,
                     const std::vector<std::optional<ConstId>>& bindings) {
  for (size_t i = 0; i < bindings.size(); ++i) {
    if (bindings[i].has_value() && fact[i] != *bindings[i]) return false;
  }
  return true;
}

/// Asserts that a magic-set goal answer equals the restricted full fixpoint
/// (testutil::RestrictedFullFixpoint): row-identical on the antichain
/// backend, per-world on the decision-diagram backend (see
/// MagicDifferentialTest).
void ExpectMagicMatchesFull(const DatalogProgram& program, const CDatabase& db,
                            int goal,
                            const std::vector<std::optional<ConstId>>& bindings,
                            const CTable& via_magic, const std::string& label) {
  CTable via_full =
      testutil::RestrictedFullFixpoint(program, db, goal, bindings);
  if (ResolveConditionBackendKind(ConditionBackendKind::kDefault) ==
      ConditionBackendKind::kDecisionDiagrams) {
    std::vector<ConstId> extra;
    for (ConstId c = 0; c <= 3; ++c) extra.push_back(c);
    EXPECT_EQ(testutil::CanonicalWorlds(CDatabase{via_magic}, extra),
              testutil::CanonicalWorlds(CDatabase{via_full}, extra))
        << "magic diverged (per-world) from restricted full fixpoint on "
        << label;
  } else {
    EXPECT_EQ(CanonicalRowSet(via_magic), CanonicalRowSet(via_full))
        << "magic diverged from restricted full fixpoint on " << label;
  }
  EXPECT_EQ(via_magic.global(), via_full.global());
}

/// Asserts the per-world meaning of a goal answer: sigma(answers) is the
/// goal-matching facts of the DATALOG fixpoint of sigma(db), for every
/// satisfying valuation sigma.
void ExpectGoalAnswersPerWorld(
    const DatalogProgram& program, const CDatabase& db, int goal,
    const std::vector<std::optional<ConstId>>& bindings, const CTable& answers,
    const std::string& label) {
  WorldEnumOptions wopts;
  for (ConstId c = 0; c <= 3; ++c) wopts.extra_constants.push_back(c);
  bool all_match = true;
  ForEachSatisfyingValuation(db, wopts, [&](const Valuation& v) {
    Instance fix = SemiNaiveEval(program, v.Apply(db));
    Relation expected(program.arity(goal));
    for (const Fact& f : fix.relation(static_cast<size_t>(goal))) {
      if (MatchesBindings(f, bindings)) expected.Insert(f);
    }
    if (v.Apply(answers) != expected) {
      all_match = false;
      return false;
    }
    return true;
  });
  EXPECT_TRUE(all_match) << "goal answers diverged per-world on " << label;
}

// Random programs + random goal binding patterns: the magic-rewritten run
// must return exactly the full fixpoint's facts restricted to the goal —
// same tuples, interned-id-identical conditions (CanonicalRowSet renders the
// interner-canonical form, which is 1:1 with the id) — and must represent
// the per-world goal answers exactly. One caveat under the decision-diagram
// backend: the magic and full programs merge *different* per-tuple diagrams
// (demand atoms are distinct propositional variables), so their exports can
// expand to different covering DNFs of the same world-set — there the
// magic-vs-full comparison is per-world, which is that backend's documented
// contract.
class MagicDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(MagicDifferentialTest, MagicEqualsRestrictedFullFixpoint) {
  const unsigned case_seed = 7000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  for (int round = 0; round < 4; ++round) {
    int num_edb = 1 + (round % 2);
    DatalogProgram program = RandomDatalogProgram(rng, num_edb);
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/3 - (num_edb - 1), /*num_constants=*/3,
        /*num_variables=*/2,
        /*num_local_atoms=*/GetParam() % 2,
        /*num_global_atoms=*/GetParam() % 2);
    std::vector<CTable> tables;
    for (int p = 0; p < num_edb; ++p) {
      tables.push_back(RandomCTable(options, rng));
    }
    CDatabase db(tables);
    std::uniform_int_distribution<int> any_pred(
        0, static_cast<int>(program.num_predicates()) - 1);
    int goal = any_pred(rng);
    std::vector<std::optional<ConstId>> bindings =
        RandomBindings(rng, program.arity(goal));
    std::string label = "goal P" + std::to_string(goal) +
                        BindingsString(bindings) + "\n" + program.ToString() +
                        FormatCDatabase(db);

    CTable via_magic = DatalogQueryOnCTables(program, db, goal, bindings);
    ExpectMagicMatchesFull(program, db, goal, bindings, via_magic, label);
    ExpectGoalAnswersPerWorld(program, db, goal, bindings, via_magic, label);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MagicDifferentialTest, ::testing::Range(0, 20));

// --- Multi-output queries and nested views -----------------------------------

// Multi-output DATALOG queries: the image database formed by *both*
// intensional tables (global carried on the first) must represent exactly
// the pointwise pairs of fixpoint relations.
class MultiOutputDatalogDifferentialTest
    : public ::testing::TestWithParam<int> {};

TEST_P(MultiOutputDatalogDifferentialTest, ImageRepresentsOutputPairs) {
  const unsigned case_seed = 8000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  for (int round = 0; round < 3; ++round) {
    DatalogProgram program = RandomDatalogProgram(rng);
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/3, /*num_constants=*/3, /*num_variables=*/2,
        /*num_local_atoms=*/GetParam() % 2,
        /*num_global_atoms=*/GetParam() % 2);
    CTable t = RandomCTable(options, rng);
    CDatabase db{t};

    CDatabase fixpoint = DatalogOnCTables(program, db);
    CDatabase image(
        std::vector<CTable>{fixpoint.table(1), fixpoint.table(2)});
    image.mutable_table(0).SetGlobal(fixpoint.CombinedGlobal());

    std::vector<ConstId> extra = db.Constants();
    for (size_t p = 0; p < image.num_tables(); ++p) {
      for (ConstId c : image.table(p).Constants()) extra.push_back(c);
    }
    for (ConstId c = 0; c <= 3; ++c) extra.push_back(c);

    WorldEnumOptions wopts;
    wopts.extra_constants = extra;
    std::vector<std::string> oracle;
    ForEachWorld(db, wopts, [&](const Instance& world, const Valuation&) {
      Instance fix = SemiNaiveEval(program, world);
      oracle.push_back(testutil::CanonicalWorldString(
          Instance({fix.relation(1), fix.relation(2)}), extra));
      return true;
    });
    std::sort(oracle.begin(), oracle.end());
    oracle.erase(std::unique(oracle.begin(), oracle.end()), oracle.end());

    EXPECT_EQ(testutil::CanonicalWorlds(image, extra), oracle)
        << "multi-output image diverged on\n"
        << program.ToString() << FormatCTable(t);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiOutputDatalogDifferentialTest,
                         ::testing::Range(0, 15));

// Nested views: the intensional output of one program becomes the input of
// a second program AND of an RA expression; both nestings must act pointwise
// on the represented worlds.
class NestedViewDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(NestedViewDifferentialTest, NestingsActPointwiseOnWorlds) {
  const unsigned case_seed = 9000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  for (int round = 0; round < 2; ++round) {
    DatalogProgram inner = RandomDatalogProgram(rng);
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/2, /*num_constants=*/3, /*num_variables=*/2,
        /*num_local_atoms=*/GetParam() % 2,
        /*num_global_atoms=*/GetParam() % 2);
    CTable t = RandomCTable(options, rng);
    CDatabase db{t};

    CDatabase stage1 = DatalogOnCTables(inner, db);
    CDatabase mid(std::vector<CTable>{stage1.table(1), stage1.table(2)});
    mid.mutable_table(0).SetGlobal(stage1.CombinedGlobal());

    // (a) DATALOG over the DATALOG view: the two intensional outputs are the
    // second program's extensional predicates.
    DatalogProgram outer = RandomDatalogProgram(rng, /*num_edb=*/2);
    CDatabase stage2 = DatalogOnCTables(outer, mid);
    // (b) an RA expression over the same view outputs.
    RaExpr q = RandomPosExistential(rng, 2, /*num_rels=*/2);
    auto ra_image = EvalQueryOnCTables({q}, mid);
    ASSERT_TRUE(ra_image.has_value());

    WorldEnumOptions wopts;
    for (ConstId c = 0; c <= 3; ++c) wopts.extra_constants.push_back(c);
    bool datalog_match = true;
    bool ra_match = true;
    ForEachSatisfyingValuation(db, wopts, [&](const Valuation& v) {
      Instance world = v.Apply(db);
      Instance fix = SemiNaiveEval(inner, world);
      Instance mid_world({fix.relation(1), fix.relation(2)});
      if (v.Apply(stage2) != SemiNaiveEval(outer, mid_world)) {
        datalog_match = false;
      }
      if (v.Apply(ra_image->table(0)) !=
          EvalQuery({q}, mid_world).relation(0)) {
        ra_match = false;
      }
      return datalog_match && ra_match;
    });
    EXPECT_TRUE(datalog_match)
        << "nested DATALOG view diverged per-world on\n"
        << inner.ToString() << "then\n"
        << outer.ToString() << FormatCTable(t);
    EXPECT_TRUE(ra_match) << "RA over DATALOG view diverged per-world on\n"
                          << inner.ToString() << "then " << q.ToString()
                          << "\n"
                          << FormatCTable(t);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NestedViewDifferentialTest,
                         ::testing::Range(0, 15));

// Goal-shaped possibility through the demand path: PossDatalogDemand (each
// pattern fact a fully bound magic-set goal) must agree with the per-world
// possibility search on random DATALOG views and patterns.
class DemandPossibilityDifferentialTest
    : public ::testing::TestWithParam<int> {};

TEST_P(DemandPossibilityDifferentialTest, DemandAgreesWithSearch) {
  const unsigned case_seed = 9500 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  for (int round = 0; round < 3; ++round) {
    DatalogProgram program = RandomDatalogProgram(rng);
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/3, /*num_constants=*/3, /*num_variables=*/2,
        /*num_local_atoms=*/GetParam() % 2,
        /*num_global_atoms=*/GetParam() % 2);
    CTable t = RandomCTable(options, rng);
    CDatabase db{t};
    View view = View::Datalog(program, {1, 2});

    std::uniform_int_distribution<int> num_facts(1, 2);
    std::uniform_int_distribution<int> rel(0, 1);
    std::uniform_int_distribution<int> small_const(0, 2);
    std::vector<LocatedFact> pattern;
    int n = num_facts(rng);
    for (int i = 0; i < n; ++i) {
      pattern.push_back({static_cast<size_t>(rel(rng)),
                         {small_const(rng), small_const(rng)}});
    }

    auto demand = PossDatalogDemand(view, db, pattern);
    bool search = PossibilitySearch(view, db, pattern);
    // nullopt when the demand path declines (an all-free sub-demand, or
    // budget exhaustion — the latter not expected at these tiny sizes).
    if (demand.has_value()) {
      EXPECT_EQ(*demand, search) << "demand-path possibility diverged on\n"
                                 << program.ToString() << FormatCTable(t);
    }
    // The dispatcher routes DATALOG views through the demand path (falling
    // back to the search when it declines — either way it must agree).
    EXPECT_EQ(Possibility(view, db, pattern), search);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DemandPossibilityDifferentialTest,
                         ::testing::Range(0, 15));

// --- Updates ----------------------------------------------------------------

/// One randomized update against a table: insert, delete, or conditional
/// insert of a random small fact.
struct RandomUpdate {
  enum Kind { kInsert, kDelete, kInsertIf } kind;
  Fact fact;
  Conjunction condition;  // kInsertIf only
};

RandomUpdate DrawUpdate(std::mt19937& rng, int num_constants,
                        int num_variables) {
  std::uniform_int_distribution<int> kind(0, 2);
  std::uniform_int_distribution<int> c(0, num_constants - 1);
  std::uniform_int_distribution<VarId> v(0, num_variables - 1);
  std::uniform_int_distribution<int> coin(0, 1);
  RandomUpdate out;
  out.kind = static_cast<RandomUpdate::Kind>(kind(rng));
  out.fact = {c(rng), c(rng)};
  if (out.kind == RandomUpdate::kInsertIf) {
    // One atom over the table's own variable pool, so the valuation oracle
    // covers it.
    CondAtom atom = coin(rng) ? Eq(V(v(rng)), C(c(rng)))
                              : Neq(V(v(rng)), C(c(rng)));
    out.condition = Conjunction{atom};
  }
  return out;
}

CTable ApplyUpdate(const CTable& table, const RandomUpdate& update) {
  switch (update.kind) {
    case RandomUpdate::kInsert:
      return InsertFact(table, update.fact);
    case RandomUpdate::kDelete:
      return DeleteFact(table, update.fact);
    case RandomUpdate::kInsertIf:
      return InsertFactIf(table, update.fact, update.condition);
  }
  return table;
}

/// The per-world meaning of one update under valuation `v`.
Relation ApplyUpdateToWorld(const Relation& world, const RandomUpdate& update,
                            const Valuation& v) {
  Relation out(world.arity());
  for (const Fact& f : world) {
    if (update.kind == RandomUpdate::kDelete && f == update.fact) continue;
    out.Insert(f);
  }
  if (update.kind == RandomUpdate::kInsert ||
      (update.kind == RandomUpdate::kInsertIf &&
       v.Satisfies(update.condition))) {
    out.Insert(update.fact);
  }
  return out;
}

class UpdateDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(UpdateDifferentialTest, UpdateSequencesActPointwiseOnWorlds) {
  // 25 parameter seeds x 4 rounds: a random c-table, a random sequence of
  // 1-3 updates. The updated table's worlds must equal the per-world update
  // results, valuation by valuation; a transitive-closure view evaluated
  // over the updated table must then represent the per-world fixpoints of
  // those results.
  const unsigned case_seed = 4000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  constexpr int kConstants = 3;
  constexpr int kVariables = 2;
  for (int round = 0; round < 4; ++round) {
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/3, /*num_constants=*/kConstants,
        /*num_variables=*/kVariables,
        /*num_local_atoms=*/GetParam() % 2,
        /*num_global_atoms=*/GetParam() % 2);
    CTable t = RandomCTable(options, rng);

    std::uniform_int_distribution<int> num_updates(1, 3);
    std::vector<RandomUpdate> updates;
    CTable updated = t;
    int n = num_updates(rng);
    for (int u = 0; u < n; ++u) {
      updates.push_back(DrawUpdate(rng, kConstants, kVariables));
      updated = ApplyUpdate(updated, updates.back());
    }

    // Enumerate over the whole variable pool: deleting a fully-ground row
    // can drop variables that occur only in its local condition from the
    // updated table, and the oracle needs every variable any intermediate
    // condition mentioned bound. The carrier table pins the pool; the
    // duplicated global condition does not change the satisfying set.
    WorldEnumOptions wopts;
    for (ConstId c = 0; c < kConstants; ++c) {
      wopts.extra_constants.push_back(c);
    }
    CTable carrier(1);
    for (VarId var = 0; var < kVariables; ++var) {
      carrier.AddRow(Tuple{V(var)});
    }
    CDatabase updated_db{updated};
    CDatabase joint(std::vector<CTable>{t, updated, carrier});
    bool all_match = true;
    ForEachSatisfyingValuation(joint, wopts, [&](const Valuation& v) {
      Relation expected = v.Apply(t);
      for (const RandomUpdate& update : updates) {
        expected = ApplyUpdateToWorld(expected, update, v);
      }
      if (v.Apply(updated) != expected) {
        all_match = false;
        return false;
      }
      return true;
    });
    EXPECT_TRUE(all_match) << FormatCTable(t) << FormatCTable(updated);

    // A DATALOG view over the updated table: canonical rows, correct worlds.
    DatalogProgram tc({2, 2}, /*num_edb=*/1);
    DatalogRule base;
    base.head = {1, Tuple{V(100), V(101)}};
    base.body = {{0, Tuple{V(100), V(101)}}};
    tc.AddRule(base);
    DatalogRule step;
    step.head = {1, Tuple{V(100), V(102)}};
    step.body = {{1, Tuple{V(100), V(101)}}, {0, Tuple{V(101), V(102)}}};
    tc.AddRule(step);

    CDatabase fast = DatalogOnCTables(tc, updated_db);
    ExpectRepresentsFixpointOfEveryWorld(tc, updated_db, fast);
    ExpectCanonicalFixpoint(fast);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpdateDifferentialTest,
                         ::testing::Range(0, 25));

// --- Incremental view maintenance -------------------------------------------

/// Routes one randomized update through a maintained view's update API.
void ApplyUpdateToView(MaterializedView& view, int pred,
                       const RandomUpdate& update) {
  switch (update.kind) {
    case RandomUpdate::kInsert:
      view.Insert(pred, update.fact);
      break;
    case RandomUpdate::kDelete:
      view.Delete(pred, update.fact);
      break;
    case RandomUpdate::kInsertIf:
      view.InsertIf(pred, update.fact, update.condition);
      break;
  }
}

class IvmDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(IvmDifferentialTest, MaintainedViewsStayIdenticalToRecompute) {
  // 20 parameter seeds x 3 rounds: random programs (alternating one and two
  // extensional predicates) over random c-tables, driven through 3-5
  // randomized updates. After *every* update, each maintained view — a full
  // view and a magic-set demand view — must be identical (same tuples, same
  // interned condition ids, up to row order) to recomputing its program
  // from scratch on its updated base, must represent that program's
  // per-world fixpoints of the updated base, and must be canonical. This is
  // the IVM invariant: the covered-delete fast path, the cone
  // over-delete/re-derive, and resumed semi-naive rounds may never leave a
  // stale row or a stronger-than-necessary condition behind.
  const unsigned case_seed = 10000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  constexpr int kConstants = 3;
  constexpr int kVariables = 2;
  for (int round = 0; round < 3; ++round) {
    const int num_edb = 1 + (round % 2);
    DatalogProgram program = RandomDatalogProgram(rng, num_edb);
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/2, /*num_constants=*/kConstants,
        /*num_variables=*/kVariables,
        /*num_local_atoms=*/GetParam() % 2,
        /*num_global_atoms=*/GetParam() % 2);
    std::vector<CTable> tables;
    for (int p = 0; p < num_edb; ++p) {
      tables.push_back(RandomCTable(options, rng));
    }
    CDatabase db(tables);

    // A vector so growth relocates the views — maintained state must
    // survive moves. views[0] is the full view, views[1] the demand view.
    DatalogGoal goal{/*predicate=*/num_edb, RandomBindings(rng, 2)};
    std::vector<MaterializedView> views;
    views.emplace_back(program, db);
    views.emplace_back(program, db, goal);

    std::uniform_int_distribution<int> num_updates(3, 5);
    std::uniform_int_distribution<int> pick_pred(0, num_edb - 1);
    const int n = num_updates(rng);
    for (int u = 0; u < n; ++u) {
      RandomUpdate update = DrawUpdate(rng, kConstants, kVariables);
      const int pred = pick_pred(rng);
      for (MaterializedView& view : views) {
        ApplyUpdateToView(view, pred, update);
      }

      for (MaterializedView& view : views) {
        CDatabase maintained = view.Materialized();
        CDatabase scratch =
            DatalogOnCTables(view.evaluated_program(), view.base());
        ASSERT_EQ(maintained.num_tables(), scratch.num_tables());
        for (size_t p = 0; p < maintained.num_tables(); ++p) {
          EXPECT_EQ(CanonicalRowSet(maintained.table(p)),
                    CanonicalRowSet(scratch.table(p)))
              << "maintained view diverged from recompute on predicate " << p
              << " after update " << u << "\n"
              << program.ToString() << FormatCDatabase(view.base());
        }
        ExpectRepresentsFixpointOfEveryWorld(view.evaluated_program(),
                                             view.base(), maintained);
        ExpectCanonicalFixpoint(maintained);
      }
      const MaterializedView& demand = views[1];
      CTable answers = demand.Answers();
      CTable scratch_answers = DatalogQueryOnCTables(
          program, demand.base(), goal.predicate, goal.bindings);
      EXPECT_EQ(CanonicalRowSet(answers), CanonicalRowSet(scratch_answers))
          << "demand view diverged from query-from-scratch with bindings "
          << BindingsString(goal.bindings) << " after update " << u << "\n"
          << program.ToString() << FormatCDatabase(demand.base());
    }

    // Nested consumption: a second program (transitive closure) evaluated
    // over the maintained IDB output must match the same program over the
    // recomputed output — maintained views compose downstream.
    DatalogProgram tc({2, 2}, /*num_edb=*/1);
    DatalogRule base;
    base.head = {1, Tuple{V(100), V(101)}};
    base.body = {{0, Tuple{V(100), V(101)}}};
    tc.AddRule(base);
    DatalogRule step;
    step.head = {1, Tuple{V(100), V(102)}};
    step.body = {{1, Tuple{V(100), V(101)}}, {0, Tuple{V(101), V(102)}}};
    tc.AddRule(step);
    CDatabase maintained = views[0].Materialized();
    CDatabase scratch = DatalogOnCTables(program, views[0].base());
    CDatabase over_maintained =
        DatalogOnCTables(tc, CDatabase{maintained.table(num_edb)});
    CDatabase over_scratch =
        DatalogOnCTables(tc, CDatabase{scratch.table(num_edb)});
    ASSERT_EQ(over_maintained.num_tables(), over_scratch.num_tables());
    for (size_t p = 0; p < over_maintained.num_tables(); ++p) {
      EXPECT_EQ(CanonicalRowSet(over_maintained.table(p)),
                CanonicalRowSet(over_scratch.table(p)))
          << "nested program over maintained output diverged on predicate "
          << p << "\n"
          << program.ToString() << FormatCDatabase(views[0].base());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IvmDifferentialTest, ::testing::Range(0, 20));

// --- Factored (right-linear) magic-set goals ---------------------------------

/// A hand-written goal shape over two binary extensional predicates (e = 0,
/// f = 1): the program, the goal predicate, the positions the goal binds to
/// random constants, and whether the magic rewrite must factor it.
struct FactoringShape {
  std::string name;
  DatalogProgram program;
  int goal = 0;
  Adornment bound = 0;
  bool factored = false;
};

std::vector<FactoringShape> FactoringShapes() {
  const Term x = V(100), y = V(101), z = V(102), w = V(103);
  std::vector<FactoringShape> shapes;
  auto add = [&](std::string name, std::vector<int> arities,
                 std::vector<DatalogRule> rules, int goal, Adornment bound,
                 bool factored) {
    DatalogProgram program(std::move(arities), /*num_edb=*/2);
    for (DatalogRule& rule : rules) program.AddRule(std::move(rule));
    EXPECT_EQ(program.Validate(), "") << name;
    shapes.push_back(
        {std::move(name), std::move(program), goal, bound, factored});
  };
  // Factorable: every recursive rule ends in its one recursive atom, which
  // keeps the goal's adornment and passes the free variables through.
  add("right-recursive tc", {2, 2, 2},
      {{{2, {x, y}}, {{0, {x, y}}}},
       {{2, {x, y}}, {{0, {x, z}}, {2, {z, y}}}}},
      2, 0b01, true);
  add("right-recursive tc, both positions bound", {2, 2, 2},
      {{{2, {x, y}}, {{0, {x, y}}}},
       {{2, {x, y}}, {{0, {x, z}}, {2, {z, y}}}}},
      2, 0b11, true);
  add("several exit rules", {2, 2, 2},
      {{{2, {x, y}}, {{0, {x, y}}}},
       {{2, {x, y}}, {{1, {y, x}}}},
       {{2, {x, C(1)}}, {{1, {x, x}}}},
       {{2, {x, y}}, {{0, {x, z}}, {2, {z, y}}}}},
      2, 0b01, true);
  add("arity 3, bound-free-bound", {2, 2, 3},
      {{{2, {x, y, w}}, {{0, {x, y}}, {1, {y, w}}}},
       {{2, {x, y, w}}, {{1, {x, z}}, {2, {z, y, w}}}}},
      2, 0b101, true);
  add("constants in the recursive atom", {2, 2, 2},
      {{{2, {x, y}}, {{0, {x, y}}}},
       {{2, {x, y}}, {{1, {x, C(2)}}, {2, {C(2), y}}}},
       {{2, {x, y}}, {{0, {x, z}}, {2, {z, y}}}}},
      2, 0b01, true);
  add("idb atoms in the prefix", {2, 2, 2, 2},
      {// q = 2: the left-recursive closure of f (a guarded lower stratum).
       {{2, {x, y}}, {{1, {x, y}}}},
       {{2, {x, y}}, {{2, {x, z}}, {1, {z, y}}}},
       // p = 3 steps through q, and exits through e or q.
       {{3, {x, y}}, {{2, {x, y}}}},
       {{3, {x, y}}, {{0, {x, y}}}},
       {{3, {x, y}}, {{2, {x, z}}, {0, {z, w}}, {3, {w, y}}}}},
      3, 0b01, true);
  // Near misses: each breaks a factoring condition and must keep the
  // guarded rewrite.
  add("free variable reused in the prefix", {2, 2, 2},
      {{{2, {x, y}}, {{0, {x, y}}}},
       {{2, {x, y}}, {{0, {x, z}}, {1, {z, y}}, {2, {z, y}}}}},
      2, 0b01, false);
  add("free variable repeated in the head", {2, 2, 3},
      {{{2, {x, y, w}}, {{0, {x, y}}, {1, {x, w}}}},
       {{2, {x, y, y}}, {{0, {x, z}}, {2, {z, y, y}}}}},
      2, 0b001, false);
  add("recursive atom not last", {2, 2, 2},
      {{{2, {x, y}}, {{0, {x, y}}}},
       {{2, {x, y}}, {{0, {x, z}}, {2, {z, y}}, {1, {z, w}}}}},
      2, 0b01, false);
  add("two recursive atoms", {2, 2, 2},
      {{{2, {x, y}}, {{0, {x, y}}}},
       {{2, {x, y}}, {{2, {x, z}}, {2, {z, y}}}}},
      2, 0b01, false);
  add("mutual recursion", {2, 2, 2, 2},
      {{{2, {x, y}}, {{0, {x, y}}}},
       {{2, {x, y}}, {{0, {x, z}}, {3, {z, y}}}},
       {{3, {x, y}}, {{1, {x, z}}, {2, {z, y}}}}},
      2, 0b01, false);
  add("changed adornment: a fresh variable at a bound position", {2, 2, 2},
      {{{2, {x, y}}, {{0, {x, y}}}},
       {{2, {x, y}}, {{0, {x, z}}, {2, {w, y}}}}},
      2, 0b01, false);
  add("changed adornment: the second position bound", {2, 2, 2},
      {{{2, {x, y}}, {{0, {x, y}}}},
       {{2, {x, y}}, {{0, {x, z}}, {2, {z, y}}}}},
      2, 0b10, false);
  return shapes;
}

class FactoredMagicDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(FactoredMagicDifferentialTest, FactoredGoalsMatchFullAndWorlds) {
  // 12 parameter seeds x every shape: random null-carrying (and, on odd
  // seeds, conditioned) tables for e and f. The rewrite must take the
  // route the shape pins; the goal answer must be identical to the
  // restricted full fixpoint and represent the per-world goal answers; and
  // a demand view driven through 3 random updates must keep answering
  // exactly that after each one.
  const unsigned case_seed = 16000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  constexpr int kConstants = 3;
  constexpr int kVariables = 2;
  std::uniform_int_distribution<int> small_const(0, kConstants - 1);
  std::uniform_int_distribution<int> pick_pred(0, 1);
  for (const FactoringShape& shape : FactoringShapes()) {
    SCOPED_TRACE(shape.name);
    const DatalogProgram& program = shape.program;
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/3, kConstants, kVariables,
        /*num_local_atoms=*/GetParam() % 2,
        /*num_global_atoms=*/GetParam() % 2);
    CTable e = RandomCTable(options, rng);
    CTable f = RandomCTable(options, rng);
    CDatabase db(std::vector<CTable>{e, f});
    std::vector<std::optional<ConstId>> bindings;
    for (int i = 0; i < program.arity(shape.goal); ++i) {
      bindings.push_back(shape.bound & (Adornment{1} << i)
                             ? std::optional<ConstId>(small_const(rng))
                             : std::nullopt);
    }
    const DatalogGoal goal{shape.goal, bindings};
    std::string label = shape.name + ": goal P" + std::to_string(shape.goal) +
                        BindingsString(bindings) + "\n" +
                        program.ToString() + FormatCDatabase(db);

    MagicRewriteResult rewrite = MagicRewrite(program, goal);
    EXPECT_EQ(rewrite.factored, shape.factored) << rewrite.ToString();
    EXPECT_EQ(rewrite.program.Validate(), "") << rewrite.ToString();

    CTable via_magic =
        DatalogQueryOnCTables(program, db, shape.goal, bindings);
    ExpectMagicMatchesFull(program, db, shape.goal, bindings, via_magic,
                           label);
    ExpectGoalAnswersPerWorld(program, db, shape.goal, bindings, via_magic,
                              label);

    MaterializedView view(program, db, goal);
    for (int u = 0; u < 3; ++u) {
      ApplyUpdateToView(view, pick_pred(rng),
                        DrawUpdate(rng, kConstants, kVariables));
      const std::string at = label + "\nafter update " + std::to_string(u) +
                             " on\n" + FormatCDatabase(view.base());
      CTable answers = view.Answers();
      EXPECT_EQ(CanonicalRowSet(answers),
                CanonicalRowSet(DatalogQueryOnCTables(
                    program, view.base(), shape.goal, bindings)))
          << "demand view diverged from query-from-scratch on " << at;
      ExpectMagicMatchesFull(program, view.base(), shape.goal, bindings,
                             answers, at);
      ExpectGoalAnswersPerWorld(program, view.base(), shape.goal, bindings,
                                answers, at);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FactoredMagicDifferentialTest,
                         ::testing::Range(0, 12));

TEST(DifferentialEdgeTest, InternedPathPrunesUnsatisfiableRows) {
  // A select contradicting a row's local condition: the row holds in no
  // world of the image, so evaluation drops it outright — and the empty
  // image still represents q(rep(db)).
  CTable t(1);
  t.AddRow(Tuple{V(0)}, Conjunction{Eq(V(0), C(1))});
  CDatabase db{t};
  RaExpr q = RaExpr::Select(
      RaExpr::Rel(0, 1),
      {SelectAtom::Eq(ColOrConst::Col(0), ColOrConst::Const(2))});

  auto image = EvalQueryOnCTables({q}, db);
  ASSERT_TRUE(image.has_value());
  EXPECT_EQ(image->table(0).num_rows(), 0u);
  std::vector<ConstId> extra = {1, 2};
  EXPECT_EQ(testutil::CanonicalWorlds(*image, extra),
            testutil::CanonicalImageWorlds({q}, db, extra));
}

// --- Family 7: condition algebra across backends ---------------------------

/// Truth of one =/!= atom under a total valuation (indexed by VarId).
bool AtomHolds(const CondAtom& atom, const std::vector<ConstId>& valuation) {
  auto value = [&](const Term& t) {
    return t.is_constant() ? t.constant()
                           : valuation[static_cast<size_t>(t.variable())];
  };
  return (value(atom.lhs) == value(atom.rhs)) == atom.is_equality;
}

/// Truth of an interned conjunction under a valuation.
bool ConjHolds(const ConditionInterner& interner, ConjId id,
               const std::vector<ConstId>& valuation) {
  if (id == ConditionInterner::kTrueConj) return true;
  if (id == ConditionInterner::kFalseConj) return false;
  for (const CondAtom& atom : interner.Resolve(id).atoms()) {
    if (!AtomHolds(atom, valuation)) return false;
  }
  return true;
}

/// A random conjunction over a pool small enough that implications,
/// contradictions, and tautologies all actually occur.
Conjunction RandomAlgebraConjunction(std::mt19937& rng) {
  std::uniform_int_distribution<int> natoms(1, 2);
  std::uniform_int_distribution<int> var(0, 2);
  std::uniform_int_distribution<int> constant(0, 2);
  std::uniform_int_distribution<int> kind(0, 3);
  Conjunction c;
  int n = natoms(rng);
  for (int i = 0; i < n; ++i) {
    switch (kind(rng)) {
      case 0:
        c.Add(Eq(V(var(rng)), C(constant(rng))));
        break;
      case 1:
        c.Add(Neq(V(var(rng)), C(constant(rng))));
        break;
      case 2:
        c.Add(Eq(V(var(rng)), V(var(rng))));
        break;
      default:
        c.Add(Neq(V(var(rng)), V(var(rng))));
        break;
    }
  }
  return c;
}

class ConditionAlgebraDifferentialTest : public ::testing::TestWithParam<int> {
};

TEST_P(ConditionAlgebraDifferentialTest, BackendsAgreeWithSmallModelOracle) {
  // Random And/Or trees over random conjunction leaves, built through the
  // decision-diagram backend; every verdict the fixpoint relies on, and the
  // disjunction check certainty relies on, is compared against the
  // brute-force oracle. The oracle enumerates valuations over the mentioned
  // constants (0..2) plus one fresh value per variable — complete for
  // boolean combinations of =/!= atoms over the infinite domain, because
  // any model collapses to one where each variable takes a mentioned
  // constant or one of |vars| pairwise-distinct fresh values.
  const unsigned case_seed = 11000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);

  ConditionInterner interner;
  DDBackend dd(interner);

  constexpr int kVars = 3;
  const std::vector<ConstId> domain = {0, 1, 2, 100, 101, 102};
  std::vector<std::vector<ConstId>> valuations;
  static_assert(kVars == 3, "the valuation odometer below is unrolled");
  for (ConstId a : domain) {
    for (ConstId b : domain) {
      for (ConstId c : domain) {
        valuations.push_back({a, b, c});
      }
    }
  }

  auto truth_of_conj = [&](ConjId id) {
    std::vector<bool> truth(valuations.size());
    for (size_t k = 0; k < valuations.size(); ++k) {
      truth[k] = ConjHolds(interner, id, valuations[k]);
    }
    return truth;
  };

  struct Expr {
    CondId dd;
    std::vector<bool> truth;
    std::vector<ConjId> expansion;  // AppendDisjuncts(dd)
  };
  std::vector<Expr> exprs;
  for (int i = 0; i < 6; ++i) {
    ConjId leaf = interner.Intern(RandomAlgebraConjunction(rng));
    exprs.push_back({dd.FromConj(leaf), truth_of_conj(leaf), {}});
  }
  std::uniform_int_distribution<int> coin(0, 1);
  for (int step = 0; step < 10; ++step) {
    std::uniform_int_distribution<size_t> pick(0, exprs.size() - 1);
    Expr a = exprs[pick(rng)];
    Expr b = exprs[pick(rng)];
    bool is_and = coin(rng) == 0;
    Expr out;
    out.dd = is_and ? dd.And(a.dd, b.dd) : dd.Or(a.dd, b.dd);
    out.truth.resize(valuations.size());
    for (size_t k = 0; k < valuations.size(); ++k) {
      out.truth[k] =
          is_and ? (a.truth[k] && b.truth[k]) : (a.truth[k] || b.truth[k]);
    }
    exprs.push_back(std::move(out));
  }

  ConjId global = interner.Intern(RandomAlgebraConjunction(rng));
  const std::vector<bool> global_truth = truth_of_conj(global);

  for (size_t i = 0; i < exprs.size(); ++i) {
    SCOPED_TRACE("expr #" + std::to_string(i));
    Expr& e = exprs[i];
    bool oracle_sat = false;
    bool oracle_sat_with = false;
    bool oracle_valid = true;
    bool oracle_taut = true;
    for (size_t k = 0; k < valuations.size(); ++k) {
      oracle_sat = oracle_sat || e.truth[k];
      oracle_sat_with = oracle_sat_with || (global_truth[k] && e.truth[k]);
      oracle_valid = oracle_valid && e.truth[k];
      oracle_taut = oracle_taut && (!global_truth[k] || e.truth[k]);
    }
    EXPECT_EQ(dd.SatisfiableWith(ConditionInterner::kTrueConj, e.dd),
              oracle_sat);
    EXPECT_EQ(dd.SatisfiableWith(global, e.dd), oracle_sat_with);

    // The DNF expansion must represent exactly the expression's function.
    dd.AppendDisjuncts(e.dd, &e.expansion);
    for (size_t k = 0; k < valuations.size(); ++k) {
      bool holds = false;
      for (ConjId d : e.expansion) {
        if (ConjHolds(interner, d, valuations[k])) {
          holds = true;
          break;
        }
      }
      ASSERT_EQ(holds, static_cast<bool>(e.truth[k]))
          << "dd DNF expansion diverged at valuation " << k;
    }

    // The certainty question on that expansion, as is and reduced to its
    // covering antichain (the form CertainFactInTable asks).
    const std::vector<ConjId> antichain =
        CoveringAntichain(interner, e.expansion);
    EXPECT_EQ(ConjImpliesDisjunction(interner, global, e.expansion),
              oracle_taut);
    EXPECT_EQ(ConjImpliesDisjunction(interner, global, antichain),
              oracle_taut);
    EXPECT_EQ(ConjImpliesDisjunction(interner, ConditionInterner::kTrueConj,
                                     e.expansion),
              oracle_valid);
  }

  // Implication over every ordered pair: each disjunct of the lhs expansion
  // must imply the disjunction of the rhs expansion.
  for (size_t i = 0; i < exprs.size(); ++i) {
    for (size_t j = 0; j < exprs.size(); ++j) {
      bool oracle_implies = true;
      for (size_t k = 0; k < valuations.size(); ++k) {
        oracle_implies =
            oracle_implies && (!exprs[i].truth[k] || exprs[j].truth[k]);
      }
      bool implies = std::all_of(
          exprs[i].expansion.begin(), exprs[i].expansion.end(),
          [&](ConjId d) {
            return ConjImpliesDisjunction(interner, d, exprs[j].expansion);
          });
      EXPECT_EQ(implies, oracle_implies)
          << "disjunction check diverged on pair (" << i << ", " << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConditionAlgebraDifferentialTest,
                         ::testing::Range(0, 25));

// --- Family 8: decision-diagram fixpoints ----------------------------------

class DDFixpointDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DDFixpointDifferentialTest, StrategiesConfluentAndWorldsMatch) {
  // On the decision-diagram backend each tuple's derivations merge into one
  // canonical diagram. Against the antichain backend the comparison is
  // per-world (the two backends pick different covering DNFs of the same
  // world-set), and the dd image must satisfy the per-world fixpoint oracle
  // directly.
  const unsigned case_seed = 12000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  for (int round = 0; round < 2; ++round) {
    DatalogProgram program = RandomDatalogProgram(rng);
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/3, /*num_constants=*/3, /*num_variables=*/2,
        /*num_local_atoms=*/GetParam() % 2,
        /*num_global_atoms=*/GetParam() % 2);
    CTable t = RandomCTable(options, rng);
    CDatabase db{t};

    DatalogCTableOptions dd;
    dd.condition_backend = ConditionBackendKind::kDecisionDiagrams;
    CDatabase semi = DatalogOnCTables(program, db, nullptr, dd);

    DatalogCTableOptions antichain;
    antichain.condition_backend = ConditionBackendKind::kConjunctions;
    CDatabase anti = DatalogOnCTables(program, db, nullptr, antichain);

    std::vector<ConstId> extra;
    for (ConstId c = 0; c <= 3; ++c) extra.push_back(c);
    EXPECT_EQ(testutil::CanonicalWorlds(semi, extra),
              testutil::CanonicalWorlds(anti, extra))
        << "dd fixpoint represents different worlds than the antichain on\n"
        << program.ToString() << FormatCTable(t);

    ExpectRepresentsFixpointOfEveryWorld(program, db, semi);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DDFixpointDifferentialTest,
                         ::testing::Range(0, 15));

// --- Family 9: certainty ----------------------------------------------------

class CertaintyBackendDifferentialTest : public ::testing::TestWithParam<int> {
};

/// The worlds of the random family-9 table, over its constants and 0..3
/// plus fresh values: complete for facts and instances over 0..3.
std::vector<Instance> CertaintyOracleWorlds(const CDatabase& db) {
  WorldEnumOptions options;
  options.extra_constants = {0, 1, 2, 3};
  std::vector<Instance> worlds;
  ForEachWorld(db, options, [&worlds](const Instance& world, const Valuation&) {
    worlds.push_back(world);
    return true;
  });
  return worlds;
}

/// Family 9's random table: two columns, three rows, with local and global
/// conditions on alternate seeds.
CTable CertaintyCaseTable(int param, std::mt19937& rng) {
  RandomCTableOptions options = testutil::SmallCTableOptions(
      /*arity=*/2, /*num_rows=*/3, /*num_constants=*/3, /*num_variables=*/2,
      /*num_local_atoms=*/param % 2, /*num_global_atoms=*/param % 2);
  return RandomCTable(options, rng);
}

/// `t` plus, for each row with a local condition, a sibling row with the
/// same tuple under the negation of the row's first local atom. A fact such
/// a pair produces is certain through the disjunction of the two rows'
/// alternatives while neither alternative alone is implied, so only the
/// clause search can find it certain.
CTable WithComplementedRows(const CTable& t) {
  CTable out = t;
  for (const CRow& row : t.rows()) {
    if (row.local().atoms().empty()) continue;
    out.AddRow(row.tuple, Conjunction{Negate(row.local().atoms().front())});
  }
  return out;
}

TEST_P(CertaintyBackendDifferentialTest, CertainFactAgreesAcrossBackends) {
  // CertainFactInTable decides `global -> OR over matching rows` with one
  // clause search over the covering antichain of the rows' alternatives.
  // It must agree with the per-world oracle on every candidate fact
  // (present, conditioned, and absent ones alike), on the random table and
  // on its complemented variant. The verdict does not depend on
  // PW_CONDITION_BACKEND, which only chooses the fixpoint's rows.
  const unsigned case_seed = 13000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  for (int round = 0; round < 3; ++round) {
    CTable random = CertaintyCaseTable(GetParam(), rng);
    for (const CTable& t : {random, WithComplementedRows(random)}) {
      std::vector<Instance> worlds = CertaintyOracleWorlds(CDatabase{t});

      ConditionInterner interner;
      ConjId global = t.GlobalId(interner);

      for (ConstId a = 0; a <= 3; ++a) {
        for (ConstId b = 0; b <= 3; ++b) {
          Fact fact{a, b};
          bool in_every_world = std::all_of(
              worlds.begin(), worlds.end(),
              [&](const Instance& w) { return w.relation(0).Contains(fact); });
          EXPECT_EQ(CertainFactInTable(t, fact, global, interner),
                    in_every_world)
              << "certainty diverged from the per-world oracle on (" << a
              << ", " << b << ") in\n"
              << FormatCTable(t);
        }
      }
    }
  }
}

TEST_P(CertaintyBackendDifferentialTest, OtherWorldAgreesWithPerWorldOracle) {
  // ExistsWorldOtherThan(db, I) holds iff some world of rep(db) is not I.
  // Candidates: every enumerated world over 0..3 (the decisive cases: a
  // world that is the only one, or one of several), each with one fact
  // added and one removed, and the empty instance.
  const unsigned case_seed = 13100 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  for (int round = 0; round < 3; ++round) {
    CTable t = CertaintyCaseTable(GetParam(), rng);
    CDatabase db{t};
    std::vector<Instance> worlds = CertaintyOracleWorlds(db);

    std::vector<Instance> candidates{Instance({Relation(2)})};
    for (const Instance& w : worlds) {
      std::vector<ConstId> constants = w.Constants();
      if (std::any_of(constants.begin(), constants.end(),
                      [](ConstId c) { return c > 3; })) {
        continue;  // mentions a fresh value: never equal to a candidate
      }
      candidates.push_back(w);
      Relation grown = w.relation(0);
      grown.Insert(Fact{3, 3});
      candidates.push_back(Instance({grown}));
      std::vector<Fact> facts = w.relation(0).ToVector();
      if (!facts.empty()) {
        Relation shrunk(2);
        for (size_t i = 1; i < facts.size(); ++i) shrunk.Insert(facts[i]);
        candidates.push_back(Instance({shrunk}));
      }
    }
    for (const Instance& candidate : candidates) {
      bool other_exists =
          std::any_of(worlds.begin(), worlds.end(),
                      [&](const Instance& w) { return w != candidate; });
      EXPECT_EQ(ExistsWorldOtherThan(db, candidate), other_exists)
          << "ExistsWorldOtherThan diverged from the per-world oracle on "
          << candidate.ToString() << " in\n"
          << FormatCTable(t);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CertaintyBackendDifferentialTest,
                         ::testing::Range(0, 15));

// --- Family 10: stratum-scheduled fixpoints ---------------------------------

/// A random *layered* range-restricted program engineered to exercise the
/// SCC scheduler: `num_edb` binary extensional predicates, `kLayers` binary
/// intensional layers whose rules draw body atoms from strictly lower
/// predicates (feeding multiple nonrecursive SCCs) or recurse within their
/// own layer (recursive SCCs), plus one rule-less intensional predicate that
/// occasionally appears in a body — producing statically dead rules the
/// stratum schedule and the magic rewrite both prune.
DatalogProgram RandomLayeredProgram(std::mt19937& rng, int num_edb = 2) {
  constexpr int kLayers = 4;
  // Last predicate: intensional, no rules — any body mentioning it is dead.
  DatalogProgram p(std::vector<int>(num_edb + kLayers + 1, 2), num_edb);
  const int barren = num_edb + kLayers;
  std::uniform_int_distribution<int> rules_per_layer(1, 2);
  std::uniform_int_distribution<int> body_len(1, 2);
  std::uniform_int_distribution<VarId> var(100, 102);
  std::uniform_int_distribution<int> small_const(0, 2);
  std::uniform_int_distribution<int> d10(0, 9);
  auto make_rule = [&](int head, int max_body_pred, bool allow_dead) {
    DatalogRule rule;
    std::vector<VarId> body_vars;
    int len = body_len(rng);
    for (int b = 0; b < len; ++b) {
      DatalogAtom atom;
      std::uniform_int_distribution<int> body_pred(0, max_body_pred);
      atom.predicate = allow_dead && d10(rng) == 0 ? barren : body_pred(rng);
      for (int i = 0; i < 2; ++i) {
        if (d10(rng) == 0) {
          atom.args.push_back(C(small_const(rng)));
        } else {
          VarId v = var(rng);
          atom.args.push_back(V(v));
          body_vars.push_back(v);
        }
      }
      rule.body.push_back(std::move(atom));
    }
    rule.head.predicate = head;
    for (int i = 0; i < 2; ++i) {
      if (body_vars.empty() || d10(rng) == 0) {
        rule.head.args.push_back(C(small_const(rng)));
      } else {
        std::uniform_int_distribution<size_t> pick(0, body_vars.size() - 1);
        rule.head.args.push_back(V(body_vars[pick(rng)]));
      }
    }
    p.AddRule(std::move(rule));
  };
  for (int l = 0; l < kLayers; ++l) {
    const int head = num_edb + l;
    int n = rules_per_layer(rng);
    for (int r = 0; r < n; ++r) {
      // Recursing within the layer (max body pred == head) forms recursive
      // SCCs; otherwise the rule feeds off strictly lower layers.
      bool recurse = d10(rng) < 3;
      make_rule(head, recurse ? head : head - 1, /*allow_dead=*/l > 0);
    }
  }
  EXPECT_EQ(p.Validate(), "");
  return p;
}

// The stratum-scheduled semi-naive fixpoint (SCCs in topological order,
// nonrecursive strata in one pass, delta rounds confined to the current SCC,
// statically dead and duplicate rules skipped) on layered multi-SCC
// programs: the image must represent the per-world fixpoints on both
// condition backends, the antichain image must be canonical, and the demand
// (magic) path must agree with the restricted full fixpoint.
class StratumDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(StratumDifferentialTest, StratumScheduleMatchesMonolithic) {
  const unsigned case_seed = 14000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  for (int round = 0; round < 3; ++round) {
    const int num_edb = 2;
    DatalogProgram program = RandomLayeredProgram(rng, num_edb);
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/2, /*num_constants=*/3, /*num_variables=*/2,
        /*num_local_atoms=*/GetParam() % 2,
        /*num_global_atoms=*/GetParam() % 2);
    std::vector<CTable> tables;
    for (int p = 0; p < num_edb; ++p) {
      tables.push_back(RandomCTable(options, rng));
    }
    CDatabase db(tables);
    std::string label = program.ToString() + FormatCDatabase(db);

    CDatabase via_stratum = DatalogOnCTables(program, db);
    ExpectRepresentsFixpointOfEveryWorld(program, db, via_stratum);
    ExpectCanonicalFixpoint(via_stratum);

    // Decision-diagram backend under the same schedule.
    DatalogCTableOptions dd;
    dd.condition_backend = ConditionBackendKind::kDecisionDiagrams;
    ExpectRepresentsFixpointOfEveryWorld(
        program, db, DatalogOnCTables(program, db, nullptr, dd));

    // Demand path: the goal answers equal the restricted full fixpoint (the
    // rewrite also pruned the statically dead rules first).
    std::uniform_int_distribution<int> any_pred(
        0, static_cast<int>(program.num_predicates()) - 1);
    int goal = any_pred(rng);
    std::vector<std::optional<ConstId>> bindings =
        RandomBindings(rng, program.arity(goal));
    CTable via_magic = DatalogQueryOnCTables(program, db, goal, bindings);
    ExpectMagicMatchesFull(program, db, goal, bindings, via_magic,
                           "goal P" + std::to_string(goal) + "\n" + label);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StratumDifferentialTest,
                         ::testing::Range(0, 15));

// --- Containment of views ---------------------------------------------------

/// A random arity-2 i-table of three rows: every variable occurs once, and
/// the global condition holds one or two inequalities over its variables
/// and constants.
CTable RandomITable(std::mt19937& rng) {
  std::bernoulli_distribution is_var(0.7);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> small_const(0, 2);
  CTable t(2);
  VarId next = 0;
  for (int row = 0; row < 3; ++row) {
    Tuple tuple;
    for (int col = 0; col < 2; ++col) {
      tuple.push_back(is_var(rng) ? V(next++) : C(small_const(rng)));
    }
    t.AddRow(tuple);
  }
  if (next == 0) return t;
  std::uniform_int_distribution<VarId> var(0, next - 1);
  Conjunction global;
  int n = 1 + coin(rng);
  for (int i = 0; i < n; ++i) {
    Term other = coin(rng) ? V(var(rng)) : C(small_const(rng));
    global.Add(Neq(V(var(rng)), other));
  }
  t.SetGlobal(global);
  return t;
}

/// Oracle: for every lhs world, scan the rhs worlds for one equal to its
/// image under `lhs_view`.
bool ViewContainmentOracle(const View& lhs_view, const CDatabase& lhs,
                           const CDatabase& rhs) {
  WorldEnumOptions lhs_options;
  lhs_options.extra_constants = rhs.Constants();
  for (ConstId c : lhs_view.Constants()) {
    lhs_options.extra_constants.push_back(c);
  }
  bool contained = true;
  ForEachWorld(lhs, lhs_options, [&](const Instance& world, const Valuation&) {
    Instance image = lhs_view.Eval(world);
    WorldEnumOptions rhs_options;
    rhs_options.extra_constants = image.Constants();
    bool found = false;
    ForEachWorld(rhs, rhs_options,
                 [&](const Instance& rhs_world, const Valuation&) {
                   found = rhs_world == image;
                   return !found;
                 });
    contained = found;
    return contained;
  });
  return contained;
}

class ViewContainmentDifferentialTest
    : public ::testing::TestWithParam<int> {};

TEST_P(ViewContainmentDifferentialTest, SearchAgreesWithPerWorldOracle) {
  const unsigned case_seed = 15000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  for (int round = 0; round < 4; ++round) {
    int num_rels = 1 + round % 2;
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/2, /*num_constants=*/2, /*num_variables=*/2,
        /*num_local_atoms=*/GetParam() % 2,
        /*num_global_atoms=*/(GetParam() / 2) % 2);
    std::vector<CTable> lhs_tables;
    for (int k = 0; k < num_rels; ++k) {
      lhs_tables.push_back(RandomCTable(options, rng));
    }
    CDatabase lhs(std::move(lhs_tables));
    View lhs_view = View::Ra({RandomPosExistential(rng, 2, num_rels)});

    RandomCTableOptions etable = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/3, /*num_constants=*/3, /*num_variables=*/2);
    etable.variable_probability = 0.6;
    CTable rhs_table =
        round < 2 ? RandomCTable(etable, rng) : RandomITable(rng);
    CDatabase rhs{rhs_table};
    ASSERT_TRUE(rhs.Kind() <= TableKind::kITable) << ToString(rhs.Kind());

    bool oracle = ViewContainmentOracle(lhs_view, lhs, rhs);
    std::string label = "lhs view " + lhs_view.ra()[0].ToString() + " over\n" +
                        FormatCDatabase(lhs) + "rhs\n" + FormatCDatabase(rhs);
    EXPECT_EQ(ContainmentSearch(lhs_view, lhs, View::Identity(), rhs), oracle)
        << label;
    EXPECT_EQ(Containment(lhs_view, lhs, View::Identity(), rhs), oracle)
        << label;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ViewContainmentDifferentialTest,
                         ::testing::Range(0, 30));

}  // namespace
}  // namespace pw
