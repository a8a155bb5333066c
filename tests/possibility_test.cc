// Tests for the possibility problems POSS(*, q) and POSS(k, q)
// (Theorems 5.1, 5.2): the PTIME matching algorithm on Codd-tables, the
// PTIME bounded algorithm via the Imielinski–Lipski image, the general
// search, and randomized cross-validation.

#include <gtest/gtest.h>

#include <random>

#include "decision/possibility.h"
#include "tables/world_enum.h"
#include "test_util.h"
#include "workload/random_gen.h"

namespace pw {
namespace {

TEST(PossUnboundedCoddTest, EachFactNeedsDistinctRow) {
  CTable t(1);
  t.AddRow(Tuple{V(0)});
  t.AddRow(Tuple{V(1)});
  CDatabase db{t};
  EXPECT_EQ(PossUnboundedCoddTables(db, Instance({Relation(1, {{1}, {2}})})),
            true);
  EXPECT_EQ(
      PossUnboundedCoddTables(db, Instance({Relation(1, {{1}, {2}, {3}})})),
      false);
}

TEST(PossUnboundedCoddTest, ConstantsRestrictRows) {
  CTable t(2);
  t.AddRow(Tuple{C(1), V(0)});
  t.AddRow(Tuple{C(2), V(1)});
  CDatabase db{t};
  EXPECT_EQ(PossUnboundedCoddTables(
                db, Instance({Relation(2, {{1, 7}, {2, 8}})})),
            true);
  EXPECT_EQ(PossUnboundedCoddTables(db, Instance({Relation(2, {{3, 7}})})),
            false);
}

TEST(PossUnboundedCoddTest, EmptyPatternAlwaysPossible) {
  CDatabase db{CTable(1)};
  EXPECT_EQ(PossUnboundedCoddTables(db, Instance(std::vector<int>{1})), true);
}

TEST(PossUnboundedCoddTest, NotApplicableToETables) {
  CTable t(2);
  t.AddRow(Tuple{V(0), V(0)});
  CDatabase db{t};
  EXPECT_FALSE(PossUnboundedCoddTables(db, Instance({Relation(2, {{1, 1}})}))
                   .has_value());
}

TEST(PossBoundedTest, IdentityOnCTable) {
  // Row (1, x) with local x != 2, global x != 3.
  CTable t(2);
  t.AddRow(Tuple{C(1), V(0)}, Conjunction{Neq(V(0), C(2))});
  t.SetGlobal(Conjunction{Neq(V(0), C(3))});
  CDatabase db{t};
  RaQuery id = {RaExpr::Rel(0, 2)};
  EXPECT_EQ(PossBoundedPosExistential(id, db, {{0, {1, 5}}}), true);
  EXPECT_EQ(PossBoundedPosExistential(id, db, {{0, {1, 2}}}), false);
  EXPECT_EQ(PossBoundedPosExistential(id, db, {{0, {1, 3}}}), false);
  EXPECT_EQ(PossBoundedPosExistential(id, db, {{0, {2, 5}}}), false);
}

TEST(PossBoundedTest, TwoFactsMustBeJointlyPossible) {
  // T = {(x), (y)} with global x != y: {(1)} and {(2)} jointly possible;
  // {(1)}, {(1)} is just one fact.
  CTable t(1);
  t.AddRow(Tuple{V(0)});
  t.AddRow(Tuple{V(1)});
  t.SetGlobal(Conjunction{Neq(V(0), V(1))});
  CDatabase db{t};
  RaQuery id = {RaExpr::Rel(0, 1)};
  EXPECT_EQ(PossBoundedPosExistential(id, db, {{0, {1}}, {0, {2}}}), true);
  // Three distinct facts need three rows.
  EXPECT_EQ(
      PossBoundedPosExistential(id, db, {{0, {1}}, {0, {2}}, {0, {3}}}),
      false);
}

TEST(PossBoundedTest, JointConsistencyThroughSharedVariable) {
  // T = {(1, x), (2, x)}: (1, a) and (2, b) possible only when a == b.
  CTable t(2);
  t.AddRow(Tuple{C(1), V(0)});
  t.AddRow(Tuple{C(2), V(0)});
  CDatabase db{t};
  RaQuery id = {RaExpr::Rel(0, 2)};
  EXPECT_EQ(PossBoundedPosExistential(id, db, {{0, {1, 7}}, {0, {2, 7}}}),
            true);
  EXPECT_EQ(PossBoundedPosExistential(id, db, {{0, {1, 7}}, {0, {2, 8}}}),
            false);
}

TEST(PossBoundedTest, QueryImageConditions) {
  // q = pi_1(sigma_{c0 = c1}(R)) on T = {(x, y)}: (c) possible for any c
  // (set x = y = c).
  CTable t(2);
  t.AddRow(Tuple{V(0), V(1)});
  CDatabase db{t};
  RaQuery q = {RaExpr::ProjectCols(
      RaExpr::Select(RaExpr::Rel(0, 2),
                     {SelectAtom::Eq(ColOrConst::Col(0), ColOrConst::Col(1))}),
      {1})};
  EXPECT_EQ(PossBoundedPosExistential(q, db, {{0, {5}}}), true);
}

TEST(PossBoundedTest, RejectsFirstOrderQueries) {
  CDatabase db{CTable(1)};
  RaQuery fo = {RaExpr::Diff(RaExpr::Rel(0, 1), RaExpr::Rel(0, 1))};
  EXPECT_FALSE(PossBoundedPosExistential(fo, db, {}).has_value());
}

TEST(PossBoundedTest, UnsatisfiableGlobalNothingPossible) {
  CTable t(1);
  t.AddRow(Tuple{C(1)});
  t.SetGlobal(Conjunction{FalseAtom()});
  CDatabase db{t};
  RaQuery id = {RaExpr::Rel(0, 1)};
  EXPECT_EQ(PossBoundedPosExistential(id, db, {{0, {1}}}), false);
}

// Malformed and degenerate patterns. A one-fact pattern takes the first row
// that fits; longer patterns run the forward-checked branching. Each case is
// checked on both paths, with a possible fact first in the longer pattern.

TEST(PossBoundedTest, OutOfRangeRelationIsImpossible) {
  CTable t(2);
  t.AddRow(Tuple{C(1), V(0)});
  CDatabase db{t};
  RaQuery id = {RaExpr::Rel(0, 2)};
  EXPECT_EQ(PossBoundedPosExistential(id, db, {{1, {1, 5}}}), false);
  EXPECT_EQ(PossBoundedPosExistential(id, db, {{0, {1, 5}}, {1, {1, 5}}}),
            false);
  EXPECT_FALSE(Possibility(View::Identity(), db, {{0, {1, 5}}, {3, {1, 5}}}));
}

TEST(PossBoundedTest, ArityMismatchIsImpossible) {
  CTable t(2);
  t.AddRow(Tuple{C(1), V(0)});
  CDatabase db{t};
  RaQuery id = {RaExpr::Rel(0, 2)};
  EXPECT_EQ(PossBoundedPosExistential(id, db, {{0, {1, 5, 6}}}), false);
  EXPECT_EQ(PossBoundedPosExistential(id, db, {{0, {1}}}), false);
  EXPECT_EQ(PossBoundedPosExistential(id, db, {{0, {1, 5}}, {0, {1, 5, 6}}}),
            false);
  EXPECT_EQ(
      PossBoundedPosExistential(id, db, {{0, {1, 5}}, {0, {1, 6}}, {0, {1}}}),
      false);
}

TEST(PossBoundedTest, EmptyPatternPossibleIffRepNonEmpty) {
  CTable t(1);
  t.AddRow(Tuple{V(0)}, Conjunction{Neq(V(0), C(1))});
  t.SetGlobal(Conjunction{Neq(V(0), C(2))});
  CDatabase db{t};
  RaQuery id = {RaExpr::Rel(0, 1)};
  EXPECT_EQ(PossBoundedPosExistential(id, db, {}), true);
  EXPECT_TRUE(Possibility(View::Identity(), db, {}));

  CTable empty(1);
  empty.AddRow(Tuple{C(1)});
  empty.SetGlobal(Conjunction{FalseAtom()});
  CDatabase no_worlds{empty};
  EXPECT_EQ(PossBoundedPosExistential(id, no_worlds, {}), false);
  EXPECT_FALSE(Possibility(View::Identity(), no_worlds, {}));
}

TEST(PossBoundedTest, FactWithNoCandidateRowIsImpossible) {
  // Row (1, x) fits (1, c) for c != 2; row (3, y) has an unsatisfiable local,
  // so no fact (3, c) has a candidate row.
  CTable t(2);
  t.AddRow(Tuple{C(1), V(0)}, Conjunction{Neq(V(0), C(2))});
  t.AddRow(Tuple{C(3), V(1)}, Conjunction{FalseAtom()});
  CDatabase db{t};
  RaQuery id = {RaExpr::Rel(0, 2)};
  EXPECT_EQ(PossBoundedPosExistential(id, db, {{0, {1, 5}}}), true);
  EXPECT_EQ(PossBoundedPosExistential(id, db, {{0, {4, 5}}}), false);
  EXPECT_EQ(PossBoundedPosExistential(id, db, {{0, {3, 5}}}), false);
  EXPECT_EQ(PossBoundedPosExistential(id, db, {{0, {1, 2}}}), false);
  EXPECT_EQ(PossBoundedPosExistential(id, db, {{0, {1, 5}}, {0, {4, 5}}}),
            false);
  EXPECT_EQ(PossBoundedPosExistential(id, db, {{0, {1, 5}}, {0, {3, 5}}}),
            false);
  EXPECT_EQ(PossBoundedPosExistential(id, db, {{0, {1, 5}}, {0, {1, 2}}}),
            false);
}

TEST(PossibilitySearchTest, FirstOrderViewNeedsEnumeration) {
  // q = R - {(1)} on T = {(x)}: (2) possible, (1) not.
  CTable t(1);
  t.AddRow(Tuple{V(0)});
  CDatabase db{t};
  View q = View::Ra(
      {RaExpr::Diff(RaExpr::Rel(0, 1), RaExpr::ConstRel(Relation(1, {{1}})))});
  EXPECT_TRUE(PossibilitySearch(q, db, {{0, {2}}}));
  EXPECT_FALSE(PossibilitySearch(q, db, {{0, {1}}}));
}

TEST(PossibilityDispatcherTest, UnboundedUsesMatchingForCodd) {
  CTable t(1);
  t.AddRow(Tuple{V(0)});
  t.AddRow(Tuple{V(1)});
  CDatabase db{t};
  EXPECT_TRUE(PossibilityUnbounded(View::Identity(), db,
                                   Instance({Relation(1, {{1}, {2}})})));
  EXPECT_FALSE(PossibilityUnbounded(View::Identity(), db,
                                    Instance({Relation(1, {{1}, {2}, {3}})})));
}

// --- Randomized cross-validation ------------------------------------------

/// Oracle: enumerate worlds and look for one containing the pattern.
bool PossibleOracle(const View& view, const CDatabase& db,
                    const std::vector<LocatedFact>& pattern) {
  WorldEnumOptions options;
  for (const LocatedFact& lf : pattern) {
    for (ConstId c : lf.fact) options.extra_constants.push_back(c);
  }
  bool possible = false;
  ForEachWorld(db, options, [&](const Instance& world, const Valuation&) {
    if (ContainsAll(view.Eval(world), pattern)) {
      possible = true;
      return false;
    }
    return true;
  });
  return possible;
}

class PossibilityPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PossibilityPropertyTest, BoundedAlgorithmAgreesWithOracle) {
  std::mt19937 rng(GetParam());
  RandomCTableOptions options = testutil::SmallCTableOptions(
      /*arity=*/2, /*num_rows=*/3, /*num_constants=*/3, /*num_variables=*/3,
      /*num_local_atoms=*/GetParam() % 2, /*num_global_atoms=*/GetParam() % 3);
  CTable t = RandomCTable(options, rng);
  CDatabase db{t};
  RaQuery id = {RaExpr::Rel(0, 2)};

  std::uniform_int_distribution<int> c(0, 3);
  for (int round = 0; round < 8; ++round) {
    std::vector<LocatedFact> pattern;
    int k = 1 + (round % 2);
    for (int i = 0; i < k; ++i) {
      pattern.push_back({0, Fact{c(rng), c(rng)}});
    }
    EXPECT_EQ(PossBoundedPosExistential(id, db, pattern),
              PossibleOracle(View::Identity(), db, pattern))
        << t.ToString();
  }
}

/// A fact some row of `t` can take: the tuple of a random row with each
/// variable replaced by a random constant below `num_constants`.
Fact InstantiateRandomRow(const CTable& t, int num_constants,
                          std::mt19937& rng) {
  std::uniform_int_distribution<size_t> row(0, t.num_rows() - 1);
  std::uniform_int_distribution<int> c(0, num_constants - 1);
  Fact fact;
  for (const Term& term : t.row(row(rng)).tuple) {
    fact.push_back(term.is_constant() ? term.constant() : c(rng));
  }
  return fact;
}

// 3-5-fact patterns over five-row tables, where the order in which facts
// are assigned decides how much the search backtracks. Most facts
// instantiate a row, so both verdicts occur.
TEST_P(PossibilityPropertyTest, LongPatternsAgreeWithOracle) {
  std::mt19937 rng(1000 + GetParam());
  RandomCTableOptions options = testutil::SmallCTableOptions(
      /*arity=*/2, /*num_rows=*/5, /*num_constants=*/3, /*num_variables=*/3,
      /*num_local_atoms=*/GetParam() % 2, /*num_global_atoms=*/GetParam() % 3);
  CTable t = RandomCTable(options, rng);
  CDatabase db{t};
  RaQuery id = {RaExpr::Rel(0, 2)};

  std::uniform_int_distribution<int> c(0, 3);
  std::uniform_int_distribution<int> d4(0, 3);
  for (int round = 0; round < 6; ++round) {
    std::vector<LocatedFact> pattern;
    int k = 3 + (round % 3);
    for (int i = 0; i < k; ++i) {
      pattern.push_back({0, d4(rng) == 0 ? Fact{c(rng), c(rng)}
                                         : InstantiateRandomRow(t, 4, rng)});
    }
    EXPECT_EQ(PossBoundedPosExistential(id, db, pattern),
              PossibleOracle(View::Identity(), db, pattern))
        << t.ToString();
  }
}

// Two tables drawn from one variable pool: a binding made for a fact of one
// table constrains the rows left for facts of the other.
TEST_P(PossibilityPropertyTest, TwoTablePatternsAgreeWithOracle) {
  std::mt19937 rng(2000 + GetParam());
  RandomCTableOptions options = testutil::SmallCTableOptions(
      /*arity=*/2, /*num_rows=*/3, /*num_constants=*/3, /*num_variables=*/3,
      /*num_local_atoms=*/GetParam() % 2, /*num_global_atoms=*/GetParam() % 2);
  options.variable_probability = 0.6;
  CTable t0 = RandomCTable(options, rng);
  CTable t1 = RandomCTable(options, rng);
  CDatabase db(std::vector<CTable>{t0, t1});
  RaQuery id = {RaExpr::Rel(0, 2), RaExpr::Rel(1, 2)};

  std::uniform_int_distribution<size_t> table(0, 1);
  std::uniform_int_distribution<int> d6(0, 5);
  for (int round = 0; round < 6; ++round) {
    std::vector<LocatedFact> pattern;
    int k = 2 + (round % 4);
    for (int i = 0; i < k; ++i) {
      size_t r = table(rng);
      Fact fact = InstantiateRandomRow(db.table(r), 4, rng);
      if (d6(rng) == 0) fact[0] = 3;  // sometimes a fact no row takes
      pattern.push_back({r, fact});
    }
    bool oracle = PossibleOracle(View::Identity(), db, pattern);
    EXPECT_EQ(PossBoundedPosExistential(id, db, pattern), oracle)
        << FormatCDatabase(db);
    EXPECT_EQ(Possibility(View::Identity(), db, pattern), oracle)
        << FormatCDatabase(db);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PossibilityPropertyTest,
                         ::testing::Range(1, 31));

TEST(PossibilityAgreementTest, CoddMatchingAgreesWithBoundedSearch) {
  std::mt19937 rng(202);
  for (int round = 0; round < 25; ++round) {
    RandomCTableOptions options = testutil::CoddishCTableOptions(
        /*arity=*/2, /*num_rows=*/4, /*num_constants=*/3);
    CTable t = RandomCTable(options, rng);
    CDatabase db{t};
    if (db.Kind() != TableKind::kCoddTable) continue;
    Instance pattern({RandomRelation(2, 2, 4, rng)});
    auto fast = PossUnboundedCoddTables(db, pattern);
    ASSERT_TRUE(fast.has_value());
    RaQuery id = {RaExpr::Rel(0, 2)};
    EXPECT_EQ(*fast, PossBoundedPosExistential(id, db,
                                               ToLocatedFacts(pattern)))
        << t.ToString() << pattern.ToString();
  }
}

}  // namespace
}  // namespace pw
