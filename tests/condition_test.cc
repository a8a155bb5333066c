// Unit tests for condition/: atoms, conjunctions, the revertible binding
// environment, the atom-CNF solver and boolean formulas.

#include <gtest/gtest.h>

#include "condition/atom.h"
#include "condition/atom_cnf.h"
#include "condition/binding_env.h"
#include "condition/conjunction.h"
#include "condition/formula.h"
#include "core/tuple.h"

namespace pw {
namespace {

TEST(AtomTest, NormalizationMakesEqSymmetric) {
  EXPECT_EQ(Eq(V(1), V(2)), Eq(V(2), V(1)));
  EXPECT_EQ(Neq(V(1), C(3)), Neq(C(3), V(1)));
}

TEST(AtomTest, TrivialityChecks) {
  EXPECT_TRUE(IsTriviallyTrue(Eq(C(1), C(1))));
  EXPECT_TRUE(IsTriviallyTrue(Eq(V(1), V(1))));
  EXPECT_TRUE(IsTriviallyTrue(Neq(C(1), C(2))));
  EXPECT_TRUE(IsTriviallyFalse(Eq(C(1), C(2))));
  EXPECT_TRUE(IsTriviallyFalse(Neq(V(1), V(1))));
  EXPECT_FALSE(IsTriviallyTrue(Eq(V(1), C(2))));
  EXPECT_FALSE(IsTriviallyFalse(Eq(V(1), C(2))));
}

TEST(AtomTest, TrueAndFalseAtoms) {
  EXPECT_TRUE(IsTriviallyTrue(TrueAtom()));
  EXPECT_TRUE(IsTriviallyFalse(FalseAtom()));
}

TEST(AtomTest, NegateFlips) {
  CondAtom a = Eq(V(1), C(2));
  EXPECT_FALSE(Negate(a).is_equality);
  EXPECT_EQ(Negate(Negate(a)), a);
}

TEST(AtomTest, VariablesDeduplicated) {
  EXPECT_EQ(AtomVariables(Eq(V(3), V(3))), (std::vector<VarId>{3}));
  EXPECT_EQ(AtomVariables(Eq(V(1), V(2))).size(), 2u);
  EXPECT_TRUE(AtomVariables(Eq(C(1), C(2))).empty());
}

TEST(ConjunctionTest, EmptyIsTautologyAndSatisfiable) {
  Conjunction c;
  EXPECT_TRUE(c.IsTautology());
  EXPECT_TRUE(c.Satisfiable());
}

TEST(ConjunctionTest, SatisfiabilityOverInfiniteDomain) {
  // x != y, x != 1, y != 1 is satisfiable (pick fresh constants).
  Conjunction c{Neq(V(0), V(1)), Neq(V(0), C(1)), Neq(V(1), C(1))};
  EXPECT_TRUE(c.Satisfiable());
}

TEST(ConjunctionTest, EqualityChainConflict) {
  Conjunction c{Eq(V(0), C(1)), Eq(V(0), V(1)), Eq(V(1), C(2))};
  EXPECT_FALSE(c.Satisfiable());
}

TEST(ConjunctionTest, DisequalityWithinClassConflict) {
  Conjunction c{Eq(V(0), V(1)), Neq(V(0), V(1))};
  EXPECT_FALSE(c.Satisfiable());
}

TEST(ConjunctionTest, ImpliesTransitiveEquality) {
  Conjunction c{Eq(V(0), V(1)), Eq(V(1), V(2))};
  EXPECT_TRUE(c.Implies(Eq(V(0), V(2))));
  EXPECT_FALSE(c.Implies(Eq(V(0), C(5))));
}

TEST(ConjunctionTest, ImpliesDisequalityViaConstants) {
  Conjunction c{Eq(V(0), C(1)), Eq(V(1), C(2))};
  EXPECT_TRUE(c.Implies(Neq(V(0), V(1))));
}

TEST(ConjunctionTest, UnsatisfiableImpliesEverything) {
  Conjunction c{FalseAtom()};
  EXPECT_TRUE(c.Implies(Eq(V(0), C(7))));
}

TEST(ConjunctionTest, ForcedConstants) {
  Conjunction c{Eq(V(0), C(3)), Eq(V(1), V(0)), Neq(V(2), C(9))};
  auto forced = c.ForcedConstants();
  EXPECT_EQ(forced.at(0), 3);
  EXPECT_EQ(forced.at(1), 3);
  EXPECT_EQ(forced.count(2), 0u);
}

TEST(ConjunctionTest, CanonicalSubstitution) {
  Conjunction c{Eq(V(2), V(5)), Eq(V(7), C(4))};
  auto canon = c.CanonicalSubstitution();
  EXPECT_EQ(canon.at(5), Term::Var(2));
  EXPECT_EQ(canon.at(2), Term::Var(2));
  EXPECT_EQ(canon.at(7), Term::Const(4));
}

TEST(ConjunctionTest, SubstituteRewritesAtoms) {
  Conjunction c{Eq(V(0), V(1)), Neq(V(1), C(3))};
  std::unordered_map<VarId, Term> sub{{1, Term::Const(3)}};
  Conjunction d = c.Substitute(sub);
  EXPECT_EQ(d.atoms()[0], Eq(V(0), C(3)));
  EXPECT_TRUE(IsTriviallyFalse(d.atoms()[1]));
}

TEST(ConjunctionTest, SimplifiedDropsTrivial) {
  Conjunction c{Eq(C(1), C(1)), Neq(V(0), C(2)), Eq(V(3), V(3))};
  EXPECT_EQ(c.Simplified().size(), 1u);
}

TEST(ConjunctionTest, VariablesAndConstants) {
  Conjunction c{Eq(V(4), C(9)), Neq(V(1), V(4))};
  EXPECT_EQ(c.Variables(), (std::vector<VarId>{1, 4}));
  EXPECT_EQ(c.Constants(), (std::vector<ConstId>{9}));
}

TEST(BindingEnvTest, EqualityPropagatesConstants) {
  BindingEnv env;
  EXPECT_TRUE(env.AssertEqual(V(0), V(1)));
  EXPECT_TRUE(env.AssertEqual(V(1), C(5)));
  EXPECT_EQ(env.ValueOf(V(0)), 5);
}

TEST(BindingEnvTest, DistinctConstantsConflict) {
  BindingEnv env;
  EXPECT_TRUE(env.AssertEqual(V(0), C(1)));
  EXPECT_FALSE(env.AssertEqual(V(0), C(2)));
}

TEST(BindingEnvTest, DisequalityBlocksMerge) {
  BindingEnv env;
  EXPECT_TRUE(env.AssertNotEqual(V(0), V(1)));
  EXPECT_FALSE(env.AssertEqual(V(0), V(1)));
}

TEST(BindingEnvTest, MergeBlocksDisequality) {
  BindingEnv env;
  EXPECT_TRUE(env.AssertEqual(V(0), V(1)));
  EXPECT_FALSE(env.AssertNotEqual(V(0), V(1)));
}

TEST(BindingEnvTest, TransitiveDisequalityConflict) {
  BindingEnv env;
  EXPECT_TRUE(env.AssertNotEqual(V(0), V(1)));
  EXPECT_TRUE(env.AssertEqual(V(0), V(2)));
  EXPECT_FALSE(env.AssertEqual(V(2), V(1)));
}

TEST(BindingEnvTest, RevertRestoresState) {
  BindingEnv env;
  size_t mark = env.Mark();
  EXPECT_TRUE(env.AssertEqual(V(0), C(1)));
  EXPECT_EQ(env.ValueOf(V(0)), 1);
  env.Revert(mark);
  EXPECT_EQ(env.ValueOf(V(0)), std::nullopt);
  EXPECT_TRUE(env.AssertEqual(V(0), C(2)));  // no stale conflict
}

TEST(BindingEnvTest, RevertRestoresDisequalities) {
  BindingEnv env;
  size_t mark = env.Mark();
  EXPECT_TRUE(env.AssertNotEqual(V(0), V(1)));
  env.Revert(mark);
  EXPECT_TRUE(env.AssertEqual(V(0), V(1)));
}

TEST(BindingEnvTest, NestedRevert) {
  BindingEnv env;
  EXPECT_TRUE(env.AssertEqual(V(0), V(1)));
  size_t mark = env.Mark();
  EXPECT_TRUE(env.AssertEqual(V(1), C(7)));
  EXPECT_TRUE(env.AssertNotEqual(V(2), C(7)));
  env.Revert(mark);
  EXPECT_TRUE(env.SameClass(V(0), V(1)));
  EXPECT_EQ(env.ValueOf(V(1)), std::nullopt);
  EXPECT_TRUE(env.AssertEqual(V(2), C(7)));
}

TEST(BindingEnvTest, CanEqualIsNonMutating) {
  BindingEnv env;
  EXPECT_TRUE(env.AssertNotEqual(V(0), V(1)));
  EXPECT_FALSE(env.CanEqual(V(0), V(1)));
  EXPECT_TRUE(env.CanEqual(V(0), V(2)));
  EXPECT_FALSE(env.SameClass(V(0), V(2)));  // unchanged
}

TEST(BindingEnvTest, DistinctConstantsNeverRecordDiseq) {
  BindingEnv env;
  EXPECT_TRUE(env.AssertNotEqual(C(1), C(2)));
  EXPECT_EQ(env.NumDisequalities(), 0u);
}

TEST(BindingEnvTest, AssertConjunction) {
  BindingEnv env;
  EXPECT_TRUE(env.Assert(Conjunction{Eq(V(0), V(1)), Neq(V(1), C(4))}));
  EXPECT_FALSE(env.AssertEqual(V(0), C(4)));
}

TEST(AtomCnfTest, EmptyCnfIsSatisfiable) {
  BindingEnv env;
  EXPECT_TRUE(SolveAtomCnf(env, {}));
}

TEST(AtomCnfTest, UnitClausesPropagate) {
  BindingEnv env;
  std::vector<AtomClause> clauses = {{Eq(V(0), C(1))}, {Eq(V(0), C(2))}};
  EXPECT_FALSE(SolveAtomCnf(env, clauses));
}

TEST(AtomCnfTest, BranchingFindsSolution) {
  BindingEnv env;
  // (x=1 or x=2) and (x!=1) -> x=2.
  std::vector<AtomClause> clauses = {{Eq(V(0), C(1)), Eq(V(0), C(2))},
                                     {Neq(V(0), C(1))}};
  EXPECT_TRUE(SolveAtomCnf(env, clauses));
}

TEST(AtomCnfTest, RespectsPreAssertedEnv) {
  BindingEnv env;
  ASSERT_TRUE(env.AssertEqual(V(0), C(1)));
  EXPECT_FALSE(SolveAtomCnf(env, {{Neq(V(0), C(1))}}));
  EXPECT_TRUE(SolveAtomCnf(env, {{Eq(V(0), C(1))}}));
}

TEST(AtomCnfTest, EnvRestoredAfterSolve) {
  BindingEnv env;
  EXPECT_TRUE(SolveAtomCnf(env, {{Eq(V(0), C(1))}}));
  EXPECT_EQ(env.ValueOf(V(0)), std::nullopt);
}

TEST(AtomCnfTest, TriviallyTrueAtomSatisfiesClause) {
  BindingEnv env;
  EXPECT_TRUE(SolveAtomCnf(env, {{Eq(C(1), C(1)), Eq(V(0), C(9))}}));
  EXPECT_FALSE(SolveAtomCnf(env, {{Eq(C(1), C(2))}}));
}

TEST(FormulaTest, TrueFalseAtoms) {
  EXPECT_TRUE(Formula::True().is_true());
  EXPECT_TRUE(Formula::False().is_false());
  EXPECT_TRUE(Formula::MakeAtom(Eq(C(1), C(1))).is_true());
  EXPECT_TRUE(Formula::MakeAtom(Eq(C(1), C(2))).is_false());
}

TEST(FormulaTest, AndOrShortCircuit) {
  Formula atom = Formula::MakeAtom(Eq(V(0), C(1)));
  EXPECT_TRUE(Formula::And(atom, Formula::False()).is_false());
  EXPECT_TRUE(Formula::Or(atom, Formula::True()).is_true());
}

TEST(FormulaTest, DnfOfConjunction) {
  Conjunction c{Eq(V(0), C(1)), Neq(V(1), C(2))};
  auto dnf = Formula::FromConjunction(c).ToDnf();
  ASSERT_EQ(dnf.size(), 1u);
  EXPECT_EQ(dnf[0].size(), 2u);
}

TEST(FormulaTest, DnfDistributesAndOverOr) {
  Formula f = Formula::And(
      Formula::Or(Formula::MakeAtom(Eq(V(0), C(1))),
                  Formula::MakeAtom(Eq(V(0), C(2)))),
      Formula::Or(Formula::MakeAtom(Eq(V(1), C(3))),
                  Formula::MakeAtom(Eq(V(1), C(4)))));
  EXPECT_EQ(f.ToDnf().size(), 4u);
}

TEST(FormulaTest, SatisfiabilityThroughDnf) {
  Formula unsat = Formula::And(Formula::MakeAtom(Eq(V(0), C(1))),
                               Formula::MakeAtom(Eq(V(0), C(2))));
  EXPECT_FALSE(unsat.Satisfiable());
  Formula sat = Formula::Or(unsat, Formula::MakeAtom(Eq(V(1), C(1))));
  EXPECT_TRUE(sat.Satisfiable());
}

TEST(FormulaTest, VariablesCollected) {
  Formula f = Formula::And(Formula::MakeAtom(Eq(V(3), C(1))),
                           Formula::MakeAtom(Neq(V(1), V(3))));
  EXPECT_EQ(f.Variables(), (std::vector<VarId>{1, 3}));
}

}  // namespace
}  // namespace pw
