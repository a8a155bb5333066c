// The condition representations: the covering-antichain rule and the
// disjunction check certainty asks (condition/atom_cnf.h), the antichain
// backend's pass-through to the interner, node canonicity in the
// decision-diagram backend, and implication memos keyed on the ordered pair
// that stay consistent across RebaseInto generations.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <vector>

#include "condition/atom_cnf.h"
#include "condition/backend.h"
#include "condition/conjunction.h"
#include "condition/dd_backend.h"
#include "condition/interner.h"
#include "core/tuple.h"

namespace pw {
namespace {

Conjunction RandomConjunction(std::mt19937& rng) {
  std::uniform_int_distribution<int> natoms(1, 3);
  std::uniform_int_distribution<int> var(0, 3);
  std::uniform_int_distribution<int> constant(0, 3);
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

TEST(ConjunctiveBackendTest, NormalizesDisjunctionSets) {
  ConditionInterner interner;
  constexpr ConjId kTrue = ConditionInterner::kTrueConj;
  constexpr ConjId kFalse = ConditionInterner::kFalseConj;
  using Ids = std::vector<ConjId>;

  ConjId weak = interner.Intern(Conjunction{Eq(V(0), C(1))});
  ConjId strong =
      interner.Intern(Conjunction{Eq(V(0), C(1)), Eq(V(1), C(2))});
  ConjId other = interner.Intern(Conjunction{Neq(V(0), C(1))});

  // True/false members collapse and drop.
  EXPECT_EQ(CoveringAntichain(interner, {weak, kTrue}), Ids{kTrue});
  EXPECT_EQ(CoveringAntichain(interner, {weak, kFalse}), Ids{weak});
  EXPECT_EQ(CoveringAntichain(interner, {kFalse}), Ids{});
  // A member implying another member is absorbed: the union IS the weak one.
  EXPECT_EQ(CoveringAntichain(interner, {strong, weak}), Ids{weak});
  // Proper two-member antichains come out sorted, whatever the input order.
  Ids ab = CoveringAntichain(interner, {weak, other, weak});
  EXPECT_EQ(ab, CoveringAntichain(interner, {other, weak}));
  EXPECT_EQ(ab, (Ids{std::min(weak, other), std::max(weak, other)}));
  // x0 = 1 together with x0 != 1 covers everything: a tautology that no
  // single member implies, so only the clause search can see it.
  EXPECT_TRUE(ConjImpliesDisjunction(interner, kTrue, ab));
  EXPECT_FALSE(ConjImpliesDisjunction(interner, kTrue, {weak, strong}));
  EXPECT_TRUE(ConjImpliesDisjunction(interner, strong, {other, weak}));
  EXPECT_FALSE(ConjImpliesDisjunction(interner, kTrue, {}));
  EXPECT_TRUE(ConjImpliesDisjunction(interner, kFalse, {}));

  // The antichain backend holds no condition state of its own: ids are
  // the interner's, and every operation is the interner's.
  std::unique_ptr<ConditionBackend> backend =
      MakeConditionBackend(ConditionBackendKind::kConjunctions, interner);
  EXPECT_EQ(backend->FromConj(strong), CondId{strong});
  EXPECT_EQ(backend->And(weak, other), CondId{interner.And(weak, other)});
  EXPECT_FALSE(backend->SatisfiableWith(weak, other));
  EXPECT_TRUE(backend->SatisfiableWith(weak, strong));
  Ids disjuncts;
  backend->AppendDisjuncts(ConditionBackend::kFalseCond, &disjuncts);
  backend->AppendDisjuncts(weak, &disjuncts);
  EXPECT_EQ(disjuncts, Ids{weak});
}

TEST(DDBackendTest, NodesAreCanonicalAndTheoryAware) {
  ConditionInterner interner;
  DDBackend dd(interner);
  constexpr ConjId kTrue = ConditionInterner::kTrueConj;

  ConjId eq = interner.Intern(Conjunction{Eq(V(0), C(1))});
  ConjId neq = interner.Intern(Conjunction{Neq(V(0), C(1))});
  ConjId both = interner.Intern(Conjunction{Eq(V(0), C(1)), Eq(V(1), C(2))});

  // Hash-consing: one id per function, however it is reached.
  CondId a = dd.FromConj(eq);
  EXPECT_EQ(a, dd.FromConj(eq));
  CondId b = dd.FromConj(neq);
  EXPECT_EQ(dd.And(a, b), dd.And(b, a));
  EXPECT_EQ(dd.Or(a, b), dd.Or(b, a));

  // Propositionally `x0 = 1` and `x0 != 1` are distinct decision variables;
  // the theory layer must still see that together they are exhaustive and
  // exclusive.
  std::vector<ConjId> either;
  dd.AppendDisjuncts(dd.Or(a, b), &either);
  EXPECT_TRUE(ConjImpliesDisjunction(interner, kTrue, either));
  EXPECT_FALSE(dd.SatisfiableWith(kTrue, dd.And(a, b)));
  EXPECT_TRUE(dd.SatisfiableWith(kTrue, a));
  EXPECT_FALSE(dd.SatisfiableWith(neq, a));

  // A conjunction chain absorbs its sub-conjunctions: the canonical ids
  // show the implication without any theory reasoning.
  CondId ab = dd.FromConj(both);
  EXPECT_EQ(dd.And(ab, a), ab);
  EXPECT_EQ(dd.Or(ab, a), a);

  // The DNF expansion of a pure conjunction is that conjunction.
  std::vector<ConjId> disjuncts;
  dd.AppendDisjuncts(ab, &disjuncts);
  EXPECT_EQ(disjuncts, std::vector<ConjId>{both});
}

TEST(ConditionBackendTest, ImpliesMemoStableAcrossRebaseGenerations) {
  // The scratch-child pattern: verdicts computed against a per-request
  // child interner must be reproduced by the long-lived parent after
  // RebaseInto translates the ids — across multiple generations, and with
  // the parent's ordered-pair Implies memo serving repeats. Keying the memo
  // on the *ordered* (lhs, rhs) pair is load-bearing: implication is
  // asymmetric, so a canonical (min, max) key would conflate a true
  // direction with its false converse.
  std::mt19937 rng(33911);
  ConditionInterner parent;
  for (int gen = 0; gen < 3; ++gen) {
    SCOPED_TRACE("generation " + std::to_string(gen));
    ConditionInterner child;
    std::vector<ConjId> ids;
    for (int i = 0; i < 20; ++i) {
      ids.push_back(child.Intern(RandomConjunction(rng)));
    }
    std::vector<std::vector<bool>> expected(ids.size(),
                                            std::vector<bool>(ids.size()));
    for (size_t i = 0; i < ids.size(); ++i) {
      for (size_t j = 0; j < ids.size(); ++j) {
        expected[i][j] = child.Implies(ids[i], ids[j]);
      }
    }

    std::vector<ConjId> map = child.RebaseInto(parent);
    bool saw_asymmetric_pair = false;
    for (size_t i = 0; i < ids.size(); ++i) {
      for (size_t j = 0; j < ids.size(); ++j) {
        ASSERT_EQ(parent.Implies(map[ids[i]], map[ids[j]]), expected[i][j])
            << "rebased verdict diverged on pair (" << i << ", " << j << ")";
        if (expected[i][j] != expected[j][i]) saw_asymmetric_pair = true;
      }
    }
    EXPECT_TRUE(saw_asymmetric_pair)
        << "pool too degenerate to exercise ordered-pair keying";

    // Repeat the whole matrix: now the parent answers from its memo (the
    // subset fast path plus the ordered-pair cache), and the verdicts —
    // including both directions of every asymmetric pair — must not move.
    uint64_t hits_before = parent.stats().implies_hits;
    for (size_t i = 0; i < ids.size(); ++i) {
      for (size_t j = 0; j < ids.size(); ++j) {
        ASSERT_EQ(parent.Implies(map[ids[i]], map[ids[j]]), expected[i][j])
            << "memoized verdict diverged on pair (" << i << ", " << j << ")";
      }
    }
    EXPECT_GT(parent.stats().implies_hits, hits_before);
  }
}

}  // namespace
}  // namespace pw
