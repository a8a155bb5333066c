// The ConditionBackend seam itself: disjunction-set normalization in the
// conjunctive backend, node canonicity in the decision-diagram backend, and
// implication memos keyed on the ordered pair that stay consistent across
// RebaseInto generations.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <vector>

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
  std::unique_ptr<ConditionBackend> backend =
      MakeConditionBackend(ConditionBackendKind::kConjunctions, interner);

  ConjId weak = interner.Intern(Conjunction{Eq(V(0), C(1))});
  ConjId strong =
      interner.Intern(Conjunction{Eq(V(0), C(1)), Eq(V(1), C(2))});
  ConjId other = interner.Intern(Conjunction{Neq(V(0), C(1))});

  // True/false members collapse and drop.
  EXPECT_EQ(backend->Or(weak, ConditionBackend::kTrueCond),
            ConditionBackend::kTrueCond);
  EXPECT_EQ(backend->Or(weak, ConditionBackend::kFalseCond), CondId{weak});
  // A member implying another member is absorbed: the union IS the weak one.
  EXPECT_EQ(backend->Or(weak, strong), CondId{weak});
  // Proper two-member antichains hash-cons order-independently.
  CondId ab = backend->Or(weak, other);
  CondId ba = backend->Or(other, weak);
  EXPECT_EQ(ab, ba);
  EXPECT_NE(ab, CondId{weak});
  // x0 = 1 together with x0 != 1 covers everything — a tautology the
  // backend must detect without the caller expanding anything.
  EXPECT_TRUE(backend->TautologyUnder(ConditionInterner::kTrueConj, ab));
  // And distributes over the set; conjoining the weak member back restricts
  // the union to it.
  EXPECT_EQ(backend->And(ab, weak), CondId{weak});
}

TEST(DDBackendTest, NodesAreCanonicalAndTheoryAware) {
  ConditionInterner interner;
  DDBackend dd(interner);

  ConjId eq = interner.Intern(Conjunction{Eq(V(0), C(1))});
  ConjId neq = interner.Intern(Conjunction{Neq(V(0), C(1))});
  ConjId both = interner.Intern(Conjunction{Eq(V(0), C(1)), Eq(V(1), C(2))});

  // Hash-consing: one id per function, however it is reached.
  CondId a = dd.FromConj(eq);
  EXPECT_EQ(a, dd.FromConj(eq));
  CondId b = dd.FromConj(neq);
  EXPECT_EQ(dd.And(a, b), dd.And(b, a));
  EXPECT_EQ(dd.Or(a, b), dd.Or(b, a));
  EXPECT_EQ(dd.Not(dd.Not(a)), a);

  // Propositionally `x0 = 1` and `x0 != 1` are distinct decision variables;
  // the theory layer must still see that together they are exhaustive and
  // exclusive.
  EXPECT_TRUE(dd.TautologyUnder(ConditionInterner::kTrueConj, dd.Or(a, b)));
  EXPECT_FALSE(dd.Satisfiable(dd.And(a, b)));
  EXPECT_FALSE(dd.Satisfiable(dd.And(a, dd.Not(a))));

  // Conjunction chains imply their sub-conjunctions, not vice versa.
  CondId ab = dd.FromConj(both);
  EXPECT_TRUE(dd.Implies(ab, a));
  EXPECT_FALSE(dd.Implies(a, ab));

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
