#include "condition/atom_cnf.h"

#include <algorithm>

namespace pw {

namespace {

bool Search(BindingEnv& env, std::span<const std::span<const CondAtom>> clauses,
            bool negate) {
  if (clauses.empty()) return true;
  for (const CondAtom& atom : clauses.front()) {
    CondAtom choice = negate ? Negate(atom) : atom;
    if (IsTriviallyFalse(choice)) continue;
    size_t mark = env.Mark();
    if (env.AssertAtom(choice) && Search(env, clauses.subspan(1), negate)) {
      return true;
    }
    env.Revert(mark);
  }
  return false;
}

}  // namespace

bool SolveAtomCnf(BindingEnv& env,
                  std::span<const std::span<const CondAtom>> clauses,
                  ClausePolarity polarity) {
  size_t mark = env.Mark();
  bool ok = Search(env, clauses, polarity == ClausePolarity::kSomeAtomFails);
  env.Revert(mark);
  return ok;
}

bool SolveAtomCnf(BindingEnv& env, const std::vector<AtomClause>& clauses) {
  std::vector<std::span<const CondAtom>> kept;
  kept.reserve(clauses.size());
  for (const AtomClause& clause : clauses) {
    if (std::none_of(clause.begin(), clause.end(),
                     [](const CondAtom& a) { return IsTriviallyTrue(a); })) {
      kept.emplace_back(clause);
    }
  }
  std::stable_sort(kept.begin(), kept.end(),
                   [](std::span<const CondAtom> a, std::span<const CondAtom> b) {
                     return a.size() < b.size();
                   });
  return SolveAtomCnf(env, kept, ClausePolarity::kSomeAtomHolds);
}

std::vector<ConjId> CoveringAntichain(ConditionInterner& interner,
                                      std::vector<ConjId> disjuncts) {
  std::sort(disjuncts.begin(), disjuncts.end());
  disjuncts.erase(std::unique(disjuncts.begin(), disjuncts.end()),
                  disjuncts.end());
  std::vector<ConjId> kept;
  for (ConjId m : disjuncts) {
    if (m == ConditionInterner::kFalseConj) continue;
    if (m == ConditionInterner::kTrueConj) return {m};
    bool absorbed = false;
    for (ConjId other : disjuncts) {
      if (other == m || other == ConditionInterner::kFalseConj) continue;
      if (!interner.Implies(m, other)) continue;
      // m -> other: m is redundant, unless they are equivalent and m is
      // the designated (smaller-id) representative.
      if (interner.Implies(other, m) && m < other) continue;
      absorbed = true;
      break;
    }
    if (!absorbed) kept.push_back(m);
  }
  return kept;
}

bool ConjImpliesDisjunction(ConditionInterner& interner, ConjId lhs,
                            const std::vector<ConjId>& disjuncts) {
  if (lhs == ConditionInterner::kFalseConj) return true;
  std::vector<std::span<const CondAtom>> negs;
  negs.reserve(disjuncts.size());
  for (ConjId d : disjuncts) {
    if (d == ConditionInterner::kFalseConj) continue;
    if (d == ConditionInterner::kTrueConj) return true;
    // Memoized pairwise fast path: implying any single disjunct suffices.
    if (interner.Implies(lhs, d)) return true;
    negs.emplace_back(interner.Resolve(d).atoms());
  }
  if (negs.empty()) return false;  // lhs satisfiable, empty disjunction
  // lhs /\ NOT d1 /\ ... /\ NOT dk is a conjunction of literals plus a CNF
  // with one clause per disjunct (the negated atoms). Over the infinite
  // domain it is satisfiable iff some choice of one negated atom per clause
  // is congruence-consistent with lhs, which the search decides exactly.
  // No such valuation means the implication holds.
  BindingEnv env;
  if (!env.Assert(interner.Resolve(lhs))) return true;
  return !SolveAtomCnf(env, negs, ClausePolarity::kSomeAtomFails);
}

}  // namespace pw
