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

}  // namespace pw
