// Satisfiability of conjunctions of *disjunctions* of condition atoms over
// the infinite constant domain.
//
// Several exact decision procedures reduce to: does some valuation satisfy
//   (conjunction already asserted in a BindingEnv)  AND  AND_i OR_j atom_ij ?
// e.g. "row r produces a fact outside I" is the clause set
// { OR_pos t[pos] != f[pos] : f in I }, and "lhs implies d_1 OR ... OR d_k"
// fails iff lhs AND NOT d_1 AND ... AND NOT d_k is satisfiable, one clause
// of negated atoms per disjunct. This module is the one backtracking search
// for such clause sets, over a revertible BindingEnv.

#ifndef PW_CONDITION_ATOM_CNF_H_
#define PW_CONDITION_ATOM_CNF_H_

#include <span>
#include <vector>

#include "condition/atom.h"
#include "condition/binding_env.h"

namespace pw {

/// A disjunction of condition atoms.
using AtomClause = std::vector<CondAtom>;

/// How a clause reads its atoms: satisfied when one of them holds, or when
/// one of them fails (the clause is then the negation of their conjunction,
/// so a conjunction's own atoms serve as the clause without copying).
enum class ClausePolarity { kSomeAtomHolds, kSomeAtomFails };

/// Returns true iff some valuation consistent with the current state of
/// `env` satisfies every clause. Branches over the chosen atom per clause,
/// in the given clause order, skipping trivially false choices; worst case
/// exponential in the number of clauses. `env` is restored to its entry
/// state before returning. Allocates nothing itself.
bool SolveAtomCnf(BindingEnv& env,
                  std::span<const std::span<const CondAtom>> clauses,
                  ClausePolarity polarity);

/// The same search over owned disjunctions: clauses holding a trivially
/// true atom are dropped, and the rest are searched smallest first, so
/// unit clauses propagate before any branching.
bool SolveAtomCnf(BindingEnv& env, const std::vector<AtomClause>& clauses);

}  // namespace pw

#endif  // PW_CONDITION_ATOM_CNF_H_
