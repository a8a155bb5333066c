// Clause-CSP procedures over the worlds of a c-database.
//
// Several decision problems reduce to "is there a satisfying valuation whose
// world has property X", where X decomposes into disjunctions of condition
// atoms. These run orders of magnitude faster than raw valuation
// enumeration while keeping the right worst-case complexity. Both halves
// are atom-clause questions to condition/atom_cnf.h: the per-row search
// directly, and the per-fact question "is this fact missing from some
// world" through CertainFactInTable (decision/certainty.h), which asks the
// interner and never depends on the fixpoint's condition backend.

#ifndef PW_DECISION_WORLD_CSP_H_
#define PW_DECISION_WORLD_CSP_H_

#include "core/instance.h"
#include "tables/ctable.h"

namespace pw {

/// Is there a world of rep(database) different from `instance`? (A world
/// differs iff some "on" row lands outside the instance — an atom-clause
/// search per row — or some instance fact is not certain.) Uses the global
/// interner.
bool ExistsWorldOtherThan(const CDatabase& database, const Instance& instance);

}  // namespace pw

#endif  // PW_DECISION_WORLD_CSP_H_
