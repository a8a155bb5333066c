// Clause-CSP procedures over the worlds of a c-database.
//
// Several decision problems reduce to "is there a satisfying valuation whose
// world has property X", where X decomposes into disjunctions of condition
// atoms. These run orders of magnitude faster than raw valuation
// enumeration while keeping the right worst-case complexity. The per-fact
// question "is this fact missing from some world" is CertainFactInTable
// (decision/certainty.h), which the procedures here call.

#ifndef PW_DECISION_WORLD_CSP_H_
#define PW_DECISION_WORLD_CSP_H_

#include "core/instance.h"
#include "tables/ctable.h"

namespace pw {

/// Is there a world of rep(database) different from `instance`? (A world
/// differs iff some "on" row lands outside the instance — an atom-clause
/// search per row — or some instance fact is not certain.)
bool ExistsWorldOtherThan(const CDatabase& database, const Instance& instance);

}  // namespace pw

#endif  // PW_DECISION_WORLD_CSP_H_
