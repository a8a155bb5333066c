// The membership problem MEMB(q) — Theorem 3.1.
//
//   input: instance I0; c-database representing a set of worlds; query q
//   question: is I0 in q(rep(database))?
//
// Complexity landscape reproduced here:
//   - Codd-tables, identity query: PTIME via bipartite matching (Thm 3.1(1))
//   - e-/i-/g-/c-tables, identity:  NP-complete (Thm 3.1(2,3)); exact
//     backtracking search over row-to-fact assignments
//   - views of tables:              NP-complete (Thm 3.1(4)); exact
//     enumeration of valuations (up to fresh-constant renaming)

#ifndef PW_DECISION_MEMBERSHIP_H_
#define PW_DECISION_MEMBERSHIP_H_

#include <optional>

#include "core/instance.h"
#include "decision/view.h"
#include "tables/ctable.h"

namespace pw {

/// PTIME membership for Codd-table databases (paper's algorithm, reduction
/// to maximum bipartite matching). Returns std::nullopt if `database` is not
/// a Codd-table database (conditions present, or some variable occurs more
/// than once across all tuples).
std::optional<bool> MembershipCoddTables(const CDatabase& database,
                                         const Instance& instance);

/// Exact membership for arbitrary c-databases: backtracking over per-row
/// choices (map the row onto a fact of the instance, or suppress it by
/// violating one local-condition atom), with consistency maintained in a
/// revertible binding environment. Each node forward-checks every pending
/// row, branches on the row with the fewest viable choices, and fails when
/// some uncovered fact is mappable by no pending row. Worst case exponential
/// (the problem is NP-complete already for a single e-table or i-table).
bool MembershipSearch(const CDatabase& database, const Instance& instance);

/// Dispatcher: matching-based PTIME algorithm when the database is a vector
/// of Codd-tables, exact search otherwise.
bool Membership(const CDatabase& database, const Instance& instance);

/// MEMB(q): is `instance` in q(rep(database))? Identity views dispatch to
/// Membership; otherwise enumerates satisfying valuations over Delta union
/// Delta' and compares view images.
bool MembershipInView(const View& view, const CDatabase& database,
                      const Instance& instance);

}  // namespace pw

#endif  // PW_DECISION_MEMBERSHIP_H_
