// The certainty problems CERT(k, q) and CERT(*, q) — Theorem 5.3.
//
//   input: c-database; query q; a set of facts P
//   question: is P subseteq q(I) for every world I of rep(database)?
//
// Complexity landscape reproduced here:
//   - CERT(*, q) for DATALOG q on g-tables: PTIME (Thm 5.3(1), after [10,17])
//     by evaluating the fixpoint on the matrix as if complete
//   - CERT(1, q) for a first order q on a table: coNP-complete (Thm 5.3(2));
//     for the identity and positive existential views, a per-fact tautology
//     check over the Imielinski–Lipski image (CertainFactInTable); exact
//     valuation enumeration otherwise
//   - CERT(*, q) is PTIME-equivalent to CERT(1, q) (Prop. 2.1(6)):
//     CertaintyFactwise demonstrates the reduction.

#ifndef PW_DECISION_CERTAINTY_H_
#define PW_DECISION_CERTAINTY_H_

#include <optional>
#include <vector>

#include "condition/backend.h"
#include "core/instance.h"
#include "decision/view.h"
#include "tables/ctable.h"

namespace pw {

/// True iff `fact` is present in every world of `table` under `global_id`:
/// decides the tautology  global -> OR over rows (row condition AND
/// row tuple = fact)  through `backend`, without enumerating worlds or
/// expanding a DNF — the DD backend answers with one Not/And/Satisfiable
/// pass, the conjunctive backend with the exact backtracking disjunction
/// check (ConjImpliesDisjunction). Exact for any c-table (an unsatisfiable
/// global makes everything vacuously certain, matching rep-emptiness). The
/// one fact-certainty procedure: Certainty, CertainAnswers and
/// ExistsWorldOtherThan all decide per-fact certainty through it.
bool CertainFactInTable(const CTable& table, const Fact& fact, ConjId global_id,
                        ConditionBackend& backend);

/// PTIME certainty for DATALOG views of g-table databases. If rep(database)
/// is empty the answer is vacuously true. Returns std::nullopt when the view
/// is not a DATALOG (or identity) query or the database has local
/// conditions.
std::optional<bool> CertDatalogGTables(const View& view,
                                       const CDatabase& database,
                                       const std::vector<LocatedFact>& pattern);

/// Exact certainty for arbitrary views of c-databases: enumerate satisfying
/// valuations and require P subseteq view(world) in all of them. coNP in
/// general.
bool CertaintySearch(const View& view, const CDatabase& database,
                     const std::vector<LocatedFact>& pattern);

/// Dispatcher: the PTIME DATALOG/g-table route when applicable; else, for
/// the identity and positive existential views, CertainFactInTable per
/// fact of the pattern over the view's image; else CertaintySearch.
bool Certainty(const View& view, const CDatabase& database,
               const std::vector<LocatedFact>& pattern);

/// The Proposition 2.1(6) reduction: answers CERT(k, q) by k rounds of
/// CERT(1, q). Semantically identical to Certainty; exists to demonstrate
/// (and test) the equivalence.
bool CertaintyFactwise(const View& view, const CDatabase& database,
                       const std::vector<LocatedFact>& pattern);

}  // namespace pw

#endif  // PW_DECISION_CERTAINTY_H_
