// The paper's complexity classification, encoded as data.
//
// Fig. 2 of the paper classifies the 49 cases of the containment problem by
// the representation of each side; Theorems 3.1, 3.2, 5.1, 5.2 and 5.3
// classify membership, uniqueness, possibility and certainty. This module
// encodes those classifications, one function per problem keyed by the
// representation kind, so benchmarks and tools can print the predicted
// class next to measured behaviour. A cell the paper states for a query
// class rather than a representation (Thm 3.2(2): uniqueness for positive
// existential views of e-tables is PTIME) is noted at its function, not
// encoded.

#ifndef PW_DECISION_COMPLEXITY_MAP_H_
#define PW_DECISION_COMPLEXITY_MAP_H_

#include <string>

#include "tables/ctable.h"

namespace pw {

/// The seven representation kinds of Fig. 2.
enum class RepKind {
  kInstance = 0,
  kCoddTable = 1,
  kETable = 2,
  kITable = 3,
  kGTable = 4,
  kCTable = 5,
  kView = 6,  // a (positive existential, in the lower bounds) query applied
              // to one of the above
};

/// The complexity classes appearing in the paper's classification.
enum class ComplexityClass { kPTime, kNp, kCoNp, kPi2p };

std::string ToString(RepKind kind);
std::string ToString(ComplexityClass c);

/// RepKind of a c-database under the identity view.
RepKind RepKindOf(const CDatabase& database);

/// Fig. 2: the complexity of CONT(lhs contained in rhs), completeness for
/// the class unless PTIME.
ComplexityClass ContainmentComplexity(RepKind lhs, RepKind rhs);

/// Theorem 3.1 (and Prop. 2.1(2)): the complexity of MEMB.
ComplexityClass MembershipComplexity(RepKind rep);

/// Theorem 3.2 (and Prop. 2.1(3)): the complexity of UNIQ. `view` kinds here
/// mean positive existential with != views of tables (Thm 3.2(4)). Positive
/// existential views of e-tables (no !=) are PTIME by Thm 3.2(2); that cell
/// has no RepKind of its own and is not reported here.
ComplexityClass UniquenessComplexity(RepKind rep);

/// Theorem 5.1: the complexity of POSS(*, -) / POSS(*, q) per representation.
ComplexityClass PossibilityUnboundedComplexity(RepKind rep);

/// Theorem 5.2: the complexity of POSS(k, q) per query fragment.
enum class QueryFragment { kPositiveExistential, kFirstOrder, kDatalog };
ComplexityClass PossibilityBoundedComplexity(QueryFragment fragment);

/// Theorem 5.3: the complexity of CERT per query fragment / representation.
/// DATALOG on g-tables: PTIME; first order on tables (or anything on
/// c-tables): coNP-complete.
ComplexityClass CertaintyComplexity(QueryFragment fragment, RepKind rep);

}  // namespace pw

#endif  // PW_DECISION_COMPLEXITY_MAP_H_
