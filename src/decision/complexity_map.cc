#include "decision/complexity_map.h"

namespace pw {

std::string ToString(RepKind kind) {
  switch (kind) {
    case RepKind::kInstance:
      return "instance";
    case RepKind::kCoddTable:
      return "table";
    case RepKind::kETable:
      return "e-table";
    case RepKind::kITable:
      return "i-table";
    case RepKind::kGTable:
      return "g-table";
    case RepKind::kCTable:
      return "c-table";
    case RepKind::kView:
      return "view";
  }
  return "?";
}

std::string ToString(ComplexityClass c) {
  switch (c) {
    case ComplexityClass::kPTime:
      return "PTIME";
    case ComplexityClass::kNp:
      return "NP";
    case ComplexityClass::kCoNp:
      return "coNP";
    case ComplexityClass::kPi2p:
      return "Pi2p";
  }
  return "?";
}

RepKind RepKindOf(const CDatabase& database) {
  if (database.Variables().empty() &&
      database.CombinedGlobal().IsTautology()) {
    return RepKind::kInstance;
  }
  switch (database.Kind()) {
    case TableKind::kCoddTable:
      return RepKind::kCoddTable;
    case TableKind::kETable:
      return RepKind::kETable;
    case TableKind::kITable:
      return RepKind::kITable;
    case TableKind::kGTable:
      return RepKind::kGTable;
    case TableKind::kCTable:
      return RepKind::kCTable;
  }
  return RepKind::kCTable;
}

ComplexityClass ContainmentComplexity(RepKind lhs, RepKind rhs) {
  using C = ComplexityClass;
  // Columns follow Fig. 2's horizontal dimension (the superset side), rows
  // the vertical dimension (the subset side). Order of RepKind:
  // instance, table, e-table, i-table, g-table, c-table, view.
  static constexpr C kFig2[7][7] = {
      // rhs: instance  table    e-table  i-table  g-table  c-table  view
      /* lhs instance */
      {C::kPTime, C::kPTime, C::kNp, C::kNp, C::kNp, C::kNp, C::kNp},
      /* lhs table */
      {C::kPTime, C::kPTime, C::kNp, C::kPi2p, C::kPi2p, C::kPi2p, C::kPi2p},
      /* lhs e-table */
      {C::kPTime, C::kPTime, C::kNp, C::kPi2p, C::kPi2p, C::kPi2p, C::kPi2p},
      /* lhs i-table */
      {C::kPTime, C::kPTime, C::kNp, C::kPi2p, C::kPi2p, C::kPi2p, C::kPi2p},
      /* lhs g-table */
      {C::kPTime, C::kPTime, C::kNp, C::kPi2p, C::kPi2p, C::kPi2p, C::kPi2p},
      /* lhs c-table */
      {C::kCoNp, C::kCoNp, C::kPi2p, C::kPi2p, C::kPi2p, C::kPi2p, C::kPi2p},
      /* lhs view */
      {C::kCoNp, C::kCoNp, C::kPi2p, C::kPi2p, C::kPi2p, C::kPi2p, C::kPi2p},
  };
  return kFig2[static_cast<int>(lhs)][static_cast<int>(rhs)];
}

ComplexityClass MembershipComplexity(RepKind rep) {
  switch (rep) {
    case RepKind::kInstance:
    case RepKind::kCoddTable:
      return ComplexityClass::kPTime;  // Thm 3.1(1)
    default:
      return ComplexityClass::kNp;  // Thm 3.1(2,3,4) + Prop 2.1(2)
  }
}

ComplexityClass UniquenessComplexity(RepKind rep) {
  switch (rep) {
    case RepKind::kInstance:
    case RepKind::kCoddTable:
    case RepKind::kETable:
    case RepKind::kITable:
    case RepKind::kGTable:
      return ComplexityClass::kPTime;  // Thm 3.2(1)
    case RepKind::kCTable:
    case RepKind::kView:
      return ComplexityClass::kCoNp;  // Thm 3.2(3,4) + Prop 2.1(3)
  }
  return ComplexityClass::kCoNp;
}

ComplexityClass PossibilityUnboundedComplexity(RepKind rep) {
  switch (rep) {
    case RepKind::kInstance:
    case RepKind::kCoddTable:
      return ComplexityClass::kPTime;  // Thm 5.1(1)
    default:
      return ComplexityClass::kNp;  // Thm 5.1(2,3,4) + Prop 2.1(4)
  }
}

ComplexityClass PossibilityBoundedComplexity(QueryFragment fragment) {
  switch (fragment) {
    case QueryFragment::kPositiveExistential:
      return ComplexityClass::kPTime;  // Thm 5.2(1)
    case QueryFragment::kFirstOrder:
    case QueryFragment::kDatalog:
      return ComplexityClass::kNp;  // Thm 5.2(2,3)
  }
  return ComplexityClass::kNp;
}

ComplexityClass CertaintyComplexity(QueryFragment fragment, RepKind rep) {
  if (fragment == QueryFragment::kDatalog ||
      fragment == QueryFragment::kPositiveExistential) {
    if (rep != RepKind::kCTable && rep != RepKind::kView) {
      return ComplexityClass::kPTime;  // Thm 5.3(1)
    }
  }
  return ComplexityClass::kCoNp;  // Thm 5.3(2,3) + Prop 2.1(5)
}

}  // namespace pw
