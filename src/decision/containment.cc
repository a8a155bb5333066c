#include "decision/containment.h"

#include <set>

#include "decision/membership.h"
#include "tables/world_enum.h"

namespace pw {

namespace {

/// Images remembered by ForallWorlds; bounds its memory when the lhs images
/// never repeat.
constexpr size_t kMaxPassedImages = 4096;

/// Runs the forall-side loop: true iff every world of lhs_view(rep(lhs))
/// passes `member_test`. The verdict depends on the image alone and many
/// valuations share one image, so each distinct image is tested once.
bool ForallWorlds(const View& lhs_view, const CDatabase& lhs,
                  const std::vector<ConstId>& rhs_constants,
                  const std::function<bool(const Instance&)>& member_test) {
  bool contained = true;
  std::set<Instance> passed;
  WorldEnumOptions options;
  options.extra_constants = rhs_constants;
  for (ConstId c : lhs_view.Constants()) options.extra_constants.push_back(c);
  ForEachWorld(lhs, options,
               [&lhs_view, &member_test, &contained, &passed](
                   const Instance& world, const Valuation&) {
                 Instance image = lhs_view.Eval(world);
                 if (passed.count(image) > 0) return true;
                 if (!member_test(image)) {
                   contained = false;
                   return false;  // counterexample world found
                 }
                 if (passed.size() < kMaxPassedImages) {
                   passed.insert(std::move(image));
                 }
                 return true;
               });
  return contained;
}

}  // namespace

Instance Freeze(const CDatabase& database,
                const std::vector<ConstId>& avoid) {
  // Normalize member tables against the combined global condition, then map
  // every remaining variable to a distinct fresh constant.
  Conjunction global = database.CombinedGlobal();
  auto canon = global.CanonicalSubstitution();

  std::vector<VarId> vars = database.Variables();
  std::vector<ConstId> fresh = FreshConstants(database, avoid, vars.size());
  std::unordered_map<VarId, Term> freeze;
  size_t next = 0;
  for (VarId v : vars) {
    Term t = Term::Var(v);
    auto it = canon.find(v);
    if (it != canon.end()) t = it->second;
    if (t.is_constant()) {
      freeze.emplace(v, t);
    } else {
      auto seen = freeze.find(t.variable());
      if (seen != freeze.end() && seen->first != v) {
        freeze.emplace(v, seen->second);
      } else if (t.variable() == v) {
        freeze.emplace(v, Term::Const(fresh[next++]));
      } else {
        // Class representative not yet frozen (cannot happen with sorted
        // iteration, but stay safe): freeze both now.
        Term c = Term::Const(fresh[next++]);
        freeze.emplace(t.variable(), c);
        freeze.emplace(v, c);
      }
    }
  }

  std::vector<Relation> rels;
  rels.reserve(database.num_tables());
  for (size_t k = 0; k < database.num_tables(); ++k) {
    CTable grounded = database.table(k).Substitute(freeze);
    Relation r(grounded.arity());
    for (const CRow& row : grounded.rows()) r.Insert(ToFact(row.tuple));
    rels.push_back(std::move(r));
  }
  return Instance(std::move(rels));
}

std::optional<bool> ContGTablesInCoddTables(const CDatabase& lhs,
                                            const CDatabase& rhs) {
  if (lhs.Kind() > TableKind::kGTable ||
      rhs.Kind() != TableKind::kCoddTable) {
    return std::nullopt;
  }
  if (RepIsEmpty(lhs)) return true;
  Instance k0 = Freeze(lhs, rhs.Constants());
  return MembershipCoddTables(rhs, k0);
}

std::optional<bool> ContGTablesInETables(const CDatabase& lhs,
                                         const CDatabase& rhs) {
  if (lhs.Kind() > TableKind::kGTable || rhs.Kind() > TableKind::kETable) {
    return std::nullopt;
  }
  if (RepIsEmpty(lhs)) return true;
  Instance k0 = Freeze(lhs, rhs.Constants());
  return MembershipSearch(rhs, k0);
}

std::optional<bool> ContViewInCoddTables(const View& lhs_view,
                                         const CDatabase& lhs,
                                         const CDatabase& rhs) {
  if (rhs.Kind() != TableKind::kCoddTable) return std::nullopt;
  return ForallWorlds(lhs_view, lhs, rhs.Constants(),
                      [&rhs](const Instance& image) {
                        auto member = MembershipCoddTables(rhs, image);
                        return member.has_value() && *member;
                      });
}

bool ContainmentSearch(const View& lhs_view, const CDatabase& lhs,
                       const View& rhs_view, const CDatabase& rhs) {
  std::vector<ConstId> rhs_constants = rhs.Constants();
  for (ConstId c : rhs_view.Constants()) rhs_constants.push_back(c);
  return ForallWorlds(lhs_view, lhs, rhs_constants,
                      [&rhs_view, &rhs](const Instance& image) {
                        return MembershipInView(rhs_view, rhs, image);
                      });
}

bool Containment(const View& lhs_view, const CDatabase& lhs,
                 const View& rhs_view, const CDatabase& rhs) {
  if (rhs_view.is_identity()) {
    if (lhs_view.is_identity()) {
      if (auto fast = ContGTablesInCoddTables(lhs, rhs)) return *fast;
      if (auto fast = ContGTablesInETables(lhs, rhs)) return *fast;
    }
    if (auto fast = ContViewInCoddTables(lhs_view, lhs, rhs)) return *fast;
  }
  return ContainmentSearch(lhs_view, lhs, rhs_view, rhs);
}

}  // namespace pw
