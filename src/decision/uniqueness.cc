#include "decision/uniqueness.h"

#include "condition/interner.h"
#include "decision/membership.h"
#include "decision/world_csp.h"
#include "ilalgebra/ctable_eval.h"
#include "ra/eval.h"
#include "ra/properties.h"
#include "tables/world_enum.h"

namespace pw {

namespace {

/// rep(table with no conditions, matrix M) == {relation}? PTIME core of
/// Thm 3.2(1) after normalization: M must be ground and equal the relation.
bool GroundMatrixEquals(const CTable& table, const Relation& relation) {
  Relation matrix(table.arity());
  for (const CRow& row : table.rows()) {
    if (!IsGround(row.tuple)) return false;
    matrix.Insert(ToFact(row.tuple));
  }
  return matrix == relation;
}

}  // namespace

std::optional<bool> UniqGTables(const CDatabase& database,
                                const Instance& instance) {
  if (database.HasLocalConditions()) return std::nullopt;
  if (database.num_tables() != instance.num_relations()) return false;

  Conjunction global = database.CombinedGlobal();
  if (!ConditionInterner::Global().CachedSatisfiable(global)) {
    return false;  // rep empty, never a singleton
  }

  auto canon = global.CanonicalSubstitution();
  for (size_t k = 0; k < database.num_tables(); ++k) {
    CTable normalized = database.table(k).Substitute(canon);
    if (normalized.arity() != instance.relation(k).arity()) return false;
    if (!GroundMatrixEquals(normalized, instance.relation(k))) return false;
  }
  return true;
}

std::optional<bool> UniqPosExistentialView(const RaQuery& query,
                                           const CDatabase& database,
                                           const Instance& instance) {
  if (!IsPositiveExistential(query, /*allow_neq=*/false)) return std::nullopt;
  if (database.Kind() > TableKind::kETable) return std::nullopt;
  if (query.size() != instance.num_relations()) return false;

  // Step (a): the c-table representation of the view, computed in PTIME.
  auto result = EvalQueryOnCTables(query, database);
  if (!result) return std::nullopt;

  // (alpha): every fact of I is certain. For positive existential queries on
  // e-tables, certainty coincides with naive evaluation — treat each
  // variable as a fresh labeled null and evaluate the query directly.
  {
    std::vector<ConstId> fresh = FreshConstants(
        database, instance.Constants(), database.Variables().size());
    std::unordered_map<VarId, Term> to_null;
    size_t next = 0;
    for (VarId v : database.Variables()) {
      to_null.emplace(v, Term::Const(fresh[next++]));
    }
    std::vector<Relation> rels;
    for (size_t k = 0; k < database.num_tables(); ++k) {
      CTable grounded = database.table(k).Substitute(to_null);
      Relation r(grounded.arity());
      for (const CRow& row : grounded.rows()) r.Insert(ToFact(row.tuple));
      rels.push_back(std::move(r));
    }
    Instance naive = EvalQuery(query, Instance(std::move(rels)));
    for (size_t p = 0; p < instance.num_relations(); ++p) {
      for (const Fact& u : instance.relation(p)) {
        if (!naive.relation(p).Contains(u)) return false;  // not certain
      }
    }
  }

  // (beta): for each output table, each row t with local condition phi and
  // each DNF disjunct phi_i (our IL-algebra keeps conjunctions, so phi is its
  // own single disjunct): incorporate phi_i's equalities into the full
  // matrix and require the resulting e-table to represent exactly {I_p}.
  for (size_t p = 0; p < result->num_tables(); ++p) {
    const CTable& rt = result->table(p);
    for (const CRow& row : rt.rows()) {
      // Positive existential without != yields equality-only conjunctions.
      Conjunction phi = row.local().Simplified();
      if (!ConditionInterner::Global().CachedSatisfiable(phi)) {
        continue;  // row can never be on
      }
      auto subst = phi.CanonicalSubstitution();
      CTable t_ti(rt.arity());
      for (const CRow& r2 : rt.rows()) t_ti.AddRow(r2.tuple);
      t_ti = t_ti.Substitute(subst);
      if (!GroundMatrixEquals(t_ti, instance.relation(p))) return false;
    }
  }
  return true;
}

bool UniquenessSearch(const View& view, const CDatabase& database,
                      const Instance& instance) {
  if (RepIsEmpty(database)) return false;
  if (view.is_identity()) {
    return Membership(database, instance) &&
           !ExistsWorldOtherThan(database, instance);
  }
  if (view.is_ra() && view.IsPositiveExistential(/*allow_neq=*/true)) {
    if (auto image = EvalQueryOnCTables(view.ra(), database)) {
      return MembershipSearch(*image, instance) &&
             !ExistsWorldOtherThan(*image, instance);
    }
  }
  bool unique = true;
  bool any_world = false;
  WorldEnumOptions options;
  options.extra_constants = instance.Constants();
  for (ConstId c : view.Constants()) options.extra_constants.push_back(c);
  ForEachWorld(database, options,
               [&view, &instance, &unique, &any_world](const Instance& world,
                                                       const Valuation&) {
                 any_world = true;
                 if (view.Eval(world) != instance) {
                   unique = false;
                   return false;  // counterexample found
                 }
                 return true;
               });
  return unique && any_world;
}

bool Uniqueness(const View& view, const CDatabase& database,
                const Instance& instance) {
  if (view.is_identity()) {
    if (auto fast = UniqGTables(database, instance)) return *fast;
  } else if (view.is_ra()) {
    if (auto fast = UniqPosExistentialView(view.ra(), database, instance)) {
      return *fast;
    }
  }
  return UniquenessSearch(view, database, instance);
}

}  // namespace pw
