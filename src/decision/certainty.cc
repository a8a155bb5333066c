#include "decision/certainty.h"

#include "condition/atom_cnf.h"
#include "datalog/certain.h"
#include "ilalgebra/ctable_eval.h"
#include "tables/world_enum.h"

namespace pw {

namespace {

/// Wraps the identity over a c-database as the trivial DATALOG program
/// copy_p(x...) :- p(x...), so the identity view rides the same PTIME path.
std::pair<DatalogProgram, std::vector<int>> IdentityAsDatalog(
    const CDatabase& database) {
  size_t n = database.num_tables();
  std::vector<int> arities;
  for (size_t k = 0; k < n; ++k) arities.push_back(database.table(k).arity());
  for (size_t k = 0; k < n; ++k) arities.push_back(database.table(k).arity());
  DatalogProgram program(arities, /*num_edb=*/n);
  std::vector<int> outputs;
  for (size_t k = 0; k < n; ++k) {
    Tuple args;
    for (int i = 0; i < database.table(k).arity(); ++i) {
      args.push_back(Term::Var(static_cast<VarId>(i)));
    }
    DatalogRule rule;
    rule.head = {static_cast<int>(n + k), args};
    rule.body = {{static_cast<int>(k), args}};
    program.AddRule(std::move(rule));
    outputs.push_back(static_cast<int>(n + k));
  }
  return {std::move(program), std::move(outputs)};
}

}  // namespace

bool CertainFactInTable(const CTable& table, const Fact& fact, ConjId global_id,
                        ConditionInterner& interner) {
  std::vector<ConjId> alternatives;
  if (static_cast<size_t>(table.arity()) == fact.size()) {
    for (const CRow& row : table.rows()) {
      // The world contains `fact` through this row iff the row's condition
      // holds and every tuple position valuates to the fact's constant.
      Conjunction eqs;
      bool mismatch = false;
      for (size_t i = 0; i < fact.size(); ++i) {
        CondAtom eq = Eq(Term::Const(fact[i]), row.tuple[i]);
        if (IsTriviallyFalse(eq)) {
          mismatch = true;
          break;
        }
        if (!IsTriviallyTrue(eq)) eqs.Add(eq);
      }
      if (mismatch) continue;
      ConjId cond = row.LocalId(interner);
      if (eqs.size() > 0) cond = interner.And(cond, interner.Intern(eqs));
      if (cond == ConditionInterner::kTrueConj) return true;
      if (cond != ConditionInterner::kFalseConj) alternatives.push_back(cond);
    }
  }
  std::vector<ConjId> antichain =
      CoveringAntichain(interner, std::move(alternatives));
  if (antichain.size() == 1) return interner.Implies(global_id, antichain[0]);
  return ConjImpliesDisjunction(interner, global_id, antichain);
}

std::optional<bool> CertDatalogGTables(
    const View& view, const CDatabase& database,
    const std::vector<LocatedFact>& pattern) {
  if (database.HasLocalConditions()) return std::nullopt;
  if (!view.is_datalog() && !view.is_identity()) return std::nullopt;
  if (RepIsEmpty(database)) return true;  // vacuous

  const DatalogProgram* program = nullptr;
  const std::vector<int>* outputs = nullptr;
  DatalogProgram identity_program;
  std::vector<int> identity_outputs;
  if (view.is_identity()) {
    auto [p, o] = IdentityAsDatalog(database);
    identity_program = std::move(p);
    identity_outputs = std::move(o);
    program = &identity_program;
    outputs = &identity_outputs;
  } else {
    program = &view.datalog();
    outputs = &view.output_preds();
  }

  auto certain = DatalogCertainAnswers(*program, database);
  if (!certain) return std::nullopt;
  for (const LocatedFact& lf : pattern) {
    if (lf.relation >= outputs->size()) return false;
    if (!certain->relation((*outputs)[lf.relation]).Contains(lf.fact)) {
      return false;
    }
  }
  return true;
}

bool CertaintySearch(const View& view, const CDatabase& database,
                     const std::vector<LocatedFact>& pattern) {
  bool certain = true;
  WorldEnumOptions options;
  options.extra_constants = PatternConstants(pattern);
  for (ConstId c : view.Constants()) options.extra_constants.push_back(c);
  ForEachWorld(database, options,
               [&view, &pattern, &certain](const Instance& world,
                                           const Valuation&) {
                 if (!ContainsAll(view.Eval(world), pattern)) {
                   certain = false;
                   return false;  // counterexample world
                 }
                 return true;
               });
  return certain;
}

bool Certainty(const View& view, const CDatabase& database,
               const std::vector<LocatedFact>& pattern) {
  if (auto fast = CertDatalogGTables(view, database, pattern)) return *fast;
  // The identity, and positive existential views through their
  // Imielinski–Lipski image: one certainty question per fact over the image.
  std::optional<CDatabase> evaluated;
  const CDatabase* image = view.is_identity() ? &database : nullptr;
  if (view.is_ra() && view.IsPositiveExistential(/*allow_neq=*/true)) {
    evaluated = EvalQueryOnCTables(view.ra(), database);
    if (evaluated) image = &*evaluated;
  }
  if (image == nullptr) return CertaintySearch(view, database, pattern);
  if (RepIsEmpty(database)) return true;  // vacuous
  ConditionInterner& interner = ConditionInterner::Global();
  ConjId global_id = image->CombinedGlobalId(interner);
  for (const LocatedFact& lf : pattern) {
    if (lf.relation >= image->num_tables() ||
        !CertainFactInTable(image->table(lf.relation), lf.fact, global_id,
                            interner)) {
      return false;
    }
  }
  return true;
}

bool CertaintyFactwise(const View& view, const CDatabase& database,
                       const std::vector<LocatedFact>& pattern) {
  for (const LocatedFact& lf : pattern) {
    if (!Certainty(view, database, {lf})) return false;
  }
  return true;
}

}  // namespace pw
