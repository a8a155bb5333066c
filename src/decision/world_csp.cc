#include "decision/world_csp.h"

#include "condition/atom_cnf.h"
#include "condition/binding_env.h"
#include "decision/certainty.h"

namespace pw {

bool ExistsWorldOtherThan(const CDatabase& database,
                          const Instance& instance) {
  if (database.num_tables() != instance.num_relations()) return true;
  for (size_t k = 0; k < database.num_tables(); ++k) {
    if (database.table(k).arity() != instance.relation(k).arity()) {
      return true;
    }
  }
  Conjunction global = database.CombinedGlobal();

  // Reason (a): some row is "on" under a satisfying valuation and lands
  // outside its target relation.
  for (size_t k = 0; k < database.num_tables(); ++k) {
    const Relation& target = instance.relation(k);
    for (const CRow& row : database.table(k).rows()) {
      BindingEnv env;
      if (!env.Assert(global) || !env.Assert(row.local())) continue;
      std::vector<AtomClause> clauses;
      bool impossible = false;
      for (const Fact& f : target) {
        AtomClause clause;
        for (size_t p = 0; p < row.tuple.size(); ++p) {
          clause.push_back(Neq(row.tuple[p], Term::Const(f[p])));
        }
        if (clause.empty()) {  // arity 0: the row is exactly this fact
          impossible = true;
          break;
        }
        clauses.push_back(std::move(clause));
      }
      if (impossible) continue;
      if (SolveAtomCnf(env, clauses)) return true;
    }
  }

  // Reason (b): some instance fact is missing from some world.
  ConditionInterner& interner = ConditionInterner::Global();
  ConjId global_id = database.CombinedGlobalId(interner);
  for (size_t k = 0; k < database.num_tables(); ++k) {
    for (const Fact& f : instance.relation(k)) {
      if (!CertainFactInTable(database.table(k), f, global_id, interner)) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace pw
