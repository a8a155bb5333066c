#include "tables/world_enum.h"

#include <algorithm>
#include <set>

#include "condition/interner.h"

namespace pw {

namespace {

/// Shared state of the recursive restricted-growth enumeration.
struct EnumState {
  const std::vector<VarId>* vars;
  std::vector<ConstId> delta;       // base constants
  std::vector<ConstId> fresh;       // |vars| fresh constants
  const Conjunction* global;
  // For each variable position, the global atoms fully assigned at it.
  std::vector<std::vector<const CondAtom*>> atoms_at;
  const std::function<bool(const Valuation&)>* fn;
  bool complete = true;
  Valuation valuation;
};

bool Recurse(EnumState& state, size_t pos, size_t fresh_used) {
  if (pos == state.vars->size()) {
    if (!(*state.fn)(state.valuation)) {
      state.complete = false;
      return false;
    }
    return true;
  }
  VarId var = (*state.vars)[pos];
  size_t num_choices = state.delta.size() + std::min(fresh_used + 1,
                                                     state.fresh.size());
  for (size_t i = 0; i < num_choices; ++i) {
    bool is_new_fresh = i == state.delta.size() + fresh_used;
    ConstId value = i < state.delta.size()
                        ? state.delta[i]
                        : state.fresh[i - state.delta.size()];
    state.valuation.Set(var, value);
    bool ok = true;
    for (const CondAtom* atom : state.atoms_at[pos]) {
      if (!state.valuation.Satisfies(*atom)) {
        ok = false;
        break;
      }
    }
    if (ok && !Recurse(state, pos + 1, fresh_used + (is_new_fresh ? 1 : 0))) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::vector<ConstId> FreshConstants(const CDatabase& database,
                                    const std::vector<ConstId>& extra,
                                    size_t count) {
  ConstId base = 0;
  for (ConstId c : database.Constants()) base = std::max(base, c + 1);
  for (ConstId c : extra) base = std::max(base, c + 1);
  std::vector<ConstId> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) out.push_back(base + static_cast<ConstId>(i));
  return out;
}

bool ForEachSatisfyingValuation(
    const CDatabase& database, const WorldEnumOptions& options,
    const std::function<bool(const Valuation&)>& fn) {
  std::vector<VarId> vars = database.Variables();
  Conjunction global = database.CombinedGlobal();

  std::set<ConstId> delta_set;
  for (ConstId c : database.Constants()) delta_set.insert(c);
  for (ConstId c : options.extra_constants) delta_set.insert(c);

  EnumState state;
  state.vars = &vars;
  state.delta.assign(delta_set.begin(), delta_set.end());
  state.fresh = FreshConstants(database, options.extra_constants, vars.size());
  state.global = &global;
  state.fn = &fn;

  // Position each global atom at the variable position where it becomes
  // fully assigned (ground atoms are checked up front).
  state.atoms_at.resize(vars.size() + 1);
  std::vector<std::vector<const CondAtom*>> ground_atoms;
  auto pos_of = [&vars](VarId v) {
    return static_cast<size_t>(
        std::lower_bound(vars.begin(), vars.end(), v) - vars.begin());
  };
  for (const CondAtom& atom : global.atoms()) {
    size_t last = 0;
    bool has_var = false;
    for (VarId v : AtomVariables(atom)) {
      has_var = true;
      last = std::max(last, pos_of(v));
    }
    if (!has_var) {
      if (IsTriviallyFalse(atom)) return true;  // rep empty: nothing to visit
      continue;                                 // trivially true
    }
    state.atoms_at[last].push_back(&atom);
  }

  Recurse(state, 0, 0);
  return state.complete;
}

bool ForEachWorld(
    const CDatabase& database, const WorldEnumOptions& options,
    const std::function<bool(const Instance&, const Valuation&)>& fn) {
  return ForEachSatisfyingValuation(
      database, options, [&database, &fn](const Valuation& v) {
        return fn(v.Apply(database), v);
      });
}

std::vector<Instance> EnumerateWorlds(const CDatabase& database,
                                      const WorldEnumOptions& options) {
  std::vector<Instance> out;
  ForEachWorld(database, options,
               [&out](const Instance& world, const Valuation&) {
                 if (std::find(out.begin(), out.end(), world) == out.end()) {
                   out.push_back(world);
                 }
                 return true;
               });
  return out;
}

size_t CountDistinctWorlds(const CDatabase& database,
                           const WorldEnumOptions& options) {
  return EnumerateWorlds(database, options).size();
}

bool RepIsEmpty(const CDatabase& database) {
  ConditionInterner& interner = ConditionInterner::Global();
  return !interner.Satisfiable(database.CombinedGlobalId(interner));
}

}  // namespace pw
