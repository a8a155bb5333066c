#include "condition/backend.h"

#include <cstdlib>
#include <string_view>

#include "condition/dd_backend.h"

namespace pw {

namespace {

/// The paper-faithful backend: a condition is an interned conjunction, and
/// every operation is the interner's own, with its memoization and stats.
class ConjunctiveBackend final : public ConditionBackend {
 public:
  explicit ConjunctiveBackend(ConditionInterner& interner)
      : ConditionBackend(interner) {}

  const char* name() const override { return "antichain"; }

  CondId FromConj(ConjId id) override { return id; }

  CondId And(CondId a, CondId b) override { return interner().And(a, b); }

  bool SatisfiableWith(ConjId global, CondId id) override {
    return interner().Satisfiable(interner().And(global, id));
  }

  void AppendDisjuncts(CondId id, std::vector<ConjId>* out) override {
    if (id != kFalseCond) out->push_back(id);
  }
};

}  // namespace

ConditionBackendKind ResolveConditionBackendKind(ConditionBackendKind kind) {
  if (kind != ConditionBackendKind::kDefault) return kind;
  if (const char* env = std::getenv("PW_CONDITION_BACKEND")) {
    std::string_view v(env);
    if (v == "dd" || v == "DD") {
      return ConditionBackendKind::kDecisionDiagrams;
    }
  }
  return ConditionBackendKind::kConjunctions;
}

std::unique_ptr<ConditionBackend> MakeConditionBackend(
    ConditionBackendKind kind, ConditionInterner& interner) {
  switch (ResolveConditionBackendKind(kind)) {
    case ConditionBackendKind::kDecisionDiagrams:
      return std::make_unique<DDBackend>(interner);
    case ConditionBackendKind::kConjunctions:
    case ConditionBackendKind::kDefault:
      break;
  }
  return std::make_unique<ConjunctiveBackend>(interner);
}

}  // namespace pw
