// Condition backends: the representations the conditioned fixpoint's rows
// travel in.
//
// The paper's c-tables make every row condition a conjunction, so the
// original implementation works on interned conjunction ids
// (ConditionInterner) and keeps "a row's condition" as a *set* of
// conjunctions (a covering antichain of rows per tuple, maintained by the
// fixpoint through pairwise implication). At high condition diversity that
// antichain is genuinely exponential: over the infinite domain a union of
// strictly stronger conjunctions can never cover a weaker one, so the
// antichain must keep them all.
//
// ConditionBackend lets the fixpoint (ilalgebra/datalog_ctable.h) and IVM
// (datalog/ivm.h) run on a second representation instead: hash-consed
// ordered decision diagrams over condition atoms (condition/dd_backend.h),
// which give a tuple's merged condition ONE canonical id. The interface is
// what those two callers need — conjoin, admit under the global condition,
// and expand back to conjunctions at export. The antichain backend is a
// pass-through to the interner; the DD backend adds Or, which the fixpoint
// and IVM reach through a DDBackend pointer. PW_CONDITION_BACKEND chooses
// between them, and nothing else: the decision procedures (src/decision)
// ask the interner directly and never depend on the backend.
//
// A CondId is meaningful only within the backend that produced it. Both
// backends align their sentinels with the interner's, so kTrueCond/kFalseCond
// mean true/false everywhere, and the antichain backend's CondIds simply ARE
// the interner's ConjIds. Ids are append-only for the backend's lifetime;
// backends are as thread-safe as their interner (safe from many threads iff
// `interner().shared()`), with the same deferred-lock zero cost when it is
// not.

#ifndef PW_CONDITION_BACKEND_H_
#define PW_CONDITION_BACKEND_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "condition/interner.h"

namespace pw {

/// Id of a backend-represented condition. 0 and 1 are the true/false
/// sentinels in every backend (matching ConjId's sentinels).
using CondId = uint32_t;

/// Which condition representation a fixpoint runs on. kDefault resolves
/// through the PW_CONDITION_BACKEND environment variable ("dd" or
/// "antichain"), falling back to kConjunctions — so the CI matrix can drive
/// whole suites onto the DD backend without code changes.
enum class ConditionBackendKind {
  kDefault,
  kConjunctions,      // interned-conjunction antichains (the paper's c-tables)
  kDecisionDiagrams,  // hash-consed ordered decision diagrams over atoms
};

/// Resolves kDefault via PW_CONDITION_BACKEND; other kinds pass through.
ConditionBackendKind ResolveConditionBackendKind(ConditionBackendKind kind);

class ConditionBackend {
 public:
  static constexpr CondId kTrueCond = ConditionInterner::kTrueConj;
  static constexpr CondId kFalseCond = ConditionInterner::kFalseConj;

  explicit ConditionBackend(ConditionInterner& interner)
      : interner_(&interner) {}
  virtual ~ConditionBackend() = default;

  ConditionBackend(const ConditionBackend&) = delete;
  ConditionBackend& operator=(const ConditionBackend&) = delete;

  /// The interner conjunction ids and atoms refer to. Must outlive the
  /// backend; Clear()/RebaseInto() on it invalidate every CondId.
  ConditionInterner& interner() const { return *interner_; }

  virtual const char* name() const = 0;

  /// The backend id of an interned conjunction. Equal ConjIds map to equal
  /// CondIds; kTrueConj/kFalseConj map to kTrueCond/kFalseCond.
  virtual CondId FromConj(ConjId id) = 0;

  /// Conjunction of two backend conditions. Commutative; implementations
  /// key their memo/op caches on the canonical (min, max) id order, so
  /// argument order can never split cache entries.
  virtual CondId And(CondId a, CondId b) = 0;

  /// True iff some valuation satisfies `global` AND the condition — the
  /// fixpoint's per-derivation admission test. Exact.
  virtual bool SatisfiableWith(ConjId global, CondId id) = 0;

  /// Appends a finite set of satisfiable interned conjunctions whose union
  /// is exactly the condition — the export path back into conjunctive
  /// c-table rows. Deterministic for a given id. May be exponential in the
  /// diagram size (it IS the DNF expansion); use only at result boundaries.
  virtual void AppendDisjuncts(CondId id, std::vector<ConjId>* out) = 0;

 private:
  ConditionInterner* interner_;
};

/// Constructs a backend of the (resolved) kind over `interner`.
std::unique_ptr<ConditionBackend> MakeConditionBackend(
    ConditionBackendKind kind, ConditionInterner& interner);

}  // namespace pw

#endif  // PW_CONDITION_BACKEND_H_
