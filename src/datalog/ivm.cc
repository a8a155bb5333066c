#include "datalog/ivm.h"

#include <cassert>
#include <utility>

#include "condition/dd_backend.h"
#include "tables/updates.h"

namespace pw {

MaterializedView::MaterializedView(DatalogProgram program, CDatabase base,
                                   MaterializedViewOptions options)
    : original_(std::move(program)),
      evaluated_(std::make_unique<DatalogProgram>(original_)),
      base_(std::move(base)),
      options_(options) {
  options_.eval.magic_pred_begin = -1;
  Initialize();
}

MaterializedView::MaterializedView(DatalogProgram program, CDatabase base,
                                   DatalogGoal goal,
                                   MaterializedViewOptions options)
    : original_(std::move(program)), goal_(std::move(goal)),
      base_(std::move(base)), options_(options) {
  // An invalid goal (asserted in debug) rewrites to the rule-free program
  // with no goal predicate: updates still maintain the base, and Answers()
  // stays empty.
  MagicRewriteResult rewrite = MagicRewrite(original_, *goal_);
  options_.eval.magic_pred_begin = static_cast<int>(rewrite.magic_begin);
  evaluated_ = std::make_unique<DatalogProgram>(std::move(rewrite.program));
  goal_table_ = rewrite.goal_predicate;
  Initialize();
}

void MaterializedView::Initialize() {
  ConditionInterner& interner = options_.eval.interner != nullptr
                                    ? *options_.eval.interner
                                    : ConditionInterner::Global();
  // Intern the global first so the fixpoint's interner-growth stat covers
  // evaluation only — same accounting as the one-shot evaluators. Updates
  // never touch table globals, so the id is fixed for the view's life.
  global_id_ = base_.CombinedGlobalId(interner);
  fix_.emplace(*evaluated_, options_.eval);
  fix_->SetGlobal(global_id_);
  for (size_t p = 0;
       p < evaluated_->num_edb() && p < base_.num_tables(); ++p) {
    fix_->SeedTable(static_cast<int>(p), base_.table(p));
  }
  fix_->FireGroundRules();
  fix_->Run();
}

bool MaterializedView::ValidUpdate(int pred, const Fact& fact) const {
  // Unconditional (not assert-only): these are the public update entry
  // points, and an out-of-range predicate would otherwise index base_ and
  // the fixpoint state out of bounds in NDEBUG builds — as would a
  // wrong-arity fact, once seeded into the fixpoint.
  return pred >= 0 && static_cast<size_t>(pred) < evaluated_->num_edb() &&
         static_cast<size_t>(pred) < base_.num_tables() &&
         static_cast<int>(fact.size()) == evaluated_->arity(pred) &&
         static_cast<int>(fact.size()) ==
             base_.table(static_cast<size_t>(pred)).arity();
}

void MaterializedView::Insert(int pred, const Fact& fact) {
  assert(ValidUpdate(pred, fact));
  if (!ValidUpdate(pred, fact)) return;
  ++stats_.updates_applied;
  InsertFactInPlace(base_.mutable_table(static_cast<size_t>(pred)), fact);
  if (fix_->Seed(pred, ToTuple(fact), ConditionInterner::kTrueConj)) {
    ++stats_.inserts_seeded;
    fix_->Run();
  }
  // A rejected seed (duplicate, subsumed, or unsatisfiable) changed nothing
  // derivable: the converged state already covers it.
}

bool MaterializedView::InsertIf(int pred, const Fact& fact,
                                const Conjunction& condition) {
  assert(ValidUpdate(pred, fact));
  if (!ValidUpdate(pred, fact)) return false;
  ++stats_.updates_applied;
  ConditionInterner& interner = fix_->interner();
  UpdateOptions update{.interner = &interner};
  if (!InsertFactIfInPlace(base_.mutable_table(static_cast<size_t>(pred)),
                           fact, condition, update)) {
    return false;
  }
  if (fix_->Seed(pred, ToTuple(fact), interner.Intern(condition))) {
    ++stats_.inserts_seeded;
    fix_->Run();
  }
  return true;
}

void MaterializedView::Delete(int pred, const Fact& fact) {
  assert(ValidUpdate(pred, fact));
  if (!ValidUpdate(pred, fact)) return;
  ++stats_.updates_applied;
  ConditionInterner& interner = fix_->interner();
  UpdateOptions update{.interner = &interner};
  DeleteDelta delta = DeleteFactInPlace(
      base_.mutable_table(static_cast<size_t>(pred)), fact, update);
  if (!delta.changed) return;  // no row could match: state untouched

  // Covered fast path. A removed row left no live trace in the fixpoint iff
  // it was unsatisfiable under the global condition (dropped at seed time)
  // or a KEPT row with the same tuple carries an implied-or-equal condition
  // — the exact subsumption rule the evaluator applies at insert, so the
  // removed row was killed (or rejected) the moment both rows coexisted,
  // before any rule could fire through it. In that case the converged state
  // is already the from-scratch state of the shrunken base, and the guarded
  // replacement rows seed forward like an insertion. The implication is on
  // the raw local conditions, NOT conjoined with the global: a row merely
  // rep()-redundant under the global is still live in the evaluator, and
  // treating it as covered would leave stale rows a recomputation lacks.
  bool covered = true;
  if (DDBackend* dd = fix_->dd_backend()) {
    // DD backend: the fixpoint keeps ONE live row per tuple whose condition
    // is the Or over the admitted seeds, so the removed row left no trace
    // iff it was dropped at seed time or the kept rows' disjunction
    // *propositionally absorbs* it — then the live diagram id equals the
    // from-scratch one. Theory-implied-but-not-absorbed is deliberately not
    // covered: the ids would differ and later deltas would reason against a
    // diagram a recomputation lacks; those cases take the cone rebuild.
    for (const CRow& removed : delta.removed) {
      CondId removed_cond = dd->FromConj(removed.LocalId(interner));
      if (!dd->SatisfiableWith(global_id_, removed_cond)) continue;
      CondId kept_or = ConditionBackend::kFalseCond;
      for (const CRow& kept : delta.kept) {
        if (kept.tuple != removed.tuple) continue;
        kept_or = dd->Or(kept_or, dd->FromConj(kept.LocalId(interner)));
      }
      if (dd->Or(kept_or, removed_cond) != kept_or) {
        covered = false;
        break;
      }
    }
  } else {
    for (const CRow& removed : delta.removed) {
      ConjId removed_id = removed.LocalId(interner);
      if (!interner.Satisfiable(interner.And(global_id_, removed_id))) {
        continue;
      }
      bool has_cover = false;
      for (const CRow& kept : delta.kept) {
        if (kept.tuple != removed.tuple) continue;
        if (interner.Implies(removed_id, kept.LocalId(interner))) {
          has_cover = true;
          break;
        }
      }
      if (!has_cover) {
        covered = false;
        break;
      }
    }
  }
  if (covered) {
    ++stats_.deletes_covered;
    bool seeded = false;
    for (const CRow& added : delta.added) {
      seeded |= fix_->Seed(pred, added.tuple, added.LocalId(interner));
    }
    if (seeded) fix_->Run();
    return;
  }

  // Over-delete/re-derive: drop every predicate whose derivations could
  // involve the changed table — the reachability-closed cone of head
  // dependencies — plus the changed table itself, reseed the base rows,
  // and re-derive firing only cone-head rules against the intact rest.
  ++stats_.cone_rebuilds;
  std::vector<bool> cone = ConeOf(pred);
  for (size_t p = 0; p < cone.size(); ++p) {
    if (!cone[p]) continue;
    ++stats_.cone_predicates;
    stats_.rows_overdeleted += fix_->NumLiveRows(static_cast<int>(p));
    fix_->ClearPredicate(static_cast<int>(p));
  }
  fix_->ClearPredicate(pred);
  fix_->SeedTable(pred, base_.table(static_cast<size_t>(pred)));
  fix_->RunCone(cone);
}

std::vector<bool> MaterializedView::ConeOf(int pred) const {
  // The fixpoint's program analysis precomputes every reachability cone
  // (closed over body -> head edges, so RunCone's rule filter is sound: a
  // rule outside the cone cannot mention a cone predicate). The seed `pred`
  // itself is extensional (rule heads are intensional by construction) and
  // is reseeded rather than re-derived, so its bit clears — the mask
  // doubles as the head filter.
  std::vector<bool> cone = fix_->analysis().Cone(pred);
  cone[static_cast<size_t>(pred)] = false;
  return cone;
}

CDatabase MaterializedView::Materialized() const {
  CDatabase out;
  ConditionInterner& interner = fix_->interner();
  for (size_t p = 0; p < evaluated_->num_predicates(); ++p) {
    CTable t = fix_->Export(static_cast<int>(p));
    if (p == 0) {
      t.SetGlobal(base_.CombinedGlobal(), global_id_, interner);
    }
    out.AddTable(std::move(t));
  }
  return out;
}

CTable MaterializedView::Answers() const {
  if (goal_table_ < 0) return CTable(0);
  ConditionInterner& interner = fix_->interner();
  CTable result = RestrictTableToGoal(fix_->Export(goal_table_),
                                      goal_->bindings, global_id_, interner);
  result.SetGlobal(base_.CombinedGlobal(), global_id_, interner);
  return result;
}

IvmStats MaterializedView::stats() const {
  stats_.fixpoint = fix_->stats();
  return stats_;
}

}  // namespace pw
