#include "ilalgebra/datalog_ctable.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "datalog/magic.h"
#include "tables/tuple_index.h"
#include "util/thread_pool.h"

namespace pw {

namespace {

/// One conditioned fact during evaluation. The tuple lives in the by_tuple
/// index (node-based map, so the key address is stable); rows of the same
/// tuple share it. `cond` is a backend condition id: an interned conjunction
/// on the antichain backend, a decision-diagram id on the DD backend. Dead
/// rows (subsumed by a later, weaker derivation — or, on the DD backend,
/// Or-merged into a wider one) stay in place so indices remain stable; joins
/// skip them — any derivation through a dead row is covered, with a weaker
/// or equal condition, by the same derivation through its subsumer.
struct IRow {
  const Tuple* tuple = nullptr;
  CondId cond = ConditionBackend::kTrueCond;
  bool alive = true;
};

struct PredState {
  std::vector<IRow> rows;
  // Tuple -> indices into `rows` (live and dead): the duplicate-suppression
  // and subsumption index. (TupleHash comes from tables/tuple_index.h, the
  // shared indexing layer.)
  std::unordered_map<Tuple, std::vector<size_t>, TupleHash> by_tuple;
  // The previous round's delta is rows[delta_begin, delta_end); rows at and
  // past delta_end were derived in the current round.
  size_t delta_begin = 0;
  size_t delta_end = 0;
  // Lazily-built hash indexes of the rows' tuples per bound-column subset,
  // extended across rounds — and across Run() calls — as rows are appended.
  // Rows are append-only except for ClearPredicate, which bumps `stamp` so
  // any entry that survives the Clear rebuilds instead of serving stale row
  // ids. Dead rows stay indexed and are skipped at match time, like in the
  // scan.
  TupleIndexCache indexes;
  uint64_t stamp = 1;
};

/// One body-atom argument compiled against a fixed join order: a constant,
/// the first occurrence of a rule variable (binds its slot), or a later one
/// (matches the row term against the slot's, emitting an equality condition
/// where the terms are not syntactically equal).
struct ArgOp {
  enum Kind : uint8_t { kConst, kBind, kCheck };
  Kind kind = kConst;
  // kConst, or kCheck of a slot an earlier atom binds: the position keys an
  // index probe whenever its value is a constant.
  bool probe = false;
  Term constant;     // kConst
  size_t slot = 0;   // kBind, kCheck
};

/// One depth of a join order: the body atom enumerated there.
struct AtomStep {
  size_t pos = 0;  // body position
  int pred = 0;
  std::vector<ArgOp> args;  // one per atom position
};

/// A rule's join orders, computed once when the fixpoint is built:
/// `orders[d + 1]` enumerates the firing with delta position d (orders[0]
/// is the naive firing, d = -1). Rule variables live in flat slots. The
/// order fixes the depth that binds each slot and deeper depths only read
/// slots bound above them, so a row visit binds by overwriting its own
/// depth's slots — no binding map, no copy, no undo.
struct RulePlan {
  const DatalogRule* rule = nullptr;
  size_t num_slots = 0;
  std::vector<std::vector<AtomStep>> orders;
};

struct EvalState {
  ConditionInterner* interner = nullptr;
  // The condition representation rows travel in (owned by the Impl). `dd`
  // caches backend->disjunctive(): true switches Insert from the subsumption
  // antichain to one-live-row-per-tuple Or-merging.
  ConditionBackend* backend = nullptr;
  bool dd = false;
  ConjId global_id = ConditionInterner::kTrueConj;
  bool use_index = true;
  // Predicates at or past this id are magic (demand) predicates of a
  // magic-rewritten program; their rows are attributed to the demand
  // counters. -1: none.
  int magic_begin = -1;
  // Row-derivation budget; 0 = unlimited. When it trips, `aborted` stops
  // every loop and the stats record the exhaustion. Work units (row visits
  // in the join loops, subsumption-bucket scans) are metered against
  // 64 * max_derived_rows so that evaluation also stops when the join or
  // subsumption work explodes without accumulating kept rows.
  size_t max_derived_rows = 0;
  size_t work = 0;
  bool aborted = false;

  // Unmetered (no budget) it writes nothing, so parallel generation workers
  // share it race-free.
  void ChargeWork(size_t units) {
    if (max_derived_rows == 0) return;
    work += units;
    if (work >= 64 * max_derived_rows) {
      aborted = true;
      stats.budget_exhausted = true;
    }
  }
  std::vector<PredState> preds;
  std::vector<RulePlan> plans;  // one per program rule
  ConditionedFixpointStats stats;

  bool IsMagicPred(int pred) const {
    return magic_begin >= 0 && pred >= magic_begin;
  }
};

/// Inserts a derived row unless a duplicate (same tuple, same condition id)
/// or subsumed; kills live rows the new one covers. Rows whose condition
/// cannot hold together with the global condition are dropped. Returns true
/// if the row was added.
///
/// Antichain backend: a live row whose condition the new one implies makes
/// it redundant, and it in turn kills every live row implying it — per tuple
/// a covering antichain of conjunctions survives. Since each (tuple, id)
/// pair is admitted at most once and the id universe of a program is finite,
/// the fixpoint terminates.
///
/// DD backend: per tuple at most ONE live row exists; a new derivation
/// Or-merges into it. A merge that widens the condition kills the old row
/// and appends the merged one past the delta end, so downstream rules re-fire
/// against the widened condition next round — exactly the semi-naive
/// invariant, with the merged id playing the role the fresh conjunction
/// played before. Termination: every non-dropped insert strictly enlarges
/// the tuple's condition in the finite lattice of boolean functions over the
/// program's atom universe.
bool Insert(EvalState& state, int pred, Tuple tuple, CondId cond) {
  ConditionBackend& backend = *state.backend;
  if (!backend.SatisfiableWith(state.global_id, cond)) {
    ++state.stats.unsatisfiable_rows;
    // Unsatisfiable *demand* dies here, before any guarded rule body could
    // fire against it.
    if (state.IsMagicPred(pred)) ++state.stats.demand_pruned;
    return false;
  }
  PredState& ps = state.preds[pred];
  auto [it, inserted] = ps.by_tuple.try_emplace(std::move(tuple));
  std::vector<size_t>& bucket = it->second;
  state.ChargeWork(1 + bucket.size());
  if (!inserted && state.dd) {
    for (size_t idx : bucket) {
      IRow& existing = ps.rows[idx];
      if (!existing.alive) continue;
      if (existing.cond == cond) {
        ++state.stats.duplicate_rows;
        return false;
      }
      CondId merged = backend.Or(existing.cond, cond);
      if (merged == existing.cond) {
        // The live condition already covers the new derivation.
        ++state.stats.subsumed_rows;
        return false;
      }
      existing.alive = false;
      ++state.stats.subsumed_rows;
      cond = merged;
      break;  // at most one live row per tuple on this backend
    }
  } else if (!inserted) {
    ConditionInterner& interner = *state.interner;
    for (size_t idx : bucket) {
      if (ps.rows[idx].cond == cond) {
        ++state.stats.duplicate_rows;
        return false;
      }
    }
    for (size_t idx : bucket) {
      const IRow& existing = ps.rows[idx];
      // An already-present weaker condition derives the new row.
      if (existing.alive && interner.Implies(cond, existing.cond)) {
        ++state.stats.subsumed_rows;
        return false;
      }
    }
    for (size_t idx : bucket) {
      IRow& existing = ps.rows[idx];
      if (existing.alive && interner.Implies(existing.cond, cond)) {
        existing.alive = false;
        ++state.stats.subsumed_rows;
      }
    }
  }
  bucket.push_back(ps.rows.size());
  ps.rows.push_back(IRow{&it->first, cond, true});
  ++state.stats.derived_rows;
  if (state.IsMagicPred(pred)) ++state.stats.magic_facts;
  if (state.max_derived_rows != 0 &&
      state.stats.derived_rows >= state.max_derived_rows) {
    state.aborted = true;
    state.stats.budget_exhausted = true;
  }
  return true;
}

/// Matches rule argument terms against a row tuple, extending the rule-scope
/// binding (rule variable -> table term) and accumulating equality atoms
/// between table terms where needed. Returns false on hard mismatch.
bool MatchArgs(const Tuple& args, const Tuple& row,
               std::map<VarId, Term>& binding, Conjunction& cond) {
  for (size_t i = 0; i < args.size(); ++i) {
    Term need = args[i];
    Term have = row[i];
    if (need.is_constant()) {
      CondAtom eq = Eq(need, have);
      if (IsTriviallyFalse(eq)) return false;
      if (!IsTriviallyTrue(eq)) cond.Add(eq);
      continue;
    }
    auto [it, inserted] = binding.emplace(need.variable(), have);
    if (!inserted) {
      CondAtom eq = Eq(it->second, have);
      if (IsTriviallyFalse(eq)) return false;
      if (!IsTriviallyTrue(eq)) cond.Add(eq);
    }
  }
  return true;
}

/// The order-canonical (head, condition) of one matched body combination —
/// the leaf computation of the join kernel. Re-derives the binding and
/// equality conditions in *body order* from the matched rows: which atom a
/// shared variable's representative term comes from depends on the order
/// the atoms were matched (a firing's join order puts its delta atom first),
/// and rows with nulls make rep-equivalent representatives syntactically
/// different — so the emitted pair must be computed order-canonically, or
/// evaluation schedules with different delta windows (incremental resume vs
/// from-scratch, parallel slices) would derive different rows and break
/// their identity.
void CanonicalLeaf(const DatalogRule& rule, ConditionBackend& backend,
                   const std::vector<const Tuple*>& matched,
                   const std::vector<CondId>& matched_cond, Tuple* head,
                   CondId* cond) {
  std::map<VarId, Term> canon;
  Conjunction eqs;
  CondId out = ConditionBackend::kTrueCond;
  for (size_t p = 0; p < rule.body.size(); ++p) {
    bool ok = MatchArgs(rule.body[p].args, *matched[p], canon, eqs);
    (void)ok;
    assert(ok);  // constant conflicts fail in every match order
    out = backend.And(out, matched_cond[p]);
  }
  if (eqs.size() > 0) {
    out = backend.And(out, backend.FromConj(backend.interner().Intern(eqs)));
  }
  head->clear();
  head->reserve(rule.head.args.size());
  for (const Term& t : rule.head.args) {
    head->push_back(t.is_constant() ? t : canon.at(t.variable()));
  }
  *cond = out;
}

/// The greedy join order of `rule`: the delta atom first (none when
/// `delta_pos` is negative; its window is the smallest range by
/// construction, often a single seeded row), then repeatedly the unplaced
/// atom with the most bound positions — constants, or variables bound by
/// atoms already placed — ties broken in body order. Each placed atom binds
/// variables that turn later atoms' scans into keyed index probes, so the
/// most-bound atom is the cheapest next step; for a guarded magic rule
/// `p#bf(X,Y) :- m.p#bf(X), e(X,Z), p#bf(Z,Y)` with the delta on p#bf, the
/// order is p#bf, e (keyed on Z), m.p#bf (keyed on X), where body order
/// would scan the unkeyed guard second.
std::vector<AtomStep> OrderBody(const DatalogRule& rule, int delta_pos,
                                const std::map<VarId, size_t>& slot_of) {
  const size_t n = rule.body.size();
  std::vector<bool> placed(n, false);
  std::vector<int> bound_at(slot_of.size(), -1);  // slot -> binding depth
  std::vector<AtomStep> steps;
  for (int depth = 0; depth < static_cast<int>(n); ++depth) {
    size_t best = n;
    size_t best_bound = 0;
    if (depth == 0 && delta_pos >= 0) {
      best = static_cast<size_t>(delta_pos);
    } else {
      for (size_t p = 0; p < n; ++p) {
        if (placed[p]) continue;
        size_t bound = 0;
        for (const Term& t : rule.body[p].args) {
          if (t.is_constant() || bound_at[slot_of.at(t.variable())] >= 0) {
            ++bound;
          }
        }
        if (best == n || bound > best_bound) {
          best = p;
          best_bound = bound;
        }
      }
    }
    placed[best] = true;
    AtomStep step{best, rule.body[best].predicate, {}};
    for (const Term& t : rule.body[best].args) {
      ArgOp op;
      if (t.is_constant()) {
        op.probe = true;
        op.constant = t;
      } else {
        op.slot = slot_of.at(t.variable());
        int& at = bound_at[op.slot];
        op.kind = at < 0 ? ArgOp::kBind : ArgOp::kCheck;
        op.probe = at >= 0 && at < depth;
        if (at < 0) at = depth;
      }
      step.args.push_back(op);
    }
    steps.push_back(std::move(step));
  }
  return steps;
}

RulePlan PlanRule(const DatalogRule& rule) {
  RulePlan plan;
  plan.rule = &rule;
  std::map<VarId, size_t> slot_of;
  for (const DatalogAtom& atom : rule.body) {
    for (const Term& t : atom.args) {
      if (t.is_variable()) slot_of.emplace(t.variable(), slot_of.size());
    }
  }
  plan.num_slots = slot_of.size();
  for (int d = -1; d < static_cast<int>(rule.body.size()); ++d) {
    plan.orders.push_back(OrderBody(rule, d, slot_of));
  }
  return plan;
}

/// The rows one join depth enumerates: a keyed candidate list (ascending
/// row ids) or the scan range [lo, hi).
struct StepRows {
  bool keyed = false;
  size_t lo = 0;
  size_t hi = 0;
  std::vector<size_t> ids;

  size_t Count() const { return keyed ? ids.size() : hi - lo; }
  size_t Id(size_t k) const { return keyed ? ids[k] : lo + k; }
};

/// A source row of a derivation: (predicate, row index).
using RowRef = std::pair<int, size_t>;

/// The join enumeration of one rule firing, shared by the sequential and the
/// parallel rounds; they differ only in the leaf action, the index caches
/// and the stats sink. With `delta_pos < 0` (naive) every body position
/// ranges over its predicate's full row list as of its loop entry. With
/// `delta_pos >= 0` (semi-naive) position delta_pos ranges over its
/// predicate's delta, earlier body positions over pre-delta rows only and
/// later ones over everything up to the delta end — so each combination
/// with at least one delta row is enumerated exactly once per round,
/// whatever the enumeration order (the rule plan's greedy order; the
/// windows go by body position, not depth). An atom with bound,
/// constant-valued positions enumerates its range through the predicate's
/// hash index on those positions instead of scanning it (same rows, same
/// order; positions bound to a null fall back to the scan since a null
/// matches any row under a condition). The partial condition travels as a
/// backend id, and a branch whose condition cannot hold together with the
/// global condition is cut immediately.
class JoinKernel {
 public:
  /// Receives each combination's order-canonical (head, condition) and its
  /// source row per enumeration depth.
  using Leaf = std::function<void(Tuple, CondId, const std::vector<RowRef>&)>;

  /// `worker_indexes` (one cache per predicate) replaces the predicates'
  /// shared index caches when set; join-side counters go to `stats`.
  JoinKernel(EvalState& state, const RulePlan& plan, int delta_pos,
             ConditionedFixpointStats& stats,
             std::vector<TupleIndexCache>* worker_indexes, Leaf leaf)
      : state_(state),
        rule_(*plan.rule),
        steps_(plan.orders[static_cast<size_t>(delta_pos + 1)]),
        delta_pos_(delta_pos),
        stats_(stats),
        worker_indexes_(worker_indexes),
        leaf_(std::move(leaf)),
        magic_head_(state.IsMagicPred(plan.rule->head.predicate)),
        slots_(plan.num_slots),
        matched_(plan.rule->body.size(), nullptr),
        matched_cond_(plan.rule->body.size(), ConditionBackend::kTrueCond),
        sources_(plan.rule->body.size()) {}

  /// The rows `depth` enumerates under the slots bound above it. A probe's
  /// candidate ids are a snapshot: an Insert deeper in the recursion may
  /// extend this very index (and any row vector) mid-iteration.
  StepRows Rows(size_t depth) {
    const AtomStep& step = steps_[depth];
    PredState& ps = state_.preds[static_cast<size_t>(step.pred)];
    StepRows rows;
    if (delta_pos_ < 0) {
      rows.hi = ps.rows.size();
    } else if (static_cast<int>(step.pos) == delta_pos_) {
      rows.lo = ps.delta_begin;
      rows.hi = ps.delta_end;
    } else {
      rows.hi = static_cast<int>(step.pos) < delta_pos_ ? ps.delta_begin
                                                         : ps.delta_end;
    }
    if (!state_.use_index || rows.lo >= rows.hi) return rows;
    probe_cols_.clear();
    probe_key_.clear();
    for (size_t i = 0; i < step.args.size(); ++i) {
      const ArgOp& op = step.args[i];
      if (!op.probe) continue;
      Term value = op.kind == ArgOp::kConst ? op.constant : slots_[op.slot];
      if (!value.is_constant()) continue;
      probe_cols_.push_back(static_cast<int>(i));
      probe_key_.push_back(value);
    }
    if (probe_cols_.empty()) return rows;
    TupleIndexCache& cache =
        worker_indexes_ != nullptr
            ? (*worker_indexes_)[static_cast<size_t>(step.pred)]
            : ps.indexes;
    const size_t builds_before = cache.stats().builds;
    const size_t extends_before = cache.stats().extends;
    rows.ids = cache
                   .Get(probe_cols_, ps.rows.size(), ps.stamp,
                        [&ps](size_t i) -> const Tuple& {
                          return *ps.rows[i].tuple;
                        })
                   .Candidates(probe_key_, rows.lo, rows.hi);
    stats_.index_builds += cache.stats().builds - builds_before;
    stats_.index_extends += cache.stats().extends - extends_before;
    ++stats_.index_probes;
    stats_.index_hits += rows.ids.size();
    rows.keyed = true;
    return rows;
  }

  /// Matches row `idx` at `depth` under the partial condition `acc` and, if
  /// the branch can hold, enumerates the depths below it.
  void Visit(size_t depth, size_t idx, CondId acc) {
    state_.ChargeWork(1);
    const AtomStep& step = steps_[depth];
    const IRow& row = state_.preds[static_cast<size_t>(step.pred)].rows[idx];
    if (!row.alive) return;
    // Copied out: an Insert below may reallocate the row vector. The tuple
    // itself is a by_tuple key (node-based map), so its address is stable.
    const Tuple* tuple = row.tuple;
    const CondId row_cond = row.cond;
    Conjunction eqs;
    for (size_t i = 0; i < step.args.size(); ++i) {
      const ArgOp& op = step.args[i];
      if (op.kind == ArgOp::kBind) {
        slots_[op.slot] = (*tuple)[i];
        continue;
      }
      CondAtom eq = Eq(op.kind == ArgOp::kConst ? op.constant : slots_[op.slot],
                       (*tuple)[i]);
      if (IsTriviallyFalse(eq)) return;
      if (!IsTriviallyTrue(eq)) eqs.Add(eq);
    }
    ConditionBackend& backend = *state_.backend;
    CondId next = backend.And(acc, row_cond);
    if (eqs.size() > 0) {
      next = backend.And(next, backend.FromConj(state_.interner->Intern(eqs)));
    }
    if (!backend.SatisfiableWith(state_.global_id, next)) {
      ++stats_.pruned_branches;  // never-on prefix: cut the subtree
      // Branches cut while deriving a magic (demand) predicate are demand
      // that can never hold.
      if (magic_head_) ++stats_.demand_pruned;
      return;
    }
    matched_[step.pos] = tuple;
    matched_cond_[step.pos] = row_cond;
    sources_[depth] = {step.pred, idx};
    Descend(depth + 1, next);
  }

  /// Enumerates `depth` and everything below it; past the last depth, emits
  /// the combination to the leaf.
  void Descend(size_t depth, CondId acc) {
    if (state_.aborted) return;
    if (depth == steps_.size()) {
      Tuple head;
      CondId cond = ConditionBackend::kTrueCond;
      CanonicalLeaf(rule_, *state_.backend, matched_, matched_cond_, &head,
                    &cond);
      leaf_(std::move(head), cond, sources_);
      return;
    }
    StepRows rows = Rows(depth);
    for (size_t k = 0; k < rows.Count() && !state_.aborted; ++k) {
      Visit(depth, rows.Id(k), acc);
    }
  }

 private:
  EvalState& state_;
  const DatalogRule& rule_;
  const std::vector<AtomStep>& steps_;
  const int delta_pos_;
  ConditionedFixpointStats& stats_;
  std::vector<TupleIndexCache>* const worker_indexes_;
  const Leaf leaf_;
  const bool magic_head_;
  std::vector<Term> slots_;
  // The matched row per *body* position (CanonicalLeaf's input) and per
  // enumeration depth (the parallel replay's sources).
  std::vector<const Tuple*> matched_;
  std::vector<CondId> matched_cond_;
  std::vector<RowRef> sources_;
  // Rows() scratch, consumed before the recursion re-enters it.
  std::vector<int> probe_cols_;
  Tuple probe_key_;
};

/// Fires one rule sequentially, inserting head derivations as they are
/// enumerated. Returns true if anything was added.
bool FireRule(EvalState& state, const RulePlan& plan, int delta_pos) {
  bool added = false;
  JoinKernel kernel(state, plan, delta_pos, state.stats, nullptr,
                    [&](Tuple head, CondId cond, const std::vector<RowRef>&) {
                      added |= Insert(state, plan.rule->head.predicate,
                                      std::move(head), cond);
                    });
  kernel.Descend(0, ConditionBackend::kTrueCond);
  return added;
}

/// Advances every predicate's delta window to the rows appended during the
/// round just finished; counts them into the stats.
void AdvanceDeltas(EvalState& state) {
  for (PredState& ps : state.preds) {
    ps.delta_begin = ps.delta_end;
    ps.delta_end = ps.rows.size();
    state.stats.delta_rows += ps.delta_end - ps.delta_begin;
  }
}

// --- Parallel semi-naive rounds ---------------------------------------------
//
// A round with num_threads > 1 splits into two phases:
//
//   *Generate* (parallel): each rule/delta-position firing's outer (delta)
//   range is sliced across the worker pool. Workers run the same
//   JoinKernel as FireRule — same join order, windows, index probes
//   (through per-worker index caches) and satisfiability cuts — but instead
//   of inserting at the leaf they record a Candidate: the order-canonical
//   (head, condition) plus the source row per enumeration depth. The round
//   state is frozen during this phase (inserts only happen in replay), so
//   workers race on nothing; the interner must be in shared mode.
//
//   *Replay* (sequential): candidates are applied through the unchanged
//   Insert in canonical order — firing order, then ascending outer ids,
//   then enumeration order — which is exactly the sequential schedule.
//
// One subtlety keeps the replayed row sequence byte-identical to the
// sequential engine rather than merely row-set-equal: sequential FireRule
// checks `alive` at *visit time*. A mid-round Insert can kill an in-window
// row; enumeration subtrees already entered through that row continue, but
// subtrees entered later skip it. Workers generated against the round-start
// flags (a superset). Replay therefore re-derives each candidate's
// admissibility from its sources: per enumeration depth it keeps the last
// liveness decision made for the current source prefix, re-evaluating from
// the first depth whose source differs from the previous candidate's —
// evaluating depth d's liveness exactly when the sequential enumeration
// would have descended into that subtree (the first candidate carrying that
// prefix), and reusing the decision for the rest of the subtree just as the
// sequential loop never re-checks it. Candidates with a dead source depth
// are dropped; the survivors are exactly the sequential insert sequence.

/// One candidate derivation: the order-canonical head row plus the source
/// row per enumeration depth it was derived through.
struct Candidate {
  Tuple head;
  CondId cond = ConditionBackend::kTrueCond;
  std::vector<RowRef> sources;
};

/// Per-worker generation state: private index caches (sharing the
/// PredState caches would race their lazy builds) and the join-side stat
/// counters, merged after the generation barrier.
struct WorkerScratch {
  std::vector<TupleIndexCache> indexes;  // one per predicate
  ConditionedFixpointStats stats;
};

/// One rule/delta-position firing of the round with its depth-0 rows.
struct Firing {
  const RulePlan* plan = nullptr;
  int delta_pos = 0;
  StepRows outer;
};

/// A contiguous chunk of one firing's outer range, the unit of work
/// stealing; `out` receives the chunk's candidates in enumeration order.
struct GenSlice {
  size_t firing = 0;
  size_t begin = 0;
  size_t end = 0;
  std::vector<Candidate> out;
};


/// The visit-time liveness protocol of the replay phase (see the section
/// comment): per-depth decisions cached against the previous candidate's
/// source prefix, re-evaluated from the first differing depth.
struct ReplayLiveness {
  std::vector<RowRef> prev;
  std::vector<char> decision;  // decision[d]: source d alive when visited

  bool Admit(const EvalState& state, const Candidate& c) {
    size_t same = 0;
    while (same < prev.size() && same < c.sources.size() &&
           prev[same] == c.sources[same]) {
      ++same;
    }
    prev.assign(c.sources.begin(), c.sources.end());
    decision.resize(c.sources.size());
    for (size_t d = same; d < c.sources.size(); ++d) {
      const auto& [pred, idx] = c.sources[d];
      decision[d] = state.preds[pred].rows[idx].alive ? 1 : 0;
    }
    for (size_t d = 0; d < c.sources.size(); ++d) {
      if (!decision[d]) return false;
    }
    return true;
  }
};

/// One sequential semi-naive round over the listed rules (in list order):
/// fires each rule once per body position whose predicate has a nonempty
/// delta window. Returns true if any row was added.
bool SequentialRound(EvalState& state, const std::vector<size_t>& rule_ids) {
  bool changed = false;
  for (size_t r : rule_ids) {
    const RulePlan& plan = state.plans[r];
    for (size_t pos = 0; pos < plan.rule->body.size() && !state.aborted;
         ++pos) {
      const PredState& ps = state.preds[plan.rule->body[pos].predicate];
      if (ps.delta_begin == ps.delta_end) continue;
      changed |= FireRule(state, plan, static_cast<int>(pos));
    }
  }
  return changed;
}

/// One parallel semi-naive round over the listed rules. Mirrors
/// SequentialRound exactly: same firing enumeration in the same order, same
/// depth-0 probe planning (counted into the same stats), with generation
/// fanned out over `pool` and a sequential replay. Returns true if any row
/// was added.
bool ParallelRound(EvalState& state, const std::vector<size_t>& rule_ids,
                   ThreadPool& pool, std::vector<WorkerScratch>& scratch) {
  std::vector<Firing> firings;
  size_t total_outer = 0;
  for (size_t r : rule_ids) {
    const RulePlan& plan = state.plans[r];
    for (size_t pos = 0; pos < plan.rule->body.size(); ++pos) {
      const PredState& ps = state.preds[plan.rule->body[pos].predicate];
      if (ps.delta_begin == ps.delta_end) continue;
      // Every firing's join order puts its delta atom at depth 0, so the
      // outer rows are the delta window (or its keyed subset, probed through
      // the shared per-predicate cache — one probe per firing, like
      // FireRule).
      Firing f{&plan, static_cast<int>(pos), {}};
      f.outer = JoinKernel(state, plan, f.delta_pos, state.stats, nullptr, {})
                    .Rows(0);
      total_outer += f.outer.Count();
      firings.push_back(std::move(f));
    }
  }

  // Slice for work stealing: enough chunks to balance skew, large enough
  // that per-slice overhead stays noise.
  std::vector<GenSlice> slices;
  size_t target = pool.num_threads() * 4;
  size_t chunk = total_outer / target + 1;
  for (size_t fi = 0; fi < firings.size(); ++fi) {
    size_t n = firings[fi].outer.Count();
    for (size_t b = 0; b < n; b += chunk) {
      slices.push_back(GenSlice{fi, b, std::min(b + chunk, n), {}});
    }
  }

  // Generation is read-only on the round state: the kernel's probes go to
  // the worker's own caches and ChargeWork is unmetered (parallel rounds
  // run without a budget).
  pool.ParallelFor(slices.size(), [&](size_t si, size_t worker) {
    GenSlice& s = slices[si];
    const Firing& f = firings[s.firing];
    JoinKernel kernel(
        state, *f.plan, f.delta_pos, scratch[worker].stats,
        &scratch[worker].indexes,
        [&s](Tuple head, CondId cond, const std::vector<RowRef>& sources) {
          s.out.push_back(Candidate{std::move(head), cond, sources});
        });
    for (size_t k = s.begin; k < s.end; ++k) {
      kernel.Visit(0, f.outer.Id(k), ConditionBackend::kTrueCond);
    }
  });
  for (WorkerScratch& ws : scratch) {
    state.stats.pruned_branches += ws.stats.pruned_branches;
    state.stats.demand_pruned += ws.stats.demand_pruned;
    state.stats.index_probes += ws.stats.index_probes;
    state.stats.index_hits += ws.stats.index_hits;
    state.stats.index_builds += ws.stats.index_builds;
    state.stats.index_extends += ws.stats.index_extends;
    ws.stats = {};
  }

  // Replay each firing's candidates (its slices concatenated, already in
  // enumeration order) through the unchanged Insert.
  bool changed = false;
  size_t si = 0;
  for (size_t fi = 0; fi < firings.size(); ++fi) {
    // The liveness cache spans one firing — one sequential FireRule call —
    // and resets across firings (a new call re-visits every row afresh).
    ReplayLiveness live;
    const int head = firings[fi].plan->rule->head.predicate;
    for (; si < slices.size() && slices[si].firing == fi; ++si) {
      for (Candidate& c : slices[si].out) {
        if (!live.Admit(state, c)) continue;
        changed |= Insert(state, head, std::move(c.head), c.cond);
      }
    }
  }
  return changed;
}

}  // namespace

struct ConditionedFixpoint::Impl {
  const DatalogProgram* program = nullptr;
  bool semi_naive = true;
  bool stratum = true;
  // Static analysis of `program` (SCC strata in topological order, dead
  // rules, cones), computed once at construction; the stratum schedule and
  // IVM both run off it.
  std::unique_ptr<ProgramAnalysis> analysis;
  // seen[scc][pred]: how many of `pred`'s rows SCC `scc`'s rules have
  // already consumed (joined against every relevant combination). The SCC's
  // delta on the next Run() is [seen, rows.size()) — the stratum-schedule
  // equivalent of the monolithic delta windows, kept per SCC because
  // different strata consume the same predicate at different times.
  // ClearPredicate resets a predicate's column.
  std::vector<std::vector<size_t>> seen;
  // The condition representation of this fixpoint's rows; state.backend
  // points here. Declared before `state` only for clarity — construction
  // wires both explicitly.
  std::unique_ptr<ConditionBackend> backend;
  EvalState state;
  // Interner size at construction: stats() reports growth since then, which
  // matches the one-shot evaluators (they intern the global condition before
  // constructing the fixpoint).
  size_t interner_baseline = 0;

  // Parallel rounds (options.num_threads > 1): the pool and per-worker
  // scratch are created lazily on the first round big enough to use them,
  // so small evaluations never pay the thread spawn. Worker index caches
  // persist across rounds — PredState stamps invalidate them after a
  // ClearPredicate exactly like the shared caches.
  int num_threads = 1;
  std::unique_ptr<ThreadPool> pool;
  std::vector<WorkerScratch> scratch;

  // A round's delta must clear this before fan-out pays for itself.
  static constexpr size_t kMinParallelDelta = 16;

  /// True (creating the pool on first use) when this round should run
  /// parallel. Checked per round: eligibility depends on the interner being
  /// in shared mode, which the caller may enable between Run() calls.
  bool UseParallelRound() {
    if (num_threads <= 1 || !semi_naive || state.max_derived_rows != 0 ||
        !state.interner->shared()) {
      return false;
    }
    size_t delta = 0;
    for (const PredState& ps : state.preds) {
      delta += ps.delta_end - ps.delta_begin;
    }
    if (delta < kMinParallelDelta) return false;
    if (pool == nullptr) {
      pool = std::make_unique<ThreadPool>(static_cast<size_t>(num_threads));
      scratch.resize(pool->num_threads());
      for (WorkerScratch& ws : scratch) {
        ws.indexes.resize(state.preds.size());
      }
    }
    return true;
  }

  /// Stratum-scheduled semi-naive evaluation: the SCCs of the predicate
  /// dependency graph run in topological order, so each stratum joins only
  /// against fully converged inputs — on conditioned data, the final
  /// antichain of the lower strata rather than intermediate conditions that
  /// later subsumption would kill. A nonrecursive stratum converges in a
  /// single pass; a recursive one runs delta rounds confined to its own
  /// rules. Rules that cannot fire this run (underivable body predicate,
  /// textual duplicates) are skipped up front. With `cone_heads` set
  /// (RunCone), rules are additionally restricted to cone heads and every
  /// window opens at 0 — the cleared predicates' derivations are gone, so
  /// each stratum re-enumerates all combinations, exactly like the
  /// monolithic RunCone. Emits the same row set as the monolithic schedule:
  /// the per-tuple antichain (or DD Or-merge) is a function of the set of
  /// derivable conditions, not of the order they arrive in, and
  /// CanonicalLeaf makes each combination's emission order-canonical.
  void StratifiedRun(const std::vector<bool>* cone_heads) {
    EvalState& st = state;
    const ProgramAnalysis& an = *analysis;
    const auto& rules = program->rules();

    // Dynamic derivability for this run: a predicate can contribute rows if
    // it is extensional, already has rows (Seed/FireGroundRules may put
    // rows anywhere), or heads a rule whose body is all-derivable. A rule
    // mentioning an underivable predicate enumerates zero combinations in
    // every round of this run — skip it without firing.
    std::vector<bool> derivable(st.preds.size());
    for (size_t p = 0; p < st.preds.size(); ++p) {
      derivable[p] = p < program->num_edb() || !st.preds[p].rows.empty();
    }
    for (bool grew = true; grew;) {
      grew = false;
      for (const DatalogRule& rule : rules) {
        if (derivable[static_cast<size_t>(rule.head.predicate)]) continue;
        bool all = true;
        for (const DatalogAtom& a : rule.body) {
          if (!derivable[static_cast<size_t>(a.predicate)]) {
            all = false;
            break;
          }
        }
        if (all) {
          derivable[static_cast<size_t>(rule.head.predicate)] = true;
          grew = true;
        }
      }
    }

    std::vector<size_t> live;
    for (int scc = 0; scc < an.num_sccs(); ++scc) {
      if (st.aborted) return;
      live.clear();
      for (size_t r : an.SccRules(scc)) {
        if (rules[r].body.empty()) continue;  // ground rules fire elsewhere
        if (cone_heads != nullptr &&
            !(*cone_heads)[static_cast<size_t>(rules[r].head.predicate)]) {
          continue;
        }
        bool dead = an.RuleDuplicate(r);
        for (const DatalogAtom& a : rules[r].body) {
          if (dead) break;
          if (!derivable[static_cast<size_t>(a.predicate)]) dead = true;
        }
        if (dead) {
          ++st.stats.dead_rules_skipped;
          continue;
        }
        live.push_back(r);
      }

      std::vector<size_t>& seen_scc = seen[static_cast<size_t>(scc)];
      if (!live.empty()) {
        // This SCC's pending delta: rows past its seen watermark (all rows
        // in cone mode — the cleared predicates' derivations are gone).
        for (size_t p = 0; p < st.preds.size(); ++p) {
          PredState& ps = st.preds[p];
          ps.delta_begin = cone_heads != nullptr ? 0 : seen_scc[p];
          ps.delta_end = ps.rows.size();
        }
        bool any_delta = false;
        for (size_t r : live) {
          for (const DatalogAtom& a : rules[r].body) {
            const PredState& ps = st.preds[static_cast<size_t>(a.predicate)];
            if (ps.delta_begin != ps.delta_end) {
              any_delta = true;
              break;
            }
          }
          if (any_delta) break;
        }
        if (any_delta) {
          ++st.stats.strata;
          if (!an.SccRecursive(scc)) {
            // Nonrecursive stratum: none of its rules read what it derives,
            // so one pass over the delta is the fixpoint.
            ++st.stats.rounds;
            if (UseParallelRound()) {
              ParallelRound(st, live, *pool, scratch);
            } else {
              SequentialRound(st, live);
            }
          } else {
            bool changed = true;
            while (changed && !st.aborted) {
              changed = false;
              ++st.stats.rounds;
              if (UseParallelRound()) {
                changed = ParallelRound(st, live, *pool, scratch);
              } else {
                changed = SequentialRound(st, live);
              }
              AdvanceDeltas(st);
            }
          }
        }
      }
      if (st.aborted) return;
      // Everything below the current row counts is consumed: this SCC's
      // body predicates live in SCCs <= scc, whose row counts are final for
      // this run once the SCC converges.
      for (size_t p = 0; p < st.preds.size(); ++p) {
        seen_scc[p] = st.preds[p].rows.size();
      }
    }
  }
};

ConditionedFixpoint::ConditionedFixpoint(const DatalogProgram& program,
                                         const DatalogCTableOptions& options)
    : impl_(std::make_unique<Impl>()) {
  impl_->program = &program;
  impl_->semi_naive = options.semi_naive;
  impl_->stratum = options.stratum_schedule;
  impl_->analysis = std::make_unique<ProgramAnalysis>(program);
  impl_->seen.assign(
      static_cast<size_t>(impl_->analysis->num_sccs()),
      std::vector<size_t>(program.num_predicates(), 0));
  EvalState& state = impl_->state;
  state.interner = options.interner != nullptr ? options.interner
                                               : &ConditionInterner::Global();
  impl_->backend =
      MakeConditionBackend(options.condition_backend, *state.interner);
  state.backend = impl_->backend.get();
  state.dd = state.backend->disjunctive();
  state.use_index = options.use_index;
  state.magic_begin = options.magic_pred_begin;
  state.max_derived_rows = options.max_derived_rows;
  state.preds.resize(program.num_predicates());
  for (const DatalogRule& rule : program.rules()) {
    state.plans.push_back(PlanRule(rule));
  }
  impl_->num_threads = options.num_threads > 1 ? options.num_threads : 1;
  impl_->interner_baseline = state.interner->num_conjunctions();
}

ConditionedFixpoint::~ConditionedFixpoint() = default;
ConditionedFixpoint::ConditionedFixpoint(ConditionedFixpoint&&) noexcept =
    default;
ConditionedFixpoint& ConditionedFixpoint::operator=(
    ConditionedFixpoint&&) noexcept = default;

ConditionInterner& ConditionedFixpoint::interner() const {
  return *impl_->state.interner;
}

ConditionBackend& ConditionedFixpoint::backend() const {
  return *impl_->backend;
}

const ProgramAnalysis& ConditionedFixpoint::analysis() const {
  return *impl_->analysis;
}

void ConditionedFixpoint::SetGlobal(ConjId global_id) {
  impl_->state.global_id = global_id;
}

bool ConditionedFixpoint::Seed(int pred, const Tuple& tuple, ConjId cond) {
  if (impl_->state.aborted) return false;
  return Insert(impl_->state, pred, tuple,
                impl_->backend->FromConj(cond));
}

void ConditionedFixpoint::SeedTable(int pred, const CTable& table) {
  EvalState& state = impl_->state;
  for (const CRow& row : table.rows()) {
    if (state.aborted) break;
    Insert(state, pred, row.tuple,
           state.backend->FromConj(row.LocalId(*state.interner)));
  }
}

void ConditionedFixpoint::FireGroundRules() {
  EvalState& state = impl_->state;
  // Empty-body rules are ground facts: the fixpoint loops only enumerate
  // rules through their body atoms, so these fire here, into the pending
  // delta.
  for (const RulePlan& plan : state.plans) {
    if (state.aborted) break;
    if (plan.rule->body.empty()) FireRule(state, plan, /*delta_pos=*/-1);
  }
}

void ConditionedFixpoint::Run() {
  EvalState& state = impl_->state;
  if (impl_->semi_naive && impl_->stratum) {
    // The stratum schedule tracks consumption per SCC as watermarks, not
    // windows: rows seeded (or ground-fired) since the last convergence sit
    // past each SCC's seen mark and become its delta when its turn comes.
    impl_->StratifiedRun(nullptr);
    return;
  }
  // Rows seeded (or ground-fired) since the last convergence sit past every
  // delta window; advancing makes them the pending delta, so a re-entered
  // run fires rules only against combinations involving the new rows.
  AdvanceDeltas(state);
  if (impl_->semi_naive) {
    std::vector<size_t> all_rules(impl_->program->rules().size());
    for (size_t r = 0; r < all_rules.size(); ++r) all_rules[r] = r;
    bool changed = true;
    while (changed && !state.aborted) {
      changed = false;
      ++state.stats.rounds;
      if (impl_->UseParallelRound()) {
        changed =
            ParallelRound(state, all_rules, *impl_->pool, impl_->scratch);
      } else {
        changed = SequentialRound(state, all_rules);
      }
      AdvanceDeltas(state);
    }
  } else {
    bool changed = true;
    while (changed && !state.aborted) {
      changed = false;
      ++state.stats.rounds;
      for (const RulePlan& plan : state.plans) {
        if (state.aborted) break;
        changed |= FireRule(state, plan, /*delta_pos=*/-1);
      }
    }
  }
}

void ConditionedFixpoint::ClearPredicate(int pred) {
  PredState& ps = impl_->state.preds[pred];
  ps.rows.clear();
  ps.by_tuple.clear();
  ps.delta_begin = 0;
  ps.delta_end = 0;
  // Dropping the entries would suffice today; the stamp bump additionally
  // guards any future path that re-creates an entry before the rows regrow
  // past their old count.
  ps.indexes.Clear();
  ++ps.stamp;
  // No stratum has consumed any of the predicate's future rows.
  for (std::vector<size_t>& seen_scc : impl_->seen) {
    seen_scc[static_cast<size_t>(pred)] = 0;
  }
}

void ConditionedFixpoint::RunCone(const std::vector<bool>& cone_heads) {
  EvalState& state = impl_->state;
  assert(cone_heads.size() == state.preds.size());
  // The cone's ground facts first: ClearPredicate dropped them along with
  // everything else, and only body atoms drive the loops below. They must
  // land BEFORE the windows are snapshotted — fired after, they would sit
  // past delta_end, and a first round that derives nothing else would exit
  // without ever advancing them into a window, losing every derivation
  // that joins through them (the next Run()'s leading AdvanceDeltas would
  // discard the pending rows).
  for (const RulePlan& plan : state.plans) {
    if (state.aborted) break;
    if (plan.rule->body.empty() && cone_heads[plan.rule->head.predicate]) {
      FireRule(state, plan, /*delta_pos=*/-1);
    }
  }
  if (impl_->semi_naive && impl_->stratum) {
    // Stratified re-derivation: same cone-head restriction, with each
    // stratum's windows opened at 0 (the cleared predicates' derivations
    // are gone, so every combination re-enumerates) in topological order.
    impl_->StratifiedRun(&cone_heads);
    return;
  }
  // Every current row becomes the pending delta: with the window at
  // [0, rows.size()), a rule's delta_pos=0 firing enumerates exactly the
  // combinations a fresh first round would (earlier-position windows are
  // empty), so cleared predicates re-derive from the surviving state.
  for (PredState& ps : state.preds) {
    ps.delta_begin = 0;
    ps.delta_end = ps.rows.size();
    state.stats.delta_rows += ps.delta_end;
  }
  // Only cone-head rules fire: the cone is closed under head-reachability,
  // so a rule with a non-cone head has no cone predicate in its body — its
  // derivations are all still present and re-firing it could add nothing.
  std::vector<size_t> cone_rules;
  for (size_t r = 0; r < impl_->program->rules().size(); ++r) {
    if (cone_heads[impl_->program->rules()[r].head.predicate]) {
      cone_rules.push_back(r);
    }
  }
  if (impl_->semi_naive) {
    bool changed = true;
    while (changed && !state.aborted) {
      changed = false;
      ++state.stats.rounds;
      if (impl_->UseParallelRound()) {
        changed =
            ParallelRound(state, cone_rules, *impl_->pool, impl_->scratch);
      } else {
        changed = SequentialRound(state, cone_rules);
      }
      AdvanceDeltas(state);
    }
  } else {
    bool changed = true;
    while (changed && !state.aborted) {
      changed = false;
      ++state.stats.rounds;
      for (const RulePlan& plan : state.plans) {
        if (state.aborted) break;
        if (!cone_heads[plan.rule->head.predicate]) continue;
        changed |= FireRule(state, plan, /*delta_pos=*/-1);
      }
    }
    AdvanceDeltas(state);
  }
}

CTable ConditionedFixpoint::Export(int pred) const {
  const EvalState& state = impl_->state;
  CTable t(impl_->program->arity(pred));
  if (state.dd) {
    // Expand each diagram condition back into satisfiable conjunctions —
    // one exported row per disjunct, the conjunctive form every downstream
    // consumer (restriction, IVM deltas, decision procedures) speaks.
    std::vector<ConjId> disjuncts;
    for (const IRow& row : state.preds[pred].rows) {
      if (!row.alive) continue;
      disjuncts.clear();
      state.backend->AppendDisjuncts(row.cond, &disjuncts);
      for (ConjId d : disjuncts) t.AddRow(*row.tuple, d, *state.interner);
    }
    return t;
  }
  for (const IRow& row : state.preds[pred].rows) {
    // Resolving through AddRow's interned overload seeds each row's id
    // cache, so downstream consumers start from the id.
    if (row.alive) t.AddRow(*row.tuple, row.cond, *state.interner);
  }
  return t;
}

size_t ConditionedFixpoint::NumLiveRows(int pred) const {
  size_t n = 0;
  for (const IRow& row : impl_->state.preds[pred].rows) {
    if (row.alive) ++n;
  }
  return n;
}

bool ConditionedFixpoint::aborted() const { return impl_->state.aborted; }

const ConditionedFixpointStats& ConditionedFixpoint::stats() const {
  impl_->state.stats.interner_conjunctions =
      impl_->state.interner->num_conjunctions() - impl_->interner_baseline;
  return impl_->state.stats;
}

CDatabase DatalogOnCTables(const DatalogProgram& program,
                           const CDatabase& database,
                           ConditionedFixpointStats* stats,
                           const DatalogCTableOptions& options) {
  ConditionInterner& interner = options.interner != nullptr
                                    ? *options.interner
                                    : ConditionInterner::Global();
  // Intern the global before constructing the fixpoint so the stats'
  // interner growth covers only the evaluation itself.
  ConjId global_id = database.CombinedGlobalId(interner);
  ConditionedFixpoint fix(program, options);
  fix.SetGlobal(global_id);

  // Seed extensional predicates with the input rows; the seeds form the
  // first delta.
  for (size_t p = 0; p < program.num_edb() && p < database.num_tables();
       ++p) {
    fix.SeedTable(static_cast<int>(p), database.table(p));
  }
  fix.FireGroundRules();
  fix.Run();

  CDatabase out;
  for (size_t p = 0; p < program.num_predicates(); ++p) {
    CTable t = fix.Export(static_cast<int>(p));
    // The carried global keeps the input's materialized form; its id cache
    // is seeded from the already-interned combined id.
    if (p == 0) {
      t.SetGlobal(database.CombinedGlobal(), global_id, interner);
    }
    out.AddTable(std::move(t));
  }
  if (stats != nullptr) *stats = fix.stats();
  return out;
}

namespace {

struct RestrictedRow {
  Tuple tuple;
  ConjId cond;
  bool alive = true;
};

/// True iff row (a_tuple, a_cond) *covers* row (b_tuple, b_cond): in every
/// world satisfying b's condition, a is present too and denotes the same
/// fact — b's condition implies a's, and forces each pair of differing
/// tuple positions equal. This generalizes the fixpoint's same-tuple
/// subsumption across tuples: the magic path derives instances whose tuples
/// carry demand values (e.g. (x,x) under x = 0) where the full path derives
/// the general row (0, x) — the instance's strictly stronger condition
/// forces the tuples to coincide, so it is redundant.
bool Covers(const Tuple& a_tuple, ConjId a_cond, const Tuple& b_tuple,
            ConjId b_cond, ConditionInterner& interner) {
  if (!interner.Implies(b_cond, a_cond)) return false;
  for (size_t i = 0; i < a_tuple.size(); ++i) {
    if (a_tuple[i] == b_tuple[i]) continue;
    CondAtom eq = Eq(a_tuple[i], b_tuple[i]);
    if (IsTriviallyFalse(eq) ||
        !interner.Implies(b_cond, interner.Intern(Conjunction{eq}))) {
      return false;
    }
  }
  return true;
}

}  // namespace

/// Rows whose tuple clashes with a bound constant are dropped, matching a
/// bound constant against a non-constant term conjoins the equality onto the
/// row's condition, rows unsatisfiable together with `global_id` are
/// dropped, every tuple term is resolved to its representative under the
/// condition's forced equalities (the interner's canonical form emits one
/// `rep = member` atom per class membership, `rep` on the left, so a bound
/// null position becomes the goal constant), and only rows not covered by
/// another row survive. Resolution plus the covering antichain make the
/// result canonical: mutually covering rows have equal condition ids and
/// therefore identical resolved tuples, so insertion order cannot matter —
/// which is exactly why the magic and full paths (and a maintained view and
/// its recomputation) restrict to *identical* row sets.
CTable RestrictTableToGoal(const CTable& table,
                           const std::vector<std::optional<ConstId>>& bindings,
                           ConjId global_id, ConditionInterner& interner) {
  std::vector<RestrictedRow> rows;

  for (const CRow& row : table.rows()) {
    ConjId cond = row.LocalId(interner);
    Tuple tuple = row.tuple;
    Conjunction eqs;
    bool mismatch = false;
    for (size_t i = 0; i < bindings.size() && i < tuple.size(); ++i) {
      if (!bindings[i].has_value()) continue;
      CondAtom eq = Eq(Term::Const(*bindings[i]), tuple[i]);
      if (IsTriviallyFalse(eq)) {
        mismatch = true;
        break;
      }
      if (!IsTriviallyTrue(eq)) eqs.Add(eq);
    }
    if (mismatch) continue;
    if (eqs.size() > 0) cond = interner.And(cond, interner.Intern(eqs));
    if (!interner.Satisfiable(interner.And(global_id, cond))) continue;
    // Resolve tuple terms through the condition's equality classes.
    for (const CondAtom& atom : interner.Resolve(cond).atoms()) {
      if (!atom.is_equality) continue;
      for (Term& t : tuple) {
        if (t == atom.rhs) t = atom.lhs;
      }
    }

    bool covered = false;
    for (const RestrictedRow& existing : rows) {
      if (existing.alive &&
          Covers(existing.tuple, existing.cond, tuple, cond, interner)) {
        covered = true;  // duplicates included: a row covers itself
        break;
      }
    }
    if (covered) continue;
    for (RestrictedRow& existing : rows) {
      if (existing.alive &&
          Covers(tuple, cond, existing.tuple, existing.cond, interner)) {
        existing.alive = false;
      }
    }
    rows.push_back(RestrictedRow{std::move(tuple), cond, true});
  }

  CTable out(table.arity());
  for (RestrictedRow& row : rows) {
    if (row.alive) out.AddRow(std::move(row.tuple), row.cond, interner);
  }
  return out;
}

CTable DatalogQueryOnCTables(const DatalogProgram& program,
                             const CDatabase& database, int goal,
                             const std::vector<std::optional<ConstId>>& bindings,
                             ConditionedFixpointStats* stats,
                             const DatalogCTableOptions& options) {
  ConditionInterner& interner = options.interner != nullptr
                                    ? *options.interner
                                    : ConditionInterner::Global();
  ConjId global_id = database.CombinedGlobalId(interner);
  ConditionedFixpointStats local;
  DatalogCTableOptions inner = options;
  CDatabase fixpoint;
  size_t goal_table;
  if (options.use_magic) {
    MagicRewriteResult rewrite = MagicRewrite(program, {goal, bindings});
    inner.magic_pred_begin = static_cast<int>(rewrite.magic_begin);
    fixpoint = DatalogOnCTables(rewrite.program, database, &local, inner);
    local.rules_adorned = rewrite.rules_adorned;
    local.magic_rules = rewrite.magic_rules;
    local.rules_pruned = rewrite.rules_pruned;
    goal_table = static_cast<size_t>(rewrite.goal_predicate);
  } else {
    inner.magic_pred_begin = -1;
    fixpoint = DatalogOnCTables(program, database, &local, inner);
    goal_table = static_cast<size_t>(goal);
  }
  CTable result = RestrictTableToGoal(fixpoint.table(goal_table), bindings,
                                      global_id, interner);
  result.SetGlobal(database.CombinedGlobal(), global_id, interner);
  if (stats != nullptr) *stats = local;
  return result;
}

}  // namespace pw
