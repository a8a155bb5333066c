// N-ary join planning for the Imielinski–Lipski algebra.
//
// A conjunctive query over c-tables arrives as a tree of selections,
// projections and binary products in some arbitrary written shape —
// `select(product(product(a, b), c))`, nested selections, selections above
// projections of products, `RaExpr::Join` chains. All of them denote the
// same thing: an n-way join with a conjunctive predicate and an output
// projection. This layer normalizes that shape and plans its execution:
//
//   1. *Flatten* the maximal select*/project* prefix over the n-ary product
//      tree into (leaves, conjunct set, output spec): leaves are the
//      subtrees the flattening treats as atomic (relation refs, constant
//      relations, unions, differences), conjuncts are every selection atom
//      rebased to the concatenated leaf coordinate space (atoms written
//      against a projection are composed through it), and the output spec
//      is the root's generalized projection over those coordinates.
//   2. *Partition* the conjuncts: an atom whose columns sit inside one leaf
//      becomes a pushdown filter applied to that leaf's rows before any
//      pairing; a cross-leaf column equality becomes a hash-join key;
//      everything else (cross-leaf inequalities, constant-only atoms) is a
//      residual applied per emitted combination.
//   3. *Order* the n-way join greedily at execution time, when the live
//      (post-pushdown) cardinalities are known: seed with the smallest leaf
//      touched by a join key, then repeatedly join the smallest leaf
//      connected to the joined set (falling back to the smallest remaining
//      leaf — a cartesian step — when a component is exhausted). Each step
//      indexes the new leaf on its key columns and probes it with the
//      partial combinations.
//   4. *Sink projections*: intermediate state is row-id combinations, so a
//      leaf column not needed by a join key, a conjunct, or the output spec
//      is never materialized above its leaf (`JoinPlan::needed`).
//
// Execution (ilalgebra/ctable_eval.cc) must stay output-*identical* to the
// nested-loop evaluation of the original tree — same rows, same order, and
// on the plain path byte-identical local conditions. Two facts make that
// reachable despite the reordering: the nested loops enumerate surviving
// leaf-row combinations in lexicographic order of the leaf-id vector (each
// product iterates its left side outer), so sorting the planned
// combinations by that vector restores the order; and the local condition
// of a combination is a deterministic in-order traversal of the tree — leaf
// locals and instantiated selection atoms in tree order — which
// `JoinPlan::replay` records so the executor can rebuild it exactly. The
// join machinery itself is pure candidate pruning: it only skips
// combinations the selection would have dropped on a trivially-false ground
// atom (or, interned, an unsatisfiable condition).

#ifndef PW_ILALGEBRA_JOIN_PLAN_H_
#define PW_ILALGEBRA_JOIN_PLAN_H_

#include <cstddef>
#include <vector>

#include "core/term.h"
#include "core/tuple.h"
#include "ra/expr.h"

namespace pw {

/// One leaf of a flattened prefix: a subtree the flattening treats as
/// atomic. `base` is the leaf's first column in the concatenated coordinate
/// space of all leaves (leaf order is the tree's left-to-right order).
struct JoinLeaf {
  RaExpr expr;
  int base = 0;
  int arity = 0;
};

/// Where a conjunct of the normalized selection acts.
enum class ConjunctKind {
  kConstant,  // references no leaf column: decided once per plan
  kPushdown,  // columns of exactly one leaf: a per-leaf pre-filter
  kJoinKey,   // cross-leaf column equality: a hash-join key
  kResidual,  // any other cross-leaf atom: applied per combination
};

/// One atom of the normalized conjunct set, in concatenated coordinates.
struct JoinConjunct {
  SelectAtom atom;
  ConjunctKind kind = ConjunctKind::kResidual;
  std::vector<int> leaves;  // distinct leaves referenced, ascending
};

/// One event of the exact-output replay: the in-order tree traversal that
/// rebuilds a combination's local condition — leaf locals and instantiated
/// selection atoms in exactly the order the nested loops conjoin them.
struct ReplayEvent {
  enum Kind { kLeafLocal, kAtom };
  Kind kind = kLeafLocal;
  int leaf = 0;      // kLeafLocal: which leaf's local condition
  SelectAtom atom;   // kAtom: concatenated coordinates
};

struct JoinPlanOptions {
  /// Collapse the flattening at the first product: its two operands stay
  /// atomic leaves, whatever they are — the PR 3 binary-fusion shape, kept
  /// as a benchmarking baseline for the n-ary planner. Leaves that are
  /// themselves select/product subtrees re-enter the planner when they are
  /// evaluated, so binary fusion still recurses into product subtrees.
  bool binary_only = false;
};

/// A normalized, partitioned n-way join. `fused` is false when the shape is
/// not worth planning (fewer than two leaves, or no cross-leaf equi-join
/// key); everything else is meaningful only when `fused`.
struct JoinPlan {
  bool fused = false;
  std::vector<JoinLeaf> leaves;
  int total_width = 0;                  // sum of leaf arities
  std::vector<int> col_leaf;            // concatenated column -> leaf index
  std::vector<ColOrConst> outputs;      // output spec, concatenated coords
  std::vector<JoinConjunct> conjuncts;  // normalized selection, tree order
  std::vector<ReplayEvent> replay;      // in-order traversal of the prefix
  // Per leaf: its pushdown conjuncts rebased to leaf-local coordinates.
  std::vector<std::vector<SelectAtom>> pushdown;
  // Concatenated columns needed above the leaves (by a key, a conjunct, or
  // the output spec); a column with needed[c] == false is sunk — it never
  // appears in intermediate state.
  std::vector<bool> needed;
  // Plan-shape counters, consumed by CTableEvalStats.
  size_t conjuncts_pushed = 0;   // kPushdown + kConstant conjuncts
  size_t projections_sunk = 0;   // columns with needed[c] == false
};

/// Flattens and partitions the select*/project*/product prefix rooted at
/// `expr`. Returns fused == false when `expr` is not a select/project/
/// product node, flattens to fewer than two leaves, or yields no cross-leaf
/// equi-join key (a pure product stays a nested loop).
JoinPlan PlanJoin(const RaExpr& expr, const JoinPlanOptions& options = {});

/// One step of the greedy join order. `steps[0]` is the seed (no key; its
/// `conjuncts` are the plan's constant conjuncts); every later step joins
/// `leaf` to the set of already-joined leaves, probing an index of the
/// leaf's rows on `build_cols` with keys drawn from the partial
/// combination's `probe_cols` (aligned pairwise; empty for a cartesian
/// step), then applies `conjuncts` — every not-yet-applied conjunct whose
/// leaves are now all joined, join keys included (their instantiation emits
/// the condition atoms a variable match requires).
struct JoinStep {
  int leaf = 0;
  std::vector<int> probe_cols;  // concatenated coords, already-joined side
  std::vector<int> build_cols;  // leaf-local coords, aligned to probe_cols
  std::vector<int> conjuncts;   // indices into JoinPlan::conjuncts
};

/// Orders the join greedily given the live (post-pushdown) row count of
/// each leaf: seed = smallest leaf incident to a join key, then repeatedly
/// the smallest leaf connected to the joined set (smallest remaining leaf,
/// as a cartesian step, when no connected one is left). Deterministic:
/// ties break toward the lower leaf index.
std::vector<JoinStep> OrderJoinSteps(const JoinPlan& plan,
                                     const std::vector<size_t>& leaf_rows);

}  // namespace pw

#endif  // PW_ILALGEBRA_JOIN_PLAN_H_
