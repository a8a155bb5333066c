#include "ilalgebra/join_plan.h"

#include <algorithm>
#include <utility>

namespace pw {

namespace {

struct FlattenState {
  std::vector<JoinLeaf> leaves;
  std::vector<ReplayEvent> events;
  int width = 0;
  bool binary_only = false;
};

/// Registers `expr` as an atomic leaf and returns its identity output view.
std::vector<ColOrConst> MakeLeaf(const RaExpr& expr, FlattenState& s) {
  int base = s.width;
  int arity = expr.arity();
  s.leaves.push_back(JoinLeaf{expr, base, arity});
  s.width += arity;
  ReplayEvent e;
  e.kind = ReplayEvent::kLeafLocal;
  e.leaf = static_cast<int>(s.leaves.size()) - 1;
  s.events.push_back(std::move(e));
  std::vector<ColOrConst> view;
  view.reserve(arity);
  for (int c = 0; c < arity; ++c) view.push_back(ColOrConst::Col(base + c));
  return view;
}

/// Flattens one node, returning its *output view*: one ColOrConst per
/// output column, in concatenated leaf coordinates. Selection atoms are
/// composed through the view of their input (so atoms written against a
/// projection land on the underlying leaf columns, or collapse to the
/// constants the projection emits) and appended to the replay in tree
/// order; leaves are registered left to right.
std::vector<ColOrConst> FlattenNode(const RaExpr& expr, FlattenState& s) {
  switch (expr.op()) {
    case RaOp::kProject: {
      std::vector<ColOrConst> in = FlattenNode(expr.input(), s);
      std::vector<ColOrConst> out;
      out.reserve(expr.outputs().size());
      for (const ColOrConst& o : expr.outputs()) {
        out.push_back(o.is_column ? in[o.column] : o);
      }
      return out;
    }
    case RaOp::kSelect: {
      std::vector<ColOrConst> in = FlattenNode(expr.input(), s);
      for (const SelectAtom& a : expr.atoms()) {
        ReplayEvent e;
        e.kind = ReplayEvent::kAtom;
        e.atom = a;
        if (a.lhs.is_column) e.atom.lhs = in[a.lhs.column];
        if (a.rhs.is_column) e.atom.rhs = in[a.rhs.column];
        s.events.push_back(std::move(e));
      }
      return in;
    }
    case RaOp::kProduct: {
      std::vector<ColOrConst> left =
          s.binary_only ? MakeLeaf(expr.left(), s)
                        : FlattenNode(expr.left(), s);
      std::vector<ColOrConst> right =
          s.binary_only ? MakeLeaf(expr.right(), s)
                        : FlattenNode(expr.right(), s);
      left.insert(left.end(), right.begin(), right.end());
      return left;
    }
    default:
      return MakeLeaf(expr, s);
  }
}

/// The distinct leaves a conjunct's columns touch, ascending.
std::vector<int> LeavesOf(const SelectAtom& a, const std::vector<int>& col_leaf) {
  std::vector<int> out;
  if (a.lhs.is_column) out.push_back(col_leaf[a.lhs.column]);
  if (a.rhs.is_column) out.push_back(col_leaf[a.rhs.column]);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

JoinPlan PlanJoin(const RaExpr& expr, const JoinPlanOptions& options) {
  JoinPlan plan;
  RaOp op = expr.op();
  if (op != RaOp::kSelect && op != RaOp::kProject && op != RaOp::kProduct) {
    return plan;
  }
  FlattenState s;
  s.binary_only = options.binary_only;
  plan.outputs = FlattenNode(expr, s);
  plan.leaves = std::move(s.leaves);
  plan.replay = std::move(s.events);
  plan.total_width = s.width;
  if (plan.leaves.size() < 2) return plan;

  plan.col_leaf.resize(plan.total_width);
  for (size_t k = 0; k < plan.leaves.size(); ++k) {
    const JoinLeaf& leaf = plan.leaves[k];
    for (int c = 0; c < leaf.arity; ++c) {
      plan.col_leaf[leaf.base + c] = static_cast<int>(k);
    }
  }

  plan.pushdown.resize(plan.leaves.size());
  bool any_key = false;
  for (const ReplayEvent& e : plan.replay) {
    if (e.kind != ReplayEvent::kAtom) continue;
    JoinConjunct c;
    c.atom = e.atom;
    c.leaves = LeavesOf(e.atom, plan.col_leaf);
    if (c.leaves.empty()) {
      c.kind = ConjunctKind::kConstant;
      ++plan.conjuncts_pushed;
    } else if (c.leaves.size() == 1) {
      c.kind = ConjunctKind::kPushdown;
      ++plan.conjuncts_pushed;
      int base = plan.leaves[c.leaves[0]].base;
      SelectAtom local = e.atom;
      if (local.lhs.is_column) local.lhs.column -= base;
      if (local.rhs.is_column) local.rhs.column -= base;
      plan.pushdown[c.leaves[0]].push_back(local);
    } else if (e.atom.is_equality && e.atom.lhs.is_column &&
               e.atom.rhs.is_column) {
      c.kind = ConjunctKind::kJoinKey;
      any_key = true;
    } else {
      c.kind = ConjunctKind::kResidual;
    }
    plan.conjuncts.push_back(std::move(c));
  }
  if (!any_key) return plan;  // a pure product stays a nested loop
  plan.fused = true;

  plan.needed.assign(plan.total_width, false);
  auto need = [&plan](const ColOrConst& o) {
    if (o.is_column) plan.needed[o.column] = true;
  };
  for (const ColOrConst& o : plan.outputs) need(o);
  for (const JoinConjunct& c : plan.conjuncts) {
    need(c.atom.lhs);
    need(c.atom.rhs);
  }
  for (bool n : plan.needed) {
    if (!n) ++plan.projections_sunk;
  }
  return plan;
}

std::vector<JoinStep> OrderJoinSteps(const JoinPlan& plan,
                                     const std::vector<size_t>& leaf_rows) {
  const size_t n = plan.leaves.size();
  std::vector<bool> joined(n, false);
  std::vector<bool> applied(plan.conjuncts.size(), false);

  // Leaves incident to at least one join key — seed candidates.
  std::vector<bool> incident(n, false);
  for (const JoinConjunct& c : plan.conjuncts) {
    if (c.kind == ConjunctKind::kJoinKey) {
      for (int k : c.leaves) incident[k] = true;
    }
  }
  int seed = -1;
  for (size_t k = 0; k < n; ++k) {
    if (incident[k] && (seed < 0 || leaf_rows[k] < leaf_rows[seed])) {
      seed = static_cast<int>(k);
    }
  }

  std::vector<JoinStep> steps;
  steps.reserve(n);
  JoinStep first;
  first.leaf = seed;
  for (size_t i = 0; i < plan.conjuncts.size(); ++i) {
    ConjunctKind kind = plan.conjuncts[i].kind;
    // Pushdown conjuncts are leaf pre-filters, never step work; constant
    // conjuncts are decided once, at the seed.
    if (kind == ConjunctKind::kPushdown) applied[i] = true;
    if (kind == ConjunctKind::kConstant) {
      applied[i] = true;
      first.conjuncts.push_back(static_cast<int>(i));
    }
  }
  joined[seed] = true;
  steps.push_back(std::move(first));

  for (size_t round = 1; round < n; ++round) {
    int best = -1;
    bool best_connected = false;
    for (size_t k = 0; k < n; ++k) {
      if (joined[k]) continue;
      bool connected = false;
      for (const JoinConjunct& c : plan.conjuncts) {
        if (c.kind != ConjunctKind::kJoinKey || c.leaves.size() != 2) {
          continue;
        }
        int a = c.leaves[0];
        int b = c.leaves[1];
        if ((a == static_cast<int>(k) && joined[b]) ||
            (b == static_cast<int>(k) && joined[a])) {
          connected = true;
          break;
        }
      }
      if (best < 0 || connected > best_connected ||
          (connected == best_connected &&
           leaf_rows[k] < leaf_rows[best])) {
        best = static_cast<int>(k);
        best_connected = connected;
      }
    }
    JoinStep step;
    step.leaf = best;
    int base = plan.leaves[best].base;
    for (size_t i = 0; i < plan.conjuncts.size(); ++i) {
      if (applied[i]) continue;
      const JoinConjunct& c = plan.conjuncts[i];
      bool all_joined = true;
      for (int k : c.leaves) {
        if (k != best && !joined[k]) {
          all_joined = false;
          break;
        }
      }
      if (!all_joined) continue;
      applied[i] = true;
      step.conjuncts.push_back(static_cast<int>(i));
      if (c.kind == ConjunctKind::kJoinKey) {
        // One side in the new leaf, one in the joined set: a probe/build
        // column pair. (Both sides in the new leaf would be a pushdown.)
        bool lhs_new = plan.col_leaf[c.atom.lhs.column] == best;
        const ColOrConst& build = lhs_new ? c.atom.lhs : c.atom.rhs;
        const ColOrConst& probe = lhs_new ? c.atom.rhs : c.atom.lhs;
        step.probe_cols.push_back(probe.column);
        step.build_cols.push_back(build.column - base);
      }
    }
    joined[best] = true;
    steps.push_back(std::move(step));
  }
  return steps;
}

}  // namespace pw
