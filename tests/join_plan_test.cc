// Tests for the n-ary join planner (ilalgebra/join_plan.h): prefix
// flattening over the shapes the binary fusion of PR 3 missed (nested
// selections, selections above projections of products, products of three
// or more relations), conjunct partitioning, projection sinking and the
// greedy step order.

#include <gtest/gtest.h>

#include <vector>

#include "ilalgebra/join_plan.h"
#include "ra/expr.h"
#include "test_util.h"

namespace pw {
namespace {

RaExpr TwoRelProduct() {
  return RaExpr::Product(RaExpr::Rel(0, 2), RaExpr::Rel(1, 2));
}

SelectAtom EqCols(int l, int r) {
  return SelectAtom::Eq(ColOrConst::Col(l), ColOrConst::Col(r));
}

TEST(JoinPlanTest, SelectOverProductFuses) {
  RaExpr q = RaExpr::Select(TwoRelProduct(), {EqCols(1, 2)});
  JoinPlan plan = PlanJoin(q);
  ASSERT_TRUE(plan.fused);
  ASSERT_EQ(plan.leaves.size(), 2u);
  EXPECT_EQ(plan.leaves[0].base, 0);
  EXPECT_EQ(plan.leaves[1].base, 2);
  EXPECT_EQ(plan.total_width, 4);
  ASSERT_EQ(plan.conjuncts.size(), 1u);
  EXPECT_EQ(plan.conjuncts[0].kind, ConjunctKind::kJoinKey);
  // Identity outputs: nothing above the select reshapes columns.
  ASSERT_EQ(plan.outputs.size(), 4u);
  EXPECT_EQ(plan.outputs[3], ColOrConst::Col(3));
}

TEST(JoinPlanTest, NestedSelectionsFlattenIntoOnePlan) {
  // select(select(product)) — the PR 3 shape-matcher bailed on this and
  // fell back to the nested loop; the planner flattens both levels.
  RaExpr inner = RaExpr::Select(TwoRelProduct(), {EqCols(1, 2)});
  RaExpr q = RaExpr::Select(
      inner, {SelectAtom::Eq(ColOrConst::Col(0), ColOrConst::Const(1))});
  JoinPlan plan = PlanJoin(q);
  ASSERT_TRUE(plan.fused);
  ASSERT_EQ(plan.conjuncts.size(), 2u);
  // Inner atoms precede outer atoms in tree order.
  EXPECT_EQ(plan.conjuncts[0].kind, ConjunctKind::kJoinKey);
  EXPECT_EQ(plan.conjuncts[1].kind, ConjunctKind::kPushdown);
  ASSERT_EQ(plan.pushdown[0].size(), 1u);
  EXPECT_EQ(plan.conjuncts_pushed, 1u);
}

TEST(JoinPlanTest, SelectAboveProjectionOfProductFuses) {
  // The selection is written against the projected columns; the planner
  // composes it through the projection back onto the leaf columns.
  RaExpr proj = RaExpr::ProjectCols(TwoRelProduct(), {3, 0});
  RaExpr q = RaExpr::Select(proj, {EqCols(0, 1)});  // proj.0 = proj.1
  JoinPlan plan = PlanJoin(q);
  ASSERT_TRUE(plan.fused);
  ASSERT_EQ(plan.conjuncts.size(), 1u);
  const SelectAtom& a = plan.conjuncts[0].atom;
  EXPECT_EQ(a.lhs, ColOrConst::Col(3));  // composed through the projection
  EXPECT_EQ(a.rhs, ColOrConst::Col(0));
  EXPECT_EQ(plan.conjuncts[0].kind, ConjunctKind::kJoinKey);
  // The output spec is the projection, not the identity.
  ASSERT_EQ(plan.outputs.size(), 2u);
  EXPECT_EQ(plan.outputs[0], ColOrConst::Col(3));
  EXPECT_EQ(plan.outputs[1], ColOrConst::Col(0));
  // Columns 1 and 2 feed neither a conjunct nor the output: sunk.
  EXPECT_EQ(plan.projections_sunk, 2u);
  EXPECT_FALSE(plan.needed[1]);
  EXPECT_FALSE(plan.needed[2]);
}

TEST(JoinPlanTest, ProjectionEmittingConstantCollapsesAtoms) {
  // An atom against a projected-out constant column becomes a constant (or
  // half-constant) conjunct, not a column reference.
  RaExpr proj = RaExpr::Project(
      RaExpr::Rel(0, 2), {ColOrConst::Col(0), ColOrConst::Const(7)});
  RaExpr q = RaExpr::Select(RaExpr::Product(proj, RaExpr::Rel(1, 2)),
                            {EqCols(0, 2), EqCols(1, 3)});
  JoinPlan plan = PlanJoin(q);
  ASSERT_TRUE(plan.fused);
  ASSERT_EQ(plan.conjuncts.size(), 2u);
  EXPECT_EQ(plan.conjuncts[0].kind, ConjunctKind::kJoinKey);
  // proj.1 is the constant 7: the atom is a one-leaf filter on leaf 1.
  EXPECT_EQ(plan.conjuncts[1].kind, ConjunctKind::kPushdown);
  EXPECT_EQ(plan.conjuncts[1].atom.lhs, ColOrConst::Const(7));
  ASSERT_EQ(plan.pushdown[1].size(), 1u);
  // Rebased to leaf-local coordinates.
  EXPECT_EQ(plan.pushdown[1][0].rhs, ColOrConst::Col(1));
}

TEST(JoinPlanTest, TernaryProductFlattensToThreeLeaves) {
  // product(product(a, b), c) — the binary fusion never fused this shape.
  RaExpr prod =
      RaExpr::Product(TwoRelProduct(), RaExpr::Rel(2, 2));
  RaExpr q = RaExpr::Select(prod, {EqCols(1, 2), EqCols(3, 4)});
  JoinPlan plan = PlanJoin(q);
  ASSERT_TRUE(plan.fused);
  ASSERT_EQ(plan.leaves.size(), 3u);
  EXPECT_EQ(plan.leaves[2].base, 4);
  EXPECT_EQ(plan.total_width, 6);
  ASSERT_EQ(plan.conjuncts.size(), 2u);
  EXPECT_EQ(plan.conjuncts[0].leaves, (std::vector<int>{0, 1}));
  EXPECT_EQ(plan.conjuncts[1].leaves, (std::vector<int>{1, 2}));
}

TEST(JoinPlanTest, CrossLeafInequalityIsResidual) {
  RaExpr q = RaExpr::Select(
      TwoRelProduct(),
      {EqCols(0, 2), SelectAtom::Neq(ColOrConst::Col(1), ColOrConst::Col(3))});
  JoinPlan plan = PlanJoin(q);
  ASSERT_TRUE(plan.fused);
  EXPECT_EQ(plan.conjuncts[0].kind, ConjunctKind::kJoinKey);
  EXPECT_EQ(plan.conjuncts[1].kind, ConjunctKind::kResidual);
}

TEST(JoinPlanTest, PureProductDoesNotFuse) {
  EXPECT_FALSE(PlanJoin(TwoRelProduct()).fused);
  // One-leaf prefixes don't fuse either.
  RaExpr sel = RaExpr::Select(
      RaExpr::Rel(0, 2),
      {SelectAtom::Eq(ColOrConst::Col(0), ColOrConst::Const(1))});
  EXPECT_FALSE(PlanJoin(sel).fused);
  // A product whose only atoms are one-leaf filters has no key: no fuse.
  RaExpr filtered = RaExpr::Select(
      TwoRelProduct(),
      {SelectAtom::Eq(ColOrConst::Col(0), ColOrConst::Const(1))});
  EXPECT_FALSE(PlanJoin(filtered).fused);
}

TEST(JoinPlanTest, ReplayEventsFollowTreeOrder) {
  // product(select(a, f_a), b) then an outer select: the replay must
  // interleave leaf locals and atoms exactly as the nested loops conjoin
  // them — a's local, f_a, b's local, outer atom.
  RaExpr left = RaExpr::Select(
      RaExpr::Rel(0, 2),
      {SelectAtom::Eq(ColOrConst::Col(0), ColOrConst::Const(1))});
  RaExpr q =
      RaExpr::Select(RaExpr::Product(left, RaExpr::Rel(1, 2)), {EqCols(1, 2)});
  JoinPlan plan = PlanJoin(q);
  ASSERT_TRUE(plan.fused);
  ASSERT_EQ(plan.replay.size(), 4u);
  EXPECT_EQ(plan.replay[0].kind, ReplayEvent::kLeafLocal);
  EXPECT_EQ(plan.replay[0].leaf, 0);
  EXPECT_EQ(plan.replay[1].kind, ReplayEvent::kAtom);
  EXPECT_EQ(plan.replay[2].kind, ReplayEvent::kLeafLocal);
  EXPECT_EQ(plan.replay[2].leaf, 1);
  EXPECT_EQ(plan.replay[3].kind, ReplayEvent::kAtom);
}

TEST(JoinPlanTest, BinaryOnlyCollapsesAtFirstProduct) {
  // In the PR 3 baseline mode the product operands stay atomic leaves,
  // whatever their shape; the prefix above still flattens.
  RaExpr inner = RaExpr::Select(TwoRelProduct(), {EqCols(1, 2)});
  RaExpr q = RaExpr::Select(RaExpr::Product(inner, RaExpr::Rel(2, 2)),
                            {EqCols(3, 4)});
  JoinPlanOptions binary;
  binary.binary_only = true;
  JoinPlan plan = PlanJoin(q, binary);
  ASSERT_TRUE(plan.fused);
  ASSERT_EQ(plan.leaves.size(), 2u);
  EXPECT_EQ(plan.leaves[0].expr.op(), RaOp::kSelect);  // subtree, unflattened
  EXPECT_EQ(plan.leaves[0].arity, 4);
  EXPECT_EQ(plan.leaves[1].expr.op(), RaOp::kRel);
  // The full planner sees three leaves in the same tree.
  EXPECT_EQ(PlanJoin(q).leaves.size(), 3u);
}

TEST(JoinPlanTest, GreedyOrderSeedsSmallestAndPrefersConnected) {
  // Chain a(0) - b(1) - c(2): sizes force the seed to c, then the order
  // must stay connected (b before a).
  RaExpr prod = RaExpr::Product(TwoRelProduct(), RaExpr::Rel(2, 2));
  RaExpr q = RaExpr::Select(prod, {EqCols(1, 2), EqCols(3, 4)});
  JoinPlan plan = PlanJoin(q);
  ASSERT_TRUE(plan.fused);
  std::vector<JoinStep> steps = OrderJoinSteps(plan, {100, 50, 1});
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0].leaf, 2);
  EXPECT_TRUE(steps[0].probe_cols.empty());
  EXPECT_EQ(steps[1].leaf, 1);  // connected to c via cols 3=4
  ASSERT_EQ(steps[1].probe_cols.size(), 1u);
  EXPECT_EQ(steps[1].probe_cols[0], 4);   // joined side (leaf c)
  EXPECT_EQ(steps[1].build_cols[0], 1);   // leaf-local column of b
  EXPECT_EQ(steps[2].leaf, 0);
  EXPECT_EQ(steps[2].probe_cols[0], 2);
  EXPECT_EQ(steps[2].build_cols[0], 1);
}

TEST(JoinPlanTest, GreedyOrderFallsBackToCartesianAcrossComponents) {
  // Keys a-b only; c is disconnected and must join as a cartesian step.
  RaExpr prod = RaExpr::Product(TwoRelProduct(), RaExpr::Rel(2, 2));
  RaExpr q = RaExpr::Select(prod, {EqCols(1, 2)});
  JoinPlan plan = PlanJoin(q);
  ASSERT_TRUE(plan.fused);
  std::vector<JoinStep> steps = OrderJoinSteps(plan, {10, 20, 1});
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0].leaf, 0);  // smallest *incident* leaf, not c
  EXPECT_EQ(steps[1].leaf, 1);  // connected beats the smaller cartesian c
  EXPECT_FALSE(steps[1].build_cols.empty());
  EXPECT_EQ(steps[2].leaf, 2);
  EXPECT_TRUE(steps[2].build_cols.empty());  // cartesian
}

TEST(JoinPlanTest, EveryConjunctIsAppliedExactlyOnce) {
  RaExpr prod = RaExpr::Product(TwoRelProduct(), RaExpr::Rel(2, 2));
  RaExpr q = RaExpr::Select(
      prod, {EqCols(1, 2), EqCols(3, 4),
             SelectAtom::Neq(ColOrConst::Col(0), ColOrConst::Col(5)),
             SelectAtom::Eq(ColOrConst::Col(4), ColOrConst::Const(3))});
  JoinPlan plan = PlanJoin(q);
  ASSERT_TRUE(plan.fused);
  std::vector<JoinStep> steps = OrderJoinSteps(plan, {3, 3, 3});
  std::vector<int> seen(plan.conjuncts.size(), 0);
  for (const JoinStep& s : steps) {
    for (int ci : s.conjuncts) ++seen[ci];
  }
  for (size_t i = 0; i < plan.conjuncts.size(); ++i) {
    bool step_work = plan.conjuncts[i].kind == ConjunctKind::kJoinKey ||
                     plan.conjuncts[i].kind == ConjunctKind::kResidual;
    EXPECT_EQ(seen[i], step_work ? 1 : 0) << "conjunct " << i;
  }
}

}  // namespace
}  // namespace pw
