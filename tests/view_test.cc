// Tests for the View abstraction, the world-CSP helpers and per-fact
// certainty.

#include <gtest/gtest.h>

#include <memory>

#include "condition/backend.h"
#include "condition/interner.h"
#include "decision/certainty.h"
#include "decision/view.h"
#include "decision/world_csp.h"
#include "tables/ctable.h"

namespace pw {
namespace {

/// Is `fact` missing from some world of the one-table database `t`?
bool MissingSomewhere(const CTable& t, const Fact& fact) {
  ConditionInterner interner;
  std::unique_ptr<ConditionBackend> backend =
      MakeConditionBackend(ConditionBackendKind::kDefault, interner);
  return !CertainFactInTable(t, fact, t.GlobalId(interner), *backend);
}

TEST(ViewTest, IdentityEval) {
  Instance i({Relation(1, {{1}})});
  EXPECT_EQ(View::Identity().Eval(i), i);
  EXPECT_TRUE(View::Identity().is_identity());
  EXPECT_TRUE(View::Identity().IsPositiveExistential());
}

TEST(ViewTest, RaEvalAndFragment) {
  View q = View::Ra({RaExpr::ProjectCols(RaExpr::Rel(0, 2), {1})});
  Instance i({Relation(2, {{1, 2}, {3, 4}})});
  EXPECT_EQ(q.Eval(i).relation(0), Relation(1, {{2}, {4}}));
  EXPECT_TRUE(q.IsPositiveExistential());
  View diff = View::Ra(
      {RaExpr::Diff(RaExpr::Rel(0, 1), RaExpr::ConstRel(Relation(1, {{1}})))});
  EXPECT_FALSE(diff.IsPositiveExistential(/*allow_neq=*/true));
}

TEST(ViewTest, DatalogEvalProjectsOutputs) {
  DatalogProgram p({1, 1}, 1);
  DatalogRule copy;
  copy.head = {1, Tuple{V(0)}};
  copy.body = {{0, Tuple{V(0)}}};
  p.AddRule(copy);
  View q = View::Datalog(p, {1});
  Instance i({Relation(1, {{7}})});
  Instance out = q.Eval(i);
  EXPECT_EQ(out.num_relations(), 1u);
  EXPECT_EQ(out.relation(0), Relation(1, {{7}}));
  EXPECT_FALSE(q.IsPositiveExistential());
}

TEST(ViewTest, ConstantsCollected) {
  View q = View::Ra({RaExpr::Project(
      RaExpr::Select(RaExpr::Rel(0, 2),
                     {SelectAtom::Eq(ColOrConst::Col(0),
                                     ColOrConst::Const(42))}),
      {ColOrConst::Const(7)})});
  EXPECT_EQ(q.Constants(), (std::vector<ConstId>{7, 42}));
  EXPECT_TRUE(View::Identity().Constants().empty());

  DatalogProgram p({1, 1}, 1);
  DatalogRule r;
  r.head = {1, Tuple{V(0)}};
  r.body = {{0, Tuple{V(0)}}, {0, Tuple{C(9)}}};
  p.AddRule(r);
  EXPECT_EQ(View::Datalog(p, {1}).Constants(), (std::vector<ConstId>{9}));
}

TEST(ViewTest, ConstRelConstantsCollected) {
  View q = View::Ra({RaExpr::ConstRel(Relation(1, {{5}, {6}}))});
  EXPECT_EQ(q.Constants(), (std::vector<ConstId>{5, 6}));
}

TEST(WorldCspTest, ExistsWorldOtherThanDetectsExtraFact) {
  // Row (x): every singleton is a world, so another world always exists.
  CTable t(1);
  t.AddRow(Tuple{V(0)});
  EXPECT_TRUE(
      ExistsWorldOtherThan(CDatabase{t}, Instance({Relation(1, {{1}})})));
}

TEST(WorldCspTest, ExistsWorldOtherThanGroundSingleton) {
  CTable t(1);
  t.AddRow(Tuple{C(1)});
  EXPECT_FALSE(
      ExistsWorldOtherThan(CDatabase{t}, Instance({Relation(1, {{1}})})));
  EXPECT_TRUE(
      ExistsWorldOtherThan(CDatabase{t}, Instance({Relation(1, {{2}})})));
}

TEST(WorldCspTest, ExistsWorldOtherThanViaMissingFact) {
  // Row (1) :: u = 1: the empty world differs from {(1)}.
  CTable t(1);
  t.AddRow(Tuple{C(1)}, Conjunction{Eq(V(0), C(1))});
  EXPECT_TRUE(
      ExistsWorldOtherThan(CDatabase{t}, Instance({Relation(1, {{1}})})));
}

TEST(WorldCspTest, ShapeMismatchCountsAsDifferent) {
  CTable t(1);
  t.AddRow(Tuple{C(1)});
  EXPECT_TRUE(ExistsWorldOtherThan(CDatabase{t}, Instance({Relation(2)})));
  EXPECT_TRUE(ExistsWorldOtherThan(CDatabase{t}, Instance({})));
}

TEST(WorldCspTest, MissingFactBasics) {
  CTable t(1);
  t.AddRow(Tuple{C(1)});
  t.AddRow(Tuple{V(0)}, Conjunction{Neq(V(0), C(2))});
  // (1) is produced by the ground row in every world.
  EXPECT_FALSE(MissingSomewhere(t, Fact{1}));
  // (3) is missed whenever x != 3.
  EXPECT_TRUE(MissingSomewhere(t, Fact{3}));
  // (2): the conditioned row can never produce it (x != 2), and the ground
  // row is 1 — always missing.
  EXPECT_TRUE(MissingSomewhere(t, Fact{2}));
}

TEST(WorldCspTest, MissingFactEmptyRep) {
  CTable t(1);
  t.AddRow(Tuple{C(1)});
  t.SetGlobal(Conjunction{FalseAtom()});
  EXPECT_FALSE(MissingSomewhere(t, Fact{2}));
}

TEST(WorldCspTest, MissingFactForcedCoverThroughGlobal) {
  // Row (x) with global x = 4: (4) never missing, (5) always missing.
  CTable t(1);
  t.AddRow(Tuple{V(0)});
  t.SetGlobal(Conjunction{Eq(V(0), C(4))});
  EXPECT_FALSE(MissingSomewhere(t, Fact{4}));
  EXPECT_TRUE(MissingSomewhere(t, Fact{5}));
}

}  // namespace
}  // namespace pw
