// Unit tests for the magic-set demand transformation (datalog/magic.h) and
// the query-directed conditioned evaluation it powers
// (DatalogQueryOnCTables): binding-pattern propagation, predicate naming,
// recursive and mutually-recursive programs, condition flow into magic
// facts, and the demand counters.

#include "datalog/magic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "datalog/eval.h"
#include "ilalgebra/datalog_ctable.h"
#include "tables/valuation.h"
#include "tables/world_enum.h"
#include "test_util.h"

namespace pw {
namespace {

using Bindings = std::vector<std::optional<ConstId>>;

/// Rows rendered as "tuple :: interned-id", sorted — the comparison key for
/// "same tuples, interned-id-identical conditions, up to row order".
std::vector<std::string> RowsWithIds(const CTable& t) {
  ConditionInterner& interner = ConditionInterner::Global();
  std::vector<std::string> out;
  for (const CRow& row : t.rows()) {
    out.push_back(ToString(row.tuple) + " :: " +
                  std::to_string(row.LocalId(interner)));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The adorned entry for `original`+`adornment`, or nullptr.
const AdornedPredicate* FindAdorned(const MagicRewriteResult& rewrite,
                                    int original, Adornment adornment) {
  for (const AdornedPredicate& ap : rewrite.adorned) {
    if (ap.original == original && ap.adornment == adornment) return &ap;
  }
  return nullptr;
}

/// tc(x,y) :- e(x,y).  tc(x,z) :- tc(x,y), e(y,z).
DatalogProgram TransitiveClosure() {
  DatalogProgram p({2, 2}, 1);
  DatalogRule base;
  base.head = {1, Tuple{V(100), V(101)}};
  base.body = {{0, Tuple{V(100), V(101)}}};
  p.AddRule(base);
  DatalogRule step;
  step.head = {1, Tuple{V(100), V(102)}};
  step.body = {{1, Tuple{V(100), V(101)}}, {0, Tuple{V(101), V(102)}}};
  p.AddRule(step);
  return p;
}

TEST(AdornmentTest, StringAndGoalMask) {
  EXPECT_EQ(ToAdornmentString(0b01, 2), "bf");
  EXPECT_EQ(ToAdornmentString(0b10, 2), "fb");
  EXPECT_EQ(ToAdornmentString(0, 3), "fff");
  EXPECT_EQ(ToAdornmentString(0b111, 3), "bbb");

  DatalogGoal goal{1, {ConstId{4}, std::nullopt}};
  EXPECT_EQ(goal.adornment(), Adornment{1});
  DatalogGoal free_goal{1, {std::nullopt, std::nullopt}};
  EXPECT_EQ(free_goal.adornment(), Adornment{0});
}

TEST(MagicRewriteTest, BindingPatternPropagatesLeftToRight) {
  // q(x,z) :- e(x,y), p(y,z).   p(x,y) :- e(x,y).
  // Goal q#bf: after the e atom, y is bound, so p is demanded as p#bf.
  DatalogProgram program({2, 2, 2}, 1);  // e=0, p=1, q=2
  DatalogRule q_rule;
  q_rule.head = {2, Tuple{V(100), V(102)}};
  q_rule.body = {{0, Tuple{V(100), V(101)}}, {1, Tuple{V(101), V(102)}}};
  program.AddRule(q_rule);
  DatalogRule p_rule;
  p_rule.head = {1, Tuple{V(100), V(101)}};
  p_rule.body = {{0, Tuple{V(100), V(101)}}};
  program.AddRule(p_rule);

  MagicRewriteResult rewrite =
      MagicRewrite(program, {2, Bindings{ConstId{1}, std::nullopt}});
  EXPECT_EQ(rewrite.program.Validate(), "") << rewrite.ToString();

  ASSERT_EQ(rewrite.adorned.size(), 2u);
  EXPECT_EQ(rewrite.adorned[0].original, 2);  // the goal pair comes first
  EXPECT_EQ(rewrite.adorned[0].adornment, Adornment{1});
  EXPECT_EQ(rewrite.adorned[0].adorned, rewrite.goal_predicate);
  const AdornedPredicate* p_bf = FindAdorned(rewrite, 1, Adornment{1});
  ASSERT_NE(p_bf, nullptr);  // p demanded with its first position bound
  EXPECT_EQ(rewrite.program.arity(p_bf->magic), 1);

  // Guarded rules for q#bf and p#bf, demand rules m.p#bf and the seed.
  EXPECT_EQ(rewrite.rules_adorned, 2u);
  EXPECT_EQ(rewrite.magic_rules, 2u);
  EXPECT_EQ(rewrite.program.rules().size(), 4u);

  // The seed is the goal's bound constant.
  bool found_seed = false;
  for (const DatalogRule& rule : rewrite.program.rules()) {
    if (rule.body.empty()) {
      found_seed = true;
      EXPECT_EQ(rule.head.predicate, rewrite.adorned[0].magic);
      EXPECT_EQ(rule.head.args, Tuple{C(1)});
    }
  }
  EXPECT_TRUE(found_seed) << rewrite.ToString();
}

TEST(MagicRewriteTest, DistinctAdornmentsGetDistinctPredicatesAndNames) {
  // q(x,y) :- p(x,w), p(v,y): the first p atom is demanded bf, the second
  // ff — the same predicate under two adornments must map to two adorned
  // predicates and two magic predicates, with no name collision.
  DatalogProgram program({2, 2, 2}, 1);  // e=0, p=1, q=2
  DatalogRule q_rule;
  q_rule.head = {2, Tuple{V(100), V(101)}};
  q_rule.body = {{1, Tuple{V(100), V(102)}}, {1, Tuple{V(103), V(101)}}};
  program.AddRule(q_rule);
  DatalogRule p_rule;
  p_rule.head = {1, Tuple{V(100), V(101)}};
  p_rule.body = {{0, Tuple{V(100), V(101)}}};
  program.AddRule(p_rule);

  MagicRewriteResult rewrite =
      MagicRewrite(program, {2, Bindings{ConstId{0}, std::nullopt}});
  EXPECT_EQ(rewrite.program.Validate(), "") << rewrite.ToString();

  const AdornedPredicate* p_bf = FindAdorned(rewrite, 1, Adornment{1});
  const AdornedPredicate* p_ff = FindAdorned(rewrite, 1, Adornment{0});
  ASSERT_NE(p_bf, nullptr);
  ASSERT_NE(p_ff, nullptr);
  EXPECT_NE(p_bf->adorned, p_ff->adorned);
  EXPECT_NE(p_bf->magic, p_ff->magic);
  EXPECT_EQ(rewrite.program.arity(p_bf->magic), 1);
  EXPECT_EQ(rewrite.program.arity(p_ff->magic), 0);  // no bound positions

  std::set<std::string> distinct(rewrite.names.begin(), rewrite.names.end());
  EXPECT_EQ(distinct.size(), rewrite.names.size())
      << "predicate name collision";
  EXPECT_EQ(rewrite.names[static_cast<size_t>(p_bf->adorned)], "P1#bf");
  EXPECT_EQ(rewrite.names[static_cast<size_t>(p_bf->magic)], "m.P1#bf");
  EXPECT_EQ(rewrite.names[static_cast<size_t>(p_ff->magic)], "m.P1#ff");
}

TEST(MagicRewriteTest, DemandStaysBoundGate) {
  DatalogProgram tc = TransitiveClosure();
  // tc#bf keeps the first position bound through the recursion; tc#fb
  // leaves the recursive body atom all-free (left-to-right SIPS cannot use
  // a bound second position), which is the degenerate shape speculative
  // callers must decline.
  EXPECT_TRUE(DemandStaysBound(tc, {1, Bindings{ConstId{0}, std::nullopt}}));
  EXPECT_FALSE(DemandStaysBound(tc, {1, Bindings{std::nullopt, ConstId{0}}}));
  EXPECT_FALSE(
      DemandStaysBound(tc, {1, Bindings{std::nullopt, std::nullopt}}));
  // Extensional goals need no demand at all.
  EXPECT_TRUE(DemandStaysBound(tc, {0, Bindings{std::nullopt, std::nullopt}}));
}

TEST(MagicRewriteTest, ExtensionalGoalNeedsNoRules) {
  DatalogProgram program = TransitiveClosure();
  MagicRewriteResult rewrite =
      MagicRewrite(program, {0, Bindings{ConstId{1}, std::nullopt}});
  EXPECT_EQ(rewrite.program.Validate(), "");
  EXPECT_TRUE(rewrite.program.rules().empty());
  EXPECT_EQ(rewrite.goal_predicate, 0);
  EXPECT_EQ(rewrite.magic_begin, program.num_predicates());
}

/// Magic and full paths of DatalogQueryOnCTables must return identical row
/// sets (same tuples, interned-id-identical conditions).
void ExpectMagicMatchesFull(const DatalogProgram& program, const CDatabase& db,
                            int goal, const Bindings& bindings) {
  DatalogCTableOptions magic;
  DatalogCTableOptions full;
  full.use_magic = false;
  ConditionedFixpointStats magic_stats;
  ConditionedFixpointStats full_stats;
  CTable via_magic =
      DatalogQueryOnCTables(program, db, goal, bindings, &magic_stats, magic);
  CTable via_full =
      DatalogQueryOnCTables(program, db, goal, bindings, &full_stats, full);
  EXPECT_EQ(RowsWithIds(via_magic), RowsWithIds(via_full))
      << program.ToString() << db.ToString();
  EXPECT_EQ(via_magic.global(), via_full.global());
  EXPECT_EQ(full_stats.magic_facts, 0u);
  EXPECT_EQ(full_stats.rules_adorned, 0u);
}

TEST(DatalogQueryTest, RecursiveTransitiveClosurePointQuery) {
  DatalogProgram tc = TransitiveClosure();
  CTable e(2);
  for (int i = 0; i < 6; ++i) e.AddRow(Tuple{C(i), C(i + 1)});
  CDatabase db{e};

  Bindings bindings{ConstId{0}, std::nullopt};
  ConditionedFixpointStats magic_stats;
  CTable result =
      DatalogQueryOnCTables(tc, db, 1, bindings, &magic_stats);

  // Exactly the reachability set of node 0, all unconditioned.
  ASSERT_EQ(result.num_rows(), 6u);
  std::vector<std::string> got = RowsWithIds(result);
  std::vector<std::string> expected;
  for (int j = 1; j <= 6; ++j) {
    expected.push_back(ToString(Tuple{C(0), C(j)}) + " :: " +
                       std::to_string(ConditionInterner::kTrueConj));
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(got, expected);

  // Demand counters are visible and the demand run derives strictly less.
  EXPECT_EQ(magic_stats.rules_adorned, 2u);
  EXPECT_GT(magic_stats.magic_facts, 0u);
  ConditionedFixpointStats full_stats;
  DatalogCTableOptions full;
  full.use_magic = false;
  DatalogQueryOnCTables(tc, db, 1, bindings, &full_stats, full);
  EXPECT_LT(magic_stats.derived_rows, full_stats.derived_rows);

  ExpectMagicMatchesFull(tc, db, 1, bindings);
  // Binding the *second* position instead exercises adornment fb.
  ExpectMagicMatchesFull(tc, db, 1, Bindings{std::nullopt, ConstId{6}});
  // A fully bound goal and a fully free goal.
  ExpectMagicMatchesFull(tc, db, 1, Bindings{ConstId{2}, ConstId{5}});
  ExpectMagicMatchesFull(tc, db, 1, Bindings{std::nullopt, std::nullopt});
}

TEST(DatalogQueryTest, MutuallyRecursiveProgram) {
  // p(x,y) :- e(x,y).   p(x,z) :- e(x,y), r(y,z).
  // r(x,z) :- e(x,y), p(y,z).
  DatalogProgram program({2, 2, 2}, 1);  // e=0, p=1, r=2
  DatalogRule base;
  base.head = {1, Tuple{V(100), V(101)}};
  base.body = {{0, Tuple{V(100), V(101)}}};
  program.AddRule(base);
  DatalogRule p_step;
  p_step.head = {1, Tuple{V(100), V(102)}};
  p_step.body = {{0, Tuple{V(100), V(101)}}, {2, Tuple{V(101), V(102)}}};
  program.AddRule(p_step);
  DatalogRule r_step;
  r_step.head = {2, Tuple{V(100), V(102)}};
  r_step.body = {{0, Tuple{V(100), V(101)}}, {1, Tuple{V(101), V(102)}}};
  program.AddRule(r_step);
  ASSERT_EQ(program.Validate(), "");

  MagicRewriteResult rewrite =
      MagicRewrite(program, {1, Bindings{ConstId{0}, std::nullopt}});
  EXPECT_EQ(rewrite.program.Validate(), "") << rewrite.ToString();
  EXPECT_NE(FindAdorned(rewrite, 1, Adornment{1}), nullptr);
  EXPECT_NE(FindAdorned(rewrite, 2, Adornment{1}), nullptr);

  CTable e(2);
  for (int i = 0; i < 5; ++i) e.AddRow(Tuple{C(i), C(i + 1)});
  e.AddRow(Tuple{C(2), V(0)});  // a null edge: conditions join the party
  CDatabase db{e};
  ExpectMagicMatchesFull(program, db, 1, {ConstId{0}, std::nullopt});
  ExpectMagicMatchesFull(program, db, 2, {ConstId{1}, std::nullopt});
  ExpectMagicMatchesFull(program, db, 1, {std::nullopt, ConstId{4}});
}

TEST(DatalogQueryTest, ConditionsFlowIntoMagicFacts) {
  // q(x,z) :- e(x,y), p(y,z).   p(y,z) :- f(y,z).
  // Goal q(1,_): demand for p's first position flows through e's row
  // (1, x0), whose local condition must ride along on the magic fact.
  DatalogProgram program({2, 2, 2, 2}, 2);  // e=0, f=1, p=2, q=3
  DatalogRule q_rule;
  q_rule.head = {3, Tuple{V(100), V(102)}};
  q_rule.body = {{0, Tuple{V(100), V(101)}}, {2, Tuple{V(101), V(102)}}};
  program.AddRule(q_rule);
  DatalogRule p_rule;
  p_rule.head = {2, Tuple{V(100), V(101)}};
  p_rule.body = {{1, Tuple{V(100), V(101)}}};
  program.AddRule(p_rule);

  CTable e(2);
  e.AddRow(Tuple{C(1), V(0)}, Conjunction{Neq(V(0), C(5))});
  CTable f(2);
  f.AddRow(Tuple{C(2), C(3)});
  CDatabase db(std::vector<CTable>{e, f});

  MagicRewriteResult rewrite =
      MagicRewrite(program, {3, Bindings{ConstId{1}, std::nullopt}});
  const AdornedPredicate* p_bf = FindAdorned(rewrite, 2, Adornment{1});
  ASSERT_NE(p_bf, nullptr);

  DatalogCTableOptions options;
  options.magic_pred_begin = static_cast<int>(rewrite.magic_begin);
  ConditionedFixpointStats stats;
  CDatabase fixpoint =
      DatalogOnCTables(rewrite.program, db, &stats, options);

  // The demand fact for p#bf is the null x0, carrying e's row condition.
  ConditionInterner& interner = ConditionInterner::Global();
  const CTable& magic_p = fixpoint.table(static_cast<size_t>(p_bf->magic));
  ASSERT_EQ(magic_p.num_rows(), 1u);
  EXPECT_EQ(magic_p.row(0).tuple, Tuple{V(0)});
  EXPECT_EQ(magic_p.row(0).LocalId(interner),
            interner.Intern(Conjunction{Neq(V(0), C(5))}));
  EXPECT_GT(stats.magic_facts, 0u);

  ExpectMagicMatchesFull(program, db, 3, {ConstId{1}, std::nullopt});
}

TEST(DatalogQueryTest, UnsatisfiableDemandIsPruned) {
  // Goal q(3,_) over e = {(x0, x1)} with global x0 != 3: the only demand
  // for p's bound position carries x0 = 3, contradicting the global — it
  // must be pruned before any guarded body fires, and the goal is empty.
  DatalogProgram program({2, 2, 2}, 1);  // e=0, p=1, q=2
  DatalogRule q_rule;
  q_rule.head = {2, Tuple{V(100), V(102)}};
  q_rule.body = {{0, Tuple{V(100), V(101)}}, {1, Tuple{V(101), V(102)}}};
  program.AddRule(q_rule);
  DatalogRule p_rule;
  p_rule.head = {1, Tuple{V(100), V(101)}};
  p_rule.body = {{0, Tuple{V(100), V(101)}}};
  program.AddRule(p_rule);

  CTable e(2);
  e.AddRow(Tuple{V(0), V(1)});
  e.SetGlobal(Conjunction{Neq(V(0), C(3))});
  CDatabase db{e};

  ConditionedFixpointStats stats;
  CTable result = DatalogQueryOnCTables(program, db, 2,
                                        {ConstId{3}, std::nullopt}, &stats);
  EXPECT_EQ(result.num_rows(), 0u);
  EXPECT_GT(stats.demand_pruned, 0u);
  ExpectMagicMatchesFull(program, db, 2, {ConstId{3}, std::nullopt});
}

TEST(DatalogQueryTest, BoundNullPositionsAreSubstituted) {
  // e = {(x0, 2)}; goal q(1,_) with q(x,y) :- e(x,y): the answer is (1,2)
  // under the recorded equality x0 = 1 — on both paths, id-identically.
  DatalogProgram program({2, 2}, 1);
  DatalogRule rule;
  rule.head = {1, Tuple{V(100), V(101)}};
  rule.body = {{0, Tuple{V(100), V(101)}}};
  program.AddRule(rule);

  CTable e(2);
  e.AddRow(Tuple{V(0), C(2)});
  CDatabase db{e};

  ConditionInterner& interner = ConditionInterner::Global();
  CTable result =
      DatalogQueryOnCTables(program, db, 1, {ConstId{1}, std::nullopt});
  ASSERT_EQ(result.num_rows(), 1u);
  EXPECT_EQ(result.row(0).tuple, (Tuple{C(1), C(2)}));
  EXPECT_EQ(result.row(0).LocalId(interner),
            interner.Intern(Conjunction{Eq(V(0), C(1))}));
  ExpectMagicMatchesFull(program, db, 1, {ConstId{1}, std::nullopt});
}

TEST(DatalogQueryTest, ExtensionalGoalIsRestrictedInput) {
  CTable e(2);
  e.AddRow(Tuple{C(1), C(2)});
  e.AddRow(Tuple{C(3), V(0)});
  e.AddRow(Tuple{V(1), C(4)}, Conjunction{Neq(V(1), C(2))});
  CDatabase db{e};
  DatalogProgram tc = TransitiveClosure();

  CTable result =
      DatalogQueryOnCTables(tc, db, 0, {ConstId{1}, std::nullopt});
  // Row 0 matches outright; row 1 clashes (3 != 1); row 2 matches under
  // x1 = 1.
  ConditionInterner& interner = ConditionInterner::Global();
  ASSERT_EQ(result.num_rows(), 2u);
  EXPECT_EQ(result.row(0).tuple, (Tuple{C(1), C(2)}));
  EXPECT_EQ(result.row(1).tuple, (Tuple{C(1), C(4)}));
  EXPECT_EQ(result.row(1).LocalId(interner),
            interner.Intern(Conjunction{Neq(V(1), C(2)), Eq(V(1), C(1))}));
  ExpectMagicMatchesFull(tc, db, 0, {ConstId{1}, std::nullopt});
}

TEST(DatalogQueryTest, DerivationBudgetStopsEarlyAndIsReported) {
  DatalogProgram tc = TransitiveClosure();
  CTable e(2);
  for (int i = 0; i < 8; ++i) e.AddRow(Tuple{C(i), C(i + 1)});
  CDatabase db{e};

  DatalogCTableOptions capped;
  capped.max_derived_rows = 10;
  ConditionedFixpointStats stats;
  CDatabase out = DatalogOnCTables(tc, db, &stats, capped);
  EXPECT_TRUE(stats.budget_exhausted);
  EXPECT_LE(stats.derived_rows, 10u);

  // Unlimited (the default) never reports exhaustion.
  ConditionedFixpointStats full_stats;
  DatalogOnCTables(tc, db, &full_stats);
  EXPECT_FALSE(full_stats.budget_exhausted);
  EXPECT_GT(full_stats.derived_rows, 10u);
}

TEST(DatalogQueryTest, RestrictionKeepsTheWeakestConditionsPerTuple) {
  // Two e rows restrict to the same goal tuple with comparable conditions:
  // only the weaker one survives, exactly like the fixpoint's antichain.
  CTable e(1);
  e.AddRow(Tuple{V(0)}, Conjunction{Eq(V(0), C(1)), Neq(V(1), C(2))});
  e.AddRow(Tuple{C(1)});
  CDatabase db{e};
  DatalogProgram program({1, 1}, 1);
  DatalogRule rule;
  rule.head = {1, Tuple{V(100)}};
  rule.body = {{0, Tuple{V(100)}}};
  program.AddRule(rule);

  CTable result = DatalogQueryOnCTables(program, db, 1, {ConstId{1}});
  ASSERT_EQ(result.num_rows(), 1u);
  EXPECT_EQ(result.row(0).tuple, Tuple{C(1)});
  EXPECT_EQ(result.row(0).local().size(), 0u);  // the unconditioned row wins
  ExpectMagicMatchesFull(program, db, 1, {ConstId{1}});
}

TEST(DatalogQueryTest, MagicJoinWorkStaysNearTheFullFixpoint) {
  // The conditioned TC of the end-to-end benchmark's view workload, at 60
  // nodes. With the delta on its recursive atom, the guarded rule
  // tc#bf(X,Y) :- m.tc#bf(X), edge(X,Z), tc#bf(Z,Y) must bind X through
  // edge before probing the magic guard. Enumerating the rest in body order
  // scanned the guard unkeyed: 23x, 32x and 49x the full fixpoint's join
  // work (index hits plus pruned branches) for these sources, against 5-8x
  // cost-ordered. Sources with little ground demand that still reach the
  // null (35, 45) do 18x and 11x: their work is dominated by the wildcard
  // demand row m.tc#bf(?x), which matches every keyed probe of the guard
  // under an ?x = c condition — a cost of demand on a null, not of the join
  // order.
  DatalogProgram tc = testutil::RightRecursiveTc();
  CDatabase db = testutil::NullRoutedDag(60);
  DatalogCTableOptions full;
  full.use_magic = false;
  for (ConstId s : {0, 15, 20}) {
    ConditionedFixpointStats magic_stats;
    ConditionedFixpointStats full_stats;
    CTable via_magic =
        DatalogQueryOnCTables(tc, db, 1, {s, std::nullopt}, &magic_stats);
    CTable via_full = DatalogQueryOnCTables(tc, db, 1, {s, std::nullopt},
                                            &full_stats, full);
    EXPECT_EQ(RowsWithIds(via_magic), RowsWithIds(via_full)) << "source " << s;
    size_t magic_work = magic_stats.index_hits + magic_stats.pruned_branches;
    size_t full_work = full_stats.index_hits + full_stats.pruned_branches;
    EXPECT_LE(magic_work, 10 * full_work)
        << "source " << s << ": magic " << magic_work << ", full "
        << full_work;

    // Per world: the answer is the DATALOG fixpoint's tc(s, _) facts.
    ForEachSatisfyingValuation(db, {}, [&](const Valuation& v) {
      Instance fix = SemiNaiveEval(tc, v.Apply(db));
      Relation expected(2);
      for (const Fact& f : fix.relation(1)) {
        if (f[0] == s) expected.Insert(f);
      }
      EXPECT_EQ(v.Apply(via_magic), expected)
          << "source " << s << " in world " << v.ToString();
      return true;
    });
  }
}

}  // namespace
}  // namespace pw
