#include "solvers/qbf.h"

#include <cassert>

namespace pw {

namespace {

/// The universal assignment as assumption literals for the full formula.
std::vector<Literal> UniversalAssumptions(const std::vector<bool>& x) {
  std::vector<Literal> assumptions;
  assumptions.reserve(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    assumptions.push_back({static_cast<int>(i), !x[i]});
  }
  return assumptions;
}

QbfResult Reject(std::string error) {
  QbfResult result;
  result.ok = false;
  result.error = std::move(error);
  return result;
}

/// CEGAR counterexample search (Janota & Marques-Silva style). An
/// abstraction solver over the universal variables proposes candidates; the
/// main solver checks each under assumptions. A witness y eliminates every
/// universal assignment it repairs: a candidate must falsify, on its
/// universal literals, some clause that y leaves unsatisfied — encoded with
/// one fresh selector variable per such clause.
QbfResult SolveByCegar(const ForallExistsCnf& instance) {
  int nx = instance.num_forall;
  const ClausalFormula& formula = instance.formula;
  QbfResult result;

  SatSolver main_solver;
  main_solver.AddFormula(formula);

  SatSolver abstraction;
  abstraction.EnsureVars(nx);

  std::vector<bool> x(nx, false);
  for (;;) {
    ++result.candidates;
    SatResult candidate = abstraction.Solve();
    if (!candidate.sat) {
      // Every universal assignment is repaired by some recorded witness.
      result.holds = true;
      return result;
    }
    for (int i = 0; i < nx; ++i) x[i] = candidate.model[i];
    std::vector<Literal> assumptions = UniversalAssumptions(x);
    SatResult check = main_solver.SolveUnderAssumptions(assumptions);
    if (!check.sat) {
      result.holds = false;
      result.counterexample = x;
      result.certificate = check.Certificate();
      return result;
    }
    // Refine: a future candidate x' must falsify (on universal literals)
    // some clause whose existential literals the witness y all misses —
    // otherwise y would repair x' too.
    Clause selector_clause;
    for (const Clause& c : formula.clauses) {
      bool witness_satisfies = false;
      for (const Literal& lit : c) {
        if (lit.var >= nx && check.model[lit.var] != lit.negated) {
          witness_satisfies = true;
          break;
        }
      }
      if (witness_satisfies) continue;
      // The witness leaves this clause to the universal variables; the
      // current candidate satisfied it there, so it has universal literals.
      int selector = abstraction.NewVar();
      bool has_universal = false;
      for (const Literal& lit : c) {
        if (lit.var >= nx) continue;
        has_universal = true;
        // selector -> the universal literal is false under the candidate.
        abstraction.AddClause(
            {Literal::Neg(selector), {lit.var, !lit.negated}});
      }
      assert(has_universal &&
             "a witness-missed clause must touch universal variables");
      (void)has_universal;
      selector_clause.push_back(Literal::Pos(selector));
    }
    if (selector_clause.empty()) {
      // The witness satisfies every clause on existential literals alone: it
      // repairs every universal assignment.
      result.holds = true;
      return result;
    }
    abstraction.AddClause(selector_clause);
    ++result.refinements;
  }
}

}  // namespace

QbfResult SolveForallExistsCertified(const ForallExistsCnf& instance) {
  if (instance.num_forall < 0 ||
      instance.num_forall > instance.formula.num_vars) {
    return Reject("malformed quantifier split: num_forall = " +
                  std::to_string(instance.num_forall) + " with " +
                  std::to_string(instance.formula.num_vars) + " variables");
  }
  return SolveByCegar(instance);
}

bool SolveForallExists(const ForallExistsCnf& instance) {
  QbfResult result = SolveForallExistsCertified(instance);
  assert(result.ok);
  return result.ok && result.holds;
}

std::optional<std::vector<bool>> FindForallCounterexample(
    const ForallExistsCnf& instance) {
  QbfResult result = SolveForallExistsCertified(instance);
  assert(result.ok);
  if (!result.ok || result.holds) return std::nullopt;
  return result.counterexample;
}

}  // namespace pw
