#include "solvers/dnf_tautology.h"

namespace pw {

ClausalFormula DnfComplementCnf(const ClausalFormula& dnf) {
  ClausalFormula cnf;
  cnf.num_vars = dnf.num_vars;
  cnf.clauses.reserve(dnf.clauses.size());
  for (const Clause& c : dnf.clauses) {
    Clause neg;
    neg.reserve(c.size());
    for (const Literal& lit : c) neg.push_back({lit.var, !lit.negated});
    cnf.clauses.push_back(std::move(neg));
  }
  return cnf;
}

TautologyVerdict CheckDnfTautology(const ClausalFormula& formula) {
  // The empty DNF denotes "false", which the empty complement CNF (trivially
  // satisfiable) classifies correctly: not a tautology, any assignment
  // falsifies it.
  SatResult complement = SolveCnf(DnfComplementCnf(formula));
  TautologyVerdict verdict;
  if (complement.sat) {
    complement.model.resize(formula.num_vars);
    verdict.is_tautology = false;
    verdict.counterexample = complement.model;
  } else {
    verdict.is_tautology = true;
  }
  verdict.certificate = complement.Certificate();
  return verdict;
}

bool IsDnfTautology(const ClausalFormula& formula) {
  return CheckDnfTautology(formula).is_tautology;
}

std::optional<std::vector<bool>> FindDnfCounterexample(
    const ClausalFormula& formula) {
  return CheckDnfTautology(formula).counterexample;
}

}  // namespace pw
