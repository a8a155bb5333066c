// CNF encodings of the repo's combinatorial problems — the classic NP
// reductions read in the instance-generating direction. Where colorability.h
// maps graphs into table decision problems, these map the same graphs (and
// related principles) into clausal form, producing the structured stress
// corpus for the CDCL core in solvers/sat.h: satisfiable coloring instances
// cross-validated against the backtracking solver, resolution-hard
// unsatisfiable pigeonhole instances, and propagation-heavy implication
// chains that separate watched-literal propagation from clause re-scanning.

#ifndef PW_REDUCTIONS_SAT_ENCODE_H_
#define PW_REDUCTIONS_SAT_ENCODE_H_

#include <vector>

#include "solvers/cnf.h"
#include "solvers/graph.h"

namespace pw {

/// Graph k-coloring as CNF: variable (node * k + c) means "node gets color
/// c". One at-least-one-color clause per node and one conflict clause per
/// (edge, color) pair; satisfiable iff the graph is k-colorable (at-most-one
/// constraints are unnecessary for the equivalence — see DecodeColoring).
ClausalFormula GraphColoringToCnf(const Graph& graph, int k);

/// Reads a proper coloring out of a model of GraphColoringToCnf: each node
/// takes its first asserted color. The conflict clauses guarantee adjacent
/// nodes never share an asserted color, so the result is proper.
std::vector<int> DecodeColoring(const Graph& graph, int k,
                                const std::vector<bool>& model);

/// The pigeonhole principle PHP(holes + 1, holes): variable
/// (pigeon * holes + h) means "pigeon sits in hole h"; every pigeon sits
/// somewhere, no two pigeons share a hole. Unsatisfiable for every
/// holes >= 1, with exponential-size resolution refutations — the classic
/// hard UNSAT family for clause-learning stress.
ClausalFormula PigeonholeCnf(int holes);

/// A unit-implication chain x0, x_i -> x_{i+1}, NOT x_{length-1}, with the
/// implication clauses interleaved (all even i, then all odd i) so that
/// neither the forward sweep from x0 nor the backward sweep from
/// NOT x_{length-1} matches the clause scan order. Unsatisfiable by unit
/// propagation alone: linear work for watched-literal propagation, but a
/// loop that re-scans every clause per pass advances each sweep by O(1)
/// units per pass — quadratic overall.
ClausalFormula ScrambledImplicationChainCnf(int length);

/// A satisfiable decision ladder (x_i OR x_{i+1}) for i in [0, length - 1):
/// no unit clause ever arises from the initial state, so a solver that
/// recurses per decision needs a stack frame per variable — the regression
/// shape for recursion-depth hazards.
ClausalFormula DecisionLadderCnf(int length);

}  // namespace pw

#endif  // PW_REDUCTIONS_SAT_ENCODE_H_
