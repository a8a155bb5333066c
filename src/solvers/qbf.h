// The forall-exists 3CNF problem (Stockmeyer): Pi-2-p-complete reference
// oracle for the containment lower bounds of Theorem 4.2.
//
// Decided by a CEGAR-style counterexample search over the universal
// assignments: an incremental abstraction solver proposes candidate
// universal assignments, the main solver checks each one under assumptions,
// and every found witness is generalized into a refinement clause that
// excludes all universal assignments the witness repairs. No 2^|X|
// enumeration is involved, so instances with any number of universals are
// accepted. When a counterexample is found it ships with a checkable UNSAT
// certificate (solvers/proof.h) for the restricted formula.

#ifndef PW_SOLVERS_QBF_H_
#define PW_SOLVERS_QBF_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "solvers/proof.h"
#include "solvers/sat.h"

namespace pw {

struct QbfResult {
  /// false when the instance was rejected outright (malformed quantifier
  /// split); `error` then says why and no other field is meaningful.
  bool ok = true;
  std::string error;

  /// The verdict: does every universal assignment admit a satisfying
  /// existential extension?
  bool holds = false;
  /// When !holds: a universal assignment with no satisfying extension.
  std::optional<std::vector<bool>> counterexample;
  /// When !holds: an UNSAT proof for the formula under the counterexample,
  /// checkable via CheckUnsatProof with the universal literals as
  /// assumptions.
  SatCertificate certificate;

  /// Search effort: candidate universal assignments tried, and refinement
  /// clauses added.
  int64_t candidates = 0;
  int64_t refinements = 0;
};

/// Full result with certificate and stats.
QbfResult SolveForallExistsCertified(const ForallExistsCnf& instance);

/// Decides: for every assignment of the universal variables, is there an
/// assignment of the existential variables satisfying the CNF?
bool SolveForallExists(const ForallExistsCnf& instance);

/// If the instance is false, returns a universal assignment with no
/// satisfying existential extension.
std::optional<std::vector<bool>> FindForallCounterexample(
    const ForallExistsCnf& instance);

}  // namespace pw

#endif  // PW_SOLVERS_QBF_H_
