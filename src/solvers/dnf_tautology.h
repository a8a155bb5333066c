// 3DNF tautology — the coNP-complete problem behind Theorems 3.2(3,4),
// 4.2(4) and 5.3(2). Decided as UNSAT of the complementary CNF; verdicts
// come with a certificate over that complement (an UNSAT proof when the DNF
// is a tautology, a falsifying model otherwise) that the independent checker
// in solvers/proof.h re-verifies.

#ifndef PW_SOLVERS_DNF_TAUTOLOGY_H_
#define PW_SOLVERS_DNF_TAUTOLOGY_H_

#include <optional>
#include <vector>

#include "solvers/proof.h"
#include "solvers/sat.h"

namespace pw {

/// A tautology verdict with its evidence.
struct TautologyVerdict {
  bool is_tautology = false;
  /// Engaged when !is_tautology: an assignment falsifying every conjunct.
  std::optional<std::vector<bool>> counterexample;
  /// Certificate over DnfComplementCnf(dnf): an UNSAT proof when
  /// is_tautology, the falsifying model otherwise. Verify with
  /// VerifyCertificate(DnfComplementCnf(dnf), {}, certificate).
  SatCertificate certificate;
};

/// The complement of a DNF is the CNF with every literal negated:
/// NOT (OR_i AND_j l_ij)  ==  AND_i OR_j NOT l_ij. Exposed so callers can
/// re-verify tautology certificates independently.
ClausalFormula DnfComplementCnf(const ClausalFormula& dnf);

/// Decides whether the DNF `formula` (OR of ANDed clauses) is a tautology
/// and attaches the checkable certificate.
TautologyVerdict CheckDnfTautology(const ClausalFormula& formula);

/// Decides whether the DNF `formula` (OR of ANDed clauses) is a tautology.
bool IsDnfTautology(const ClausalFormula& formula);

/// If the DNF is not a tautology, returns a falsifying assignment.
std::optional<std::vector<bool>> FindDnfCounterexample(
    const ClausalFormula& formula);

}  // namespace pw

#endif  // PW_SOLVERS_DNF_TAUTOLOGY_H_
