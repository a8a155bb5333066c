#include "solvers/sat.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace pw {

namespace {

// Literals are encoded as 2 * var + (negated ? 1 : 0) so a literal and its
// negation differ in the lowest bit.
inline int EncodeLit(int var, bool negated) { return 2 * var + (negated ? 1 : 0); }
inline int EncodeLit(const Literal& lit) { return EncodeLit(lit.var, lit.negated); }
inline int VarOf(int lit) { return lit >> 1; }
inline int NegLit(int lit) { return lit ^ 1; }
inline Literal DecodeLit(int lit) { return {lit >> 1, (lit & 1) != 0}; }

// Assignment values; chosen so LitValue is an xor away from the var value.
constexpr int8_t kTrue = 0;
constexpr int8_t kFalse = 1;
constexpr int8_t kUnassigned = 2;

constexpr int kNoClause = -1;

/// VSIDS variable-activity decay per conflict.
constexpr double kVarDecay = 0.95;
/// Base restart interval in conflicts; scaled by the Luby sequence.
constexpr int64_t kLubyBase = 64;

/// The i-th element (0-based) of the Luby restart sequence 1,1,2,1,1,2,4,...
int64_t Luby(int64_t i) {
  int64_t size = 1;
  int64_t seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i %= size;
  }
  return int64_t{1} << seq;
}

/// Indexed binary max-heap over variable activities: the VSIDS pick-branch
/// order. Variables re-enter on backtrack, sift up on activity bumps.
class VarHeap {
 public:
  void Grow(int num_vars, const std::vector<double>& activity) {
    while (static_cast<int>(pos_.size()) < num_vars) {
      pos_.push_back(-1);
      Insert(static_cast<int>(pos_.size()) - 1, activity);
    }
  }

  bool Contains(int var) const { return pos_[var] >= 0; }
  bool Empty() const { return heap_.empty(); }

  void Insert(int var, const std::vector<double>& activity) {
    if (Contains(var)) return;
    pos_[var] = static_cast<int>(heap_.size());
    heap_.push_back(var);
    SiftUp(pos_[var], activity);
  }

  int PopMax(const std::vector<double>& activity) {
    int top = heap_[0];
    int last = heap_.back();
    heap_.pop_back();
    pos_[top] = -1;
    if (!heap_.empty()) {
      heap_[0] = last;
      pos_[last] = 0;
      SiftDown(0, activity);
    }
    return top;
  }

  void Increased(int var, const std::vector<double>& activity) {
    if (Contains(var)) SiftUp(pos_[var], activity);
  }

 private:
  void SiftUp(int i, const std::vector<double>& activity) {
    int var = heap_[i];
    while (i > 0) {
      int parent = (i - 1) / 2;
      if (activity[heap_[parent]] >= activity[var]) break;
      heap_[i] = heap_[parent];
      pos_[heap_[i]] = i;
      i = parent;
    }
    heap_[i] = var;
    pos_[var] = i;
  }

  void SiftDown(int i, const std::vector<double>& activity) {
    int var = heap_[i];
    for (;;) {
      int child = 2 * i + 1;
      if (child >= static_cast<int>(heap_.size())) break;
      if (child + 1 < static_cast<int>(heap_.size()) &&
          activity[heap_[child + 1]] > activity[heap_[child]]) {
        ++child;
      }
      if (activity[heap_[child]] <= activity[var]) break;
      heap_[i] = heap_[child];
      pos_[heap_[i]] = i;
      i = child;
    }
    heap_[i] = var;
    pos_[var] = i;
  }

  std::vector<int> heap_;
  std::vector<int> pos_;
};

/// PW_CHECK_CERTIFICATES=1 makes every solver answer re-verify its own
/// certificate through the independent checker before returning (the
/// sanitizer CI lane sets it), turning a solver bug into an immediate abort
/// instead of a wrong verdict downstream.
bool CertificateCheckingForced() {
  static const bool forced = [] {
    const char* value = std::getenv("PW_CHECK_CERTIFICATES");
    return value != nullptr && *value != '\0' && *value != '0';
  }();
  return forced;
}

[[noreturn]] void DieSelfCheck(const char* what, const std::string& detail) {
  std::fprintf(stderr, "SatSolver self-check failed: %s%s%s\n", what,
               detail.empty() ? "" : ": ", detail.c_str());
  std::abort();
}

}  // namespace

struct SatSolver::Impl {
  struct Cls {
    std::vector<int> lits;  // lits[0] and lits[1] are watched
    bool learned = false;
  };

  struct Watch {
    int clause = kNoClause;
    int blocker = 0;  // a literal whose truth satisfies the clause
  };

  int num_vars = 0;
  bool ok = true;  // false once an empty clause / root conflict is derived

  std::vector<Cls> clauses;
  std::vector<Clause> originals;  // pristine input clauses, for verification
  std::vector<std::vector<Watch>> watches;  // literal -> watching clauses

  std::vector<int8_t> assigns;  // per var: kTrue / kFalse / kUnassigned
  std::vector<int> levels;      // per var: decision level of the assignment
  std::vector<int> reasons;     // per var: antecedent clause or kNoClause
  std::vector<int8_t> phase;    // per var: saved polarity (kTrue / kFalse)
  std::vector<int> trail;       // assigned literals in order
  std::vector<size_t> trail_lim;
  size_t qhead = 0;

  std::vector<double> activity;
  double var_inc = 1.0;
  VarHeap order;
  std::vector<int8_t> seen;  // analyze scratch

  DratProof log;  // every learned clause, in derivation order
  SatStats stats;

  int CurrentLevel() const { return static_cast<int>(trail_lim.size()); }

  int8_t LitValue(int lit) const {
    int8_t value = assigns[VarOf(lit)];
    return value == kUnassigned ? kUnassigned
                                : static_cast<int8_t>(value ^ (lit & 1));
  }

  void EnsureVars(int n) {
    if (n <= num_vars) return;
    assigns.resize(n, kUnassigned);
    levels.resize(n, 0);
    reasons.resize(n, kNoClause);
    phase.resize(n, kFalse);
    activity.resize(n, 0.0);
    seen.resize(n, 0);
    watches.resize(2 * static_cast<size_t>(n));
    num_vars = n;
    order.Grow(n, activity);
  }

  void Enqueue(int lit, int reason) {
    int var = VarOf(lit);
    assigns[var] = static_cast<int8_t>(lit & 1);
    levels[var] = CurrentLevel();
    reasons[var] = reason;
    trail.push_back(lit);
  }

  void CancelUntil(int level) {
    if (CurrentLevel() <= level) return;
    for (int i = static_cast<int>(trail.size()) - 1;
         i >= static_cast<int>(trail_lim[level]); --i) {
      int var = VarOf(trail[i]);
      phase[var] = assigns[var];
      assigns[var] = kUnassigned;
      reasons[var] = kNoClause;
      order.Insert(var, activity);
    }
    trail.resize(trail_lim[level]);
    trail_lim.resize(level);
    qhead = trail.size();
  }

  void BumpVar(int var) {
    activity[var] += var_inc;
    if (activity[var] > 1e100) {
      for (double& a : activity) a *= 1e-100;
      var_inc *= 1e-100;
    }
    order.Increased(var, activity);
  }

  void DecayActivity() { var_inc *= 1.0 / kVarDecay; }

  void AddClauseAtRoot(const Clause& input) {
    originals.push_back(input);
    for (const Literal& lit : input) EnsureVars(lit.var + 1);
    if (!ok) return;
    std::vector<int> lits;
    lits.reserve(input.size());
    for (const Literal& lit : input) lits.push_back(EncodeLit(lit));
    std::sort(lits.begin(), lits.end());
    lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
    std::vector<int> kept;
    kept.reserve(lits.size());
    bool satisfied = false;
    for (size_t i = 0; i < lits.size(); ++i) {
      if (i + 1 < lits.size() && lits[i + 1] == NegLit(lits[i])) {
        satisfied = true;  // tautological clause: x and not-x
        break;
      }
      int8_t value = LitValue(lits[i]);
      if (value == kTrue) {
        satisfied = true;  // already satisfied at the root level
        break;
      }
      if (value != kFalse) kept.push_back(lits[i]);  // drop root-false lits
    }
    if (satisfied) return;
    if (kept.empty()) {
      ok = false;
      return;
    }
    if (kept.size() == 1) {
      Enqueue(kept[0], kNoClause);  // root-level unit; propagated at Solve
      return;
    }
    int id = static_cast<int>(clauses.size());
    clauses.push_back({std::move(kept), false});
    const std::vector<int>& stored = clauses[id].lits;
    watches[stored[0]].push_back({id, stored[1]});
    watches[stored[1]].push_back({id, stored[0]});
  }

  /// Two-watched-literal propagation to fixpoint. Returns the conflicting
  /// clause id, or kNoClause.
  int PropagateWatched() {
    while (qhead < trail.size()) {
      int p = trail[qhead++];
      int fp = NegLit(p);  // literal that just became false
      std::vector<Watch>& ws = watches[fp];
      size_t i = 0;
      size_t j = 0;
      while (i < ws.size()) {
        Watch w = ws[i++];
        ++stats.watch_visits;
        if (LitValue(w.blocker) == kTrue) {
          ws[j++] = w;
          continue;
        }
        Cls& c = clauses[w.clause];
        if (c.lits[0] == fp) std::swap(c.lits[0], c.lits[1]);
        int first = c.lits[0];
        Watch moved{w.clause, first};
        if (first != w.blocker && LitValue(first) == kTrue) {
          ws[j++] = moved;
          continue;
        }
        bool found = false;
        for (size_t k = 2; k < c.lits.size(); ++k) {
          if (LitValue(c.lits[k]) != kFalse) {
            std::swap(c.lits[1], c.lits[k]);
            watches[c.lits[1]].push_back(moved);
            found = true;
            break;
          }
        }
        if (found) continue;  // watch moved to another literal
        ws[j++] = moved;
        if (LitValue(first) == kFalse) {  // conflict
          while (i < ws.size()) ws[j++] = ws[i++];
          ws.resize(j);
          qhead = trail.size();
          return w.clause;
        }
        ++stats.propagations;
        Enqueue(first, w.clause);
      }
      ws.resize(j);
    }
    return kNoClause;
  }

  /// 1UIP conflict analysis. Fills `learnt` (learnt[0] is the asserting
  /// literal, learnt[1] a literal from the backjump level when present) and
  /// returns the backjump level.
  int Analyze(int confl, std::vector<int>& learnt) {
    learnt.assign(1, 0);  // slot for the asserting literal
    int counter = 0;
    int p = -1;
    int index = static_cast<int>(trail.size()) - 1;
    for (;;) {
      const Cls& c = clauses[confl];
      for (size_t j = (p == -1 ? 0 : 1); j < c.lits.size(); ++j) {
        int q = c.lits[j];
        int var = VarOf(q);
        if (seen[var] == 0 && levels[var] > 0) {
          seen[var] = 1;
          BumpVar(var);
          if (levels[var] >= CurrentLevel()) {
            ++counter;
          } else {
            learnt.push_back(q);
          }
        }
      }
      while (seen[VarOf(trail[index])] == 0) --index;
      p = trail[index];
      seen[VarOf(p)] = 0;
      --index;
      if (--counter == 0) break;
      confl = reasons[VarOf(p)];
    }
    learnt[0] = NegLit(p);
    int backjump = 0;
    if (learnt.size() > 1) {
      size_t max_i = 1;
      for (size_t i = 2; i < learnt.size(); ++i) {
        if (levels[VarOf(learnt[i])] > levels[VarOf(learnt[max_i])]) max_i = i;
      }
      std::swap(learnt[1], learnt[max_i]);
      backjump = levels[VarOf(learnt[1])];
    }
    for (int lit : learnt) seen[VarOf(lit)] = 0;
    return backjump;
  }

  /// Attaches a learnt clause after backjumping, records it in the proof
  /// log, and enqueues its asserting literal.
  void AttachLearnt(const std::vector<int>& learnt) {
    ++stats.learned_clauses;
    stats.learned_literals += static_cast<int64_t>(learnt.size());
    Clause logged;
    logged.reserve(learnt.size());
    for (int lit : learnt) logged.push_back(DecodeLit(lit));
    log.added.push_back(std::move(logged));
    if (learnt.size() == 1) {
      Enqueue(learnt[0], kNoClause);
      return;
    }
    int id = static_cast<int>(clauses.size());
    clauses.push_back({learnt, true});
    watches[learnt[0]].push_back({id, learnt[1]});
    watches[learnt[1]].push_back({id, learnt[0]});
    Enqueue(learnt[0], id);
  }

  /// Failed-assumption core: `p` is an assumption literal found false under
  /// the earlier assumption levels. Walks the reason cone back to the
  /// assumption decisions involved.
  std::vector<Literal> AnalyzeFinal(int p) {
    std::vector<Literal> core{DecodeLit(p)};
    if (CurrentLevel() == 0) return core;
    seen[VarOf(p)] = 1;
    for (int i = static_cast<int>(trail.size()) - 1;
         i >= static_cast<int>(trail_lim[0]); --i) {
      int var = VarOf(trail[i]);
      if (seen[var] == 0) continue;
      if (reasons[var] == kNoClause) {
        // Decisions below the assumption prefix are assumptions themselves.
        core.push_back(DecodeLit(trail[i]));
      } else {
        const Cls& c = clauses[reasons[var]];
        for (size_t j = 1; j < c.lits.size(); ++j) {
          if (levels[VarOf(c.lits[j])] > 0) seen[VarOf(c.lits[j])] = 1;
        }
      }
      seen[var] = 0;
    }
    seen[VarOf(p)] = 0;
    return core;
  }

  int PickBranchLit() {
    while (!order.Empty()) {
      int var = order.PopMax(activity);
      if (assigns[var] == kUnassigned) {
        return EncodeLit(var, phase[var] == kFalse);
      }
    }
    return -1;
  }

  ClausalFormula OriginalFormula() const {
    ClausalFormula formula;
    formula.num_vars = num_vars;
    formula.clauses = originals;
    return formula;
  }

  /// Debug (and PW_CHECK_CERTIFICATES-forced) verification of a SAT answer:
  /// every input clause and every assumption must hold under the model.
  void VerifySatAnswer(const SatResult& result,
                       const std::vector<Literal>& assumptions) const {
#ifdef NDEBUG
    if (!CertificateCheckingForced()) return;
#endif
    for (size_t i = 0; i < originals.size(); ++i) {
      bool satisfied = false;
      for (const Literal& lit : originals[i]) {
        if (result.model[lit.var] != lit.negated) {
          satisfied = true;
          break;
        }
      }
      if (!satisfied) {
        DieSelfCheck("model falsifies input clause", std::to_string(i));
      }
    }
    for (const Literal& lit : assumptions) {
      if (result.model[lit.var] == lit.negated) {
        DieSelfCheck("model violates assumption", std::to_string(lit.var));
      }
    }
  }

  SatResult SatAnswer(const std::vector<Literal>& assumptions) {
    SatResult result;
    result.sat = true;
    result.model.resize(num_vars);
    for (int v = 0; v < num_vars; ++v) result.model[v] = assigns[v] == kTrue;
    result.stats = stats;
    CancelUntil(0);
    VerifySatAnswer(result, assumptions);
    return result;
  }

  SatResult UnsatAnswer(std::vector<Literal> core,
                        const std::vector<Literal>& assumptions) {
    CancelUntil(0);
    SatResult result;
    result.sat = false;
    result.core = std::move(core);
    result.stats = stats;
    result.proof.added = log.added;
    Clause final_clause;
    final_clause.reserve(result.core.size());
    for (const Literal& lit : result.core) {
      final_clause.push_back({lit.var, !lit.negated});
    }
    result.proof.added.push_back(std::move(final_clause));
    if (CertificateCheckingForced()) {
      std::string error;
      if (!CheckUnsatProof(OriginalFormula(), assumptions, result.proof,
                           &error)) {
        DieSelfCheck("UNSAT proof rejected by the independent checker", error);
      }
    }
    return result;
  }

  SatResult Solve(const std::vector<Literal>& assumptions) {
    stats = {};
    for (const Literal& lit : assumptions) EnsureVars(lit.var + 1);
    CancelUntil(0);
    if (!ok) return UnsatAnswer({}, assumptions);
    int64_t restart_run = 0;
    int64_t conflicts_in_run = 0;
    int64_t budget = Luby(restart_run) * kLubyBase;
    std::vector<int> learnt;
    for (;;) {
      int confl = PropagateWatched();
      if (confl != kNoClause) {
        ++stats.conflicts;
        ++conflicts_in_run;
        if (CurrentLevel() == 0) {
          ok = false;  // refuted outright: no assumption involved
          return UnsatAnswer({}, assumptions);
        }
        int backjump = Analyze(confl, learnt);
        CancelUntil(backjump);
        AttachLearnt(learnt);
        DecayActivity();
        if (conflicts_in_run >= budget) {
          ++stats.restarts;
          ++restart_run;
          conflicts_in_run = 0;
          budget = Luby(restart_run) * kLubyBase;
          CancelUntil(0);
        }
        continue;
      }
      // Extend the assumption prefix before real decisions.
      bool enqueued_assumption = false;
      while (CurrentLevel() < static_cast<int>(assumptions.size())) {
        int p = EncodeLit(assumptions[CurrentLevel()]);
        int8_t value = LitValue(p);
        if (value == kTrue) {
          trail_lim.push_back(trail.size());  // dummy level, already implied
        } else if (value == kFalse) {
          return UnsatAnswer(AnalyzeFinal(p), assumptions);
        } else {
          trail_lim.push_back(trail.size());
          Enqueue(p, kNoClause);
          enqueued_assumption = true;
          break;
        }
      }
      if (enqueued_assumption) continue;
      int next = PickBranchLit();
      if (next == -1) return SatAnswer(assumptions);
      ++stats.decisions;
      trail_lim.push_back(trail.size());
      Enqueue(next, kNoClause);
    }
  }
};

SatSolver::SatSolver() : impl_(std::make_unique<Impl>()) {}
SatSolver::~SatSolver() = default;
SatSolver::SatSolver(SatSolver&&) noexcept = default;
SatSolver& SatSolver::operator=(SatSolver&&) noexcept = default;

int SatSolver::NewVar() {
  impl_->EnsureVars(impl_->num_vars + 1);
  return impl_->num_vars - 1;
}

void SatSolver::EnsureVars(int num_vars) { impl_->EnsureVars(num_vars); }

int SatSolver::num_vars() const { return impl_->num_vars; }

void SatSolver::AddClause(const Clause& clause) {
  impl_->AddClauseAtRoot(clause);
}

void SatSolver::AddFormula(const ClausalFormula& formula) {
  impl_->EnsureVars(formula.num_vars);
  for (const Clause& clause : formula.clauses) impl_->AddClauseAtRoot(clause);
}

SatResult SatSolver::SolveUnderAssumptions(
    const std::vector<Literal>& assumptions) {
  return impl_->Solve(assumptions);
}

SatResult SolveCnf(const ClausalFormula& formula) {
  SatSolver solver;
  solver.AddFormula(formula);
  return solver.Solve();
}

SatResult SolveCnfUnderAssumptions(const ClausalFormula& formula,
                                   const std::vector<Literal>& assumptions) {
  SatSolver solver;
  solver.AddFormula(formula);
  return solver.SolveUnderAssumptions(assumptions);
}

std::optional<std::vector<bool>> SolveSat(const ClausalFormula& formula) {
  SatResult result = SolveCnf(formula);
  if (!result.sat) return std::nullopt;
  result.model.resize(formula.num_vars);
  return std::move(result.model);
}

bool IsSatisfiable(const ClausalFormula& formula) {
  return SolveCnf(formula).sat;
}

}  // namespace pw
