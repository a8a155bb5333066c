// view_maintenance: a full MaterializedView of transitive closure over a
// conditioned DAG, with demand queries tc(s, ?) beside inserts, conditional
// inserts and deletes of base edges, in epochs of a fresh view each. The
// fixpoint, IVM, magic sets and the interner do nearly all the work;
// decision and snapshot code does none.

#include <optional>
#include <set>

#include "condition/interner.h"
#include "datalog/analysis.h"
#include "datalog/ivm.h"
#include "datalog/magic.h"
#include "ilalgebra/datalog_ctable.h"
#include "pwbench/gen.h"
#include "pwbench/workloads.h"
#include "tables/text_format.h"

namespace pwbench {

namespace {

constexpr int kEdge = 0;
constexpr int kTc = 1;

pw::DatalogProgram TcProgram() {
  using pw::V;
  pw::DatalogProgram p({2, 2}, 1);
  p.AddRule({{kTc, {V(0), V(1)}}, {{kEdge, {V(0), V(1)}}}});
  p.AddRule({{kTc, {V(0), V(1)}},
             {{kEdge, {V(0), V(2)}}, {kTc, {V(2), V(1)}}}});
  return p;
}

std::optional<pw::MaterializedView> Setup(const std::string& text,
                                          const pw::DatalogProgram& program,
                                          Tracer& tracer) {
  Tracer::Scope root(tracer, "setup", Layer::kBench);
  pw::ParseDatabaseResult parsed;
  {
    Tracer::Scope s(tracer, "tables.parse", Layer::kTables);
    parsed = pw::ParseCDatabase(text, nullptr);
  }
  if (!parsed.ok()) return std::nullopt;
  Tracer::Scope s(tracer, "ilalgebra.materialize", Layer::kIlalgebra);
  return pw::MaterializedView(program, std::move(*parsed.database));
}

/// Whether `cond` holds when every variable takes `value` (the table has
/// one null).
bool Holds(const pw::Conjunction& cond, int value) {
  for (const pw::CondAtom& atom : cond.atoms()) {
    int l = atom.lhs.is_constant() ? atom.lhs.constant() : value;
    int r = atom.rhs.is_constant() ? atom.rhs.constant() : value;
    if ((l == r) != atom.is_equality) return false;
  }
  return true;
}

std::pair<int, int> Apply(const pw::Tuple& t, int value) {
  auto term = [&](const pw::Term& x) {
    return x.is_constant() ? x.constant() : value;
  };
  return {term(t[0]), term(t[1])};
}

/// Per-world check of a tc(s, ?) answer: in every world, the answer's
/// facts are exactly the nodes reachable from s.
bool CheckQuery(const pw::CTable& answer, int s, const EdgeModel& model,
                std::string* why) {
  for (int v : model.NullValues()) {
    std::vector<int> reach = ReachableFrom(model.World(v), s, model.fresh());
    std::set<int> expected(reach.begin(), reach.end());
    std::set<int> got;
    if (!Holds(answer.global(), v)) continue;  // no world here
    for (const pw::CRow& row : answer.rows()) {
      if (!Holds(row.local(), v)) continue;
      auto [a, b] = Apply(row.tuple, v);
      if (a != s) {
        *why = "answer row with source " + std::to_string(a);
        return false;
      }
      got.insert(b);
    }
    if (got != expected) {
      *why = "world null=" + std::to_string(v) + ": " +
             std::to_string(got.size()) + " answers, expected " +
             std::to_string(expected.size());
      return false;
    }
  }
  return true;
}

/// The final check: the maintained fixpoint equals a recompute on the
/// current base (same tuples and interned conditions), and its tc table
/// holds, in every world, exactly that world's transitive closure.
bool CheckFinal(const pw::MaterializedView& view,
                const pw::DatalogProgram& program, const EdgeModel& model,
                std::string* why) {
  pw::CDatabase maintained = view.Materialized();
  pw::CDatabase recomputed = pw::DatalogOnCTables(program, view.base());
  pw::ConditionInterner& interner = view.interner();
  for (size_t p = 0; p < program.num_predicates(); ++p) {
    std::multiset<std::pair<pw::Tuple, pw::ConjId>> a;
    std::multiset<std::pair<pw::Tuple, pw::ConjId>> b;
    for (const pw::CRow& r : maintained.table(p).rows()) {
      a.insert({r.tuple, r.LocalId(interner)});
    }
    for (const pw::CRow& r : recomputed.table(p).rows()) {
      b.insert({r.tuple, r.LocalId(interner)});
    }
    if (a != b) {
      *why = "Materialized() differs from DatalogOnCTables on predicate " +
             std::to_string(p);
      return false;
    }
  }
  const pw::CTable& tc = maintained.table(kTc);
  for (int v : model.NullValues()) {
    std::vector<std::pair<int, int>> edges = model.World(v);
    std::set<std::pair<int, int>> expected;
    for (int u : model.NullValues()) {
      for (int y : ReachableFrom(edges, u, model.fresh())) {
        expected.insert({u, y});
      }
    }
    std::set<std::pair<int, int>> got;
    for (const pw::CRow& row : tc.rows()) {
      if (Holds(row.local(), v)) got.insert(Apply(row.tuple, v));
    }
    if (got != expected) {
      *why = "materialized tc wrong in world null=" + std::to_string(v);
      return false;
    }
  }
  return true;
}

/// Counters over epoch 0, whose requests the seed alone determines.
struct PrefixCounters {
  pw::ConditionedFixpointStats query;  // summed over the queries
  uint64_t queries = 0;
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  pw::IvmStats ivm0;
  pw::IvmStats ivm1;
  pw::ConditionInterner::Stats interner0;
  pw::ConditionInterner::Stats interner1;
  size_t conjunctions = 0;
};

/// One epoch: a fresh view on its own thread (so its thread-local interner
/// starts cold), kViewEpochOps requests, then the final check. The epoch's
/// request loop, less the benchmark's own work in it, adds to `client`.
void RunEpoch(const RunConfig& config, uint64_t epoch,
              const pw::DatalogProgram& program, WorkloadResult& result,
              PrefixCounters& prefix, WorkloadResult::ClientLoop& client) {
  const ViewInput input = GenerateView(SubSeed(config.seed, epoch));
  Tracer tracer(config.trace);
  // kSetupBuilds cold builds: the extra ones on fresh threads on the next
  // CPUs, the last one on this thread, which serves it.
  double setup_s = 0;
  for (int b = 0; b + 1 < kSetupBuilds; ++b) {
    RunOnFreshThread(
        [&] {
          Tracer off(false);
          int64_t t0 = NowNs();
          std::optional<pw::MaterializedView> v =
              Setup(input.text, program, off);
          setup_s += (NowNs() - t0) / 1e9;
        },
        epoch + 1 + static_cast<uint64_t>(b));
  }
  int64_t t0 = NowNs();
  std::optional<pw::MaterializedView> view = Setup(input.text, program, tracer);
  setup_s += (NowNs() - t0) / 1e9;
  result.setup_s.push_back(setup_s / kSetupBuilds);
  if (!view) {
    ++result.check.errors;
    NoteMismatch(result, "ParseCDatabase rejected the generated table");
    return;
  }
  std::vector<pw::VarId> vars = view->base().Variables();
  const pw::VarId null_var = vars.empty() ? 0 : vars.front();

  EdgeModel model(input);
  ViewOpStream stream(input.nodes, SubSeed(config.seed, epoch));
  pw::ConditionInterner& interner = view->interner();
  const bool first = epoch == 0;
  if (first) {
    prefix.ivm0 = view->stats();
    prefix.interner0 = interner.stats();
  }
  const int64_t loop0 = NowNs();
  const double oracle0 = result.oracle_s;
  double probe_s = 0;
  for (uint64_t n = 0; n < kViewEpochOps; ++n) {
    const uint64_t request = epoch * kViewEpochOps + n;
    int64_t o0 = NowNs();
    const ViewOp op = stream.Next(model);
    result.oracle_s += (NowNs() - o0) / 1e9;
    tracer.SetRequest(static_cast<uint32_t>(request + 1));
    if (op.kind == ViewOpKind::kQuery) {
      const std::vector<std::optional<pw::ConstId>> bindings = {op.a,
                                                                std::nullopt};
      pw::ConditionedFixpointStats stats;
      pw::CTable answer;
      int64_t q0 = NowNs();
      {
        Tracer::Scope req(tracer, "request.query", Layer::kBench);
        Tracer::Scope s(tracer, "ilalgebra.query", Layer::kIlalgebra);
        answer = pw::DatalogQueryOnCTables(program, view->base(), kTc,
                                           bindings, &stats);
      }
      const double ms = (NowNs() - q0) / 1e6;
      result.latency_ms["query"].push_back(ms);
      if (tracer.enabled()) {
        // Probes of the program work a demand query does before its
        // fixpoint, outside the request's timing.
        int64_t p0 = NowNs();
        {
          Tracer::Scope s(tracer, "datalog.analysis", Layer::kDatalog);
          pw::ProgramAnalysis analysis(program);
          (void)analysis;
        }
        {
          Tracer::Scope s(tracer, "datalog.magic_rewrite", Layer::kDatalog);
          pw::MagicRewriteResult rewrite =
              pw::MagicRewrite(program, pw::DatalogGoal{kTc, bindings});
          (void)rewrite;
        }
        probe_s += (NowNs() - p0) / 1e9;
      }
      if (first) {
        ++prefix.queries;
        prefix.query.rounds += stats.rounds;
        prefix.query.derived_rows += stats.derived_rows;
        prefix.query.subsumed_rows += stats.subsumed_rows;
        prefix.query.duplicate_rows += stats.duplicate_rows;
        prefix.query.unsatisfiable_rows += stats.unsatisfiable_rows;
        prefix.query.magic_facts += stats.magic_facts;
        prefix.query.index_probes += stats.index_probes;
        prefix.query.index_hits += stats.index_hits;
      }
      ++result.check.attempted;
      o0 = NowNs();
      std::string why;
      bool ok = !stats.budget_exhausted && CheckQuery(answer, op.a, model, &why);
      if (static_cast<int64_t>(request) == config.inject_wrong) {
        ok = false;
        why = "injected wrong expected answer";
      }
      if (stats.budget_exhausted) {
        ++result.check.budget_stops;
      } else if (!ok) {
        ++result.check.wrong;
      }
      if (!ok) NoteMismatch(result, "tc(" + std::to_string(op.a) + ",?) " + why);
      result.oracle_s += (NowNs() - o0) / 1e9;
    } else {
      const pw::Fact fact = {op.a, op.b};
      bool applied = true;
      int64_t u0 = NowNs();
      {
        Tracer::Scope req(tracer, "request.update", Layer::kBench);
        if (op.kind == ViewOpKind::kInsert) {
          Tracer::Scope s(tracer, "datalog.ivm_insert", Layer::kDatalog);
          view->Insert(kEdge, fact);
        } else if (op.kind == ViewOpKind::kInsertIf) {
          Tracer::Scope s(tracer, "datalog.ivm_insert_if", Layer::kDatalog);
          applied = view->InsertIf(
              kEdge, fact,
              pw::Conjunction{pw::Eq(pw::V(null_var), pw::C(op.c))});
        } else {
          Tracer::Scope s(tracer, "datalog.ivm_delete", Layer::kDatalog);
          view->Delete(kEdge, fact);
        }
      }
      const double ms = (NowNs() - u0) / 1e6;
      // Inserts take a fraction of a millisecond, deletes tens: each kind
      // is its own latency type, so that both move lat_p50_ms/lat_p90_ms.
      result.latency_ms[op.kind == ViewOpKind::kDelete ? "delete" : "insert"]
          .push_back(ms);
      ++result.check.attempted;
      bool ok = applied;
      if (static_cast<int64_t>(request) == config.inject_wrong) ok = !ok;
      if (!ok) {
        ++result.check.errors;
        NoteMismatch(result, applied ? "injected wrong expected outcome"
                                     : "InsertIf refused a satisfiable "
                                       "condition");
      }
      if (view->aborted()) {
        ++result.check.budget_stops;
        NoteMismatch(result, "view stopped on its derivation budget");
      }
      o0 = NowNs();
      if (op.kind == ViewOpKind::kInsert) {
        model.Insert(op.a, op.b);
      } else if (op.kind == ViewOpKind::kInsertIf) {
        model.InsertIf(op.a, op.b, op.c);
      } else {
        model.Delete(op.a, op.b);
      }
      result.oracle_s += (NowNs() - o0) / 1e9;
      if (first) {
        (op.kind == ViewOpKind::kDelete ? prefix.deletes : prefix.inserts) += 1;
      }
    }
    ++client.requests;
  }
  if (first) {
    prefix.ivm1 = view->stats();
    prefix.interner1 = interner.stats();
    prefix.conjunctions = interner.num_conjunctions();
  }

  int64_t o0 = NowNs();
  std::string why;
  ++result.check.attempted;
  if (!CheckFinal(*view, program, model, &why)) {
    ++result.check.wrong;
    NoteMismatch(result, "epoch " + std::to_string(epoch) + " final state: " +
                             why);
  }
  result.oracle_s += (NowNs() - o0) / 1e9;
  {
    // Tearing the view down is the epoch's own cost, not setup's.
    Tracer::Scope s(tracer, "ilalgebra.view_teardown", Layer::kIlalgebra);
    view.reset();
  }
  client.seconds +=
      (NowNs() - loop0) / 1e9 - (result.oracle_s - oracle0) - probe_s;
  result.spans.push_back(tracer.spans());
}

}  // namespace

WorkloadResult RunViewMaintenance(const RunConfig& config) {
  WorkloadResult result;
  result.workload = config.workload;
  const pw::DatalogProgram program = TcProgram();
  PrefixCounters prefix;
  WorkloadResult::ClientLoop client;

  const double cpu0 = ProcessCpuSeconds();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(config.seconds * 1e9);
  uint64_t epochs = 0;
  while (epochs < kSetupRepetitions || NowNs() < deadline) {
    RunOnFreshThread(
        [&] {
          RunEpoch(config, epochs, program, result, prefix, client);
        },
        epochs);
    ++epochs;
  }
  result.timed_wall_s = (NowNs() - start) / 1e9;
  result.timed_cpu_s = ProcessCpuSeconds() - cpu0;
  result.clients.push_back(client);

  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  const double q = static_cast<double>(prefix.queries);
  result.layer["ilalgebra.rounds"] = {ratio(prefix.query.rounds, q), "count"};
  result.layer["ilalgebra.derived_rows"] = {
      ratio(prefix.query.derived_rows, q), "count"};
  result.layer["ilalgebra.magic_facts"] = {ratio(prefix.query.magic_facts, q),
                                           "count"};
  const double attempts = static_cast<double>(
      prefix.query.derived_rows + prefix.query.subsumed_rows +
      prefix.query.duplicate_rows + prefix.query.unsatisfiable_rows);
  result.layer["ilalgebra.kept_ratio"] = {
      ratio(prefix.query.derived_rows, attempts), "fraction"};
  result.layer["ilalgebra.rows_per_probe"] = {
      ratio(prefix.query.index_hits, prefix.query.index_probes), "rows"};
  const pw::IvmStats& a = prefix.ivm0;
  const pw::IvmStats& b = prefix.ivm1;
  const double deletes = static_cast<double>(
      (b.deletes_covered - a.deletes_covered) +
      (b.cone_rebuilds - a.cone_rebuilds));
  result.layer["datalog.ivm_covered_ratio"] = {
      ratio(b.deletes_covered - a.deletes_covered, deletes), "fraction"};
  result.layer["datalog.ivm_overdeleted_per_delete"] = {
      ratio(b.rows_overdeleted - a.rows_overdeleted, deletes), "rows"};
  result.layer["datalog.ivm_seeded_ratio"] = {
      ratio(b.inserts_seeded - a.inserts_seeded, prefix.inserts), "fraction"};
  const auto& s0 = prefix.interner0;
  const auto& s1 = prefix.interner1;
  result.layer["condition.and_hit_ratio"] = {
      ratio(s1.and_hits - s0.and_hits, s1.and_calls - s0.and_calls),
      "fraction"};
  result.layer["condition.implies_hit_ratio"] = {
      ratio(s1.implies_hits - s0.implies_hits,
            s1.implies_calls - s0.implies_calls),
      "fraction"};
  result.layer["condition.intern_hit_ratio"] = {
      ratio((s1.syntactic_hits - s0.syntactic_hits) +
                (s1.canonical_hits - s0.canonical_hits),
            s1.intern_calls - s0.intern_calls),
      "fraction"};
  result.layer["condition.conjunctions"] = {
      static_cast<double>(prefix.conjunctions), "count"};
  result.notes.push_back(
      std::to_string(epochs) + " epochs of " + std::to_string(kViewEpochOps) +
      " requests; prefix of epoch 0: " + std::to_string(prefix.queries) +
      " queries, " + std::to_string(prefix.inserts) + " inserts, " +
      std::to_string(prefix.deletes) + " deletes");
  return result;
}

}  // namespace pwbench
