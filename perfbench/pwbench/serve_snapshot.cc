// serve_snapshot: the serving path. Two closed-loop readers take a fresh
// snapshot per request and ask possibility or certainty of a point fact
// under the identity view; one open-loop writer publishes a version every
// 1/kWriteRate seconds. Three threads on a four-core machine, each on its
// own CPU, so the readers do not compete with the writer for a core. The
// setup repetitions run on the fourth CPU, spread over the timed phase.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "condition/interner.h"
#include "decision/certainty.h"
#include "decision/possibility.h"
#include "pwbench/gen.h"
#include "pwbench/workloads.h"
#include "tables/snapshot.h"
#include "tables/text_format.h"
#include "tables/updates.h"

namespace pwbench {

namespace {

constexpr int kReaders = 2;
constexpr double kWriteRate = 100;  // writes per second
constexpr double kSetupInterval = 0.25;  // seconds between setup repetitions

struct Served {
  std::unique_ptr<pw::ConditionInterner> interner;
  std::unique_ptr<pw::VersionedCDatabase> versioned;
};

std::optional<Served> Setup(const std::string& text, Tracer& tracer) {
  Tracer::Scope root(tracer, "setup", Layer::kBench);
  pw::ParseDatabaseResult parsed;
  {
    Tracer::Scope s(tracer, "tables.parse", Layer::kTables);
    parsed = pw::ParseCDatabase(text, nullptr);
  }
  if (!parsed.ok()) return std::nullopt;
  Served out;
  out.interner = std::make_unique<pw::ConditionInterner>();
  {
    Tracer::Scope s(tracer, "tables.snapshot_build", Layer::kTables);
    out.versioned = std::make_unique<pw::VersionedCDatabase>(
        std::move(*parsed.database), *out.interner);
  }
  return out;
}

/// Benchmark-side row scan: {possible, certain} of the point (a, b) in a
/// table whose rows carry at most one null each and conditions over that
/// null only. nullopt when the table is outside that shape.
std::optional<std::pair<bool, bool>> ScanPoint(const pw::CTable& table, int a,
                                               int b) {
  if (!table.global().IsTautology()) return std::nullopt;
  const int fact[2] = {a, b};
  bool possible = false;
  bool certain = false;
  for (const pw::CRow& row : table.rows()) {
    std::unordered_map<int, int> binding;
    bool unifies = true;
    bool ground = true;
    for (int i = 0; i < 2 && unifies; ++i) {
      const pw::Term& t = row.tuple[static_cast<size_t>(i)];
      if (t.is_constant()) {
        unifies = t.constant() == fact[i];
        continue;
      }
      ground = false;
      auto [it, fresh] = binding.try_emplace(t.variable(), fact[i]);
      if (!fresh && it->second != fact[i]) unifies = false;
    }
    if (!unifies) continue;
    bool holds = true;
    for (const pw::CondAtom& atom : row.local().atoms()) {
      auto value = [&](const pw::Term& t) -> std::optional<int> {
        if (t.is_constant()) return t.constant();
        auto it = binding.find(t.variable());
        if (it == binding.end()) return std::nullopt;
        return it->second;
      };
      std::optional<int> l = value(atom.lhs);
      std::optional<int> r = value(atom.rhs);
      if (!l || !r) return std::nullopt;
      if ((*l == *r) != atom.is_equality) holds = false;
    }
    if (!holds) continue;
    possible = true;
    if (ground && row.local().IsTautology()) certain = true;
  }
  return std::pair{possible, certain};
}

/// Keeps the serving threads on distinct CPUs and moves each one CPU on
/// every second of the run, so that no thread spends the whole run on one
/// busy CPU.
class CpuRotation {
 public:
  CpuRotation(int64_t start, int slot) : start_(start), slot_(slot) {}

  void Tick() {
    const int64_t phase = (NowNs() - start_) / 1000000000;
    if (phase == phase_) return;
    phase_ = phase;
    const int64_t cpus = std::max(1u, std::thread::hardware_concurrency());
    PinToCpu(static_cast<int>((phase + slot_) % cpus));
  }

 private:
  int64_t start_;
  int64_t slot_;
  int64_t phase_ = -1;
};

struct ReaderOut {
  std::vector<double> poss_ms;
  std::vector<double> cert_ms;
  double loop_s = 0;  // request loop wall time less oracle and probe time
  uint64_t requests = 0;
  uint64_t yes_prefix = 0;
  uint64_t prefix = 0;
  double oracle_s = 0;
  double ptime_ms = 0;
  double conp_ms = 0;
  uint64_t probes = 0;
  uint64_t probe_hits = 0;
  AnswerCheck check;
  std::vector<std::string> mismatches;
  std::vector<ServeRead> sample;  // re-checked against the final snapshot
};

}  // namespace

WorkloadResult RunServeSnapshot(const RunConfig& config) {
  WorkloadResult result;
  result.workload = config.workload;
  result.threads = kReaders + 1;

  const ServeInput input = GenerateServe(config.seed);
  const ServeModel model(input);
  const size_t max_writes =
      static_cast<size_t>(config.seconds * kWriteRate * 1.5) + 16;
  const std::vector<ServeWrite> writes =
      GenerateServeWrites(input, config.seed, max_writes);

  Tracer setup_tracer(config.trace);
  std::optional<Served> served = Setup(input.text, setup_tracer);
  if (!served) {
    ++result.check.errors;
    NoteMismatch(result, "ParseCDatabase rejected the generated table");
    return result;
  }
  pw::VersionedCDatabase& versioned = *served->versioned;
  pw::ConditionInterner::SetProcessShared(served->interner.get());

  const pw::View identity = pw::View::Identity();
  const pw::RaQuery identity_query = {pw::RaExpr::Rel(0, 2)};
  std::deque<Tracer> tracers;
  for (int t = 0; t < kReaders + 1; ++t) tracers.emplace_back(config.trace);
  std::vector<ReaderOut> readers(kReaders);
  std::vector<double> update_ms;
  std::vector<double> lateness_ms;
  std::atomic<uint64_t> writer_errors{0};
  std::atomic<int64_t> inject_counter{0};

  const double cpu0 = ProcessCpuSeconds();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(config.seconds * 1e9);

  auto reader = [&](int id) {
    CpuRotation cpu(start, id);
    ReaderOut& out = readers[static_cast<size_t>(id)];
    Tracer& tracer = tracers[static_cast<size_t>(id)];
    ServeReadStream stream(input, config.seed, id);
    const int64_t loop0 = NowNs();
    double bench_s = 0;  // oracle and probe time inside the loop
    for (uint64_t n = 0; NowNs() < deadline; ++n) {
      cpu.Tick();
      int64_t o0 = NowNs();
      const ServeRead r = stream.Next();
      bool expected =
          r.possibility ? model.Possible(r.a, r.b) : model.Certain(r.a, r.b);
      if (inject_counter.fetch_add(1) == config.inject_wrong) {
        expected = !expected;
      }
      const double oracle_s = (NowNs() - o0) / 1e9;
      out.oracle_s += oracle_s;
      bench_s += oracle_s;
      const std::vector<pw::LocatedFact> pattern = {{0, pw::Fact{r.a, r.b}}};
      tracer.SetRequest(static_cast<uint32_t>(n + 1));
      bool got = false;
      int64_t q0 = NowNs();
      {
        Tracer::Scope req(tracer, r.possibility ? "request.poss"
                                                : "request.cert",
                          Layer::kBench);
        pw::VersionedCDatabase::Snapshot snap;
        {
          Tracer::Scope s(tracer, "tables.snapshot_read", Layer::kTables);
          snap = versioned.Read();
        }
        if (r.possibility) {
          Tracer::Scope s(tracer, "decision.possibility", Layer::kDecision);
          got = pw::Possibility(identity, snap.db, pattern);
        } else {
          Tracer::Scope s(tracer, "decision.certainty", Layer::kDecision);
          got = pw::Certainty(identity, snap.db, pattern);
        }
        // Dropping the snapshot can free superseded versions; that is the
        // request's cost too.
        Tracer::Scope s(tracer, "tables.snapshot_release", Layer::kTables);
        snap = {};
      }
      const double ms = (NowNs() - q0) / 1e6;
      if (tracer.enabled()) {
        // The dispatcher's first PTIME entry point, probed outside the
        // request's timing on a snapshot of its own.
        int64_t p0 = NowNs();
        {
          Tracer::Scope probe(tracer, "probe.fastpath", Layer::kDecision);
          pw::VersionedCDatabase::Snapshot snap = versioned.Read();
          std::optional<bool> fast =
              r.possibility
                  ? pw::PossBoundedPosExistential(identity_query, snap.db,
                                                  pattern)
                  : pw::CertDatalogGTables(identity, snap.db, pattern);
          ++out.probes;
          if (fast.has_value()) ++out.probe_hits;
        }
        bench_s += (NowNs() - p0) / 1e9;
      }
      (r.possibility ? out.poss_ms : out.cert_ms).push_back(ms);
      (r.possibility ? out.ptime_ms : out.conp_ms) += ms;
      ++out.requests;
      if (n < kYesPrefix) {
        ++out.prefix;
        out.yes_prefix += got ? 1 : 0;
      }
      if (!out.check.Record(got, expected) && out.mismatches.size() < 4) {
        out.mismatches.push_back(
            std::string(r.possibility ? "poss" : "cert") + "(" +
            std::to_string(r.a) + "," + std::to_string(r.b) + ") got " +
            (got ? "yes" : "no"));
      }
      if (n % 64 == 0 && out.sample.size() < 256) out.sample.push_back(r);
    }
    out.loop_s = (NowNs() - loop0) / 1e9 - bench_s;
  };

  auto writer = [&] {
    CpuRotation cpu(start, kReaders);
    Tracer& tracer = tracers[kReaders];
    const int64_t period = static_cast<int64_t>(1e9 / kWriteRate);
    for (size_t i = 0; i < writes.size(); ++i) {
      const int64_t due = start + static_cast<int64_t>(i) * period;
      if (due >= deadline) break;
      cpu.Tick();
      while (NowNs() < due) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(std::min<int64_t>(due - NowNs(), 200000)));
      }
      const int64_t begin = NowNs();
      const ServeWrite& w = writes[i];
      tracer.SetRequest(static_cast<uint32_t>(i + 1));
      uint64_t version = 0;
      {
        Tracer::Scope req(tracer, "request.update", Layer::kBench);
        Tracer::Scope s(tracer, "tables.mutate", Layer::kTables);
        version = versioned.Mutate([&](pw::CDatabase& db) {
          pw::CTable& table = db.mutable_table(0);
          if (w.insert) {
            pw::InsertFactInPlace(table, pw::Fact{w.a, w.b});
          } else {
            pw::DeleteFactInPlace(table, pw::Fact{w.a, w.b});
          }
        });
      }
      const int64_t end = NowNs();
      if (version != i + 1) writer_errors.fetch_add(1);
      update_ms.push_back((end - due) / 1e6);
      lateness_ms.push_back((begin - due) / 1e6);
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) threads.emplace_back(reader, t);
  threads.emplace_back(writer);
  // The setup_s samples, spread over the timed phase so that the host's
  // drift during the run weighs on setup_s as on the other metrics. Each
  // setup runs on a fresh thread (a cold interner, as in a new process) on
  // the CPU the serving threads leave free this second; that CPU moves each
  // second, so the samples still cover every CPU.
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  const int64_t interval = static_cast<int64_t>(
      1e9 * std::min(kSetupInterval, config.seconds / kSetupRepetitions));
  for (int64_t due = start + interval / 2; due < deadline; due += interval) {
    while (NowNs() < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
    }
    const uint64_t phase = static_cast<uint64_t>((NowNs() - start) / 1000000000);
    double setup_s = 0;
    for (int b = 0; b < kSetupBuilds; ++b) {
      RunOnFreshThread(
          [&] {
            Tracer off(false);
            int64_t t0 = NowNs();
            std::optional<Served> s = Setup(input.text, off);
            setup_s += (NowNs() - t0) / 1e9;
            if (!s) ++result.check.errors;
          },
          (phase + kReaders + 1) % cpus);
    }
    result.setup_s.push_back(setup_s / kSetupBuilds);
  }
  for (std::thread& t : threads) t.join();
  const int64_t stop = NowNs();
  result.timed_wall_s = (stop - start) / 1e9;
  result.timed_cpu_s = ProcessCpuSeconds() - cpu0;

  // Every write must have published the next version.
  result.check.attempted += update_ms.size();
  result.check.errors += writer_errors.load();
  if (writer_errors.load() > 0) {
    NoteMismatch(result, "Mutate published an unexpected version");
  }

  // Final check against the last snapshot, by a benchmark-side row scan:
  // each written fact ends as its last write left it, and reader facts are
  // untouched by writes.
  int64_t o0 = NowNs();
  pw::VersionedCDatabase::Snapshot last = versioned.Read();
  std::unordered_map<uint64_t, bool> last_write;
  for (size_t i = 0; i < update_ms.size(); ++i) {
    const ServeWrite& w = writes[i];
    last_write[(static_cast<uint64_t>(w.a) << 32) | static_cast<uint32_t>(w.b)] =
        w.insert;
  }
  for (const auto& [key, inserted] : last_write) {
    int a = static_cast<int>(key >> 32);
    int b = static_cast<int>(key & 0xffffffffu);
    std::optional<std::pair<bool, bool>> scan =
        ScanPoint(last.db.table(0), a, b);
    ++result.check.attempted;
    if (!scan || scan->first != inserted || scan->second != inserted) {
      ++result.check.wrong;
      NoteMismatch(result, "final snapshot disagrees with the writes on (" +
                               std::to_string(a) + "," + std::to_string(b) +
                               ")");
    }
  }
  for (ReaderOut& out : readers) {
    for (const ServeRead& r : out.sample) {
      std::optional<std::pair<bool, bool>> scan =
          ScanPoint(last.db.table(0), r.a, r.b);
      ++result.check.attempted;
      if (!scan || scan->first != model.Possible(r.a, r.b) ||
          scan->second != model.Certain(r.a, r.b)) {
        ++result.check.wrong;
        NoteMismatch(result, "final snapshot disagrees with the generated "
                             "table on (" +
                                 std::to_string(r.a) + "," +
                                 std::to_string(r.b) + ")");
      }
    }
  }
  result.oracle_s += (NowNs() - o0) / 1e9;
  pw::ConditionInterner::SetProcessShared(nullptr);

  double ptime_ms = 0;
  double conp_ms = 0;
  uint64_t probes = 0;
  uint64_t probe_hits = 0;
  for (ReaderOut& out : readers) {
    auto& poss = result.latency_ms["poss"];
    poss.insert(poss.end(), out.poss_ms.begin(), out.poss_ms.end());
    auto& cert = result.latency_ms["cert"];
    cert.insert(cert.end(), out.cert_ms.begin(), out.cert_ms.end());
    result.clients.push_back({out.requests, out.loop_s});
    result.yes_prefix += out.yes_prefix;
    result.prefix_requests += out.prefix;
    result.oracle_s += out.oracle_s;
    result.check.attempted += out.check.attempted;
    result.check.wrong += out.check.wrong;
    for (const std::string& m : out.mismatches) NoteMismatch(result, m);
    ptime_ms += out.ptime_ms;
    conp_ms += out.conp_ms;
    probes += out.probes;
    probe_hits += out.probe_hits;
  }
  result.latency_ms["update"] = update_ms;

  const double decision_ms = ptime_ms + conp_ms;
  auto share = [&](double v) { return decision_ms > 0 ? v / decision_ms : 0; };
  result.layer["decision.share.ptime"] = {share(ptime_ms), "fraction"};
  result.layer["decision.share.np"] = {0, "fraction"};
  result.layer["decision.share.conp"] = {share(conp_ms), "fraction"};
  result.layer["decision.share.pi2p"] = {0, "fraction"};
  result.layer["decision.fastpath_hit_ratio"] = {
      probes > 0 ? static_cast<double>(probe_hits) / probes : 0, "fraction"};
  result.layer["tables.versions"] = {static_cast<double>(versioned.version()),
                                     "count"};
  result.layer["tables.writer_lateness_ms"] = {Percentile(lateness_ms, 0.9),
                                              "ms"};
  result.layer["condition.conjunctions"] = {
      static_cast<double>(served->interner->num_conjunctions()), "count"};
  // The shared interner stops counting once sharing is on (interner.h), so
  // the hit ratios have no samples on this workload.
  result.notes.push_back(
      "condition.*_hit_ratio: the shared interner keeps no stats; reported 0");
  result.notes.push_back("writer lateness (ms) p50=" +
                         std::to_string(Percentile(lateness_ms, 0.5)) +
                         " p90=" + std::to_string(Percentile(lateness_ms, 0.9)) +
                         " n=" + std::to_string(lateness_ms.size()));

  result.spans.push_back(setup_tracer.spans());
  for (Tracer& t : tracers) result.spans.push_back(t.spans());
  return result;
}

}  // namespace pwbench
