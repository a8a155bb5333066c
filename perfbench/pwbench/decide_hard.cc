// decide_hard: the paper's hardness reductions as single requests, each on a
// fresh instance, so the backtracking searches of the decision layer
// dominate and interner caches help little.

#include <optional>

#include "condition/interner.h"
#include "decision/certainty.h"
#include "decision/containment.h"
#include "decision/membership.h"
#include "decision/possibility.h"
#include "pwbench/gen.h"
#include "pwbench/workloads.h"
#include "tables/text_format.h"

namespace pwbench {

namespace {

/// Instances per epoch: generated, parsed (the epoch's setup) and decided
/// in turn. Small enough that an epoch's working set stays in cache.
constexpr uint64_t kHardEpochInstances = 400;

struct Parsed {
  pw::CDatabase db;
  pw::CDatabase rhs;
};

/// Parses every instance's table text. Returns false if one is rejected.
bool ParseAll(const std::vector<HardInstance>& pool, std::vector<Parsed>& out,
              Tracer& tracer) {
  Tracer::Scope root(tracer, "setup", Layer::kBench);
  Tracer::Scope s(tracer, "tables.parse", Layer::kTables);
  out.clear();
  out.reserve(pool.size());
  for (const HardInstance& h : pool) {
    Parsed p;
    pw::ParseDatabaseResult lhs = pw::ParseCDatabase(h.text, nullptr);
    if (!lhs.ok()) return false;
    p.db = std::move(*lhs.database);
    if (!h.rhs_text.empty()) {
      pw::ParseDatabaseResult rhs = pw::ParseCDatabase(h.rhs_text, nullptr);
      if (!rhs.ok()) return false;
      p.rhs = std::move(*rhs.database);
    }
    out.push_back(std::move(p));
  }
  return true;
}

const char* SpanName(const std::string& type) {
  if (type == "memb") return "decision.membership";
  if (type == "poss") return "decision.possibility";
  if (type == "cert") return "decision.certainty";
  return "decision.containment";
}

const char* RequestName(const std::string& type) {
  if (type == "memb") return "request.memb";
  if (type == "poss") return "request.poss";
  if (type == "cert") return "request.cert";
  return "request.cont";
}

bool Decide(const HardInstance& h, const Parsed& p) {
  if (h.type == "memb") {
    return h.view.is_identity() ? pw::Membership(p.db, h.instance)
                                : pw::MembershipInView(h.view, p.db, h.instance);
  }
  if (h.type == "poss") {
    return pw::PossibilityUnbounded(pw::View::Identity(), p.db, h.instance);
  }
  if (h.type == "cert") {
    return pw::Certainty(pw::View::Identity(), p.db, h.pattern);
  }
  return pw::Containment(h.view, p.db, h.rhs_view, p.rhs);
}

/// The dispatcher's first PTIME entry point for this request, if it has
/// one: nullopt from it means the dispatcher moves on to a harder route.
std::optional<std::optional<bool>> ProbeFastPath(const HardInstance& h,
                                                 const Parsed& p) {
  if (h.type == "memb") {
    if (!h.view.is_identity()) return std::nullopt;
    return pw::MembershipCoddTables(p.db, h.instance);
  }
  if (h.type == "poss") return pw::PossUnboundedCoddTables(p.db, h.instance);
  if (h.type == "cert") {
    return pw::CertDatalogGTables(pw::View::Identity(), p.db, h.pattern);
  }
  if (h.view.is_identity() && h.rhs_view.is_identity()) {
    return pw::ContGTablesInCoddTables(p.db, p.rhs);
  }
  return std::nullopt;
}

}  // namespace

WorkloadResult RunDecideHard(const RunConfig& config) {
  WorkloadResult result;
  result.workload = config.workload;
  double class_ms[4] = {0, 0, 0, 0};
  std::map<std::string, std::vector<double>> family_ms;
  uint64_t probes = 0;
  uint64_t probe_hits = 0;
  pw::ConditionInterner::Stats interner0;
  pw::ConditionInterner::Stats interner1;
  size_t conjunctions = 0;
  WorkloadResult::ClientLoop client;

  const double cpu0 = ProcessCpuSeconds();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(config.seconds * 1e9);
  uint64_t n = 0;  // requests issued so far
  for (uint64_t epoch = 0; epoch < kSetupRepetitions || NowNs() < deadline;
       ++epoch) {
    // Each epoch runs on a fresh thread, so its thread-local interner starts
    // cold, and gets instances no earlier epoch saw.
    RunOnFreshThread([&] {
      std::vector<HardInstance> pool;
      int64_t g0 = NowNs();
      for (uint64_t i = 0; i < kHardEpochInstances; ++i) {
        pool.push_back(
            GenerateHard(config.seed, epoch * kHardEpochInstances + i));
      }
      result.oracle_s += (NowNs() - g0) / 1e9;  // the oracles run here

      // kSetupBuilds cold parses of the pool: the extra ones on fresh
      // threads on the next CPUs, the last one on this thread, which
      // serves it.
      Tracer tracer(config.trace);
      std::vector<Parsed> parsed;
      double setup_s = 0;
      bool ok = true;
      for (int b = 0; b + 1 < kSetupBuilds; ++b) {
        RunOnFreshThread(
            [&] {
              Tracer off(false);
              std::vector<Parsed> extra;
              int64_t t0 = NowNs();
              ok &= ParseAll(pool, extra, off);
              setup_s += (NowNs() - t0) / 1e9;
            },
            epoch + 1 + static_cast<uint64_t>(b));
      }
      int64_t t0 = NowNs();
      ok &= ParseAll(pool, parsed, tracer);
      setup_s += (NowNs() - t0) / 1e9;
      result.setup_s.push_back(setup_s / kSetupBuilds);
      if (!ok) {
        ++result.check.errors;
        NoteMismatch(result, "ParseCDatabase rejected a generated instance");
        return;
      }
      pw::ConditionInterner& interner = pw::ConditionInterner::Global();
      if (epoch == 0) interner0 = interner.stats();
      const int64_t loop0 = NowNs();
      double probe_s = 0;
      for (size_t k = 0; k < pool.size() && NowNs() < deadline; ++k, ++n) {
        const HardInstance& h = pool[k];
        tracer.SetRequest(static_cast<uint32_t>(n + 1));
        bool got = false;
        int64_t q0 = NowNs();
        {
          Tracer::Scope req(tracer, RequestName(h.type), Layer::kBench);
          Tracer::Scope s(tracer, SpanName(h.type), Layer::kDecision);
          got = Decide(h, parsed[k]);
        }
        const double ms = (NowNs() - q0) / 1e6;
        result.latency_ms[h.type].push_back(ms);
        family_ms[h.family].push_back(ms);
        class_ms[static_cast<int>(h.predicted)] += ms;
        ++client.requests;
        if (tracer.enabled()) {
          int64_t p0 = NowNs();
          {
            Tracer::Scope probe(tracer, "probe.fastpath", Layer::kDecision);
            std::optional<std::optional<bool>> fast =
                ProbeFastPath(h, parsed[k]);
            ++probes;
            if (fast.has_value() && fast->has_value()) ++probe_hits;
          }
          probe_s += (NowNs() - p0) / 1e9;
        }
        bool expected = h.expected;
        if (static_cast<int64_t>(n) == config.inject_wrong) {
          expected = !expected;
        }
        if (!result.check.Record(got, expected)) {
          NoteMismatch(result, h.family + " #" +
                                   std::to_string(epoch * kHardEpochInstances +
                                                  k) +
                                   " got " + (got ? "yes" : "no"));
        }
        if (n < kYesPrefix) {
          ++result.prefix_requests;
          result.yes_prefix += got ? 1 : 0;
        }
        if (epoch == 0 && k + 1 == kYesPrefix) {
          interner1 = interner.stats();
          conjunctions = interner.num_conjunctions();
        }
      }
      parsed.clear();  // the parsed tables are the library's to free
      client.seconds += (NowNs() - loop0) / 1e9 - probe_s;
      result.spans.push_back(tracer.spans());
    }, epoch);
  }
  result.clients.push_back(client);
  result.timed_wall_s = (NowNs() - start) / 1e9;
  result.timed_cpu_s = ProcessCpuSeconds() - cpu0;

  double total = class_ms[0] + class_ms[1] + class_ms[2] + class_ms[3];
  auto share = [&](pw::ComplexityClass c) {
    return total > 0 ? class_ms[static_cast<int>(c)] / total : 0;
  };
  result.layer["decision.share.ptime"] = {share(pw::ComplexityClass::kPTime),
                                          "fraction"};
  result.layer["decision.share.np"] = {share(pw::ComplexityClass::kNp),
                                       "fraction"};
  result.layer["decision.share.conp"] = {share(pw::ComplexityClass::kCoNp),
                                         "fraction"};
  result.layer["decision.share.pi2p"] = {share(pw::ComplexityClass::kPi2p),
                                         "fraction"};
  result.layer["decision.fastpath_hit_ratio"] = {
      probes > 0 ? static_cast<double>(probe_hits) / probes : 0, "fraction"};
  // Interner counters over the first kYesPrefix requests of epoch 0, which
  // the seed alone determines.
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  const auto& s0 = interner0;
  const auto& s1 = interner1;
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
  result.layer["condition.conjunctions"] = {static_cast<double>(conjunctions),
                                            "count"};
  for (const auto& [family, samples] : family_ms) {
    result.notes.push_back(family + " p50_ms=" +
                           std::to_string(Percentile(samples, 0.5)) +
                           " p90_ms=" + std::to_string(Percentile(samples, 0.9)) +
                           " max_ms=" + std::to_string(Percentile(samples, 1)) +
                           " n=" + std::to_string(samples.size()));
  }
  return result;
}

}  // namespace pwbench
