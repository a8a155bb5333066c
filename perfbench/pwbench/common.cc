#include "pwbench/common.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <thread>

namespace pwbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  double pos = q * static_cast<double>(samples.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, samples.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

bool AnswerCheck::Record(bool got, bool expected) {
  ++attempted;
  if (got != expected) {
    ++wrong;
    return false;
  }
  return true;
}

void NoteMismatch(WorkloadResult& result, const std::string& what) {
  if (result.mismatches.size() < 8) result.mismatches.push_back(what);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double TypeGeomeanPercentile(
    const std::map<std::string, std::vector<double>>& latency_ms, double q) {
  double log_sum = 0;
  int types = 0;
  for (const auto& [type, samples] : latency_ms) {
    if (samples.empty()) continue;
    log_sum += std::log(Percentile(samples, q));
    ++types;
  }
  return types == 0 ? 0 : std::exp(log_sum / types);
}

std::map<std::string, Metric> EndToEndMetrics(const WorkloadResult& result) {
  double rate = 0;
  for (const WorkloadResult::ClientLoop& c : result.clients) {
    if (c.seconds > 0) rate += static_cast<double>(c.requests) / c.seconds;
  }
  std::map<std::string, Metric> m;
  m["setup_s"] = {Median(result.setup_s), "s"};
  m["throughput_ops_s"] = {rate, "ops/s"};
  m["peak_rss_mb"] = {PeakRssMb(), "MB"};
  m["lat_p50_ms"] = {TypeGeomeanPercentile(result.latency_ms, 0.5), "ms"};
  m["lat_p90_ms"] = {TypeGeomeanPercentile(result.latency_ms, 0.9), "ms"};
  return m;
}

namespace {

std::map<std::string, RootBreakdown> MergedBreakdown(
    const WorkloadResult& result) {
  std::map<std::string, RootBreakdown> merged;
  for (const auto& spans : result.spans) {
    for (const auto& [name, b] : BreakdownByRoot(spans)) {
      RootBreakdown& m = merged[name];
      m.count += b.count;
      m.wall_ns += b.wall_ns;
      for (int l = 0; l < kNumLayers; ++l) m.self_ns[l] += b.self_ns[l];
    }
  }
  return merged;
}

bool IsRequestRoot(const std::string& name) {
  return name.rfind("request.", 0) == 0;
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Short(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

}  // namespace

std::map<std::string, Metric> PerLayerMetrics(const WorkloadResult& result) {
  std::map<std::string, Metric> m = result.layer;
  std::map<std::string, RootBreakdown> merged = MergedBreakdown(result);
  int64_t wall = 0;
  std::array<int64_t, kNumLayers> self{};
  double unaccounted_max = 0;
  for (const auto& [name, b] : merged) {
    if (!IsRequestRoot(name) || b.wall_ns <= 0) continue;
    wall += b.wall_ns;
    for (int l = 0; l < kNumLayers; ++l) self[l] += b.self_ns[l];
    unaccounted_max = std::max(
        unaccounted_max,
        static_cast<double>(b.self_ns[static_cast<size_t>(Layer::kBench)]) /
            static_cast<double>(b.wall_ns));
  }
  for (Layer layer : {Layer::kTables, Layer::kIlalgebra, Layer::kDatalog,
                      Layer::kDecision}) {
    double share = wall > 0 ? static_cast<double>(
                                  self[static_cast<size_t>(layer)]) /
                                  static_cast<double>(wall)
                            : 0;
    m[std::string(LayerName(layer)) + ".share"] = {share, "fraction"};
  }
  m["trace.unaccounted_max"] = {unaccounted_max, "fraction"};
  m["decision.yes_ratio"] = {
      result.prefix_requests > 0 ? static_cast<double>(result.yes_prefix) /
                                       result.prefix_requests
                                 : 0,
      "fraction"};
  m["process.cpu_util"] = {
      result.timed_wall_s > 0
          ? result.timed_cpu_s / (result.timed_wall_s * result.threads)
          : 0,
      "fraction"};
  m["bench.oracle_s"] = {result.oracle_s, "s"};
  // Median span duration of each timed public call (the probes included),
  // over every thread's spans.
  struct SpanMetric {
    const char* metric;
    const char* span;
    double per_ms;  // unit conversion from milliseconds
    const char* unit;
  };
  static const SpanMetric kSpanMetrics[] = {
      {"tables.parse_s", "tables.parse", 1e-3, "s"},
      {"tables.snapshot_read_us", "tables.snapshot_read", 1e3, "us"},
      {"tables.mutate_ms", "tables.mutate", 1, "ms"},
      {"ilalgebra.materialize_s", "ilalgebra.materialize", 1e-3, "s"},
      {"ilalgebra.query_ms", "ilalgebra.query", 1, "ms"},
      {"datalog.analysis_ms", "datalog.analysis", 1, "ms"},
      {"datalog.magic_rewrite_ms", "datalog.magic_rewrite", 1, "ms"},
      {"datalog.ivm_insert_ms", "datalog.ivm_insert", 1, "ms"},
      {"datalog.ivm_insert_if_ms", "datalog.ivm_insert_if", 1, "ms"},
      {"datalog.ivm_delete_ms", "datalog.ivm_delete", 1, "ms"},
      {"decision.membership_ms", "decision.membership", 1, "ms"},
      {"decision.possibility_ms", "decision.possibility", 1, "ms"},
      {"decision.certainty_ms", "decision.certainty", 1, "ms"},
      {"decision.containment_ms", "decision.containment", 1, "ms"},
  };
  for (const SpanMetric& sm : kSpanMetrics) {
    std::vector<double> ms;
    for (const auto& spans : result.spans) {
      for (double d : DurationsMs(spans, sm.span)) ms.push_back(d);
    }
    m[sm.metric] = {Median(ms) * sm.per_ms, sm.unit};
  }
  // Every workload reports every metric; one a workload never exercises
  // reads 0.
  for (const auto& [name, unit] : PerLayerMetricNames()) {
    if (m.count(name) == 0) m[name] = {0, unit};
  }
  return m;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"tables.parse_s", "s"},
      {"tables.snapshot_read_us", "us"},
      {"tables.mutate_ms", "ms"},
      {"tables.writer_lateness_ms", "ms"},
      {"tables.versions", "count"},
      {"tables.share", "fraction"},
      {"condition.conjunctions", "count"},
      {"condition.and_hit_ratio", "fraction"},
      {"condition.implies_hit_ratio", "fraction"},
      {"condition.intern_hit_ratio", "fraction"},
      {"ilalgebra.materialize_s", "s"},
      {"ilalgebra.query_ms", "ms"},
      {"ilalgebra.rounds", "count"},
      {"ilalgebra.derived_rows", "count"},
      {"ilalgebra.magic_facts", "count"},
      {"ilalgebra.kept_ratio", "fraction"},
      {"ilalgebra.rows_per_probe", "rows"},
      {"ilalgebra.share", "fraction"},
      {"datalog.analysis_ms", "ms"},
      {"datalog.magic_rewrite_ms", "ms"},
      {"datalog.ivm_insert_ms", "ms"},
      {"datalog.ivm_insert_if_ms", "ms"},
      {"datalog.ivm_delete_ms", "ms"},
      {"datalog.ivm_covered_ratio", "fraction"},
      {"datalog.ivm_overdeleted_per_delete", "rows"},
      {"datalog.ivm_seeded_ratio", "fraction"},
      {"datalog.share", "fraction"},
      {"decision.membership_ms", "ms"},
      {"decision.possibility_ms", "ms"},
      {"decision.certainty_ms", "ms"},
      {"decision.containment_ms", "ms"},
      {"decision.share.ptime", "fraction"},
      {"decision.share.np", "fraction"},
      {"decision.share.conp", "fraction"},
      {"decision.share.pi2p", "fraction"},
      {"decision.fastpath_hit_ratio", "fraction"},
      {"decision.yes_ratio", "fraction"},
      {"decision.share", "fraction"},
      {"process.cpu_util", "fraction"},
      {"bench.oracle_s", "s"},
      {"trace.unaccounted_max", "fraction"},
  };
  return names;
}

void PrintReport(const RunConfig& config, const WorkloadResult& result,
                 const std::map<std::string, Metric>& e2e,
                 const std::map<std::string, Metric>& layer) {
  std::ostringstream out;
  out << "== pwbench workload=" << config.workload << " seed=" << config.seed
      << " seconds=" << config.seconds << " trace=" << config.trace
      << " threads=" << result.threads
      << " closed_loop_clients=" << result.clients.size() << "\n";
  out << "-- end-to-end\n";
  for (const auto& [name, metric] : e2e) {
    out << "  " << name << " = " << Short(metric.value) << " " << metric.unit
        << "\n";
  }
  out << "  failed_ratio = " << Short(result.check.failed_ratio())
      << " fraction (wrong " << result.check.wrong << ", errors "
      << result.check.errors << ", budget stops " << result.check.budget_stops
      << " of " << result.check.attempted << ")\n";
  out << "  setup repetitions: n = " << result.setup_s.size()
      << "  min = " << Short(Percentile(result.setup_s, 0))
      << "  p50 = " << Short(Percentile(result.setup_s, 0.5))
      << "  max = " << Short(Percentile(result.setup_s, 1)) << " s\n";
  out << "-- latency by request type\n";
  for (const auto& [type, samples] : result.latency_ms) {
    out << "  " << type << "_p50_ms = " << Short(Percentile(samples, 0.5))
        << "  " << type << "_p90_ms = " << Short(Percentile(samples, 0.9))
        << "  max = " << Short(Percentile(samples, 1.0))
        << "  n = " << samples.size() << "\n";
  }
  for (const std::string& what : result.mismatches) {
    out << "  MISMATCH " << what << "\n";
  }
  if (config.trace) {
    out << "-- per-layer\n";
    for (const auto& [name, metric] : layer) {
      out << "  " << name << " = " << Short(metric.value) << " " << metric.unit
          << "\n";
    }
    out << "-- layer self-time shares of each request type's wall time\n";
    for (const auto& [name, b] : MergedBreakdown(result)) {
      if (b.wall_ns <= 0) continue;
      out << "  " << name << " n=" << b.count
          << " wall_ms=" << Short(b.wall_ns / 1e6);
      for (int l = 0; l < kNumLayers; ++l) {
        if (b.self_ns[l] == 0) continue;
        out << " " << LayerName(static_cast<Layer>(l)) << "="
            << Short(static_cast<double>(b.self_ns[l]) / b.wall_ns);
      }
      out << "\n";
    }
    out << "-- spans by name (ms)\n";
    std::map<std::string, std::vector<double>> by_name;
    for (const auto& spans : result.spans) {
      for (const Span& s : spans) {
        by_name[s.name].push_back((s.end_ns - s.start_ns) / 1e6);
      }
    }
    for (const auto& [name, d] : by_name) {
      double sum = 0;
      for (double x : d) sum += x;
      out << "  " << name << " n=" << d.size()
          << " p50=" << Short(Percentile(d, 0.5))
          << " p90=" << Short(Percentile(d, 0.9))
          << " mean=" << Short(sum / static_cast<double>(d.size())) << "\n";
    }
  }
  for (const std::string& note : result.notes) out << "  " << note << "\n";
  std::cout << out.str() << std::flush;
}

std::string ResultJson(const WorkloadResult& result,
                       const std::map<std::string, Metric>& e2e,
                       const std::map<std::string, Metric>& layer) {
  double total_ms = 0;
  size_t n = 0;
  for (const auto& [type, samples] : result.latency_ms) {
    for (double x : samples) total_ms += x;
    n += samples.size();
  }
  auto section = [](const std::map<std::string, Metric>& metrics) {
    std::string s = "{";
    bool first = true;
    for (const auto& [name, metric] : metrics) {
      if (!first) s += ", ";
      first = false;
      s += "\"" + name + "\": {\"value\": " + Fmt(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
    }
    return s + "}";
  };
  std::string s = "{\"workload\": \"" + result.workload + "\"";
  s += ", \"correct\": ";
  s += result.check.failed() == 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(result.check.attempted);
  s += ", \"failed\": " + std::to_string(result.check.failed());
  s += ", \"mean_latency_ms\": " + Fmt(n > 0 ? total_ms / n : 0);
  s += ", \"end_to_end\": " + section(e2e);
  s += ", \"per_layer\": " + section(layer);
  return s + "}";
}

void PinToCpu(int cpu) {
  if (cpu >= static_cast<int>(std::thread::hardware_concurrency())) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

void RunOnFreshThread(const std::function<void()>& fn, uint64_t index) {
  std::thread t([&fn, index] {
    const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
    PinToCpu(static_cast<int>(index % cpus));
    fn();
  });
  t.join();
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t SubSeed(uint64_t seed, uint64_t index) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + index + 1);
  return rng.Next();
}

MixStream::MixStream(std::vector<int> weights, uint64_t seed) : rng_(seed) {
  for (size_t k = 0; k < weights.size(); ++k) {
    for (int i = 0; i < weights[k]; ++i) block_.push_back(static_cast<int>(k));
  }
  pos_ = block_.size();
}

int MixStream::Next() {
  if (pos_ == block_.size()) {
    Shuffle(block_, rng_);
    pos_ = 0;
  }
  return block_[pos_++];
}

}  // namespace pwbench
