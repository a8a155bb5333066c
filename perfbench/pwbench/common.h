// Shared pieces of the benchmark: run configuration, the per-workload result
// every runner fills, percentile arithmetic and the report printer.

#ifndef PWBENCH_COMMON_H_
#define PWBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "pwbench/trace.h"

namespace pwbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Request index whose expected answer is flipped (-1: none) — shows that
  /// a wrong answer is counted and fails the run.
  int64_t inject_wrong = -1;
  /// Where the traced run writes its spans ("" = nowhere).
  std::string span_file;
};

/// Linear-interpolation percentile (q in [0, 1]) of unsorted samples, the
/// definition numpy uses by default. 0 for an empty sample.
double Percentile(std::vector<double> samples, double q);

double Median(std::vector<double> samples);

/// Counts answers against the oracle: every request is attempted once and
/// is a failure if it errs, stops on a budget, or disagrees with the oracle.
struct AnswerCheck {
  uint64_t attempted = 0;
  uint64_t wrong = 0;
  uint64_t errors = 0;
  uint64_t budget_stops = 0;

  /// Records one answered request; returns true iff it was correct.
  bool Record(bool got, bool expected);
  uint64_t failed() const { return wrong + errors + budget_stops; }
  double failed_ratio() const {
    return attempted == 0 ? 0.0 : static_cast<double>(failed()) / attempted;
  }
};

/// A metric value with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run produces: the runner fills the raw samples, and
/// EndToEndMetrics/PerLayerMetrics derive the reported figures.
struct WorkloadResult {
  std::string workload;
  int threads = 1;              // threads issuing requests
  std::vector<double> setup_s;  // one sample per setup repetition
  /// Latency samples by request type (memb, poss, cert, cont, query,
  /// insert, delete, update).
  std::map<std::string, std::vector<double>> latency_ms;
  /// One entry per closed-loop client: the requests it completed and the
  /// wall time of its request loop less the benchmark's own work in that
  /// loop (request generation, oracles, probes). The throughput is the sum
  /// of the clients' rates.
  struct ClientLoop {
    uint64_t requests = 0;
    double seconds = 0;
  };
  std::vector<ClientLoop> clients;
  AnswerCheck check;
  /// Mismatch descriptions (first few), printed with the report.
  std::vector<std::string> mismatches;
  double oracle_s = 0;
  /// Wall and CPU time of the timed phase, for process.cpu_util.
  double timed_wall_s = 0;
  double timed_cpu_s = 0;
  /// YES answers over the first kYesPrefix requests of each stream: the
  /// stream is fixed by the seed, so this repeats exactly per seed.
  uint64_t yes_prefix = 0;
  uint64_t prefix_requests = 0;
  /// Per-layer metrics the runner measured directly (counters, ratios).
  std::map<std::string, Metric> layer;
  /// Extra lines for the human-readable report.
  std::vector<std::string> notes;
  /// Spans of every thread (traced runs only).
  std::vector<std::vector<Span>> spans;
};

/// Requests per stream that decision.yes_ratio covers (and, on
/// decide_hard, the interner counters).
inline constexpr uint64_t kYesPrefix = 200;

/// Adds a request failure description (keeps the first few).
void NoteMismatch(WorkloadResult& result, const std::string& what);

/// Peak resident set size of this process in MB.
double PeakRssMb();

/// User + system CPU seconds of this process so far.
double ProcessCpuSeconds();

/// Geometric mean over request types of each type's q-percentile latency,
/// so that every request type moves it, whatever its share of the mix.
/// Types without samples are skipped; 0 when no type has any.
double TypeGeomeanPercentile(
    const std::map<std::string, std::vector<double>>& latency_ms, double q);

/// Derives every end-to-end metric from the samples.
std::map<std::string, Metric> EndToEndMetrics(const WorkloadResult& result);

/// Derives the per-layer metrics from spans plus the runner's counters.
std::map<std::string, Metric> PerLayerMetrics(const WorkloadResult& result);

/// Every per-layer metric the binary reports, with its unit.
/// process.trace_overhead comes on top, from perfbench/run.py, which
/// compares a traced and an untraced process.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetricNames();

/// Human-readable report: run record, per-type latencies with sample
/// counts, failures, layer shares. Written to stdout.
void PrintReport(const RunConfig& config, const WorkloadResult& result,
                 const std::map<std::string, Metric>& e2e,
                 const std::map<std::string, Metric>& layer);

/// The final machine-readable line.
std::string ResultJson(const WorkloadResult& result,
                       const std::map<std::string, Metric>& e2e,
                       const std::map<std::string, Metric>& layer);

/// Pins the calling thread to one CPU; a no-op on a machine without it.
/// The workloads move their threads over every CPU on a fixed schedule:
/// on a shared host one CPU can be slowed for minutes, and a run parked on
/// it would read that slowdown as the program's.
void PinToCpu(int cpu);

/// Runs `fn` on a fresh thread and waits for it: each setup repetition or
/// epoch gets a cold thread-local condition interner, as a new process
/// would. The thread is pinned to CPU `index` modulo the CPU count, so
/// successive epochs rotate over every CPU and a run does not hinge on how
/// busy one of them is.
void RunOnFreshThread(const std::function<void()>& fn, uint64_t index);

/// Deterministic 64-bit generator for the benchmark's own inputs
/// (splitmix64), so generated bytes depend on the seed alone.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  int Int(int lo, int hi) {  // uniform in [lo, hi]
    return lo + static_cast<int>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }
  bool Chance(double p) { return (Next() >> 11) * 0x1.0p-53 < p; }

 private:
  uint64_t state_;
};

/// A seed derived from `seed` and an index (an epoch, a thread, ...).
uint64_t SubSeed(uint64_t seed, uint64_t index);

/// Shuffles `v` with `rng` (Fisher-Yates).
template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.Below(i)]);
  }
}

/// A block-stratified request mix: each block of sum(weights) requests holds
/// exactly weights[k] requests of kind k, in a seeded order. Keeps the
/// realized mix identical across runs and seeds.
class MixStream {
 public:
  MixStream(std::vector<int> weights, uint64_t seed);
  int Next();

 private:
  std::vector<int> block_;
  size_t pos_ = 0;
  Rng rng_;
};

}  // namespace pwbench

#endif  // PWBENCH_COMMON_H_
