// Tests of the benchmark's own arithmetic and generators: percentiles and
// sample counts, failure counting (with an injected wrong expected answer),
// self-time arithmetic on a hand-built span tree, and input determinism.
//
// Run by `python3 perfbench/run.py --self-test`, or directly from the build
// directory as ./pwbench_test (exit status 0 iff every check holds).

#include <cmath>
#include <iostream>
#include <string>

#include "pwbench/common.h"
#include "pwbench/gen.h"
#include "pwbench/trace.h"
#include "pwbench/workloads.h"

namespace pwbench {
namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAILED: " << what << "\n";
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentiles() {
  Check(Percentile({}, 0.5) == 0, "empty sample");
  Check(Near(Percentile({7}, 0.9), 7), "single sample");
  Check(Near(Percentile({5, 1, 4, 2, 3}, 0.5), 3), "median of unsorted");
  Check(Near(Percentile({1, 2, 3, 4, 5}, 0.9), 4.6), "p90 interpolates");
  Check(Near(Percentile({1, 2, 3, 4}, 0.5), 2.5), "even-count median");
  Check(Near(Percentile({1, 2, 3, 4, 5}, 1.0), 5), "p100 is the max");

  // The end-to-end latencies are geometric means over request types of
  // each type's percentile; the throughput sums the clients' rates.
  WorkloadResult r;
  r.latency_ms["a"] = {1, 2, 3, 4, 5};
  r.latency_ms["b"] = {6, 7, 8, 9, 10};
  r.latency_ms["c"] = {};  // a type without samples is skipped
  r.setup_s = {0.3, 0.1, 0.2};
  r.clients = {{10, 0.05}, {6, 0.03}};
  auto m = EndToEndMetrics(r);
  Check(Near(m["lat_p50_ms"].value, std::sqrt(3.0 * 8.0)), "geomean p50");
  Check(Near(m["lat_p90_ms"].value, std::sqrt(4.6 * 9.6)), "geomean p90");
  Check(Near(m["setup_s"].value, 0.2), "setup is the median repetition");
  Check(Near(m["throughput_ops_s"].value, 10 / 0.05 + 6 / 0.03),
        "throughput sums the clients' rates");
  Check(m.size() == 5, "five end-to-end metrics");
  Check(m["lat_p50_ms"].unit == "ms" && m["setup_s"].unit == "s",
        "units");

  // A slowdown of one type moves the metric however few samples it has:
  // one type of two, 5x slower, moves it by sqrt(5).
  WorkloadResult slow = r;
  slow.latency_ms["a"] = {5, 10, 15, 20, 25, 30, 35, 40, 45, 50};
  r.latency_ms["a"] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  r.latency_ms["b"] = std::vector<double>(1000, 8.0);
  slow.latency_ms["b"] = r.latency_ms["b"];
  Check(Near(EndToEndMetrics(slow)["lat_p50_ms"].value /
                 EndToEndMetrics(r)["lat_p50_ms"].value,
             std::sqrt(5.0)),
        "a minority type's slowdown moves the geomean");
  Check(TypeGeomeanPercentile({}, 0.5) == 0, "no samples at all");
}

void TestFailureCounting() {
  AnswerCheck c;
  Check(c.Record(true, true), "right answer");
  Check(!c.Record(true, false), "wrong answer");
  ++c.errors;
  ++c.budget_stops;
  ++c.attempted;
  ++c.attempted;
  Check(c.attempted == 4 && c.failed() == 3, "failures counted");
  Check(Near(c.failed_ratio(), 0.75), "failed_ratio");

  // A real (short) run with one expected answer flipped: exactly that
  // request fails; the same run without the flip fails none.
  RunConfig config;
  config.workload = "decide_hard";
  config.seed = 5;
  config.seconds = 0.2;
  WorkloadResult clean = RunDecideHard(config);
  Check(clean.check.attempted > 10 && clean.check.failed() == 0,
        "clean decide_hard run has no failures");
  config.inject_wrong = 3;
  WorkloadResult injected = RunDecideHard(config);
  Check(injected.check.wrong == 1 && injected.check.failed() == 1,
        "injected wrong expected answer is counted once");
  Check(injected.check.failed_ratio() > 0, "and shows in failed_ratio");
}

void TestSelfTimes() {
  // root [0,100] bench
  //   a [10,40] tables
  //   b [50,90] decision
  //     c [60,70] tables
  //     d [85,95] tables  (runs past its parent: clipped to [85,90])
  std::vector<Span> spans(5);
  spans[0] = {"request.x", Layer::kBench, 0, 100, -1, 1};
  spans[1] = {"a", Layer::kTables, 10, 40, 0, 1};
  spans[2] = {"b", Layer::kDecision, 50, 90, 0, 1};
  spans[3] = {"c", Layer::kTables, 60, 70, 2, 1};
  spans[4] = {"d", Layer::kTables, 85, 95, 2, 1};
  std::vector<int64_t> self = SelfTimes(spans);
  Check(self[0] == 30, "root self = 100 - 30 - 40");
  Check(self[1] == 30, "leaf self = duration");
  Check(self[2] == 25, "b self = 40 - 10 - 5 (clipped child)");
  Check(self[3] == 10, "c self");

  // Overlapping children are covered once.
  std::vector<Span> overlap(3);
  overlap[0] = {"request.y", Layer::kBench, 0, 100, -1, 2};
  overlap[1] = {"p", Layer::kTables, 10, 60, 0, 2};
  overlap[2] = {"q", Layer::kTables, 40, 80, 0, 2};
  Check(SelfTimes(overlap)[0] == 30, "union of overlapping children");

  auto b = BreakdownByRoot(spans);
  const RootBreakdown& x = b["request.x"];
  Check(x.count == 1 && x.wall_ns == 100, "root wall");
  Check(x.self_ns[static_cast<size_t>(Layer::kBench)] == 30, "bench share");
  Check(x.self_ns[static_cast<size_t>(Layer::kDecision)] == 25,
        "decision share");
  Check(x.self_ns[static_cast<size_t>(Layer::kTables)] == 50, "tables share");

  WorkloadResult r;
  r.spans.push_back(spans);
  auto layer = PerLayerMetrics(r);
  Check(Near(layer["tables.share"].value, 0.5), "tables.share");
  Check(Near(layer["decision.share"].value, 0.25), "decision.share");
  Check(Near(layer["trace.unaccounted_max"].value, 0.3), "unaccounted");
  Check(layer.size() == PerLayerMetricNames().size(),
        "every per-layer metric reported");

  // A tracer that is off records nothing; one that is on nests its scopes.
  Tracer off(false);
  { Tracer::Scope s(off, "x", Layer::kTables); }
  Check(off.spans().empty(), "disabled tracer records nothing");
  Tracer on(true);
  on.SetRequest(9);
  {
    Tracer::Scope outer(on, "outer", Layer::kBench);
    Tracer::Scope inner(on, "inner", Layer::kTables);
  }
  { Tracer::Scope next(on, "next", Layer::kBench); }
  Check(on.spans().size() == 3 && on.spans()[1].parent == 0 &&
            on.spans()[2].parent == -1 && on.spans()[1].request == 9,
        "scopes nest and carry the request id");
}

void TestDeterminism() {
  Check(GenerateServe(7).text == GenerateServe(7).text, "serve input bytes");
  Check(GenerateServe(7).text != GenerateServe(8).text, "serve seeds differ");
  Check(GenerateView(7).text == GenerateView(7).text, "view input bytes");
  Check(GenerateView(7).text != GenerateView(8).text, "view seeds differ");
  for (uint64_t i = 0; i < 40; ++i) {
    HardInstance a = GenerateHard(7, i);
    HardInstance b = GenerateHard(7, i);
    Check(a.family == b.family && a.text == b.text &&
              a.rhs_text == b.rhs_text && a.expected == b.expected,
          "hard instance " + std::to_string(i));
  }
  const ServeInput in = GenerateServe(7);
  ServeReadStream s1(in, 7, 0);
  ServeReadStream s2(in, 7, 0);
  bool same = true;
  for (int i = 0; i < 100; ++i) {
    ServeRead a = s1.Next();
    ServeRead b = s2.Next();
    same &= a.possibility == b.possibility && a.a == b.a && a.b == b.b;
  }
  Check(same, "reader stream");
  auto w1 = GenerateServeWrites(in, 7, 100);
  auto w2 = GenerateServeWrites(in, 7, 100);
  bool writes = w1.size() == w2.size();
  for (size_t i = 0; writes && i < w1.size(); ++i) {
    writes = w1[i].insert == w2[i].insert && w1[i].a == w2[i].a &&
             w1[i].b == w2[i].b;
  }
  Check(writes, "writer schedule");

  // The mix holds exactly its weights in every block.
  MixStream mix({3, 2}, 7);
  int first = 0;
  for (int i = 0; i < 50; ++i) first += mix.Next() == 0;
  Check(first == 30, "block-stratified mix");
}

}  // namespace
}  // namespace pwbench

int main() {
  pwbench::TestPercentiles();
  pwbench::TestFailureCounting();
  pwbench::TestSelfTimes();
  pwbench::TestDeterminism();
  if (pwbench::failures == 0) std::cout << "pwbench_test: all checks pass\n";
  return pwbench::failures == 0 ? 0 : 1;
}
