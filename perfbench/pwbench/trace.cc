#include "pwbench/trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <utility>

namespace pwbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kBench:
      return "bench";
    case Layer::kTables:
      return "tables";
    case Layer::kIlalgebra:
      return "ilalgebra";
    case Layer::kDatalog:
      return "datalog";
    case Layer::kDecision:
      return "decision";
  }
  return "?";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t Tracer::Open(const char* name, Layer layer, int32_t parent) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = parent;
  span.request = request_;
  spans_.push_back(span);
  int32_t index = static_cast<int32_t>(spans_.size() - 1);
  current_ = index;
  spans_[static_cast<size_t>(index)].start_ns = NowNs();
  return index;
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, Layer layer) {
  if (!tracer.enabled_) return;
  tracer_ = &tracer;
  saved_parent_ = tracer.current_;
  index_ = tracer.Open(name, layer, tracer.current_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<size_t>(index_)].end_ns = NowNs();
  tracer_->current_ = saved_parent_;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    int64_t lo = std::max(s.start_ns, p.start_ns);
    int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[static_cast<size_t>(s.parent)].push_back({lo, hi});
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = std::max<int64_t>(0, spans[i].end_ns - spans[i].start_ns - covered);
  }
  return self;
}

std::map<std::string, RootBreakdown> BreakdownByRoot(
    const std::vector<Span>& spans) {
  std::vector<int64_t> self = SelfTimes(spans);
  std::vector<int32_t> root(spans.size(), -1);
  std::map<std::string, RootBreakdown> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    // Parents are recorded before their children.
    int32_t p = spans[i].parent;
    root[i] = p < 0 ? static_cast<int32_t>(i) : root[static_cast<size_t>(p)];
    const Span& r = spans[static_cast<size_t>(root[i])];
    RootBreakdown& b = out[r.name];
    if (p < 0) {
      ++b.count;
      b.wall_ns += spans[i].end_ns - spans[i].start_ns;
    }
    b.self_ns[static_cast<size_t>(spans[i].layer)] += self[i];
  }
  return out;
}

std::vector<double> DurationsMs(const std::vector<Span>& spans,
                                const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) out.push_back((s.end_ns - s.start_ns) / 1e6);
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<std::vector<Span>>& per_thread) {
  std::ofstream out(path);
  if (!out) return false;
  out << "thread\tindex\tparent\trequest\tlayer\tname\tstart_ns\tend_ns\n";
  for (size_t t = 0; t < per_thread.size(); ++t) {
    const auto& spans = per_thread[t];
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << t << '\t' << i << '\t' << s.parent << '\t' << s.request << '\t'
          << LayerName(s.layer) << '\t' << s.name << '\t' << s.start_ns
          << '\t' << s.end_ns << '\n';
    }
  }
  return static_cast<bool>(out);
}

}  // namespace pwbench
