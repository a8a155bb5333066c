// Benchmark-side tracing: spans recorded around every call the benchmark
// makes into a library layer.
//
// A span holds its name, layer, start, end, parent span and request id. The
// spans of one request share its id; setup calls share id 0. Spans stay in
// memory (one Tracer per thread, no locking) and are written out when the
// run ends. A disabled tracer records nothing, so an untraced run pays one
// branch per call site.

#ifndef PWBENCH_TRACE_H_
#define PWBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pwbench {

/// The library's modules, as the benchmark attributes time to them. kBench
/// is the benchmark's own code inside a request span.
enum class Layer : uint8_t {
  kBench,
  kTables,
  kIlalgebra,
  kDatalog,
  kDecision,
};
inline constexpr int kNumLayers = 5;
const char* LayerName(Layer layer);

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

struct Span {
  const char* name = "";
  Layer layer = Layer::kBench;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the same span vector, -1 for a root
  uint32_t request = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Request id stamped on the spans opened from now on (0 = setup).
  void SetRequest(uint32_t id) { request_ = id; }

  /// RAII span: opened as a child of the innermost open span of this tracer.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, Layer layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;  // null when tracing is off
    int32_t index_ = -1;
    int32_t saved_parent_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int32_t Open(const char* name, Layer layer, int32_t parent);

  bool enabled_;
  std::vector<Span> spans_;
  int32_t current_ = -1;
  uint32_t request_ = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Aggregate of all root spans of one name and their subtrees.
struct RootBreakdown {
  int64_t count = 0;
  int64_t wall_ns = 0;  // summed root durations
  std::array<int64_t, kNumLayers> self_ns{};  // subtree self time per layer
};

/// Groups spans by the name of their root span and sums the subtree self
/// times per layer. The spans of one tracer nest (children lie inside their
/// parent and do not overlap each other), so every nanosecond of a root's
/// duration lands in exactly one layer and the layer sums of an entry add
/// up to its wall_ns.
std::map<std::string, RootBreakdown> BreakdownByRoot(
    const std::vector<Span>& spans);

/// Durations in milliseconds of every span with this name.
std::vector<double> DurationsMs(const std::vector<Span>& spans,
                                const std::string& name);

/// Writes the spans as tab-separated lines (thread, index, parent, request,
/// layer, name, start_ns, end_ns). Returns false on an I/O error.
bool WriteSpans(const std::string& path,
                const std::vector<std::vector<Span>>& per_thread);

}  // namespace pwbench

#endif  // PWBENCH_TRACE_H_
