#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// In-memory span recorder for the traced benchmark runs. Spans are
// opened and closed around calls into the program's layers from the
// benchmark's own code (handler wrappers, the driver, the router
// decorator). Each thread keeps its own buffer and open-span stack, so
// recording takes no lock; a span's parent is the span open on the same
// thread when it began. Self time (duration minus the time covered by
// child spans) is accumulated per layer for every span, while raw spans
// are kept only up to a fixed cap so memory stays bounded.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : int {
  kSimRun = 0,      // sim::Simulator::Run (event queue, network, timers)
  kDriverStart,     // benchmark callback that starts one workflow
  kDriverDisrupt,   // benchmark callback that aborts / changes inputs
  kDistFrontEnd,    // dist::FrontEnd handler and StartWorkflow calls
  kDistAgent,       // dist::Agent::HandleMessage
  kCentralEngine,   // central::WorkflowEngine handler and StartWorkflow
  kCentralAgent,    // central::ThinAgent::HandleMessage
  kRtPost,          // rt::Runtime::Post from the driver thread
  kNetRoute,        // net::SocketTransport::RouteRemote
  kBenchCapture,    // copying a message for the codec replay
  kBenchObserve,    // the benchmark reading state on a node's thread
  kCount,
};
const char* LayerName(Layer layer);
inline constexpr int kNumLayers = static_cast<int>(Layer::kCount);

int64_t NowNs();

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = -1;
  int64_t parent = -1;  ///< id of the enclosing span, -1 for a root
  int64_t wf = -1;      ///< workflow (instance number), -1 if unknown
  Layer layer = Layer::kSimRun;
};

struct LayerTotals {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

/// A captured message (traced runs only), replayed through the codec
/// after the measured phase; `span` is the handler span it arrived in.
struct Captured {
  std::string type;
  std::string payload;
  int64_t span = -1;
};

class Spans {
 public:
  /// Recording is off unless enabled; ScopedSpan is then one load.
  static void SetEnabled(bool on);
  static bool enabled();

  /// Sum of the per-layer totals over every thread that ever recorded.
  /// Call only while no other thread records (sim runs, or after the
  /// runtime's threads were joined).
  static std::vector<LayerTotals> Totals();

  /// Records a copy of a message for codec replay. Called only for
  /// stored spans, so captures are bounded by kMaxStoredSpans.
  static void Capture(const std::string& type, const std::string& payload,
                      int64_t span);
  /// Moves out every capture taken so far. Same threading rule as Totals.
  static std::vector<Captured> TakeCaptures();

  /// Sets the workflow of a stored span (no-op for ids not stored).
  static void SetWorkflow(int64_t span, int64_t wf);

  /// All stored spans, in thread then start order. Same threading rule.
  static std::vector<Span> Stored();
  /// Writes the stored spans as JSON lines; returns false on I/O error.
  static bool Write(const std::string& path);

  /// Raw spans kept (totals are kept for every span).
  static constexpr int64_t kMaxStoredSpans = 50000;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer, int64_t wf = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Id of this span if it was stored, else -1.
  int64_t id() const { return id_; }

 private:
  bool open_ = false;
  int64_t id_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
