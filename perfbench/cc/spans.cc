#include "spans.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

struct OpenSpan {
  Layer layer;
  int64_t start_ns;
  int64_t child_ns;
  int64_t id;
};

struct ThreadBuffer {
  int64_t index = 0;
  std::vector<Span> spans;
  std::vector<OpenSpan> stack;
  LayerTotals totals[kNumLayers];
  std::vector<Captured> captures;
};

constexpr int kIdShift = 40;

std::atomic<bool> g_enabled{false};
std::atomic<int64_t> g_stored{0};

std::mutex g_registry_mu;
// Buffers outlive their threads: the runtime's workers exit between
// rounds, and their totals are read afterwards.
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;  // g_registry_mu

ThreadBuffer* Local() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_registry.back().get();
    buffer->index = static_cast<int64_t>(g_registry.size()) - 1;
  }
  return buffer;
}

Span* Find(int64_t id) {
  if (id < 0) return nullptr;
  size_t thread = static_cast<size_t>(id >> kIdShift);
  size_t local = static_cast<size_t>(id & ((int64_t{1} << kIdShift) - 1));
  std::lock_guard<std::mutex> lock(g_registry_mu);
  if (thread >= g_registry.size()) return nullptr;
  std::vector<Span>& spans = g_registry[thread]->spans;
  return local < spans.size() ? &spans[local] : nullptr;
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kSimRun: return "sim.run";
    case Layer::kDriverStart: return "driver.start";
    case Layer::kDriverDisrupt: return "driver.disrupt";
    case Layer::kDistFrontEnd: return "dist.frontend";
    case Layer::kDistAgent: return "dist.agent";
    case Layer::kCentralEngine: return "central.engine";
    case Layer::kCentralAgent: return "central.agent";
    case Layer::kRtPost: return "rt.post";
    case Layer::kNetRoute: return "net.route";
    case Layer::kBenchCapture: return "bench.capture";
    case Layer::kBenchObserve: return "bench.observe";
    case Layer::kCount: break;
  }
  return "?";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Spans::SetEnabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool Spans::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<LayerTotals> Spans::Totals() {
  std::vector<LayerTotals> out(kNumLayers);
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& buffer : g_registry) {
    for (int i = 0; i < kNumLayers; ++i) {
      out[i].count += buffer->totals[i].count;
      out[i].total_ns += buffer->totals[i].total_ns;
      out[i].self_ns += buffer->totals[i].self_ns;
    }
  }
  return out;
}

void Spans::Capture(const std::string& type, const std::string& payload,
                    int64_t span) {
  Local()->captures.push_back({type, payload, span});
}

std::vector<Captured> Spans::TakeCaptures() {
  std::vector<Captured> out;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& buffer : g_registry) {
    for (Captured& c : buffer->captures) out.push_back(std::move(c));
    buffer->captures.clear();
  }
  return out;
}

void Spans::SetWorkflow(int64_t span, int64_t wf) {
  if (Span* s = Find(span)) s->wf = wf;
}

std::vector<Span> Spans::Stored() {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& buffer : g_registry) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return out;
}

bool Spans::Write(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : Stored()) {
    out << "{\"name\":\"" << LayerName(s.layer) << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"wf\":" << s.wf
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(Layer layer, int64_t wf) {
  if (!Spans::enabled()) return;
  open_ = true;
  ThreadBuffer* buffer = Local();
  int64_t now = NowNs();
  int64_t parent = buffer->stack.empty() ? -1 : buffer->stack.back().id;
  if (g_stored.fetch_add(1, std::memory_order_relaxed) <
      Spans::kMaxStoredSpans) {
    id_ = (buffer->index << kIdShift) |
          static_cast<int64_t>(buffer->spans.size());
    Span span;
    span.start_ns = now;
    span.id = id_;
    span.parent = parent;
    span.wf = wf;
    span.layer = layer;
    buffer->spans.push_back(span);
  }
  buffer->stack.push_back({layer, now, 0, id_});
}

ScopedSpan::~ScopedSpan() {
  if (!open_) return;
  ThreadBuffer* buffer = Local();
  int64_t now = NowNs();
  OpenSpan open = buffer->stack.back();
  buffer->stack.pop_back();
  int64_t duration = now - open.start_ns;
  LayerTotals& totals = buffer->totals[static_cast<int>(open.layer)];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += duration - open.child_ns;
  if (!buffer->stack.empty()) buffer->stack.back().child_ns += duration;
  if (id_ >= 0) {
    buffer->spans[static_cast<size_t>(id_ & ((int64_t{1} << kIdShift) - 1))]
        .end_ns = now;
  }
}

}  // namespace perfbench
