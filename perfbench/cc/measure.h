#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

// What one round of a workload measured, how rounds become the printed
// metrics, and the helpers every workload shares: process CPU and
// context-switch counters, timing handler wrappers, and the codec
// replay of captured messages.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/metrics.h"
#include "sim/network.h"
#include "spans.h"

namespace perfbench {

namespace sim = crew::sim;

/// Process-wide resource counters (getrusage(RUSAGE_SELF): all threads).
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  int64_t vol_cs = 0;
  int64_t invol_cs = 0;
  static Usage Now();
  Usage operator-(const Usage& o) const;
  double cpu_s() const { return user_s + sys_s; }
};

/// Peak resident set of the process so far, in MiB.
double PeakRssMb();

/// One round: a fixed batch of workflows run on a freshly assembled
/// system. Every count in it repeats exactly from round to round.
struct Round {
  bool traced = false;
  int64_t attempted = 0;
  int64_t committed = 0;
  int64_t aborted = 0;
  double wall_s = 0;  ///< measured phase only
  int64_t measure_start_ns = 0;  ///< NowNs() when the measured phase began
  Usage usage;        ///< measured phase only
  /// Process peak RSS at the end of the measured phase, in MiB.
  double peak_rss_mb = 0;
  std::vector<double> latency_us;  ///< per committed workflow
  sim::Metrics metrics;

  // Set-up phases of this round, in seconds.
  double generate_s = 0;
  double assemble_s = 0;
  double connect_s = 0;

  // Live runtime counters (rt, net).
  int64_t mailbox_parks = 0;
  int64_t timers = 0;
  int64_t max_mailbox_depth = 0;
  double queue_wait_us_total = 0;  ///< post -> start task, all workflows

  // Socket transport counters (net).
  int64_t frames = 0;
  int64_t wire_bytes = 0;
  int64_t write_syscalls = 0;
  int64_t batches = 0;
  int64_t frames_batched = 0;

  /// Per-layer span totals over the measured phase (traced rounds).
  std::vector<LayerTotals> layers;

  /// Wall time of the host reference computation paired with this round
  /// (see RunRounds); every time above is scaled by it.
  double reference_s = 0;

  int64_t terminal() const { return committed + aborted; }
  int64_t failed() const { return attempted - terminal(); }
};

double Median(std::vector<double> values);

/// Per-layer totals accumulated between two Spans::Totals() readings.
std::vector<LayerTotals> LayerDelta(const std::vector<LayerTotals>& after,
                                    const std::vector<LayerTotals>& before);

/// A printed metric: name, value, unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// End-to-end metrics: the median over rounds of each per-round value.
/// `setup_s` is the cold set-up of the process's first round, and the
/// peak RSS is taken at the end of that round's measured phase: later
/// rounds add the malloc arenas of new threads, which made the peak
/// depend on how many rounds fit in the run.
std::vector<Metric> EndToEnd(const std::vector<Round>& rounds,
                             double setup_s);

/// Codec cost measured by replaying captured payloads through the
/// public per-type Parse and Serialize of runtime/wire.h.
struct CodecCost {
  int64_t messages = 0;
  double serialize_ns_per_msg = 0;
  double parse_ns_per_msg = 0;
  int64_t unknown_types = 0;
};
/// Replays `captured`, and tags each capture's handler span with the
/// workflow its payload names.
CodecCost ReplayCodec(const std::vector<Captured>& captured);

/// Per-layer metrics from the traced rounds (and the untraced ones, for
/// the tracing overhead).
std::vector<Metric> PerLayer(const std::vector<Round>& rounds,
                             const CodecCost& codec);

/// Prints, per span layer, the median over traced rounds of its self
/// time and span count per workflow.
void PrintLayerTable(const std::vector<Round>& rounds);

/// Prints the result line: the last line of standard output.
void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics);

/// Host provenance printed at the top of every run.
void PrintProvenance(const std::string& workload, uint64_t seed);

/// Wraps a node's handler: times it as `layer` (when spans are on),
/// captures its messages for the codec replay, then runs `after` on the
/// node's own thread so the benchmark can observe state changes there.
class TimedHandler : public sim::MessageHandler {
 public:
  using After = std::function<void(const sim::Message&)>;
  TimedHandler(sim::MessageHandler* inner, Layer layer, After after = {})
      : inner_(inner), layer_(layer), after_(std::move(after)) {}

  void HandleMessage(const sim::Message& message) override;

 private:
  sim::MessageHandler* inner_;
  Layer layer_;
  After after_;
};

/// Options every workload receives from the command line.
struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int64_t process_start_ns = 0;  ///< NowNs() on entry to main()
};

/// Where runs leave spans and socket files (relative to the checkout).
inline constexpr char kOutDir[] = ".bench_out";

/// What a workload hands back to main.
struct Outcome {
  std::vector<std::string> errors;  ///< failed output checks
  std::vector<Round> rounds;
  double setup_s = 0;
  double reference_s = 0;  ///< median reference time over the rounds
  CodecCost codec;
};

/// Every time a round measures is scaled by kReferenceNominalS over the
/// wall time of a fixed standard-library computation run between rounds
/// (see RunRounds): the host's speed drifts by 10-45% over minutes, and
/// the drift cancels while a change to the program shows in full.
inline constexpr double kReferenceNominalS = 0.1;

/// Runs whole rounds until `seconds` have passed since the first began
/// (at least `min_rounds`). With `trace`, rounds alternate
/// untraced / traced so the overhead is measured in the same process.
/// `round` runs one round; the first call's set-up is the cold one, timed
/// from entry to main() into `setup_s`. The reference is measured after
/// the first round and then at most once a second, each round is scaled
/// by the latest one, and the messages captured in traced rounds are
/// replayed through the codec at the end.
void RunRounds(const RunOptions& options, int min_rounds,
               const std::function<Round(bool traced)>& round,
               Outcome* outcome);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
