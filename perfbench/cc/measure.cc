#include "measure.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "common/rng.h"
#include "runtime/wire.h"

namespace perfbench {

namespace {

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

double SafeDiv(double a, double b) { return b > 0 ? a / b : 0; }

const LayerTotals& LayerOf(const Round& round, Layer layer) {
  static const LayerTotals kEmpty;
  size_t index = static_cast<size_t>(layer);
  return index < round.layers.size() ? round.layers[index] : kEmpty;
}

/// Median over rounds of a per-round value.
template <typename F>
double MedianOf(const std::vector<const Round*>& rounds, F value) {
  std::vector<double> values;
  for (const Round* round : rounds) values.push_back(value(*round));
  return Median(std::move(values));
}

std::vector<const Round*> Select(const std::vector<Round>& rounds,
                                 bool traced) {
  std::vector<const Round*> out;
  for (const Round& round : rounds) {
    if (round.traced == traced) out.push_back(&round);
  }
  return out;
}

template <typename T>
int64_t InstanceNumber(const T& message) {
  if constexpr (requires { message.instance.number; }) {
    return message.instance.number;
  } else if constexpr (requires { message.packet.instance.number; }) {
    return message.packet.instance.number;
  } else {
    return -1;
  }
}

struct CodecTotals {
  int64_t messages = 0;
  int64_t parse_ns = 0;
  int64_t serialize_ns = 0;
  size_t bytes = 0;  // keeps the serialized output observable
};

/// Parses every payload of one wire type, then serializes every parsed
/// message, timing each pass as a whole.
template <typename T>
void ReplayType(const std::vector<const Captured*>& items,
                CodecTotals* totals) {
  std::vector<T> parsed;
  std::vector<int64_t> spans;
  parsed.reserve(items.size());
  int64_t t0 = NowNs();
  for (const Captured* item : items) {
    crew::Result<T> result = T::Parse(item->payload);
    if (!result.ok()) continue;
    parsed.push_back(std::move(result).value());
    spans.push_back(item->span);
  }
  int64_t t1 = NowNs();
  for (const T& message : parsed) totals->bytes += message.Serialize().size();
  int64_t t2 = NowNs();
  totals->messages += static_cast<int64_t>(parsed.size());
  totals->parse_ns += t1 - t0;
  totals->serialize_ns += t2 - t1;
  for (size_t i = 0; i < parsed.size(); ++i) {
    Spans::SetWorkflow(spans[i], InstanceNumber(parsed[i]));
  }
}

using ReplayFn = void (*)(const std::vector<const Captured*>&,
                          CodecTotals*);

const std::map<std::string, ReplayFn>& ReplayTable() {
  namespace rt = crew::runtime;
  namespace wi = crew::runtime::wi;
  static const std::map<std::string, ReplayFn> table = {
      {wi::kWorkflowStart, &ReplayType<rt::WorkflowStartMsg>},
      {wi::kWorkflowChangeInputs, &ReplayType<rt::WorkflowChangeInputsMsg>},
      {wi::kInputsChanged, &ReplayType<rt::WorkflowChangeInputsMsg>},
      {wi::kWorkflowAbort, &ReplayType<rt::WorkflowAbortMsg>},
      {wi::kWorkflowStatus, &ReplayType<rt::WorkflowStatusMsg>},
      {wi::kWorkflowStatusReply, &ReplayType<rt::WorkflowStatusReplyMsg>},
      {wi::kStepExecute, &ReplayType<rt::StepExecuteMsg>},
      {wi::kStepCompensate, &ReplayType<rt::StepCompensateMsg>},
      {wi::kStepCompleted, &ReplayType<rt::StepCompletedMsg>},
      {wi::kStepStatus, &ReplayType<rt::StepStatusMsg>},
      {wi::kStepStatusReply, &ReplayType<rt::StepStatusReplyMsg>},
      {wi::kWorkflowRollback, &ReplayType<rt::WorkflowRollbackMsg>},
      {wi::kHaltThread, &ReplayType<rt::HaltThreadMsg>},
      {wi::kCompensateSet, &ReplayType<rt::CompensateSetMsg>},
      {wi::kCompensateThread, &ReplayType<rt::CompensateThreadMsg>},
      {wi::kStateInformation, &ReplayType<rt::StateInformationMsg>},
      {wi::kStateInformationReply,
       &ReplayType<rt::StateInformationReplyMsg>},
      {wi::kAddRule, &ReplayType<rt::AddRuleMsg>},
      {wi::kAddEvent, &ReplayType<rt::AddEventMsg>},
      {wi::kAddPrecondition, &ReplayType<rt::AddPreconditionMsg>},
      {wi::kRunProgram, &ReplayType<rt::RunProgramMsg>},
      {wi::kRunProgramReply, &ReplayType<rt::RunProgramReplyMsg>},
      {wi::kPurgeInstances, &ReplayType<rt::PurgeInstancesMsg>},
  };
  return table;
}

void JsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

/// Wall time of a fixed computation that uses only the standard library:
/// building strings and churning a map of string vectors, as the
/// simulator does. About kReferenceNominalS on an unloaded host.
double ReferenceSeconds() {
  int64_t start = NowNs();
  std::map<std::string, std::vector<std::string>> tables;
  uint64_t x = 1;
  size_t found = 0;
  for (int i = 0; i < 150000; ++i) {
    x = crew::SplitMix64(x);
    std::string key =
        "WF" + std::to_string(x % 20) + "#" + std::to_string(x % 4000);
    std::vector<std::string>& rows = tables[key];
    rows.push_back(std::to_string(x));
    if (rows.size() > 6) rows.erase(rows.begin());
    auto it = tables.find("WF" + std::to_string((x >> 20) % 20) + "#" +
                          std::to_string((x >> 7) % 4000));
    if (it != tables.end()) found += it->second.size();
    if (i % 7 == 0) tables.erase(tables.lower_bound(key));
  }
  double seconds = static_cast<double>(NowNs() - start) / 1e9;
  // `found` depends on every step, so the loop cannot be dropped.
  return found == 0 ? seconds + 1e-9 : seconds;
}

/// Scales every time in `round` by kReferenceNominalS / its reference.
void ScaleToReference(Round* round) {
  if (round->reference_s <= 0) return;
  double f = kReferenceNominalS / round->reference_s;
  round->wall_s *= f;
  round->usage.user_s *= f;
  round->usage.sys_s *= f;
  for (double& latency : round->latency_us) latency *= f;
  round->queue_wait_us_total *= f;
  for (LayerTotals& t : round->layers) {
    t.total_ns = static_cast<int64_t>(static_cast<double>(t.total_ns) * f);
    t.self_ns = static_cast<int64_t>(static_cast<double>(t.self_ns) * f);
  }
  round->generate_s *= f;
  round->assemble_s *= f;
  round->connect_s *= f;
}

}  // namespace

Usage Usage::Now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage usage;
  usage.user_s = Seconds(ru.ru_utime);
  usage.sys_s = Seconds(ru.ru_stime);
  usage.vol_cs = ru.ru_nvcsw;
  usage.invol_cs = ru.ru_nivcsw;
  return usage;
}

Usage Usage::operator-(const Usage& o) const {
  Usage out;
  out.user_s = user_s - o.user_s;
  out.sys_s = sys_s - o.sys_s;
  out.vol_cs = vol_cs - o.vol_cs;
  out.invol_cs = invol_cs - o.invol_cs;
  return out;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::vector<LayerTotals> LayerDelta(const std::vector<LayerTotals>& after,
                                    const std::vector<LayerTotals>& before) {
  std::vector<LayerTotals> out(after.size());
  for (size_t i = 0; i < after.size() && i < before.size(); ++i) {
    out[i].count = after[i].count - before[i].count;
    out[i].total_ns = after[i].total_ns - before[i].total_ns;
    out[i].self_ns = after[i].self_ns - before[i].self_ns;
  }
  return out;
}

std::vector<Metric> EndToEnd(const std::vector<Round>& rounds,
                             double setup_s) {
  std::vector<const Round*> measured = Select(rounds, /*traced=*/false);
  auto per_wf = [](const Round& r, double total) {
    return SafeDiv(total, static_cast<double>(r.terminal()));
  };
  auto per_attempt = [](const Round& r, double total) {
    return SafeDiv(total, static_cast<double>(r.attempted));
  };
  return {
      {"wf_per_s",
       MedianOf(measured,
                [](const Round& r) {
                  return SafeDiv(static_cast<double>(r.terminal()),
                                 r.wall_s);
                }),
       "1/s"},
      {"cpu_us_per_wf",
       MedianOf(measured,
                [&](const Round& r) {
                  return per_wf(r, r.usage.cpu_s() * 1e6);
                }),
       "us"},
      {"latency_p50_us",
       MedianOf(measured,
                [](const Round& r) { return Median(r.latency_us); }),
       "us"},
      {"msgs_per_wf",
       MedianOf(measured,
                [&](const Round& r) {
                  return per_attempt(
                      r, static_cast<double>(r.metrics.TotalMessages()));
                }),
       "msgs"},
      {"bytes_per_wf",
       MedianOf(measured,
                [&](const Round& r) {
                  return per_attempt(
                      r, static_cast<double>(r.metrics.TotalBytes()));
                }),
       "bytes"},
      {"peak_rss_mb", rounds.empty() ? 0 : rounds.front().peak_rss_mb,
       "MiB"},
      {"setup_s", setup_s, "s"},
  };
}

CodecCost ReplayCodec(const std::vector<Captured>& captured) {
  std::map<std::string, std::vector<const Captured*>> by_type;
  for (const Captured& c : captured) by_type[c.type].push_back(&c);
  CodecTotals totals;
  CodecCost cost;
  for (const auto& [type, items] : by_type) {
    auto it = ReplayTable().find(type);
    if (it == ReplayTable().end()) {
      cost.unknown_types += static_cast<int64_t>(items.size());
      continue;
    }
    it->second(items, &totals);
  }
  cost.messages = totals.messages;
  cost.parse_ns_per_msg = SafeDiv(static_cast<double>(totals.parse_ns),
                                  static_cast<double>(totals.messages));
  cost.serialize_ns_per_msg =
      SafeDiv(static_cast<double>(totals.serialize_ns),
              static_cast<double>(totals.messages));
  return cost;
}

std::vector<Metric> PerLayer(const std::vector<Round>& rounds,
                             const CodecCost& codec) {
  std::vector<const Round*> traced = Select(rounds, /*traced=*/true);
  std::vector<const Round*> untraced = Select(rounds, /*traced=*/false);
  auto self_us_per_wf = [](const Round& r, Layer layer) {
    return SafeDiv(static_cast<double>(LayerOf(r, layer).self_ns) / 1e3,
                   static_cast<double>(r.terminal()));
  };
  auto per_wf = [](const Round& r, double total) {
    return SafeDiv(total, static_cast<double>(r.terminal()));
  };
  auto per_attempt = [](const Round& r, double total) {
    return SafeDiv(total, static_cast<double>(r.attempted));
  };
  auto layer_metric = [&](const char* name, Layer layer) {
    return Metric{name, MedianOf(traced, [&](const Round& r) {
                    return self_us_per_wf(r, layer);
                  }),
                  "us"};
  };
  auto category = [&](const char* name, crew::sim::MsgCategory c) {
    return Metric{name, MedianOf(traced, [&](const Round& r) {
                    return per_attempt(
                        r, static_cast<double>(r.metrics.MessagesIn(c)));
                  }),
                  "msgs"};
  };
  auto count_per_wf = [&](const char* name, const char* unit,
                          int64_t Round::*field) {
    return Metric{name, MedianOf(traced, [&](const Round& r) {
                    return per_wf(r, static_cast<double>(r.*field));
                  }),
                  unit};
  };
  auto wf_per_s = [](const Round& r) {
    return SafeDiv(static_cast<double>(r.terminal()), r.wall_s);
  };
  double msgs_per_wf = MedianOf(traced, [&](const Round& r) {
    return per_attempt(r, static_cast<double>(r.metrics.TotalMessages()));
  });
  const Round* cold = rounds.empty() ? nullptr : &rounds.front();
  using crew::sim::MsgCategory;
  std::vector<Metric> out = {
      layer_metric("dist.agent_us_per_wf", Layer::kDistAgent),
      {"dist.agent_us_per_msg", MedianOf(traced, [](const Round& r) {
         const LayerTotals& t = LayerOf(r, Layer::kDistAgent);
         return SafeDiv(static_cast<double>(t.self_ns) / 1e3,
                        static_cast<double>(t.count));
       }),
       "us"},
      layer_metric("dist.frontend_us_per_wf", Layer::kDistFrontEnd),
      layer_metric("sim.loop_us_per_wf", Layer::kSimRun),
      {"runtime.codec.serialize_ns_per_msg", codec.serialize_ns_per_msg,
       "ns"},
      {"runtime.codec.parse_ns_per_msg", codec.parse_ns_per_msg, "ns"},
      {"runtime.codec.us_per_wf",
       msgs_per_wf *
           (codec.serialize_ns_per_msg + codec.parse_ns_per_msg) / 1e3,
       "us"},
      category("msgs.normal_per_wf", MsgCategory::kNormal),
      category("msgs.failure_per_wf", MsgCategory::kFailureHandling),
      category("msgs.input_change_per_wf", MsgCategory::kInputChange),
      category("msgs.abort_per_wf", MsgCategory::kAbort),
      category("msgs.coordination_per_wf", MsgCategory::kCoordination),
      category("msgs.admin_per_wf", MsgCategory::kAdmin),
      layer_metric("central.engine_us_per_wf", Layer::kCentralEngine),
      {"central.engine_busy_share", MedianOf(traced, [](const Round& r) {
         return SafeDiv(
             static_cast<double>(LayerOf(r, Layer::kCentralEngine).total_ns) /
                 1e9,
             r.wall_s);
       }),
       "share"},
      layer_metric("central.agent_us_per_wf", Layer::kCentralAgent),
      {"rt.queue_wait_us_per_wf", MedianOf(traced, [&](const Round& r) {
         return per_attempt(r, r.queue_wait_us_total);
       }),
       "us"},
      {"rt.unattributed_cpu_us_per_wf", MedianOf(traced, [&](const Round& r) {
         double attributed_ns = 0;
         for (const LayerTotals& t : r.layers) {
           attributed_ns += static_cast<double>(t.self_ns);
         }
         return per_wf(r, r.usage.cpu_s() * 1e6 - attributed_ns / 1e3);
       }),
       "us"},
      {"rt.sys_cpu_us_per_wf", MedianOf(traced, [&](const Round& r) {
         return per_wf(r, r.usage.sys_s * 1e6);
       }),
       "us"},
      count_per_wf("rt.mailbox_parks_per_wf", "count", &Round::mailbox_parks),
      {"rt.vol_ctx_switches_per_wf", MedianOf(traced, [&](const Round& r) {
         return per_wf(r, static_cast<double>(r.usage.vol_cs));
       }),
       "count"},
      {"rt.invol_ctx_switches_per_wf", MedianOf(traced, [&](const Round& r) {
         return per_wf(r, static_cast<double>(r.usage.invol_cs));
       }),
       "count"},
      {"rt.max_mailbox_depth", MedianOf(traced, [](const Round& r) {
         return static_cast<double>(r.max_mailbox_depth);
       }),
       "count"},
      count_per_wf("rt.timers_per_wf", "count", &Round::timers),
      {"rt.post_us_per_wf", MedianOf(traced, [&](const Round& r) {
         return per_attempt(
             r, static_cast<double>(LayerOf(r, Layer::kRtPost).total_ns) /
                    1e3);
       }),
       "us"},
      {"net.route_us_per_frame", MedianOf(traced, [](const Round& r) {
         const LayerTotals& t = LayerOf(r, Layer::kNetRoute);
         return SafeDiv(static_cast<double>(t.total_ns) / 1e3,
                        static_cast<double>(t.count));
       }),
       "us"},
      count_per_wf("net.frames_per_wf", "frames", &Round::frames),
      count_per_wf("net.wire_bytes_per_wf", "bytes", &Round::wire_bytes),
      count_per_wf("net.write_syscalls_per_wf", "count",
                   &Round::write_syscalls),
      {"net.frames_per_batch", MedianOf(traced, [](const Round& r) {
         return SafeDiv(static_cast<double>(r.frames_batched),
                        static_cast<double>(r.batches));
       }),
       "frames"},
      {"setup.generate_s", cold ? cold->generate_s : 0, "s"},
      {"setup.assemble_s", cold ? cold->assemble_s : 0, "s"},
      {"setup.connect_s", cold ? cold->connect_s : 0, "s"},
      {"host.reference_s", MedianOf(traced, [](const Round& r) {
         return r.reference_s;
       }),
       "s"},
      {"trace.overhead_share",
       1.0 - SafeDiv(MedianOf(traced, wf_per_s), MedianOf(untraced, wf_per_s)),
       "share"},
  };
  return out;
}

void PrintLayerTable(const std::vector<Round>& rounds) {
  std::vector<const Round*> traced = Select(rounds, /*traced=*/true);
  for (int i = 0; i < kNumLayers; ++i) {
    Layer layer = static_cast<Layer>(i);
    double self_us = MedianOf(traced, [&](const Round& r) {
      return SafeDiv(static_cast<double>(LayerOf(r, layer).self_ns) / 1e3,
                     static_cast<double>(r.terminal()));
    });
    double spans = MedianOf(traced, [&](const Round& r) {
      return SafeDiv(static_cast<double>(LayerOf(r, layer).count),
                     static_cast<double>(r.terminal()));
    });
    std::printf("# layer %-16s self_us_per_wf=%10.3f spans_per_wf=%8.3f\n",
                LayerName(layer), self_us, spans);
  }
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::fflush(stdout);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) std::printf(", ");
    JsonString(metrics[i].name);
    std::printf(": {\"value\": %.17g, \"unit\": ", metrics[i].value);
    JsonString(metrics[i].unit);
    std::printf("}");
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void PrintProvenance(const std::string& workload, uint64_t seed) {
  char host[256] = "unknown";
  gethostname(host, sizeof(host) - 1);
  std::printf("# workload=%s seed=%llu nproc=%u compiler=\"%s\" "
              "build_type=%s host=%s\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              std::thread::hardware_concurrency(), __VERSION__,
              PERFBENCH_BUILD_TYPE, host);
}

void TimedHandler::HandleMessage(const crew::sim::Message& message) {
  int64_t id = -1;
  {
    ScopedSpan span(layer_);
    id = span.id();
    inner_->HandleMessage(message);
  }
  if (id >= 0) {
    ScopedSpan capture(Layer::kBenchCapture);
    Spans::Capture(message.type, message.payload, id);
  }
  if (after_) {
    ScopedSpan observe(Layer::kBenchObserve);
    after_(message);
  }
}

void RunRounds(const RunOptions& options, int min_rounds,
               const std::function<Round(bool traced)>& round,
               Outcome* outcome) {
  int64_t begin = NowNs();
  int64_t budget = static_cast<int64_t>(options.seconds * 1e9);
  double reference = 0;
  int64_t reference_at = 0;
  for (int i = 0;; ++i) {
    bool done = NowNs() - begin >= budget && i >= min_rounds;
    // A traced run alternates untraced and traced rounds and ends on a
    // traced one, so both halves have the same number of rounds.
    if (options.trace) done = done && i % 2 == 0;
    if (done) break;
    bool traced = options.trace && i % 2 == 1;
    Spans::SetEnabled(traced);
    outcome->rounds.push_back(round(traced));
    Spans::SetEnabled(false);
    if (i == 0 || NowNs() - reference_at >= 1'000'000'000) {
      reference = ReferenceSeconds();
      reference_at = NowNs();
    }
    Round& r = outcome->rounds.back();
    r.reference_s = reference;
    std::printf("# round %d traced=%d committed=%lld aborted=%lld "
                "wall_s=%.4f cpu_s=%.4f wf_per_s=%.1f latency_p50_us=%.1f "
                "peak_rss_mb=%.1f reference_s=%.4f (unscaled)\n",
                i, traced ? 1 : 0, static_cast<long long>(r.committed),
                static_cast<long long>(r.aborted), r.wall_s, r.usage.cpu_s(),
                SafeDiv(static_cast<double>(r.terminal()), r.wall_s),
                Median(r.latency_us), r.peak_rss_mb, r.reference_s);
    ScaleToReference(&r);
  }
  const Round& first = outcome->rounds.front();
  outcome->setup_s = static_cast<double>(first.measure_start_ns -
                                         options.process_start_ns) /
                     1e9 * kReferenceNominalS / first.reference_s;
  std::vector<double> references;
  for (const Round& r : outcome->rounds) references.push_back(r.reference_s);
  outcome->reference_s = Median(references);
  outcome->codec = ReplayCodec(Spans::TakeCaptures());
  double f = kReferenceNominalS / outcome->reference_s;
  outcome->codec.serialize_ns_per_msg *= f;
  outcome->codec.parse_ns_per_msg *= f;
}

}  // namespace perfbench
