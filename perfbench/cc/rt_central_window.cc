// rt-central-window: the live thread runtime (rt::Runtime) under
// central control. One engine (node 1) and two thin agents (nodes 2, 3);
// every step of the 4-step noop job is eligible at both agents. The
// driver keeps kWindow workflows in flight: posting many at once makes
// the engine's per-workflow cost grow with the number in flight, so
// nothing is posted in bulk.
//
// A round is a fixed batch of workflows on a freshly started runtime,
// so the engine's retained instances (it never drops finished ones) are
// freed between rounds and memory repeats. The benchmark sees a commit
// on the engine's own thread, right after the engine handler call in
// which the instance's status became committed.

#include <memory>

#include "analysis/model.h"
#include "central/agent.h"
#include "central/engine.h"
#include "checks.h"
#include "live.h"
#include "rt/runtime.h"
#include "workloads.h"

namespace perfbench {

namespace {

using crew::NodeId;

constexpr int64_t kWorkflowsPerRound = 5000;
constexpr NodeId kEngine = 1;

/// Runs on the engine's thread: finds the instances that ended since the
/// last call and hands them to the driver.
class EngineWatch {
 public:
  EngineWatch(crew::central::WorkflowEngine* engine, Completions* out)
      : engine_(engine), out_(out) {}

  void Started(int64_t wf) { in_flight_.push_back(wf); }

  void Check() {
    int64_t ended = engine_->committed_count() + engine_->aborted_count();
    if (ended == ended_) return;
    ended_ = ended;
    std::vector<std::pair<int64_t, WorkflowState>> done;
    for (size_t i = 0; i < in_flight_.size();) {
      WorkflowState state = engine_->QueryStatus({"Job", in_flight_[i]});
      if (Terminal(state)) {
        done.emplace_back(in_flight_[i], state);
        in_flight_[i] = in_flight_.back();
        in_flight_.pop_back();
      } else {
        ++i;
      }
    }
    if (!done.empty()) out_->Done(done);
  }

 private:
  crew::central::WorkflowEngine* engine_;
  Completions* out_;
  std::vector<int64_t> in_flight_;
  int64_t ended_ = 0;
};

/// 2·s·a: the normal-execution row of the paper's central-control
/// message expressions for this job.
double ExpectedMessagesPerWorkflow() {
  crew::workload::Params params;
  params.steps_per_workflow = kJobSteps;
  params.eligible_per_step = kJobEligible;
  return crew::analysis::CentralMessages(params)[0].value;
}

Round CentralRound(const RunOptions& options, bool traced,
                   std::vector<std::string>* errors) {
  Round round;
  round.traced = traced;
  int64_t t0 = NowNs();
  crew::model::CompiledSchemaPtr schema = JobSchema();
  if (schema == nullptr) {
    errors->push_back("job schema failed to build");
    return round;
  }
  crew::runtime::ProgramRegistry programs;
  programs.RegisterBuiltins();
  crew::model::Deployment deployment;
  crew::runtime::CoordinationSpec coordination;
  const std::vector<NodeId> agents = {2, 3};
  EligibleAtAll(*schema, agents, &deployment);
  int64_t t1 = NowNs();

  crew::rt::Runtime runtime({.seed = options.seed, .tick_us = kTickUs});
  crew::central::WorkflowEngine engine(kEngine, runtime.ContextFor(kEngine),
                                       &programs, &deployment,
                                       &coordination);
  engine.RegisterSchema(schema);
  std::vector<std::unique_ptr<crew::central::ThinAgent>> thin_agents;
  for (NodeId id : agents) {
    thin_agents.push_back(std::make_unique<crew::central::ThinAgent>(
        id, runtime.ContextFor(id), &programs));
  }
  Completions completions(kWorkflowsPerRound);
  EngineWatch watch(&engine, &completions);
  TimedHandler engine_handler(
      &engine, Layer::kCentralEngine,
      [&watch](const crew::sim::Message&) { watch.Check(); });
  runtime.ContextFor(kEngine)->network().Register(kEngine, &engine_handler);
  std::vector<std::unique_ptr<TimedHandler>> agent_handlers;
  if (traced) {
    for (size_t i = 0; i < agents.size(); ++i) {
      agent_handlers.push_back(std::make_unique<TimedHandler>(
          thin_agents[i].get(), Layer::kCentralAgent));
      runtime.ContextFor(agents[i])->network().Register(
          agents[i], agent_handlers.back().get());
    }
  }
  int64_t t2 = NowNs();
  runtime.Start();
  int64_t t3 = NowNs();
  round.generate_s = static_cast<double>(t1 - t0) / 1e9;
  round.assemble_s = static_cast<double>(t2 - t1) / 1e9;
  round.connect_s = static_cast<double>(t3 - t2) / 1e9;

  std::vector<LayerTotals> before = Spans::Totals();
  Usage usage0 = Usage::Now();
  round.measure_start_ns = NowNs();
  const uint64_t seed = options.seed;
  bool finished = DriveClosedLoop(
      kWorkflowsPerRound, &completions,
      [&](int64_t wf) {
        runtime.Post(kEngine, [&, wf]() {
          completions.run_ns[static_cast<size_t>(wf)] = NowNs();
          {
            ScopedSpan span(Layer::kCentralEngine, wf);
            (void)engine.StartWorkflow(
                "Job", wf, {{"WF.I1", Value(JobInput(seed, wf))}});
          }
          watch.Started(wf);
          watch.Check();
        });
      },
      std::chrono::seconds(30));
  int64_t end = NowNs();
  round.usage = Usage::Now() - usage0;
  round.peak_rss_mb = PeakRssMb();
  round.wall_s = static_cast<double>(end - round.measure_start_ns) / 1e9;
  if (!finished) errors->push_back("rt-central-window: workflows stalled");

  if (finished) runtime.Quiesce();
  crew::rt::RuntimeStats stats = runtime.Stats();
  round.metrics = runtime.MergedMetrics();
  runtime.Shutdown();
  round.layers = LayerDelta(Spans::Totals(), before);
  round.mailbox_parks = stats.mailbox_parks;
  round.timers = stats.timers_fired;
  round.max_mailbox_depth = static_cast<int64_t>(stats.max_mailbox_depth);

  round.attempted = kWorkflowsPerRound;
  std::vector<int64_t> sent;
  std::vector<WorkflowState> states;
  std::vector<std::map<std::string, Value>> archived;
  for (int64_t wf = 1; wf <= kWorkflowsPerRound; ++wf) {
    size_t i = static_cast<size_t>(wf);
    WorkflowState state = completions.states[i];
    sent.push_back(JobInput(seed, wf));
    states.push_back(state);
    archived.push_back(engine.FinalData({"Job", wf}));
    if (state == WorkflowState::kCommitted) {
      ++round.committed;
      round.latency_us.push_back(
          static_cast<double>(completions.done_ns[i] - completions.post_ns[i]) /
          1e3);
    } else if (state == WorkflowState::kAborted) {
      ++round.aborted;
    }
    if (completions.run_ns[i] > 0) {
      round.queue_wait_us_total +=
          static_cast<double>(completions.run_ns[i] - completions.post_ns[i]) /
          1e3;
    }
  }
  for (std::string& e : CheckAllCommitted(sent, states, archived)) {
    errors->push_back(std::move(e));
  }
  for (std::string& e : CheckMessagesPerWorkflow(
           "central messages", round.metrics.TotalMessages(),
           kWorkflowsPerRound, ExpectedMessagesPerWorkflow())) {
    errors->push_back(std::move(e));
  }
  return round;
}

}  // namespace

Outcome RunRtCentralWindow(const RunOptions& options) {
  Outcome outcome;
  RunRounds(options, /*min_rounds=*/4,
            [&](bool traced) {
              return CentralRound(options, traced, &outcome.errors);
            },
            &outcome);
  return outcome;
}

}  // namespace perfbench
