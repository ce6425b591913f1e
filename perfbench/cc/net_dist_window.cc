// net-dist-window: distributed control over net::SocketTransport on
// Unix-domain sockets, all in one process. The front end (node 0) and
// the two agents (nodes 1, 2) each get their own endpoint, an
// rt::Runtime plus a socket transport, so every hop between nodes
// crosses a socket; that is the smallest loopback deployment in which
// no front-end or agent hop stays in memory. The job and the closed-loop
// window are those of rt-central-window.
//
// A round is a fixed batch of workflows on a freshly bound and connected
// deployment, so memory and counts repeat. The benchmark sees a commit
// on the front end's thread, when the coordination agent's status reply
// reporting it committed has been handled.

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <thread>

#include "checks.h"
#include "dist/system.h"
#include "live.h"
#include "net/node.h"
#include "sim/simulator.h"
#include "workloads.h"

namespace perfbench {

namespace {

using crew::NodeId;

constexpr int64_t kWorkflowsPerRound = 2000;
constexpr int kAgents = 2;

crew::dist::AgentOptions JobAgentOptions() {
  crew::dist::AgentOptions options;
  options.exec_latency = 1;
  // Keep overdue-step probes out of a healthy run: 5000 ticks = 50 ms.
  // The pending-step timers are still armed and fire for every step.
  options.pending_timeout = 5000;
  return options;
}

/// Hands each node's context out from the endpoint that hosts it, so one
/// DistributedSystem spans several runtimes.
class SplitBackend : public crew::sim::Backend {
 public:
  explicit SplitBackend(std::vector<crew::net::NetNode*> host_of)
      : host_of_(std::move(host_of)) {}
  crew::sim::Context* ContextFor(NodeId id) override {
    return host_of_[static_cast<size_t>(id)]->runtime().ContextFor(id);
  }

 private:
  std::vector<crew::net::NetNode*> host_of_;  ///< indexed by node id
};

/// Times every message a runtime routes onto the sockets.
class TimingRouter : public crew::rt::RemoteRouter {
 public:
  explicit TimingRouter(crew::rt::RemoteRouter* inner) : inner_(inner) {}
  crew::Status RouteRemote(crew::sim::Message message) override {
    ScopedSpan span(Layer::kNetRoute);
    return inner_->RouteRemote(std::move(message));
  }
  void SetRemoteDown(NodeId id, bool down) override {
    inner_->SetRemoteDown(id, down);
  }
  bool IsRemoteDown(NodeId id) const override {
    return inner_->IsRemoteDown(id);
  }

 private:
  crew::rt::RemoteRouter* inner_;
};

/// Normal-category messages per workflow of the same job and deployment
/// under the deterministic simulator.
double SimNormalPerWorkflow() {
  constexpr int kWorkflows = 64;
  crew::sim::Simulator simulator(1);
  crew::runtime::ProgramRegistry programs;
  programs.RegisterBuiltins();
  crew::model::Deployment deployment;
  crew::runtime::CoordinationSpec coordination;
  crew::dist::DistributedSystem system(&simulator, &programs, &deployment,
                                       &coordination, kAgents,
                                       JobAgentOptions());
  crew::model::CompiledSchemaPtr schema = JobSchema();
  EligibleAtAll(*schema, system.agent_ids(), &deployment);
  system.RegisterSchema(schema);
  for (int i = 1; i <= kWorkflows; ++i) {
    simulator.queue().ScheduleAt(3 * i, [&system, i]() {
      (void)system.front_end().StartWorkflow(
          "Job", {{"WF.I1", Value(JobInput(1, i))}});
    });
  }
  simulator.Run();
  if (system.committed_count() != kWorkflows) return -1;
  return static_cast<double>(
             simulator.metrics().MessagesIn(crew::sim::MsgCategory::kNormal)) /
         kWorkflows;
}

/// Cluster-wide quiescence: every runtime quiet and every transport idle,
/// twice around an unchanged admission count. False on timeout.
bool Quiesce(const std::vector<std::unique_ptr<crew::net::NetNode>>& nodes,
             std::chrono::seconds timeout) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  int64_t last_admitted = -1;
  while (std::chrono::steady_clock::now() < deadline) {
    bool quiet = true;
    int64_t admitted = 0;
    for (const auto& node : nodes) {
      if (!node->LooksQuiet()) quiet = false;
      admitted += node->AdmittedWork();
    }
    if (quiet && admitted == last_admitted) return true;
    last_admitted = quiet ? admitted : -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

Round NetRound(const RunOptions& options, bool traced,
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
  int64_t t1 = NowNs();

  // Relative socket paths keep sun_path short wherever the checkout is.
  std::string dir = std::string(kOutDir) + "/sock-" + std::to_string(getpid());
  mkdir(dir.c_str(), 0755);
  crew::net::Topology topology;
  for (NodeId id = 0; id <= kAgents; ++id) {
    auto endpoint = crew::net::Endpoint::Parse(
        "unix:" + dir + "/ep" + std::to_string(id) + ".sock");
    if (!endpoint.ok() || !topology.Add(id, endpoint.value()).ok()) {
      errors->push_back("net-dist-window: bad topology");
      return round;
    }
  }
  std::vector<std::unique_ptr<crew::net::NetNode>> nodes;
  std::vector<crew::net::NetNode*> host_of;
  for (NodeId id = 0; id <= kAgents; ++id) {
    nodes.push_back(std::make_unique<crew::net::NetNode>(
        topology, *topology.Find(id),
        crew::rt::RuntimeOptions{.seed = options.seed, .tick_us = kTickUs}));
    host_of.push_back(nodes.back().get());
  }
  int64_t t2 = NowNs();
  for (auto& node : nodes) {
    crew::Status bound = node->Bind();
    if (!bound.ok()) {
      errors->push_back("net-dist-window: bind: " + bound.ToString());
      return round;
    }
  }
  int64_t t3 = NowNs();

  SplitBackend backend(host_of);
  crew::dist::DistributedSystem system(&backend, &programs, &deployment,
                                       &coordination, kAgents,
                                       JobAgentOptions());
  EligibleAtAll(*schema, system.agent_ids(), &deployment);
  system.RegisterSchema(schema);

  Completions completions(kWorkflowsPerRound);
  crew::dist::FrontEnd* front_end = &system.front_end();
  TimedHandler front_end_handler(
      front_end, Layer::kDistFrontEnd,
      [&completions](const crew::sim::Message& message) {
        if (message.type != crew::runtime::wi::kWorkflowStatusReply) return;
        auto reply =
            crew::runtime::WorkflowStatusReplyMsg::Parse(message.payload);
        if (!reply.ok() || !Terminal(reply.value().state)) return;
        completions.Done(
            {{reply.value().instance.number, reply.value().state}});
      });
  backend.ContextFor(crew::kFrontEndNode)
      ->network()
      .Register(crew::kFrontEndNode, &front_end_handler);
  std::vector<std::unique_ptr<TimedHandler>> agent_handlers;
  std::vector<std::unique_ptr<TimingRouter>> routers;
  if (traced) {
    for (size_t i = 0; i < system.num_agents(); ++i) {
      crew::dist::Agent* agent = &system.agent(i);
      agent_handlers.push_back(
          std::make_unique<TimedHandler>(agent, Layer::kDistAgent));
      backend.ContextFor(agent->id())
          ->network()
          .Register(agent->id(), agent_handlers.back().get());
    }
    for (auto& node : nodes) {
      routers.push_back(std::make_unique<TimingRouter>(&node->transport()));
      node->runtime().SetRemoteRouter(routers.back().get());
    }
  }
  int64_t t4 = NowNs();
  for (auto& node : nodes) node->Start();
  bool connected = true;
  for (auto& node : nodes) {
    connected = node->WaitConnected(std::chrono::seconds(10)) && connected;
  }
  int64_t t5 = NowNs();
  round.generate_s = static_cast<double>(t1 - t0) / 1e9;
  round.assemble_s = static_cast<double>((t2 - t1) + (t4 - t3)) / 1e9;
  round.connect_s = static_cast<double>((t3 - t2) + (t5 - t4)) / 1e9;

  std::vector<LayerTotals> before = Spans::Totals();
  Usage usage0 = Usage::Now();
  round.measure_start_ns = NowNs();
  const uint64_t seed = options.seed;
  std::atomic<int64_t> misnumbered{0};
  crew::rt::Runtime& front_runtime = nodes[0]->runtime();
  bool finished =
      connected &&
      DriveClosedLoop(
          kWorkflowsPerRound, &completions,
          [&](int64_t wf) {
            front_runtime.Post(crew::kFrontEndNode, [&, wf]() {
              completions.run_ns[static_cast<size_t>(wf)] = NowNs();
              ScopedSpan span(Layer::kDistFrontEnd, wf);
              auto id = front_end->StartWorkflow(
                  "Job", {{"WF.I1", Value(JobInput(seed, wf))}});
              // The driver posts in order and the front end's cell runs
              // its tasks in order, so workflow wf is instance wf.
              if (!id.ok() || id.value().number != wf) ++misnumbered;
            });
          },
          std::chrono::seconds(30));
  int64_t end = NowNs();
  round.usage = Usage::Now() - usage0;
  round.peak_rss_mb = PeakRssMb();
  round.wall_s = static_cast<double>(end - round.measure_start_ns) / 1e9;
  if (!connected) errors->push_back("net-dist-window: endpoints not connected");
  if (connected && !finished) {
    errors->push_back("net-dist-window: workflows stalled");
  }
  if (finished && !Quiesce(nodes, std::chrono::seconds(20))) {
    errors->push_back("net-dist-window: deployment did not quiesce");
  }
  int64_t timers = 0, parks = 0, depth = 0;
  for (auto& node : nodes) {
    crew::rt::RuntimeStats stats = node->runtime().Stats();
    timers += stats.timers_fired;
    parks += stats.mailbox_parks;
    depth = std::max(depth, static_cast<int64_t>(stats.max_mailbox_depth));
    crew::net::SocketTransportStats t = node->transport().Stats();
    round.frames += t.frames_sent;
    round.wire_bytes += t.bytes_sent;
    round.write_syscalls += t.write_syscalls;
    round.batches += t.batches_sent;
    round.frames_batched += t.frames_batched;
  }
  for (auto& node : nodes) node->Shutdown();
  for (auto& node : nodes) round.metrics.MergeFrom(node->runtime().MergedMetrics());
  rmdir(dir.c_str());
  round.layers = LayerDelta(Spans::Totals(), before);
  round.timers = timers;
  round.mailbox_parks = parks;
  round.max_mailbox_depth = depth;
  if (misnumbered.load() != 0) {
    errors->push_back("net-dist-window: front end numbered instances out of "
                      "posting order");
  }

  round.attempted = kWorkflowsPerRound;
  std::vector<int64_t> sent;
  std::vector<WorkflowState> states;
  std::vector<std::map<std::string, Value>> archived;
  for (int64_t wf = 1; wf <= kWorkflowsPerRound; ++wf) {
    size_t i = static_cast<size_t>(wf);
    crew::InstanceId id{"Job", wf};
    WorkflowState state = system.CoordinationStatus(id);
    sent.push_back(JobInput(seed, wf));
    states.push_back(state);
    archived.push_back(system.ArchivedData(id));
    if (state == WorkflowState::kCommitted) {
      ++round.committed;
      if (completions.done_ns[i] > 0) {
        round.latency_us.push_back(static_cast<double>(
                                       completions.done_ns[i] -
                                       completions.post_ns[i]) /
                                   1e3);
      }
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
  return round;
}

}  // namespace

Outcome RunNetDistWindow(const RunOptions& options) {
  Outcome outcome;
  // Computed after the first round, so it is not part of set-up.
  double sim_normal = 0;
  RunRounds(options, /*min_rounds=*/4,
            [&](bool traced) {
              Round round = NetRound(options, traced, &outcome.errors);
              if (sim_normal == 0) sim_normal = SimNormalPerWorkflow();
              for (std::string& e : CheckMessagesPerWorkflow(
                       "normal messages vs the simulator",
                       round.metrics.MessagesIn(
                           crew::sim::MsgCategory::kNormal),
                       round.attempted, sim_normal)) {
                outcome.errors.push_back(std::move(e));
              }
              return round;
            },
            &outcome);
  return outcome;
}

}  // namespace perfbench
