// sim-dist-mix: distributed control in the deterministic simulator on
// the Table 3 midpoint mix (20 generated 15-step schemas, 50 agents,
// a=2, pf=0.1, pi=pa=0.025, me=2, ro=2, rd=1), 100 instances per schema.
//
// The mix is generated from the fixed seed 42, whatever --seed says: it
// carries a known fault of distributed control (some instances never
// reach a terminal state), and a failure count that moved with the seed
// could not be compared between runs. --seed picks the workflow input
// values the benchmark sends (WF.I1 at start and at an input change),
// which flow into every committed instance's archived data and are
// checked there. They stay in a range of one encoded size, so message
// bytes do not move with the seed.
//
// The round replays the schedule of workload::RunWorkload (a start every
// 3 ticks, an abort or input change 8 ticks after its start) but is
// driven here so that set-up is timed apart and each instance's final
// state and archived data can be read back.

#include <memory>

#include "central/system.h"
#include "checks.h"
#include "common/rng.h"
#include "dist/system.h"
#include "sim/simulator.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {

namespace {

using crew::InstanceId;
using crew::workload::GeneratedSchema;

constexpr uint64_t kMixSeed = 42;
constexpr int kInstancesPerSchema = 100;
constexpr crew::sim::Time kStartStagger = 3;
constexpr crew::sim::Time kDisruptionDelay = 8;

crew::workload::Params MixParams() {
  crew::workload::Params params;  // Table 3 midpoints
  params.instances_per_schema = kInstancesPerSchema;
  params.seed = kMixSeed;
  return params;
}

/// WF.I1 values: 1000..7999, a range whose zigzag varint is two bytes.
int64_t InputValue(uint64_t seed, int64_t index) {
  return 1000 + static_cast<int64_t>(
                    crew::SplitMix64(seed * 0x9E3779B97F4A7C15ull +
                                     static_cast<uint64_t>(index)) %
                    7000);
}

/// The changed WF.I1: same range, never equal to the original value.
int64_t ChangedValue(uint64_t seed, int64_t index) {
  int64_t original = InputValue(seed, index);
  int64_t shift = 1 + static_cast<int64_t>(
                          crew::SplitMix64(~seed + static_cast<uint64_t>(
                                                       index)) %
                          6999);
  return 1000 + (original - 1000 + shift) % 7000;
}

/// The generated inputs shared by the distributed run and its central
/// oracle: schemas, disruption sets, coordination spec and programs.
struct GeneratedMix {
  explicit GeneratedMix(const crew::workload::Params& params)
      : simulator(params.seed), generator(params, &simulator.rng()) {}

  bool Generate() {
    auto generated = generator.GenerateAll();
    if (!generated.ok()) return false;
    schemas = std::move(generated).value();
    coordination = generator.MakeCoordinationSpec(schemas);
    generator.RegisterPrograms(schemas, &programs);
    return true;
  }

  std::vector<InstanceRecord> Records(uint64_t seed) const {
    std::vector<InstanceRecord> records;
    for (size_t c = 0; c < schemas.size(); ++c) {
      int index = static_cast<int>(c);
      for (int64_t n = 1; n <= kInstancesPerSchema; ++n) {
        InstanceRecord r;
        r.class_index = index;
        r.number = n;
        r.num_steps = schemas[c].schema->schema().num_steps();
        r.fail = generator.failing_instances(index).count(n) > 0;
        r.abort = generator.abort_instances(index).count(n) > 0;
        r.change = !r.abort &&
                   generator.input_change_instances(index).count(n) > 0;
        int64_t global = index * kInstancesPerSchema + n;
        r.input = InputValue(seed, global);
        r.changed_input = ChangedValue(seed, global);
        records.push_back(r);
      }
    }
    return records;
  }

  std::string Name(int index) const {
    return schemas[static_cast<size_t>(index)].schema->schema().name();
  }

  crew::sim::Simulator simulator;
  crew::workload::WorkloadGenerator generator;
  std::vector<GeneratedSchema> schemas;
  crew::runtime::CoordinationSpec coordination;
  crew::runtime::ProgramRegistry programs;
  crew::model::Deployment deployment;
};

std::map<std::string, Value> StartInputs(const InstanceRecord& r) {
  std::map<std::string, Value> inputs{{"WF.I1", Value(r.input)}};
  if (r.fail) inputs["WF.FAIL1"] = Value(true);
  return inputs;
}

/// Final state of every instance under central control on the same
/// generated inputs, keyed by (class, per-class number).
std::map<ClassInstance, WorkflowState> CentralOracle(uint64_t seed) {
  crew::workload::Params params = MixParams();
  GeneratedMix mix(params);
  std::map<ClassInstance, WorkflowState> out;
  if (!mix.Generate()) return out;
  crew::central::EngineOptions options;
  options.navigation_load = params.navigation_load;
  crew::central::CentralSystem system(&mix.simulator, &mix.programs,
                                      &mix.deployment, &mix.coordination,
                                      params.num_agents, options);
  for (const GeneratedSchema& g : mix.schemas) {
    mix.deployment.AssignRandom(*g.schema, system.agent_ids(),
                                params.eligible_per_step,
                                &mix.simulator.rng());
    system.engine().RegisterSchema(g.schema);
  }
  std::vector<InstanceRecord> records = mix.Records(seed);
  crew::central::WorkflowEngine* engine = &system.engine();
  crew::sim::Time at = 0;
  for (const InstanceRecord& r : records) {
    at += kStartStagger;
    InstanceId id{mix.Name(r.class_index), r.number};
    mix.simulator.queue().ScheduleAt(at, [engine, id, r]() {
      (void)engine->StartWorkflow(id.workflow, id.number, StartInputs(r));
    });
    if (r.abort) {
      mix.simulator.queue().ScheduleAt(at + kDisruptionDelay, [engine, id]() {
        (void)engine->AbortWorkflow(id);
      });
    } else if (r.change) {
      mix.simulator.queue().ScheduleAt(
          at + kDisruptionDelay, [engine, id, value = r.changed_input]() {
            (void)engine->ChangeInputs(id, {{"WF.I1", Value(value)}});
          });
    }
  }
  mix.simulator.Run();
  for (const InstanceRecord& r : records) {
    out[{r.class_index, r.number}] =
        engine->QueryStatus({mix.Name(r.class_index), r.number});
  }
  return out;
}

/// One round: generate, assemble, run the 2000 instances, read back.
Round MixRound(const RunOptions& options, bool traced,
               std::vector<InstanceRecord>* records_out) {
  Round round;
  round.traced = traced;
  crew::workload::Params params = MixParams();

  int64_t t0 = NowNs();
  auto mix = std::make_unique<GeneratedMix>(params);
  if (!mix->Generate()) return round;
  std::vector<InstanceRecord> records = mix->Records(options.seed);
  int64_t t1 = NowNs();

  crew::dist::AgentOptions agent_options;
  agent_options.navigation_load = params.navigation_load;
  crew::dist::DistributedSystem system(&mix->simulator, &mix->programs,
                                       &mix->deployment, &mix->coordination,
                                       params.num_agents, agent_options);
  for (const GeneratedSchema& g : mix->schemas) {
    mix->deployment.AssignRandom(*g.schema, system.agent_ids(),
                                 params.eligible_per_step,
                                 &mix->simulator.rng());
  }
  for (const GeneratedSchema& g : mix->schemas) system.RegisterSchema(g.schema);

  // Instance numbers are assigned by the front end in start order, and
  // starts are scheduled at strictly increasing ticks, so record i is
  // instance number i+1.
  const size_t n = records.size();
  std::vector<int64_t> start_ns(n + 1, 0);
  std::vector<int64_t> commit_ns(n + 1, 0);
  crew::dist::FrontEnd* front_end = &system.front_end();
  TimedHandler front_end_handler(
      front_end, Layer::kDistFrontEnd,
      [&commit_ns](const crew::sim::Message& message) {
        if (message.type != crew::runtime::wi::kWorkflowStatusReply) return;
        auto reply =
            crew::runtime::WorkflowStatusReplyMsg::Parse(message.payload);
        if (!reply.ok()) return;
        int64_t number = reply.value().instance.number;
        if (reply.value().state == WorkflowState::kCommitted &&
            number > 0 && static_cast<size_t>(number) < commit_ns.size()) {
          commit_ns[static_cast<size_t>(number)] = NowNs();
        }
      });
  crew::sim::Network& network = mix->simulator.network();
  network.Register(crew::kFrontEndNode, &front_end_handler);
  std::vector<std::unique_ptr<TimedHandler>> agent_handlers;
  if (traced) {
    for (size_t i = 0; i < system.num_agents(); ++i) {
      crew::dist::Agent* agent = &system.agent(i);
      agent_handlers.push_back(
          std::make_unique<TimedHandler>(agent, Layer::kDistAgent));
      network.Register(agent->id(), agent_handlers.back().get());
    }
  }

  crew::sim::Time at = 0;
  for (size_t i = 0; i < n; ++i) {
    const InstanceRecord& r = records[i];
    int64_t number = static_cast<int64_t>(i) + 1;
    std::string name = mix->Name(r.class_index);
    at += kStartStagger;
    mix->simulator.queue().ScheduleAt(
        at, [front_end, name, number, &start_ns, inputs = StartInputs(r)]() {
          ScopedSpan driver(Layer::kDriverStart, number);
          start_ns[static_cast<size_t>(number)] = NowNs();
          ScopedSpan span(Layer::kDistFrontEnd, number);
          (void)front_end->StartWorkflow(name, inputs);
        });
    if (!r.abort && !r.change) continue;
    mix->simulator.queue().ScheduleAt(
        at + kDisruptionDelay,
        [front_end, id = InstanceId{name, number}, abort = r.abort,
         value = r.changed_input]() {
          ScopedSpan driver(Layer::kDriverDisrupt, id.number);
          ScopedSpan span(Layer::kDistFrontEnd, id.number);
          if (abort) {
            (void)front_end->RequestAbort(id);
          } else {
            (void)front_end->RequestChangeInputs(id,
                                                 {{"WF.I1", Value(value)}});
          }
        });
  }
  int64_t t2 = NowNs();
  round.generate_s = static_cast<double>(t1 - t0) / 1e9;
  round.assemble_s = static_cast<double>(t2 - t1) / 1e9;

  std::vector<LayerTotals> before = Spans::Totals();
  Usage usage0 = Usage::Now();
  round.measure_start_ns = NowNs();
  {
    ScopedSpan run(Layer::kSimRun);
    mix->simulator.Run();
  }
  int64_t end = NowNs();
  round.usage = Usage::Now() - usage0;
  round.peak_rss_mb = PeakRssMb();
  round.wall_s = static_cast<double>(end - round.measure_start_ns) / 1e9;
  round.layers = LayerDelta(Spans::Totals(), before);

  round.attempted = static_cast<int64_t>(n);
  for (size_t i = 0; i < n; ++i) {
    InstanceRecord& r = records[i];
    InstanceId id{mix->Name(r.class_index), static_cast<int64_t>(i) + 1};
    r.state = system.CoordinationStatus(id);
    if (r.state == WorkflowState::kCommitted) {
      ++round.committed;
      r.archived = system.ArchivedData(id);
      if (commit_ns[i + 1] > 0) {
        round.latency_us.push_back(
            static_cast<double>(commit_ns[i + 1] - start_ns[i + 1]) / 1e3);
      }
    } else if (r.state == WorkflowState::kAborted) {
      ++round.aborted;
    }
  }
  round.metrics = mix->simulator.metrics();
  *records_out = std::move(records);
  return round;
}

}  // namespace

Outcome RunSimDistMix(const RunOptions& options) {
  Outcome outcome;
  auto add = [&](std::vector<std::string> errors) {
    for (std::string& e : errors) outcome.errors.push_back(std::move(e));
  };
  // Computed after the first round, so it is not part of set-up.
  std::map<ClassInstance, WorkflowState> oracle;
  RunRounds(options, /*min_rounds=*/2,
            [&](bool traced) {
              std::vector<InstanceRecord> records;
              Round round = MixRound(options, traced, &records);
              if (records.empty()) {
                add({"round produced no instances (generation failed)"});
                return round;
              }
              if (oracle.empty()) oracle = CentralOracle(options.seed);
              add(CheckMatchesOracle(records, oracle));
              add(CheckAbortsInAbortSet(records));
              add(CheckArchivedData(records));
              return round;
            },
            &outcome);
  // Every round runs identical work; their counts must agree exactly.
  for (const Round& round : outcome.rounds) {
    const Round& first = outcome.rounds.front();
    if (round.committed != first.committed ||
        round.aborted != first.aborted ||
        round.metrics.TotalMessages() != first.metrics.TotalMessages()) {
      add({"rounds of identical work gave different counts"});
      break;
    }
  }
  return outcome;
}

}  // namespace perfbench
