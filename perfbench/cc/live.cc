#include "live.h"

#include <algorithm>

#include "common/rng.h"
#include "model/builder.h"
#include "spans.h"

namespace perfbench {

crew::model::CompiledSchemaPtr JobSchema() {
  crew::model::SchemaBuilder builder("Job");
  std::vector<crew::StepId> steps;
  for (int k = 1; k <= kJobSteps; ++k) {
    steps.push_back(builder.AddTask("T" + std::to_string(k), "noop"));
  }
  builder.Sequence(steps);
  builder.DeclareInput("WF.I1");
  builder.step(steps.front()).inputs = {"WF.I1"};
  auto schema = builder.Build();
  if (!schema.ok()) return nullptr;
  auto compiled = crew::model::CompiledSchema::Compile(std::move(schema).value());
  return compiled.ok() ? std::move(compiled).value() : nullptr;
}

void EligibleAtAll(const crew::model::CompiledSchema& schema,
                   const std::vector<crew::NodeId>& agents,
                   crew::model::Deployment* deployment) {
  for (crew::StepId s = 1; s <= schema.schema().num_steps(); ++s) {
    deployment->SetEligible(schema.schema().name(), s, agents);
  }
}

int64_t JobInput(uint64_t seed, int64_t wf) {
  return 1000 + static_cast<int64_t>(
                    crew::SplitMix64(seed * 0x9E3779B97F4A7C15ull +
                                     static_cast<uint64_t>(wf)) %
                    7000);
}

Completions::Completions(int64_t workflows)
    : post_ns(static_cast<size_t>(workflows) + 1, 0),
      run_ns(static_cast<size_t>(workflows) + 1, 0),
      done_ns(static_cast<size_t>(workflows) + 1, 0),
      states(static_cast<size_t>(workflows) + 1,
             crew::runtime::WorkflowState::kExecuting) {}

void Completions::Done(
    const std::vector<std::pair<int64_t, crew::runtime::WorkflowState>>&
        done) {
  int64_t now = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [wf, state] : done) {
      size_t index = static_cast<size_t>(wf);
      if (wf < 1 || index >= states.size()) continue;
      done_ns[index] = now;
      states[index] = state;
      pending_.push_back(wf);
    }
  }
  cv_.notify_one();
}

std::vector<int64_t> Completions::Wait(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, timeout, [this] { return !pending_.empty(); });
  std::vector<int64_t> out;
  out.swap(pending_);
  return out;
}

bool DriveClosedLoop(int64_t total, Completions* completions,
                     const std::function<void(int64_t wf)>& post,
                     std::chrono::milliseconds stall) {
  int64_t posted = 0;
  int64_t finished = 0;
  auto post_next = [&]() {
    int64_t wf = ++posted;
    completions->post_ns[static_cast<size_t>(wf)] = NowNs();
    ScopedSpan span(Layer::kRtPost, wf);
    post(wf);
  };
  while (posted < std::min<int64_t>(kWindow, total)) post_next();
  while (finished < total) {
    std::vector<int64_t> done = completions->Wait(stall);
    if (done.empty()) return false;
    for (size_t i = 0; i < done.size(); ++i) {
      ++finished;
      if (posted < total) post_next();
    }
  }
  return true;
}

}  // namespace perfbench
