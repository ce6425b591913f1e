#include "checks.h"

namespace perfbench {

namespace {

std::string Name(const InstanceRecord& r) {
  return "WF" + std::to_string(r.class_index) + "#" + std::to_string(r.number);
}

std::string Render(const std::map<std::string, Value>& data) {
  std::string out = "{";
  for (const auto& [key, value] : data) {
    if (out.size() > 1) out += ", ";
    out += key + "=" + value.ToString();
  }
  return out + "}";
}

}  // namespace

bool Terminal(WorkflowState state) {
  return state == WorkflowState::kCommitted ||
         state == WorkflowState::kAborted;
}

std::vector<std::string> CheckMatchesOracle(
    const std::vector<InstanceRecord>& records,
    const std::map<ClassInstance, WorkflowState>& oracle) {
  std::vector<std::string> errors;
  for (const InstanceRecord& r : records) {
    if (!Terminal(r.state)) continue;
    auto it = oracle.find({r.class_index, r.number});
    WorkflowState expected =
        it == oracle.end() ? WorkflowState::kUnknown : it->second;
    if (expected != r.state) {
      errors.push_back(Name(r) + " ended " +
                       crew::runtime::WorkflowStateName(r.state) +
                       " but central control ended it " +
                       crew::runtime::WorkflowStateName(expected));
    }
  }
  return errors;
}

std::vector<std::string> CheckAbortsInAbortSet(
    const std::vector<InstanceRecord>& records) {
  std::vector<std::string> errors;
  for (const InstanceRecord& r : records) {
    if (r.state == WorkflowState::kAborted && !r.abort) {
      errors.push_back(Name(r) + " aborted but is not in the abort set");
    }
  }
  return errors;
}

std::map<std::string, Value> ExpectedArchive(const InstanceRecord& record) {
  std::map<std::string, Value> data;
  data["WF.I1"] = Value(record.change ? record.changed_input : record.input);
  if (record.fail) data["WF.FAIL1"] = Value(true);
  for (int step = 1; step <= record.num_steps; ++step) {
    data["S" + std::to_string(step) + ".O1"] = Value(int64_t{1});
  }
  return data;
}

std::vector<std::string> CheckArchivedData(
    const std::vector<InstanceRecord>& records) {
  std::vector<std::string> errors;
  for (const InstanceRecord& r : records) {
    if (r.state != WorkflowState::kCommitted) continue;
    std::map<std::string, Value> expected = ExpectedArchive(r);
    if (r.archived != expected) {
      errors.push_back(Name(r) + " archived " + Render(r.archived) +
                       ", expected " + Render(expected));
    }
  }
  return errors;
}

std::vector<std::string> CheckAllCommitted(
    const std::vector<int64_t>& sent,
    const std::vector<WorkflowState>& states,
    const std::vector<std::map<std::string, Value>>& archived) {
  std::vector<std::string> errors;
  if (states.size() != sent.size() || archived.size() != sent.size()) {
    errors.push_back("result count differs from workflows posted");
    return errors;
  }
  for (size_t i = 0; i < sent.size(); ++i) {
    std::string name = "workflow " + std::to_string(i + 1);
    if (states[i] != WorkflowState::kCommitted) {
      errors.push_back(name + " ended " +
                       crew::runtime::WorkflowStateName(states[i]));
      continue;
    }
    auto it = archived[i].find("WF.I1");
    if (it == archived[i].end() || !(it->second == Value(sent[i]))) {
      errors.push_back(name + " archived " + Render(archived[i]) +
                       ", expected WF.I1=" + std::to_string(sent[i]));
    }
  }
  return errors;
}

std::vector<std::string> CheckMessagesPerWorkflow(const std::string& what,
                                                  int64_t messages,
                                                  int64_t workflows,
                                                  double expected_per_wf) {
  double expected = expected_per_wf * static_cast<double>(workflows);
  if (workflows > 0 && static_cast<double>(messages) == expected) return {};
  return {what + ": " + std::to_string(messages) + " messages for " +
          std::to_string(workflows) + " workflows, expected " +
          std::to_string(expected_per_wf) + " per workflow"};
}

}  // namespace perfbench
