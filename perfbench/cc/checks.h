#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

// Output checks, computed by the benchmark apart from the program. Each
// returns one message per violation (empty = pass), so the workloads
// can report every problem and the tests can feed in wrong results.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/value.h"
#include "runtime/wire.h"

namespace perfbench {

using crew::Value;
using crew::runtime::WorkflowState;

/// What the benchmark sent to one instance and what came back.
struct InstanceRecord {
  int class_index = 0;     ///< generated schema index (class "WF<i>")
  int64_t number = 0;      ///< per-class instance number, 1-based
  int num_steps = 0;       ///< steps of the instance's schema
  bool fail = false;       ///< in the generator's failure set
  bool abort = false;      ///< in the generator's abort set
  bool change = false;     ///< in the generator's input-change set
  int64_t input = 0;       ///< WF.I1 sent at start
  int64_t changed_input = 0;  ///< WF.I1 sent by the input change
  WorkflowState state = WorkflowState::kUnknown;
  std::map<std::string, Value> archived;  ///< data archived at commit
};

using ClassInstance = std::pair<int, int64_t>;

bool Terminal(WorkflowState state);

/// Every instance that terminated ends in the state central control
/// reached on the same generated inputs.
std::vector<std::string> CheckMatchesOracle(
    const std::vector<InstanceRecord>& records,
    const std::map<ClassInstance, WorkflowState>& oracle);

/// No instance outside the generator's abort set aborted.
std::vector<std::string> CheckAbortsInAbortSet(
    const std::vector<InstanceRecord>& records);

/// The data a committed instance of the generated chain must archive:
/// the workflow input as last sent, the failure flag when the instance
/// was told to fail, and output O1 = 1 of every step (the synthetic step
/// program's only output).
std::map<std::string, Value> ExpectedArchive(const InstanceRecord& record);

/// Each committed instance archived exactly ExpectedArchive().
std::vector<std::string> CheckArchivedData(
    const std::vector<InstanceRecord>& records);

/// Every posted workflow committed, and each archived the WF.I1 value it
/// was started with: `sent[i]` / `archived[i]` belong to workflow i+1.
std::vector<std::string> CheckAllCommitted(
    const std::vector<int64_t>& sent,
    const std::vector<WorkflowState>& states,
    const std::vector<std::map<std::string, Value>>& archived);

/// `messages` over `workflows` equals `expected_per_wf` exactly.
std::vector<std::string> CheckMessagesPerWorkflow(const std::string& what,
                                                  int64_t messages,
                                                  int64_t workflows,
                                                  double expected_per_wf);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
