#ifndef PERFBENCH_LIVE_H_
#define PERFBENCH_LIVE_H_

// Pieces shared by the two live workloads (rt-central-window and
// net-dist-window): the 4-step job, its seeded input, and the
// closed-loop driver that keeps a fixed number of workflows in flight
// from one thread.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "model/compiled.h"
#include "model/deployment.h"
#include "runtime/wire.h"

namespace perfbench {

/// Workflows in flight at once, and per round.
inline constexpr int kWindow = 16;
/// Steps of the job, and agents each step is eligible at.
inline constexpr int kJobSteps = 4;
inline constexpr int kJobEligible = 2;
/// Wall microseconds per runtime tick.
inline constexpr int64_t kTickUs = 10;

/// "Job": T1..T4 running the builtin noop program in sequence; T1
/// consumes the workflow input WF.I1.
crew::model::CompiledSchemaPtr JobSchema();

/// Makes every step of `schema` eligible at all of `agents`.
void EligibleAtAll(const crew::model::CompiledSchema& schema,
                   const std::vector<crew::NodeId>& agents,
                   crew::model::Deployment* deployment);

/// WF.I1 of workflow `wf` under `seed`: 1000..7999 (one encoded size).
int64_t JobInput(uint64_t seed, int64_t wf);

/// Terminal notices from node threads to the driver thread, plus the
/// per-workflow timestamps the latency and queue-wait metrics use.
/// Workflows are numbered 1..n.
class Completions {
 public:
  explicit Completions(int64_t workflows);

  /// Node thread: `wf` reached `state` now.
  void Done(const std::vector<std::pair<int64_t, crew::runtime::WorkflowState>>&
                done);
  /// Driver: waits up to `timeout` for new notices; returns their ids.
  std::vector<int64_t> Wait(std::chrono::milliseconds timeout);

  std::vector<int64_t> post_ns;  ///< driver thread, before Post
  std::vector<int64_t> run_ns;   ///< start task began on its node
  std::vector<int64_t> done_ns;  ///< under mu_
  std::vector<crew::runtime::WorkflowState> states;  ///< under mu_

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<int64_t> pending_;  ///< under mu_
};

/// Keeps kWindow workflows in flight until `total` reached a terminal
/// state, posting the next one as each finishes. `post(wf)` hands
/// workflow `wf` to the system. Returns false if no workflow finished
/// for `stall` (the rest are then left unfinished).
bool DriveClosedLoop(int64_t total, Completions* completions,
                     const std::function<void(int64_t wf)>& post,
                     std::chrono::milliseconds stall);

}  // namespace perfbench

#endif  // PERFBENCH_LIVE_H_
