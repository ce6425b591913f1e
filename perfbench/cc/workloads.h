#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "measure.h"

namespace perfbench {

/// The paper's Table 3 midpoint mix under distributed control in the
/// deterministic simulator, with failures, aborts, input changes and
/// ME/RO/RD coordination.
Outcome RunSimDistMix(const RunOptions& options);

/// The live thread runtime under central control: one engine, two thin
/// agents, the 4-step noop job driven closed-loop.
Outcome RunRtCentralWindow(const RunOptions& options);

/// Distributed control over Unix-domain sockets in one process: the
/// same job, closed-loop, with every node on its own socket endpoint.
Outcome RunNetDistWindow(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
