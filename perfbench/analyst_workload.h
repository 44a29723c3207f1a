#ifndef PERFBENCH_ANALYST_WORKLOAD_H_
#define PERFBENCH_ANALYST_WORKLOAD_H_

#include "report.h"

namespace perfbench {

/// The paper's development loop, no server: cold analysis of a clustered
/// catalog, certify-and-reanalyze, incremental rule edits on a 10k-rule
/// catalog, and exhaustive exploration (serial, parallel, production
/// settings) with witness extraction and replay on the divergent cases.
WorkloadResult RunAnalystLoop(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_ANALYST_WORKLOAD_H_
