// The four workloads of the repo benchmark (see README.md here). Each
// fills `report` with its end-to-end metrics (untraced run) or its
// per-layer metrics (traced run) and returns a process exit code.

#ifndef SHAROES_PERFBENCH_WORKLOADS_H_
#define SHAROES_PERFBENCH_WORKLOADS_H_

#include "bench.h"

namespace sharoes::perfbench {

int RunReadZipf(const RunOptions& opt, Report* report);
int RunWriteChurn(const RunOptions& opt, Report* report);
int RunClusterQuorum(const RunOptions& opt, Report* report);
int RunPaperAndrew(const RunOptions& opt, Report* report);

}  // namespace sharoes::perfbench

#endif  // SHAROES_PERFBENCH_WORKLOADS_H_
