// perfbench: one run of one workload of the repo benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --sspd PATH --workdir DIR
//
// Prints progress and the host fingerprint on stderr and, as the last
// line of stdout, one JSON object {"correct","attempted","failed",
// "metrics"}. Normally started by run.py next to this file.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace sharoes::perfbench;
  RunOptions opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--sspd") {
      opt.sspd = value;
    } else if (flag == "--workdir") {
      opt.workdir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  std::fprintf(stderr, "perfbench: %s seed=%llu seconds=%g trace=%d %s\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               opt.seconds, opt.trace ? 1 : 0, HostFingerprint().c_str());
  Report report;
  int rc = 2;
  if (opt.workload == "read_zipf") {
    rc = RunReadZipf(opt, &report);
  } else if (opt.workload == "write_churn") {
    rc = RunWriteChurn(opt, &report);
  } else if (opt.workload == "cluster_quorum") {
    rc = RunClusterQuorum(opt, &report);
  } else if (opt.workload == "paper_andrew") {
    rc = RunPaperAndrew(opt, &report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
  }
  if (rc != 0) return rc;
  report.Print();
  return 0;
}
