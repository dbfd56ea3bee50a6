// Reproduces Figures 11 and 12 of the paper: the Andrew benchmark's five
// phases and the cumulative table.
//
// Paper reference (Figure 12, cumulative):
//   NO-ENC-MD-D 239 s (—), NO-ENC-MD 248 s (+3.7%), SHAROES 266 s (+11%),
//   PUB-OPT 384 s (+60%).
// Figure 11's shape: phases 2 and 4 (I/O) show minimal SHAROES overhead;
// PUB-OPT's phase-2/4 overheads are close to its phase-3 (pure stat)
// overhead because the private-key metadata decryption dominates.

#include <cstdio>
#include <string>
#include <vector>

#include "workload/andrew.h"
#include "workload/report.h"

namespace sharoes::workload {
namespace {

struct PaperRef {
  double total;
  const char* overhead;
};

PaperRef PaperValue(SystemVariant v) {
  switch (v) {
    case SystemVariant::kNoEncMdD:
      return {239, "-"};
    case SystemVariant::kNoEncMd:
      return {248, "+3.7%"};
    case SystemVariant::kSharoes:
      return {266, "+11%"};
    case SystemVariant::kPubOpt:
      return {384, "+60%"};
    default:
      return {0, "-"};
  }
}

void Run() {
  Heading("Figure 11: Andrew benchmark, per-phase times (s)");
  Table phases({"implementation", "P1 mkdir", "P2 copy", "P3 stat",
                "P4 read", "P5 compile"});
  Table cumulative({"implementation", "total (s)", "overhead", "paper (s)",
                    "paper overhead"});
  double base = 0;
  std::vector<BenchWorldOptions> runs;
  for (SystemVariant v : MacroVariants()) {
    BenchWorldOptions opts;
    opts.variant = v;
    runs.push_back(opts);
  }
  // Beyond the paper: SHAROES on its batched read path. Only the SHAROES
  // client has one, so this row does not compare like with like.
  BenchWorldOptions batched;
  batched.variant = SystemVariant::kSharoes;
  batched.batch_reads = true;
  runs.push_back(batched);
  for (const BenchWorldOptions& opts : runs) {
    SystemVariant v = opts.variant;
    BenchWorld world(opts);
    AndrewParams params;
    AndrewResult r = RunAndrew(world, params);
    std::string name = VariantName(v);
    if (opts.batch_reads) name += " batched";
    phases.AddRow({name, Seconds(r.phase[0]), Seconds(r.phase[1]),
                   Seconds(r.phase[2]), Seconds(r.phase[3]),
                   Seconds(r.phase[4])});
    double total = r.Total().total_s();
    if (v == SystemVariant::kNoEncMdD) base = total;
    PaperRef ref = opts.batch_reads ? PaperRef{0, "-"} : PaperValue(v);
    cumulative.AddRow({name, Seconds(total),
                       v == SystemVariant::kNoEncMdD
                           ? "-"
                           : Percent(total, base),
                       ref.total > 0 ? Seconds(ref.total) : "-",
                       ref.overhead});
  }
  phases.Print();
  Heading("Figure 12: Andrew benchmark, cumulative");
  cumulative.Print();
}

}  // namespace
}  // namespace sharoes::workload

int main() {
  sharoes::workload::Run();
  return 0;
}
