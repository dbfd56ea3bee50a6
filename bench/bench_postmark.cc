// Reproduces Figure 10 of the paper: the Postmark benchmark with the
// client cache size swept from 0% to 100% of the data-set size.
//
//   "500 small files are created and then 500 randomly chosen
//    transactions (read, write, create, delete) are performed ...
//    file sizes ranging between 500 bytes and 9.77 KB."
//
// Paper reference shape (transaction-phase seconds, read off Figure 10):
// all series fall from ~1150-1300 s at 0% cache toward ~450-550 s at
// 100%; PUB-OPT is competitive only at 100% and becomes ~64% more
// expensive than NO-ENC-MD-D (~43% more than SHAROES) at 10% cache,
// while SHAROES stays within ~15% of NO-ENC-MD-D throughout.

#include <cstdio>

#include "workload/postmark.h"
#include "workload/report.h"

namespace sharoes::workload {
namespace {

void Run() {
  Heading(
      "Figure 10: Postmark (500 files, 500 transactions) vs. cache size");
  const double fractions[] = {0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0};
  // SHAROES runs the batched read path (the library default); the extra
  // column is the same client with batch_reads off, the one-get-per-trip
  // comparator, so the batching cost or gain is visible per cache size.
  Table table({"cache %", "NO-ENC-MD-D (s)", "NO-ENC-MD (s)", "SHAROES (s)",
               "PUB-OPT (s)", "SHAROES vs base", "PUB-OPT vs base",
               "SHAROES unbatched (s)"});
  for (double frac : fractions) {
    std::vector<double> secs;
    for (SystemVariant v : MacroVariants()) {
      BenchWorldOptions opts;
      opts.variant = v;
      BenchWorld world(opts);
      PostmarkParams params;
      PostmarkResult r = RunPostmark(world, params, frac);
      secs.push_back(r.transactions.total_s());
    }
    BenchWorldOptions unbatched;
    unbatched.batch_reads = false;
    BenchWorld world(unbatched);
    double unbatched_s =
        RunPostmark(world, PostmarkParams(), frac).transactions.total_s();
    char pct[16];
    std::snprintf(pct, sizeof(pct), "%.0f%%", frac * 100);
    table.AddRow({pct, Seconds(secs[0]), Seconds(secs[1]), Seconds(secs[2]),
                  Seconds(secs[3]), Percent(secs[2], secs[0]),
                  Percent(secs[3], secs[0]), Seconds(unbatched_s)});
  }
  table.Print();
  std::printf(
      "\nPaper shape: PUB-OPT competitive only near 100%% cache; at 10%%"
      " it is ~64%% costlier than NO-ENC-MD-D and ~43%% costlier than"
      " SHAROES; SHAROES stays within ~15%% of NO-ENC-MD-D.\n");
}

}  // namespace
}  // namespace sharoes::workload

int main() {
  sharoes::workload::Run();
  return 0;
}
