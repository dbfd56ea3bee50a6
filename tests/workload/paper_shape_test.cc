// Paper shape tests: the orderings EXPERIMENTS.md states for the paper's
// figures, asserted on the deterministic virtual clock with the same
// worlds and parameters as the bench binaries. Every implementation runs
// the paper's I/O path, one object get per round trip, so the columns
// compare like with like.

#include <gtest/gtest.h>

#include <map>

#include "workload/andrew.h"
#include "workload/harness.h"

namespace sharoes::workload {
namespace {

/// Figure 12: cumulative Andrew virtual seconds per implementation.
std::map<SystemVariant, double> AndrewTotals() {
  std::map<SystemVariant, double> totals;
  for (SystemVariant v : MacroVariants()) {
    BenchWorldOptions opts;
    opts.variant = v;
    BenchWorld world(opts);
    totals[v] = RunAndrew(world, AndrewParams()).Total().total_s();
  }
  return totals;
}

TEST(PaperShapeTest, AndrewCumulativeOrdering) {
  // Paper Figure 12: 239 / 248 / 266 / 384 s. No encryption is the
  // floor, encrypting data adds a little, SHAROES' symmetric metadata
  // crypto a little more, and PUB-OPT's private-key op per stat the most.
  std::map<SystemVariant, double> t = AndrewTotals();
  const double no_enc_md_d = t[SystemVariant::kNoEncMdD];
  const double no_enc_md = t[SystemVariant::kNoEncMd];
  const double sharoes = t[SystemVariant::kSharoes];
  const double pub_opt = t[SystemVariant::kPubOpt];
  EXPECT_LE(no_enc_md_d, no_enc_md);
  EXPECT_LT(no_enc_md, sharoes);
  EXPECT_LT(sharoes, pub_opt);
}

}  // namespace
}  // namespace sharoes::workload
