// Ablation of the paper's §III-D: Scheme-1 (replicate the metadata tree
// per user) vs. Scheme-2 (replicate per CAP with split points).
//
// The paper's claim: Scheme-1 costs ~$0.60 per user per month for a
// filesystem with one million files at Amazon S3 prices, plus update
// costs that scale with the user count; Scheme-2 trades that for a small
// number of replicas (<= 5 CAPs per directory, 4 per file) at slightly
// higher access cost on split points.

#include <cstdio>

#include "workload/create_list.h"
#include "workload/report.h"

namespace sharoes::workload {
namespace {

// Amazon S3 storage price circa the paper: $0.15 / GB / month.
constexpr double kS3DollarsPerGbMonth = 0.15;

void Run() {
  Heading("Scheme-1 vs Scheme-2: storage and update-cost ablation");
  Table table({"users", "scheme", "metadata KB (100 objs)",
               "metadata bytes/file/user", "$/user/month @ 1M files",
               "create cost (ms/op)"});
  for (size_t users : {1u, 5u, 10u, 25u}) {
    for (core::Scheme scheme :
         {core::Scheme::kScheme1, core::Scheme::kScheme2}) {
      BenchWorldOptions opts;
      opts.variant = SystemVariant::kSharoes;
      opts.scheme = scheme;
      opts.registered_users = users;
      BenchWorld world(opts);

      // Populate: 10 dirs x 9 files = ~100 objects.
      CreateListParams params;
      params.dirs = 10;
      params.files_per_dir = 9;
      CreateListResult r = RunCreateList(world, params);
      double create_ms_per_op =
          r.create.total_ms() / (params.dirs * (1 + params.files_per_dir));

      ssp::StorageStats stats = world.server().store().Stats();
      uint64_t md_bytes =
          stats.total_bytes() - stats.bytes(ssp::ObjectFamily::kData);
      double objects = params.dirs * (1.0 + params.files_per_dir) + 2;
      double bytes_per_file_per_user =
          static_cast<double>(md_bytes) / objects / static_cast<double>(users);
      double dollars = bytes_per_file_per_user * 1e6 / (1 << 30) *
                       kS3DollarsPerGbMonth;
      char dollars_s[32], bpfu[32];
      std::snprintf(dollars_s, sizeof(dollars_s), "$%.2f", dollars);
      std::snprintf(bpfu, sizeof(bpfu), "%.0f", bytes_per_file_per_user);
      table.AddRow({std::to_string(users),
                    scheme == core::Scheme::kScheme1 ? "Scheme-1" : "Scheme-2",
                    std::to_string(md_bytes / 1024), bpfu, dollars_s,
                    Millis(create_ms_per_op)});
    }
  }
  table.Print();
  std::printf(
      "\nExpected shape: Scheme-1 metadata bytes and per-create cost grow"
      " linearly with the user count (the paper's ~$0.60/user/month at"
      " 1M files); Scheme-2 stays near-flat because replicas track CAPs"
      " (classes), not users.\n");
}

}  // namespace
}  // namespace sharoes::workload

int main() {
  sharoes::workload::Run();
  return 0;
}
