// paper_andrew: the paper's Modified Andrew Benchmark in process, on the
// simulated DSL network and the P4-calibrated cost model, with fresh
// signing keys for every file (signing_key_pool = 0).

#include <cstdio>
#include <string>

#include "bench.h"
#include "workload/andrew.h"
#include "workload/harness.h"
#include "workload/tree_gen.h"
#include "workloads.h"

namespace sharoes::perfbench {
namespace {

/// Client ops completed so far in this process (every SharoesClient op
/// records one latency sample).
uint64_t ClientOps(const obs::RegistrySnapshot& s) {
  uint64_t n = 0;
  for (const auto& [name, h] : s.histograms) {
    if (name.rfind("client.op_latency_us.", 0) == 0) n += h.count;
  }
  return n;
}

}  // namespace

int RunPaperAndrew(const RunOptions& opt, Report* report) {
  const workload::AndrewParams params;
  const workload::SourceTree tree = workload::GenerateSourceTree(params.source);
  // Live file bytes after a pass: the sources, one object file per .c
  // (the size of its source) and a binary holding every .c.
  uint64_t live_bytes = 0;
  for (const auto& f : tree.files) {
    const bool is_c = f.name.size() >= 2 && f.name.substr(f.name.size() - 2) == ".c";
    live_bytes += f.content.size() * (is_c ? 3 : 1);
  }
  std::vector<double> setup;
  double virtual_s = -1, cpu_s = 0, store_ratio = 0;
  bool repeat = true;
  uint64_t ops = 0, pass_ops = 0, trips = 0, bytes = 0;
  workload::AndrewResult last;
  net::Transport::Counters wire;
  crypto::CryptoEngine::OpCounts counts;
  obs::RegistrySnapshot local_before, local_after, ssp_before, ssp_after, store;
  auto options = [&](int pass) {
    workload::BenchWorldOptions wopts;
    wopts.variant = workload::SystemVariant::kSharoes;
    wopts.signing_key_pool = 0;
    wopts.seed = opt.seed * 1000 + static_cast<uint64_t>(pass + 8);
    return wopts;
  };
  for (int extra = 1; extra <= 3; ++extra) {
    // Worlds that run nothing: more set-up samples. The first world of
    // a process also pays the RSA-2048 user key, which BenchWorld
    // caches process-wide.
    const auto t0 = Clock::now();
    workload::BenchWorld world(options(-extra));
    setup.push_back(SecondsSince(t0));
  }
  const auto start = Clock::now();
  // At least two passes, so the virtual time is seen to repeat; each
  // pass gets a world of its own with its own engine seed.
  for (int pass = 0; pass < 2 || SecondsSince(start) < opt.seconds; ++pass) {
    const auto t0 = Clock::now();
    workload::BenchWorld world(options(pass));
    setup.push_back(SecondsSince(t0));
    auto& reg = obs::MetricsRegistry::Global();
    const obs::RegistrySnapshot client0 = reg.Snapshot("client.");
    const obs::RegistrySnapshot ssp0 = reg.Snapshot("ssp.");
    const net::Transport::Counters wire0 = world.transport().counters();
    const crypto::CryptoEngine::OpCounts counts0 = world.engine().op_counts();
    const double cpu0 = SelfCpuSeconds();
    last = workload::RunAndrew(world, params);
    cpu_s += SelfCpuSeconds() - cpu0;
    const obs::RegistrySnapshot client1 = reg.Snapshot("client.");
    // The per-layer numbers below are the last pass's.
    pass_ops = ClientOps(client1) - ClientOps(client0);
    ops += pass_ops;
    wire = world.transport().counters();
    trips = wire.round_trips - wire0.round_trips;
    bytes = wire.bytes_up + wire.bytes_down - wire0.bytes_up - wire0.bytes_down;
    counts = world.engine().op_counts();
    counts.keygen -= counts0.keygen;
    counts.sign -= counts0.sign;
    counts.verify -= counts0.verify;
    local_before = client0;
    local_after = client1;
    ssp_before = ssp0;
    ssp_after = reg.Snapshot("ssp.");
    store = reg.Snapshot("ssp.store.");
    store_ratio = static_cast<double>(world.server().store().Stats().total_bytes()) /
                  static_cast<double>(live_bytes);
    report->Attempt(1);
    const double v = last.Total().total_s();
    if (virtual_s >= 0 && v != virtual_s) repeat = false;
    virtual_s = v;
    // Output check: every source file reads back byte for byte.
    for (const auto& f : tree.files) {
      report->Attempt(1);
      auto got = world.client().Read("/work/andrew/" + f.dir + "/" + f.name);
      if (!got.ok() || *got != f.content) {
        report->Fail("andrew read-back " + f.dir + "/" + f.name);
      }
    }
    std::fprintf(stderr,
                 "perfbench: andrew pass %d: world %.3f s, cpu %.3f s, "
                 "virtual %.6f s\n",
                 pass, setup.back(), SelfCpuSeconds() - cpu0, v);
  }
  report->Check(repeat, "andrew virtual seconds repeat exactly across passes");
  report->Check(pass_ops > 0, "andrew client ops are counted");
  const CostSnapshot total = last.Total();
  std::fprintf(stderr,
               "perfbench: andrew virtual %.6f s: network %.6f s, crypto %.6f s, "
               "other %.6f s; %llu client ops per pass\n",
               virtual_s, total.network_ns() / 1e9, total.crypto_ns() / 1e9,
               total.other_ns() / 1e9,
               static_cast<unsigned long long>(pass_ops));
  if (!opt.trace) {
    report->Metric("op_cpu_us", cpu_s * 1e6 / static_cast<double>(ops), "us");
    report->Metric("setup_s", Median(setup), "s");
    report->Metric("store_bytes_per_user_byte", store_ratio, "ratio");
    return 0;
  }
  const double n = static_cast<double>(pass_ops);
  const double virtual_ns = std::max<double>(1, static_cast<double>(total.total_ns));
  // No bench-side tracing exists in process: the split is the paper's
  // virtual clock, and the load is a closed loop.
  report->Metric("trace_overhead_pct", 0, "%");
  report->Metric("gen.achieved_ratio", 1, "ratio");
  report->Metric("client.crypto_share", total.crypto_ns() / virtual_ns, "ratio");
  report->Metric("client.wire_share", total.network_ns() / virtual_ns, "ratio");
  report->Metric("client.self_share", total.other_ns() / virtual_ns, "ratio");
  report->Metric("client.round_trips_per_op", static_cast<double>(trips) / n, "count");
  report->Metric("client.wire_bytes_per_op", static_cast<double>(bytes) / n, "bytes");
  report->Metric("crypto.keygens_per_op", counts.keygen / n, "count");
  report->Metric("crypto.signs_per_op", counts.sign / n, "count");
  report->Metric("crypto.verifies_per_op", counts.verify / n, "count");
  const StatsDelta local{local_before, local_after};
  ReportWireLayer(Tracer(), local, report);
  ReportCacheLayer(local, report);
  ReportServerLayer(StatsDelta{ssp_before, ssp_after}, n, report);
  ReportStoreLayer(store, report);
  ReportCryptoPrimitives(opt.seed, report);
  ReportUnused("wal", report);
  ReportUnused("sharded", report);
  ReportUnused("scrub", report);
  ReportUnused("migration", report);
  report->Metric("paper.round_trips", static_cast<double>(wire.round_trips), "count");
  report->Metric("paper.wire_bytes",
                 static_cast<double>(wire.bytes_up + wire.bytes_down), "bytes");
  return 0;
}

}  // namespace sharoes::perfbench
