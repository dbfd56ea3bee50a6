// Reproduces Figure 13 of the paper: per-operation cost decomposition
// (NETWORK / CRYPTO / OTHER) for SHAROES filesystem operations.
//
// Paper reference shape: getattr completes in a little over 100 ms,
// dominated by the network; the CRYPTO component stays below ~7% for all
// operations; mkdir grows with the number (and kind) of CAPs created —
// exec-only CAPs cost extra for the per-row inner encryption; 1 MB I/O is
// dominated by WAN transfer time.
//
// Also measures the observability layer's own cost: wall-clock ns/op of
// the instrumented SSP serving path on an Andrew-style op mix, with
// metrics enabled vs SHAROES_METRICS=off, written to
// BENCH_obs_overhead.json (budget: < 2%, DESIGN.md §9).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ssp/message.h"
#include "ssp/ssp_server.h"
#include "ssp/wal.h"
#include "workload/andrew.h"
#include "workload/op_costs.h"
#include "workload/report.h"

namespace sharoes::workload {
namespace {

void Run() {
  Heading("Figure 13: SHAROES filesystem operation costs");
  BenchWorldOptions opts;
  opts.variant = SystemVariant::kSharoes;
  // The CAP-variety probes need non-owner classes to exist, so register
  // a small enterprise (other users make group/other CAPs non-empty).
  opts.registered_users = 3;
  BenchWorld world(opts);
  std::vector<OpCost> costs = RunOpCostProbes(world);
  // Beyond the paper: the same 1 MB read with batched reads on (32-block
  // readahead windows), the path the client runs by default.
  opts.batch_reads = true;
  BenchWorld batched(opts);
  for (const OpCost& c : RunOpCostProbes(batched)) {
    if (c.op == "read-1MB") costs.push_back({"read-1MB, batched", c.cost});
  }
  Table table({"operation", "total (ms)", "NETWORK (ms)", "CRYPTO (ms)",
               "OTHER (ms)", "crypto share"});
  for (const OpCost& c : costs) {
    double total = c.cost.total_ms();
    char share[16];
    std::snprintf(share, sizeof(share), "%.1f%%",
                  100.0 * c.cost.crypto_ns() / c.cost.total_ns);
    table.AddRow({c.op, Millis(total), Millis(c.cost.network_ns() / 1e6),
                  Millis(c.cost.crypto_ns() / 1e6),
                  Millis(c.cost.other_ns() / 1e6), share});
  }
  table.Print();
  std::printf(
      "\nPaper shape: getattr ~110 ms (network-dominated); CRYPTO < 7%%"
      " of every operation; mkdir:both > mkdir:--x > mkdir:rwx; 1 MB I/O"
      " dominated by WAN transfer. Every row but the last fetches one"
      " object per round trip.\n");
}

/// The Andrew phases as SSP wire frames (the serving-path view of the
/// workload in tests/core/client_fault_test.cc): directory/metadata
/// puts, stat-phase metadata gets, data reads/writes, and a batched
/// "metadata send". Trace-stamped, so the instrumented run pays the
/// full price: extension parse + per-op counters + histograms + gauges.
std::vector<Bytes> AndrewWireMix() {
  Bytes block(4096, 0xAB);
  Bytes meta(256, 0x17);
  std::vector<ssp::Request> mix;
  for (int i = 0; i < 3; ++i) {  // Phase 1: mkdir skeleton.
    mix.push_back(ssp::Request::Put(ssp::ObjectKey::Metadata(10 + i, 0), meta));
  }
  for (int i = 0; i < 5; ++i) {  // Phase 2: copy sources in.
    mix.push_back(ssp::Request::Batch(
        {ssp::Request::Put(ssp::ObjectKey::Metadata(20 + i, 0), meta),
         ssp::Request::Put(ssp::ObjectKey::Data(20 + i, 0), block)}));
  }
  for (int i = 0; i < 5; ++i) {  // Phase 3: stat everything.
    mix.push_back(ssp::Request::Get(ssp::ObjectKey::Metadata(20 + i, 0)));
  }
  for (int i = 0; i < 5; ++i) {  // Phase 4: cold reads.
    mix.push_back(ssp::Request::Get(ssp::ObjectKey::Data(20 + i, 0)));
  }
  for (int i = 0; i < 5; ++i) {  // Phase 5: compile + link.
    mix.push_back(ssp::Request::Get(ssp::ObjectKey::Data(20 + i, 0)));
    mix.push_back(ssp::Request::Batch(
        {ssp::Request::Put(ssp::ObjectKey::Metadata(30 + i, 0), meta),
         ssp::Request::Put(ssp::ObjectKey::Data(30 + i, 0), block)}));
    mix.push_back(ssp::Request::Get(ssp::ObjectKey::Data(30 + i, 0)));
  }
  std::vector<Bytes> frames;
  frames.reserve(mix.size());
  for (const ssp::Request& req : mix) {
    frames.push_back(req.SerializeWithTrace(obs::NextTraceId(), 0));
  }
  return frames;
}

/// ns/op for one pass configuration; best-of-`rounds` to suppress
/// scheduler noise (this host has a single CPU — see README).
double MeasureNsPerOp(ssp::SspServer* server, const std::vector<Bytes>& mix,
                      int rounds, int passes_per_round) {
  double best = 0;
  for (int r = 0; r < rounds; ++r) {
    auto start = std::chrono::steady_clock::now();
    for (int p = 0; p < passes_per_round; ++p) {
      for (const Bytes& frame : mix) (void)server->HandleWire(frame);
    }
    auto end = std::chrono::steady_clock::now();
    double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count());
    double per_op = ns / (static_cast<double>(passes_per_round) *
                          static_cast<double>(mix.size()));
    if (r == 0 || per_op < best) best = per_op;
  }
  return best;
}

/// Wall-clock seconds of one full client-level Andrew run (all five
/// phases, SHAROES variant, on the batched read path that clients run by
/// default). World construction (provisioning crypto) is excluded; the
/// run itself exercises every instrumented layer: client spans, cache
/// counters, retry accounting, and the SSP serving path.
double MeasureAndrewSeconds() {
  BenchWorldOptions opts;
  opts.variant = SystemVariant::kSharoes;
  opts.batch_reads = true;
  BenchWorld world(opts);
  AndrewParams params;
  auto start = std::chrono::steady_clock::now();
  (void)RunAndrew(world, params);
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

void RunObsOverhead() {
  Heading("Observability overhead: instrumented vs SHAROES_METRICS=off");

  // (a) Worst case: the raw in-process SSP serving path, where one op is
  // a ~600 ns hashtable access and every instrumentation atomic shows.
  // Long rounds: on a shared host a ~15 ns/op delta disappears into
  // scheduler noise unless each timed sample spans many timeslices.
  ssp::SspServer server;
  std::vector<Bytes> mix = AndrewWireMix();
  constexpr int kRounds = 7;
  constexpr int kPasses = 3000;
  // Warm up stores, metric registrations, and caches before timing.
  (void)MeasureNsPerOp(&server, mix, 1, 50);
  // Interleave the two modes round-robin so slow drift (thermal, other
  // tenants) biases neither; best-of-round is taken per mode.
  double serve_on = 0, serve_off = 0;
  for (int r = 0; r < kRounds; ++r) {
    obs::SetMetricsEnabled(true);
    double on_ns = MeasureNsPerOp(&server, mix, 1, kPasses);
    obs::SetMetricsEnabled(false);
    double off_ns = MeasureNsPerOp(&server, mix, 1, kPasses);
    if (r == 0 || on_ns < serve_on) serve_on = on_ns;
    if (r == 0 || off_ns < serve_off) serve_off = off_ns;
  }
  double serve_pct = (serve_on - serve_off) / serve_off * 100.0;

  // (b) The budgeted number (DESIGN.md §9): the client-level Andrew op
  // mix, where each op also pays its real crypto and codec work — the
  // denominator an operator actually experiences.
  constexpr int kAndrewRounds = 3;
  double andrew_on = 0, andrew_off = 0;
  for (int r = 0; r < kAndrewRounds; ++r) {
    obs::SetMetricsEnabled(true);
    double on_s = MeasureAndrewSeconds();
    obs::SetMetricsEnabled(false);
    double off_s = MeasureAndrewSeconds();
    if (r == 0 || on_s < andrew_on) andrew_on = on_s;
    if (r == 0 || off_s < andrew_off) andrew_off = off_s;
  }
  obs::SetMetricsEnabled(true);
  double andrew_pct = (andrew_on - andrew_off) / andrew_off * 100.0;

  std::printf("  SSP serving path (worst case, ~600 ns/op denominator):\n");
  std::printf("    instrumented : %8.1f ns/op\n", serve_on);
  std::printf("    metrics off  : %8.1f ns/op\n", serve_off);
  std::printf("    overhead     : %+7.2f %%\n", serve_pct);
  std::printf("  Andrew client op mix (budgeted, DESIGN.md §9):\n");
  std::printf("    instrumented : %8.3f s/run\n", andrew_on);
  std::printf("    metrics off  : %8.3f s/run\n", andrew_off);
  std::printf("    overhead     : %+7.2f %%  (budget < 2%%)\n", andrew_pct);

  obs::JsonObjectWriter w;
  w.Field("bench", "obs_overhead");
  w.BeginObject("serving_path");
  w.Field("op_mix", "andrew_wire_frames");
  w.Field("ops_per_pass", static_cast<uint64_t>(mix.size()));
  w.Field("passes_per_round", static_cast<uint64_t>(kPasses));
  w.Field("rounds", static_cast<uint64_t>(kRounds));
  w.Field("instrumented_ns_per_op", serve_on);
  w.Field("metrics_off_ns_per_op", serve_off);
  w.Field("overhead_pct", serve_pct);
  w.EndObject();
  w.BeginObject("andrew_client");
  w.Field("op_mix", "andrew_five_phases");
  w.Field("rounds", static_cast<uint64_t>(kAndrewRounds));
  w.Field("instrumented_s_per_run", andrew_on);
  w.Field("metrics_off_s_per_run", andrew_off);
  w.Field("overhead_pct", andrew_pct);
  w.EndObject();
  w.Field("budget_pct", 2.0);
  w.Field("budget_applies_to", "andrew_client");
  w.Field("within_budget", andrew_pct < 2.0);
  std::string json = w.Take();
  const char* path = "BENCH_obs_overhead.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
    std::printf("  wrote %s\n", path);
  } else {
    std::printf("  could not write %s\n", path);
  }
}

/// ns/op of the serving path with a WAL attached under one sync policy.
/// Fresh log directory per call; the Wal is torn down (joining its
/// background thread) before the directory is removed.
double MeasureWalNsPerOp(ssp::WalSyncPolicy policy,
                         const std::vector<Bytes>& mix, int rounds,
                         int passes_per_round) {
  std::string dir = std::string("/tmp/sharoes_bench_wal_") +
                    ssp::WalSyncPolicyName(policy);
  std::string rm = "rm -rf " + dir;
  (void)std::system(rm.c_str());
  ssp::SspServer server;
  ssp::WalOptions opts;
  opts.sync = policy;
  auto wal = ssp::Wal::Open(dir, opts, &server.store());
  if (!wal.ok()) {
    std::printf("  could not open WAL at %s: %s\n", dir.c_str(),
                wal.status().ToString().c_str());
    return 0;
  }
  server.set_wal(wal->get());
  (void)MeasureNsPerOp(&server, mix, 1, 10);  // Warm-up.
  double best = MeasureNsPerOp(&server, mix, rounds, passes_per_round);
  server.set_wal(nullptr);
  wal->reset();
  (void)std::system(rm.c_str());
  return best;
}

void RunWalOverhead() {
  Heading("WAL overhead: serving path with durability on vs off");

  // Same wire mix as the observability bench (~60% mutating ops, so the
  // append/ack path is exercised at a realistic rate). Few passes: under
  // --wal-sync always every mutating request is an fsync, and the point
  // is the per-op cost ordering (off < interval < always), not a
  // throughput record. Single-CPU host + /tmp (often tmpfs) make the
  // absolute fsync numbers flatter than production disks — see README.
  std::vector<Bytes> mix = AndrewWireMix();
  constexpr int kRounds = 3;
  constexpr int kPasses = 60;

  ssp::SspServer baseline;
  (void)MeasureNsPerOp(&baseline, mix, 1, 10);
  double no_wal = MeasureNsPerOp(&baseline, mix, kRounds, kPasses);

  struct PolicyRow {
    ssp::WalSyncPolicy policy;
    double ns_per_op;
  };
  std::vector<PolicyRow> rows;
  for (ssp::WalSyncPolicy policy :
       {ssp::WalSyncPolicy::kOff, ssp::WalSyncPolicy::kInterval,
        ssp::WalSyncPolicy::kAlways}) {
    rows.push_back({policy, MeasureWalNsPerOp(policy, mix, kRounds, kPasses)});
  }

  std::printf("    no WAL        : %10.1f ns/op\n", no_wal);
  for (const PolicyRow& row : rows) {
    double pct = (row.ns_per_op - no_wal) / no_wal * 100.0;
    std::printf("    sync=%-8s : %10.1f ns/op  (%+8.1f %%)\n",
                ssp::WalSyncPolicyName(row.policy), row.ns_per_op, pct);
  }

  obs::JsonObjectWriter w;
  w.Field("bench", "wal_overhead");
  w.Field("op_mix", "andrew_wire_frames");
  w.Field("ops_per_pass", static_cast<uint64_t>(mix.size()));
  w.Field("passes_per_round", static_cast<uint64_t>(kPasses));
  w.Field("rounds", static_cast<uint64_t>(kRounds));
  w.Field("no_wal_ns_per_op", no_wal);
  for (const PolicyRow& row : rows) {
    w.BeginObject(std::string("sync_") +
                  ssp::WalSyncPolicyName(row.policy));
    w.Field("ns_per_op", row.ns_per_op);
    w.Field("overhead_pct", (row.ns_per_op - no_wal) / no_wal * 100.0);
    w.EndObject();
  }
  w.Field("note",
          "single-CPU host, /tmp backing; fsync costs are flatter than "
          "production disks, compare policies relatively");
  std::string json = w.Take();
  const char* path = "BENCH_wal_overhead.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
    std::printf("  wrote %s\n", path);
  } else {
    std::printf("  could not write %s\n", path);
  }
}

/// Group commit under concurrency: K writer threads ack mutating
/// requests against a WAL in sync=always mode with a commit window, and
/// the fsync counter must grow sublinearly in acked ops — concurrent
/// committers share the leader's fsync instead of each paying their own.
/// Without group commit this ratio is exactly 1.0; CI gates on < 1.
void RunGroupCommit() {
  Heading("WAL group commit: fsyncs per acked op, 8 concurrent writers");

  constexpr int kWriters = 8;
  constexpr int kOpsPerWriter = 40;
  constexpr uint32_t kWindowUs = 2000;

  std::string dir = "/tmp/sharoes_bench_group_commit";
  std::string rm = "rm -rf " + dir;
  (void)std::system(rm.c_str());
  ssp::SspServer server;
  ssp::WalOptions wal_opts;
  wal_opts.sync = ssp::WalSyncPolicy::kAlways;
  wal_opts.group_commit_us = kWindowUs;
  auto wal = ssp::Wal::Open(dir, wal_opts, &server.store());
  if (!wal.ok()) {
    std::printf("  could not open WAL at %s: %s\n", dir.c_str(),
                wal.status().ToString().c_str());
    return;
  }
  server.set_wal(wal->get());

  auto& reg = obs::MetricsRegistry::Global();
  uint64_t fsyncs0 = reg.counter("ssp.wal.fsyncs")->Value();
  std::atomic<uint64_t> acked{0};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Bytes block(512, static_cast<uint8_t>(w));
      for (int i = 0; i < kOpsPerWriter; ++i) {
        ssp::Response resp = server.Handle(ssp::Request::Put(
            ssp::ObjectKey::Data(1000 + w, static_cast<uint32_t>(i)), block));
        if (resp.status == ssp::RespStatus::kOk) {
          acked.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  uint64_t fsyncs = reg.counter("ssp.wal.fsyncs")->Value() - fsyncs0;
  uint64_t leads = reg.counter("ssp.wal.commit_leads")->Value();
  uint64_t piggybacks = reg.counter("ssp.wal.commit_piggybacks")->Value();
  server.set_wal(nullptr);
  wal->reset();
  (void)std::system(rm.c_str());

  double per_op = acked.load() == 0
                      ? 0.0
                      : static_cast<double>(fsyncs) /
                            static_cast<double>(acked.load());
  std::printf("    writers            : %d x %d ops\n", kWriters,
              kOpsPerWriter);
  std::printf("    acked ops          : %llu\n",
              static_cast<unsigned long long>(acked.load()));
  std::printf("    fsyncs             : %llu\n",
              static_cast<unsigned long long>(fsyncs));
  std::printf("    fsyncs per acked op: %.3f  (per-request sync = 1.0)\n",
              per_op);

  obs::JsonObjectWriter w;
  w.Field("bench", "wal_group_commit");
  w.Field("sync_policy", "always");
  w.Field("group_commit_us", static_cast<uint64_t>(kWindowUs));
  w.Field("writers", static_cast<uint64_t>(kWriters));
  w.Field("ops_per_writer", static_cast<uint64_t>(kOpsPerWriter));
  w.Field("acked_ops", acked.load());
  w.Field("fsyncs", fsyncs);
  w.Field("fsyncs_per_acked_op", per_op);
  w.Field("commit_leads_total", leads);
  w.Field("commit_piggybacks_total", piggybacks);
  w.Field("sublinear", per_op < 1.0);
  std::string json = w.Take();
  const char* path = "BENCH_group_commit.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
    std::printf("  wrote %s\n", path);
  } else {
    std::printf("  could not write %s\n", path);
  }
}

}  // namespace
}  // namespace sharoes::workload

int main() {
  sharoes::workload::Run();
  sharoes::workload::RunObsOverhead();
  sharoes::workload::RunWalOverhead();
  sharoes::workload::RunGroupCommit();
  return 0;
}
