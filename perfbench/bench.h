// Shared pieces of the repo benchmark: run options, the result line,
// sample statistics, seeded file contents, daemon processes, the
// kGetStats delta reader, the open-loop load generator and the
// bench-side trace (timing decorator + per-op spans).
//
// Nothing here is part of the SHAROES program: the benchmark drives the
// program through its public API, the deployed daemon binary and the
// kGetStats admin RPC only.

#ifndef SHAROES_PERFBENCH_BENCH_H_
#define SHAROES_PERFBENCH_BENCH_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "crypto/keys.h"
#include "obs/metrics.h"
#include "ssp/placement.h"
#include "ssp/ssp_server.h"
#include "util/bytes.h"
#include "util/sim_clock.h"

namespace sharoes::perfbench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t);
double MicrosBetween(Clock::time_point a, Clock::time_point b);

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string sspd;     // Path of the deployed daemon binary.
  std::string workdir;  // Scratch directory for WALs, configs, traces.
};

/// The benchmark's result line plus its checks. Every wrong output or
/// failed op goes through Fail(), which also makes the run incorrect.
/// Thread-safe: load workers report failures concurrently.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Attempt(uint64_t n = 1);
  void Fail(const std::string& why);
  /// A correctness check that is not an op (read-back, tombstones, ...).
  void Check(bool ok, const std::string& what);
  /// Prints the last line: {"correct","attempted","failed","metrics"}.
  void Print() const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  mutable std::mutex mu_;
  std::map<std::string, Entry> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool checks_ok_ = true;
  int complaints_ = 0;
};

/// Exact quantile of a sample (nearest rank after sorting a copy).
double Quantile(std::vector<double> v, double q);
/// Middle value; the mean of the two middle values for an even count.
double Median(std::vector<double> v);

/// Deterministic file bytes: a splitmix64 stream keyed by seed, file id
/// and version, so every read can be checked without storing contents.
Bytes Content(uint64_t seed, uint64_t file_id, uint64_t version, size_t n);

/// A seeded engine as every benchmark client uses it: RSA-512 signing
/// keys generated fresh per file (signing_key_pool = 0). `measured`
/// selects ChargePolicy::kMeasured (traced runs) so the SimClock crypto
/// delta around an op is its crypto busy time.
std::unique_ptr<crypto::CryptoEngine> MakeEngine(SimClock* clock,
                                                 uint64_t seed,
                                                 bool measured);

// --- Daemon processes -------------------------------------------------

/// A free loopback TCP port (bound and released; the daemon binds it).
uint16_t FreePort();

/// One `sharoes_sspd` child process. Its output goes to a log file.
class DaemonProcess {
 public:
  DaemonProcess(std::string binary, std::vector<std::string> args,
                std::string log_path, uint16_t port);
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// Spawns the daemon and waits until it answers kGetStats. Returns the
  /// seconds from spawn to the first answer, or a negative value when it
  /// never served within `timeout_s`.
  double Start(double timeout_s = 30);
  /// SIGTERM (graceful: WAL sync + compaction) and wait.
  void Stop();
  /// SIGKILL and wait: a crash, as far as the WAL is concerned.
  void Kill();
  uint16_t port() const { return port_; }
  /// User + system CPU seconds the running daemon has used so far.
  double CpuSeconds() const;

 private:
  void Signal(int sig);

  std::string binary_;
  std::vector<std::string> args_;
  std::string log_path_;
  uint16_t port_;
  pid_t pid_ = -1;
};

/// User + system CPU seconds of this process (all its threads).
double SelfCpuSeconds();

/// The fixed deployed flags: durable WAL with fsync per commit.
std::vector<std::string> WalArgs(const std::string& dir);

// --- kGetStats --------------------------------------------------------

/// Fetches the binary kGetStats registry snapshot ("ssp." metrics) of
/// every daemon over a fresh connection each and sums them (counters
/// and gauges add, histograms merge).
Result<obs::RegistrySnapshot> FetchStatsAll(const std::vector<uint16_t>& ports);

/// The change in a registry between two snapshots.
struct StatsDelta {
  obs::RegistrySnapshot before;
  obs::RegistrySnapshot after;

  uint64_t Counter(const std::string& name) const;
  /// Sum over every counter whose name starts with `prefix`, skipping
  /// admin opcodes (the reads of the stats themselves).
  uint64_t CounterPrefix(const std::string& prefix) const;
  /// Bucket-wise after - before of one histogram, or of every histogram
  /// under `prefix` merged (admin opcodes skipped).
  obs::HistogramSnapshot Histogram(const std::string& name) const;
  obs::HistogramSnapshot HistogramPrefix(const std::string& prefix) const;
};

// --- Open-loop load ---------------------------------------------------

/// One completed op as the generator saw it.
struct Sample {
  int kind = 0;
  double latency_us = 0;  // Completion - scheduled arrival.
  double late_us = 0;     // Start - scheduled arrival (generator lag).
  bool ok = true;
  bool bulk = false;      // A read of a 256 KiB file.
};

/// Persistent worker threads (spawned at set-up, never inside a timed
/// window) that run open-loop arrivals at a total offered rate split
/// over the workers by `shares` (evenly when empty). Each worker gets
/// exactly rate x share x seconds arrivals, placed uniformly at random
/// in the window: a Poisson process conditioned on its count, so the op
/// mix, and with it the CPU per op, does not wander with the count from
/// run to run. Each op is a callback on the worker's own state; it
/// returns the op kind and whether the output was right.
class OpenLoop {
 public:
  using OpFn = std::function<Sample(int worker, std::mt19937_64& rng)>;

  OpenLoop(int workers, OpFn op, std::vector<double> shares = {});
  ~OpenLoop();
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  struct Window {
    uint64_t scheduled = 0;  // Arrivals inside the window.
    uint64_t completed_in_time = 0;
    std::vector<Sample> samples;
  };
  Window Run(double rate, double seconds, uint64_t rng_salt);

 private:
  void WorkerMain(int w);

  OpFn op_;
  std::vector<double> shares_;
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t generation_ = 0;
  int running_ = 0;
  bool quit_ = false;
  double rate_ = 0, seconds_ = 0;
  uint64_t salt_ = 0;
  Clock::time_point start_;
  std::vector<std::vector<Sample>> per_worker_;
  std::vector<uint64_t> scheduled_;
  std::vector<uint64_t> in_time_;
  std::vector<std::thread> threads_;
};

std::vector<double> LatenciesOf(const std::vector<Sample>& s, int kind);

// --- Bench-side trace -------------------------------------------------

/// Spans of the traced run, kept in memory and written at the end. Each
/// client op gets an id; its crypto/wire/self split and every channel
/// call it issued (logical and per cluster node) carry that id.
class Tracer {
 public:
  struct CallSpan {
    uint64_t op_id;
    int node;  // -1 = the client's logical channel call.
    uint64_t call_seq;
    double start_us, end_us;
    uint64_t bytes_out, bytes_in;
  };
  struct OpSpan {
    uint64_t op_id;
    std::string kind;
    int worker;
    double start_us, end_us;
    double crypto_us, wire_us, self_us;
    uint64_t round_trips, wire_bytes;
    crypto::CryptoEngine::OpCounts counts;
  };

  Tracer() : epoch_(Clock::now()) {}
  /// Spans are recorded only while enabled (the traced window).
  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(); }
  double NowUs() const { return MicrosBetween(epoch_, Clock::now()); }

  /// The op the calling thread is running (0 = none); node calls made by
  /// ShardedChannel helper threads read the client thread's op through
  /// the logical-call scope instead.
  static thread_local uint64_t current_op;

  uint64_t NextOpId() { return next_op_.fetch_add(1) + 1; }
  void AddCall(const CallSpan& c);
  void AddOp(const OpSpan& o);
  std::vector<CallSpan> Calls() const;
  std::vector<OpSpan> Ops() const;

 private:
  std::atomic<bool> enabled_{false};
  Clock::time_point epoch_;
  std::atomic<uint64_t> next_op_{0};
  mutable std::mutex mu_;
  std::vector<CallSpan> calls_;
  std::vector<OpSpan> ops_;
};

/// The timing decorator: forwards every Call to the wrapped channel and,
/// when tracing, records a CallSpan. For a logical channel it also
/// publishes the call sequence so per-node decorators beneath a
/// ShardedChannel attach their spans to it.
class TimedChannel : public ssp::SspChannel {
 public:
  TimedChannel(std::unique_ptr<ssp::SspChannel> inner, Tracer* tracer,
               int node, std::atomic<uint64_t>* logical_seq,
               std::atomic<uint64_t>* logical_op);
  Result<ssp::Response> Call(const ssp::Request& req) override;
  ssp::SspChannel* inner() { return inner_.get(); }

 private:
  std::unique_ptr<ssp::SspChannel> inner_;
  Tracer* tracer_;
  int node_;
  std::atomic<uint64_t>* logical_seq_;
  std::atomic<uint64_t>* logical_op_;
};

/// The per-op wrapper of a traced client: times the op, diffs the
/// engine's SimClock crypto time and op counts, sums the op's logical
/// wire calls, and records the split. Untraced runs skip all of it.
class OpTimer {
 public:
  OpTimer(Tracer* tracer, crypto::CryptoEngine* engine, int worker,
          const char* kind);
  ~OpTimer();
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

 private:
  Tracer* tracer_;
  crypto::CryptoEngine* engine_;
  int worker_;
  const char* kind_;
  uint64_t op_id_ = 0;
  double start_us_ = 0;
  uint64_t crypto_ns_ = 0;
  crypto::CryptoEngine::OpCounts counts_;
};

/// Writes every span as one JSON object per line: ops with their
/// crypto/wire/self split, then logical and per-node channel calls.
bool WriteTrace(const Tracer& tracer, const std::string& path);

/// Client-layer numbers derived from the spans of one traced run, over
/// every op of the workload: the crypto/wire/self shares of op time,
/// round trips, wire bytes and primitive counts per op.
void ReportClientLayer(const Tracer& tracer, Report* report);
/// Checks crypto + wire + self within 10 % of each op's time.
void CheckSplit(const Tracer& tracer, Report* report);

// --- Per-layer readers shared by several workloads ---------------------
//
// Every workload prints every per-layer metric. A layer a workload does
// not exercise (no WAL writes, no ShardedChannel, no scrubber, no
// migration, no simulated network) reports zeros through ReportUnused.

/// Primitive costs through the engine's public functions; keys are made
/// and every primitive warmed before its timed loop.
void ReportCryptoPrimitives(uint64_t seed, Report* report);
/// `d` holds the "ssp." registry of the daemons (or of the in-process
/// server) over the traced window; `ops` is the client ops it served.
void ReportServerLayer(const StatsDelta& d, double ops, Report* report);
void ReportStoreLayer(const obs::RegistrySnapshot& after, Report* report);
/// `client` is the bench process's own registry over the traced window
/// (client retries live there). Logical call latencies go to stderr.
void ReportWireLayer(const Tracer& tracer, const StatsDelta& client,
                     Report* report);
void ReportCacheLayer(const StatsDelta& client, Report* report);
/// Group commit and write amplification of the daemons' WALs over the
/// traced window; `user_bytes` is the file content the clients wrote.
void ReportWalLayer(const StatsDelta& d, uint64_t acked_ops,
                    uint64_t user_bytes, Report* report);
/// Zeros for every metric of `layer` ("wal", "sharded", "scrub",
/// "migration" or "paper"), which the workload does not exercise.
void ReportUnused(const std::string& layer, Report* report);
/// The bench process's own registry (client-side counters).
obs::RegistrySnapshot LocalStats();
void ReportGenerator(const OpenLoop::Window& w, Report* report);

/// CPU model, nproc and build type, printed with every run.
std::string HostFingerprint();

}  // namespace sharoes::perfbench

#endif  // SHAROES_PERFBENCH_BENCH_H_
