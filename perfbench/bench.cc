#include "bench.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "obs/json.h"
#include "ssp/message.h"
#include "ssp/tcp_service.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace sharoes::perfbench {

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// --- Report -------------------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_[name] = Entry{value, unit};
}

void Report::Attempt(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += n;
}

void Report::Fail(const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failed_;
  if (complaints_++ < 20) std::fprintf(stderr, "perfbench: FAIL %s\n", why.c_str());
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  std::lock_guard<std::mutex> lock(mu_);
  checks_ok_ = false;
  std::fprintf(stderr, "perfbench: CHECK FAILED %s\n", what.c_str());
}

void Report::Print() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Hand-rolled so every value keeps all its digits (%.17g).
  std::string out = "{\"correct\":";
  out += checks_ok_ && failed_ == 0 && attempted_ > 0 ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted_);
  out += ",\"failed\":" + std::to_string(failed_);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, e] : metrics_) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    out += (first ? "\"" : ",\"") + name + "\":{\"value\":" + value +
           ",\"unit\":\"" + e.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// --- Statistics and contents -------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

namespace {
uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace

Bytes Content(uint64_t seed, uint64_t file_id, uint64_t version, size_t n) {
  uint64_t state = seed * 0x100000001B3ull ^ (file_id << 20) ^ version;
  Bytes b(n);
  for (size_t i = 0; i < n; i += 8) {
    uint64_t x = SplitMix(&state);
    std::memcpy(b.data() + i, &x, std::min<size_t>(8, n - i));
  }
  return b;
}

std::unique_ptr<crypto::CryptoEngine> MakeEngine(SimClock* clock,
                                                 uint64_t seed,
                                                 bool measured) {
  crypto::CryptoEngineOptions opts;
  opts.cost_model = crypto::CryptoCostModel::Zero();
  opts.charge_policy = measured ? crypto::ChargePolicy::kMeasured
                                : crypto::ChargePolicy::kCalibrated;
  opts.signing_key_bits = 512;
  opts.signing_key_pool = 0;
  // rng_seed 0 would mean "nondeterministic"; workload seeds never map
  // there because callers mix in a nonzero salt.
  opts.rng_seed = seed == 0 ? 1 : seed;
  return std::make_unique<crypto::CryptoEngine>(clock, opts);
}

// --- Daemon processes ---------------------------------------------------

uint16_t FreePort() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  uint16_t port = 0;
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

DaemonProcess::DaemonProcess(std::string binary,
                             std::vector<std::string> args,
                             std::string log_path, uint16_t port)
    : binary_(std::move(binary)),
      args_(std::move(args)),
      log_path_(std::move(log_path)),
      port_(port) {}

DaemonProcess::~DaemonProcess() { Stop(); }

double DaemonProcess::Start(double timeout_s) {
  std::vector<std::string> argv_s = {binary_};
  argv_s.insert(argv_s.end(), args_.begin(), args_.end());
  std::vector<char*> argv;
  for (auto& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  const auto spawned = Clock::now();
  pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    int fd = ::open(log_path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  pid_ = pid;
  while (SecondsSince(spawned) < timeout_s) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return -1;  // Exited before serving.
    }
    net::TcpTimeouts t{/*connect_ms=*/200, /*send_ms=*/1000, /*recv_ms=*/1000};
    auto ch = ssp::TcpSspChannel::Connect("127.0.0.1", port_, t);
    if (ch.ok()) {
      auto r = (*ch)->Call(ssp::Request::GetStats("ssp.store.objects"));
      if (r.ok() && r->ok()) return SecondsSince(spawned);
    }
    ::usleep(200);
  }
  return -1;
}

void DaemonProcess::Signal(int sig) {
  if (pid_ <= 0) return;
  ::kill(pid_, sig);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

double DaemonProcess::CpuSeconds() const {
  if (pid_ <= 0) return 0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are
  // the 14th and 15th fields of the whole line.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double SelfCpuSeconds() {
  rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  auto s = [](const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; };
  return s(u.ru_utime) + s(u.ru_stime);
}

void DaemonProcess::Stop() { Signal(SIGTERM); }
void DaemonProcess::Kill() { Signal(SIGKILL); }

std::vector<std::string> WalArgs(const std::string& dir) {
  return {"--wal", dir, "--wal-sync", "always"};
}

// --- kGetStats ------------------------------------------------------------

namespace {
Result<obs::RegistrySnapshot> FetchStats(uint16_t port) {
  auto ch = ssp::TcpSspChannel::Connect("127.0.0.1", port);
  if (!ch.ok()) return ch.status();
  ssp::Request req = ssp::Request::GetStats("ssp.");
  req.binary_stats = true;
  auto resp = (*ch)->Call(req);
  if (!resp.ok()) return resp.status();
  if (!resp->ok()) return Status::Internal("kGetStats refused");
  return obs::RegistrySnapshot::DeserializeBinary(resp->payload);
}
}  // namespace

Result<obs::RegistrySnapshot> FetchStatsAll(
    const std::vector<uint16_t>& ports) {
  obs::RegistrySnapshot all;
  for (uint16_t p : ports) {
    auto s = FetchStats(p);
    if (!s.ok()) return s.status();
    all.Merge(*s);
  }
  return all;
}

namespace {
bool IsAdminName(const std::string& name) {
  return name.find("GetStats") != std::string::npos ||
         name.find("GetTraces") != std::string::npos;
}

uint64_t Lookup(const std::map<std::string, uint64_t>& m,
                const std::string& k) {
  auto it = m.find(k);
  return it == m.end() ? 0 : it->second;
}

obs::HistogramSnapshot Diff(const obs::HistogramSnapshot& a,
                            const obs::HistogramSnapshot* b) {
  obs::HistogramSnapshot d = a;
  d.exemplars.clear();
  if (b == nullptr) return d;
  for (size_t i = 0; i < d.buckets.size() && i < b->buckets.size(); ++i) {
    d.buckets[i] -= std::min(d.buckets[i], b->buckets[i]);
  }
  d.count -= std::min(d.count, b->count);
  d.sum -= std::min(d.sum, b->sum);
  d.min = 0;  // Unknown for the window; Percentile clamps to [min, max].
  return d;
}
}  // namespace

uint64_t StatsDelta::Counter(const std::string& name) const {
  return Lookup(after.counters, name) - Lookup(before.counters, name);
}

uint64_t StatsDelta::CounterPrefix(const std::string& prefix) const {
  uint64_t sum = 0;
  for (const auto& [name, v] : after.counters) {
    if (name.rfind(prefix, 0) != 0 || IsAdminName(name)) continue;
    sum += v - Lookup(before.counters, name);
  }
  return sum;
}

obs::HistogramSnapshot StatsDelta::Histogram(const std::string& name) const {
  auto it = after.histograms.find(name);
  if (it == after.histograms.end()) return {};
  auto b = before.histograms.find(name);
  return Diff(it->second, b == before.histograms.end() ? nullptr : &b->second);
}

obs::HistogramSnapshot StatsDelta::HistogramPrefix(
    const std::string& prefix) const {
  obs::HistogramSnapshot merged;
  for (const auto& [name, h] : after.histograms) {
    if (name.rfind(prefix, 0) != 0 || IsAdminName(name)) continue;
    merged.Merge(Histogram(name));
  }
  merged.min = 0;
  return merged;
}

// --- Open loop ----------------------------------------------------------------

OpenLoop::OpenLoop(int workers, OpFn op, std::vector<double> shares)
    : op_(std::move(op)),
      shares_(std::move(shares)),
      per_worker_(static_cast<size_t>(workers)),
      scheduled_(static_cast<size_t>(workers)),
      in_time_(static_cast<size_t>(workers)) {
  if (shares_.size() != static_cast<size_t>(workers)) {
    shares_.assign(static_cast<size_t>(workers), 1.0 / workers);
  }
  for (int w = 0; w < workers; ++w) {
    threads_.emplace_back([this, w] { WorkerMain(w); });
  }
}

OpenLoop::~OpenLoop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    quit_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

OpenLoop::Window OpenLoop::Run(double rate, double seconds, uint64_t salt) {
  std::unique_lock<std::mutex> lock(mu_);
  rate_ = rate;
  seconds_ = seconds;
  salt_ = salt;
  running_ = static_cast<int>(threads_.size());
  // A short lead so every worker is waiting on its first arrival.
  start_ = Clock::now() + std::chrono::milliseconds(5);
  ++generation_;
  cv_.notify_all();
  cv_.wait(lock, [&] { return running_ == 0; });
  Window win;
  for (size_t w = 0; w < threads_.size(); ++w) {
    win.scheduled += scheduled_[w];
    win.completed_in_time += in_time_[w];
    win.samples.insert(win.samples.end(), per_worker_[w].begin(),
                       per_worker_[w].end());
  }
  return win;
}

void OpenLoop::WorkerMain(int w) {
  const size_t wi = static_cast<size_t>(w);
  uint64_t seen = 0;
  while (true) {
    double rate, seconds;
    uint64_t salt;
    Clock::time_point start;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return quit_ || generation_ != seen; });
      if (quit_) return;
      seen = generation_;
      rate = rate_ * shares_[wi];
      seconds = seconds_;
      salt = salt_;
      start = start_;
    }
    std::mt19937_64 rng(salt * 1000003ull + wi * 7919ull + 17);
    std::vector<double> at(static_cast<size_t>(std::llround(rate * seconds)));
    std::uniform_real_distribution<double> uniform(0, seconds);
    for (double& t : at) t = uniform(rng);
    std::sort(at.begin(), at.end());
    std::vector<Sample> samples;
    samples.reserve(at.size());
    uint64_t in_time = 0;
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    for (double t : at) {
      const auto arrival = start + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(t));
      std::this_thread::sleep_until(arrival);
      const auto t0 = Clock::now();
      Sample s = op_(w, rng);
      const auto t1 = Clock::now();
      s.latency_us = MicrosBetween(arrival, t1);
      s.late_us = MicrosBetween(arrival, t0);
      if (t1 <= end) ++in_time;
      samples.push_back(s);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      scheduled_[wi] = at.size();
      per_worker_[wi] = std::move(samples);
      in_time_[wi] = in_time;
      if (--running_ == 0) cv_.notify_all();
    }
  }
}

std::vector<double> LatenciesOf(const std::vector<Sample>& s, int kind) {
  std::vector<double> v;
  for (const Sample& x : s) {
    if (x.kind == kind && x.ok) v.push_back(x.latency_us);
  }
  return v;
}

// --- Trace ----------------------------------------------------------------------

thread_local uint64_t Tracer::current_op = 0;

void Tracer::AddCall(const CallSpan& c) {
  std::lock_guard<std::mutex> lock(mu_);
  calls_.push_back(c);
}

void Tracer::AddOp(const OpSpan& o) {
  std::lock_guard<std::mutex> lock(mu_);
  ops_.push_back(o);
}

std::vector<Tracer::CallSpan> Tracer::Calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return calls_;
}

std::vector<Tracer::OpSpan> Tracer::Ops() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_;
}

TimedChannel::TimedChannel(std::unique_ptr<ssp::SspChannel> inner,
                           Tracer* tracer, int node,
                           std::atomic<uint64_t>* logical_seq,
                           std::atomic<uint64_t>* logical_op)
    : inner_(std::move(inner)),
      tracer_(tracer),
      node_(node),
      logical_seq_(logical_seq),
      logical_op_(logical_op) {}

Result<ssp::Response> TimedChannel::Call(const ssp::Request& req) {
  if (tracer_ == nullptr || !tracer_->enabled()) return inner_->Call(req);
  uint64_t op_id, seq;
  if (node_ < 0) {
    op_id = Tracer::current_op;
    seq = logical_seq_->fetch_add(1) + 1;
    logical_op_->store(op_id);
  } else {
    op_id = logical_op_->load();
    seq = logical_seq_->load();
  }
  const double start = tracer_->NowUs();
  auto resp = inner_->Call(req);
  const double end = tracer_->NowUs();
  Tracer::CallSpan c{op_id, node_, seq, start, end,
                     static_cast<uint64_t>(req.Serialize().size()),
                     resp.ok() ? static_cast<uint64_t>(resp->Serialize().size())
                               : 0};
  tracer_->AddCall(c);
  return resp;
}

OpTimer::OpTimer(Tracer* tracer, crypto::CryptoEngine* engine, int worker,
                 const char* kind)
    : tracer_(tracer), engine_(engine), worker_(worker), kind_(kind) {
  if (tracer_ == nullptr || !tracer_->enabled()) return;
  op_id_ = tracer_->NextOpId();
  Tracer::current_op = op_id_;
  crypto_ns_ = engine_->clock()->snapshot().crypto_ns();
  counts_ = engine_->op_counts();
  start_us_ = tracer_->NowUs();
}

OpTimer::~OpTimer() {
  if (op_id_ == 0) return;
  const double end_us = tracer_->NowUs();
  Tracer::current_op = 0;
  Tracer::OpSpan o{};
  o.op_id = op_id_;
  o.kind = kind_;
  o.worker = worker_;
  o.start_us = start_us_;
  o.end_us = end_us;
  o.crypto_us =
      static_cast<double>(engine_->clock()->snapshot().crypto_ns() - crypto_ns_) /
      1e3;
  const auto& c = engine_->op_counts();
  o.counts.sym_encrypt = c.sym_encrypt - counts_.sym_encrypt;
  o.counts.sym_decrypt = c.sym_decrypt - counts_.sym_decrypt;
  o.counts.sign = c.sign - counts_.sign;
  o.counts.verify = c.verify - counts_.verify;
  o.counts.keygen = c.keygen - counts_.keygen;
  o.counts.pk_encrypt_blocks = c.pk_encrypt_blocks - counts_.pk_encrypt_blocks;
  o.counts.pk_decrypt_blocks = c.pk_decrypt_blocks - counts_.pk_decrypt_blocks;
  tracer_->AddOp(o);  // Wire/self are filled in once all calls are in.
}

namespace {
/// Joins each op with its logical calls: wire time, round trips, bytes
/// and the self residual.
std::vector<Tracer::OpSpan> JoinedOps(const Tracer& tracer) {
  std::vector<Tracer::OpSpan> ops = tracer.Ops();
  std::map<uint64_t, Tracer::OpSpan*> by_id;
  for (auto& o : ops) by_id[o.op_id] = &o;
  for (const auto& c : tracer.Calls()) {
    if (c.node >= 0) continue;
    auto it = by_id.find(c.op_id);
    if (it == by_id.end()) continue;
    it->second->wire_us += c.end_us - c.start_us;
    it->second->round_trips += 1;
    it->second->wire_bytes += c.bytes_out + c.bytes_in;
  }
  for (auto& o : ops) {
    o.self_us = std::max(0.0, (o.end_us - o.start_us) - o.crypto_us - o.wire_us);
  }
  return ops;
}
}  // namespace

namespace {
/// Span times go out as integer nanoseconds so no digit is lost.
uint64_t Ns(double us) { return static_cast<uint64_t>(std::llround(us * 1e3)); }
}  // namespace

bool WriteTrace(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const Tracer::OpSpan& o : JoinedOps(tracer)) {
    obs::JsonObjectWriter w;
    w.Field("span", "op");
    w.Field("op_id", o.op_id);
    w.Field("kind", o.kind);
    w.Field("worker", static_cast<int64_t>(o.worker));
    w.Field("start_ns", Ns(o.start_us));
    w.Field("end_ns", Ns(o.end_us));
    w.Field("crypto_ns", Ns(o.crypto_us));
    w.Field("wire_ns", Ns(o.wire_us));
    w.Field("self_ns", Ns(o.self_us));
    w.Field("round_trips", o.round_trips);
    w.Field("wire_bytes", o.wire_bytes);
    w.Field("signs", o.counts.sign);
    w.Field("verifies", o.counts.verify);
    w.Field("keygens", o.counts.keygen);
    out << w.Take() << "\n";
  }
  for (const Tracer::CallSpan& c : tracer.Calls()) {
    obs::JsonObjectWriter w;
    w.Field("span", c.node < 0 ? "call" : "node_call");
    w.Field("op_id", c.op_id);
    w.Field("node", static_cast<int64_t>(c.node));
    w.Field("call_seq", c.call_seq);
    w.Field("start_ns", Ns(c.start_us));
    w.Field("end_ns", Ns(c.end_us));
    w.Field("bytes_out", c.bytes_out);
    w.Field("bytes_in", c.bytes_in);
    out << w.Take() << "\n";
  }
  return out.good();
}

void ReportClientLayer(const Tracer& tracer, Report* report) {
  double crypto = 0, wire = 0, self = 0, total = 0;
  double trips = 0, bytes = 0, keygens = 0, signs = 0, verifies = 0;
  const std::vector<Tracer::OpSpan> ops = JoinedOps(tracer);
  for (const auto& o : ops) {
    crypto += o.crypto_us;
    wire += o.wire_us;
    self += o.self_us;
    total += o.end_us - o.start_us;
    trips += static_cast<double>(o.round_trips);
    bytes += static_cast<double>(o.wire_bytes);
    keygens += static_cast<double>(o.counts.keygen);
    signs += static_cast<double>(o.counts.sign);
    verifies += static_cast<double>(o.counts.verify);
  }
  const double n = std::max<double>(1, static_cast<double>(ops.size()));
  total = std::max(total, 1e-9);
  report->Metric("client.crypto_share", crypto / total, "ratio");
  report->Metric("client.wire_share", wire / total, "ratio");
  report->Metric("client.self_share", self / total, "ratio");
  report->Metric("client.round_trips_per_op", trips / n, "count");
  report->Metric("client.wire_bytes_per_op", bytes / n, "bytes");
  report->Metric("crypto.keygens_per_op", keygens / n, "count");
  report->Metric("crypto.signs_per_op", signs / n, "count");
  report->Metric("crypto.verifies_per_op", verifies / n, "count");
  // The per-kind medians of the split stay on stderr (and in the trace).
  std::map<std::string, std::vector<const Tracer::OpSpan*>> by_kind;
  for (const auto& o : ops) by_kind[o.kind].push_back(&o);
  for (const auto& [kind, v] : by_kind) {
    std::vector<double> c, w, s;
    for (const auto* o : v) {
      c.push_back(o->crypto_us);
      w.push_back(o->wire_us);
      s.push_back(o->self_us);
    }
    std::fprintf(stderr,
                 "perfbench: %s split (%zu ops, medians): crypto %.6g us, "
                 "wire %.6g us, self %.6g us\n",
                 kind.c_str(), v.size(), Median(c), Median(w), Median(s));
  }
}

void CheckSplit(const Tracer& tracer, Report* report) {
  uint64_t bad = 0, n = 0;
  double worst = 0;
  for (const auto& o : JoinedOps(tracer)) {
    const double total = o.end_us - o.start_us;
    if (total <= 0) continue;
    ++n;
    const double off = std::abs(o.crypto_us + o.wire_us + o.self_us - total) / total;
    worst = std::max(worst, off);
    if (off > 0.10) ++bad;
  }
  std::fprintf(stderr,
               "perfbench: split check: %llu ops, %llu outside 10%% "
               "(worst %.2f%%)\n",
               static_cast<unsigned long long>(n),
               static_cast<unsigned long long>(bad), worst * 100);
  report->Check(n > 0 && bad == 0,
                "crypto + wire + self within 10% of every op's time");
}

// --- Per-layer readers ----------------------------------------------------

namespace {
template <typename Fn>
double MedianUs(int warm, int reps, Fn&& fn) {
  for (int i = 0; i < warm; ++i) fn();
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    v.push_back(MicrosBetween(t0, Clock::now()));
  }
  return Median(std::move(v));
}
}  // namespace

void ReportCryptoPrimitives(uint64_t seed, Report* report) {
  SimClock clock;
  auto engine = MakeEngine(&clock, seed * 31 + 5, /*measured=*/false);
  // Keys first, outside every timed loop (a lazily generated key inside
  // one is the defect this benchmark must not repeat).
  crypto::SigningKeyPair signer = engine->NewSigningKeyPair();
  crypto::RsaKeyPair user = engine->NewUserKeyPair(2048);
  crypto::SymmetricKey key = engine->NewSymmetricKey();
  const Bytes block = Content(seed, 1, 0, 4096);
  const Bytes aad = Content(seed, 2, 0, 24);
  const Bytes msg = Content(seed, 3, 0, 64);
  Bytes sig = engine->Sign(signer.sign, msg);
  auto sealed = engine->AeadSeal(key, aad, block);
  auto wrapped = engine->PkEncrypt(user.pub, key.key);

  report->Metric("crypto.keygen_ms",
                 MedianUs(1, 9, [&] { engine->NewSigningKeyPair(); }) / 1e3,
                 "ms");
  report->Metric("crypto.sign_us",
                 MedianUs(20, 200, [&] { engine->Sign(signer.sign, msg); }),
                 "us");
  bool verified = true;
  report->Metric("crypto.verify_us", MedianUs(20, 400, [&] {
                   verified = verified && engine->Verify(signer.verify, msg, sig);
                 }),
                 "us");
  bool opened = wrapped.ok();
  report->Metric("crypto.pk_decrypt_ms", MedianUs(1, 9, [&] {
                   opened = opened && engine->PkDecrypt(user.priv, *wrapped).ok();
                 }) / 1e3,
                 "ms");
  report->Metric("crypto.aead_seal_4k_us", MedianUs(100, 1000, [&] {
                   engine->AeadSeal(key, aad, block);
                 }),
                 "us");
  report->Metric("crypto.aead_open_4k_us", MedianUs(100, 1000, [&] {
                   auto r = engine->AeadOpen(key, aad, sealed.nonce,
                                             sealed.ciphertext, sealed.tag);
                   opened = opened && r.ok();
                 }),
                 "us");
  report->Metric("crypto.hash_4k_us",
                 MedianUs(100, 1000, [&] { engine->Hash(block); }), "us");
  report->Check(verified && opened, "crypto primitives round-trip");
}

void ReportServerLayer(const StatsDelta& d, double ops, Report* report) {
  // The histogram keeps whole microseconds, so its quantiles repeat from
  // run to run; the mean (sum / count) keeps every digit.
  const obs::HistogramSnapshot service = d.HistogramPrefix("ssp.service_us.");
  std::fprintf(stderr, "perfbench: ssp service: %llu requests, p50 %llu us, p99 %llu us\n",
               static_cast<unsigned long long>(service.count),
               static_cast<unsigned long long>(service.Percentile(0.50)),
               static_cast<unsigned long long>(service.Percentile(0.99)));
  report->Metric("ssp.service_mean_us", service.Mean(), "us");
  ops = std::max(1.0, ops);
  report->Metric("ssp.requests_per_op",
                 static_cast<double>(d.CounterPrefix("ssp.requests.")) / ops,
                 "count");
  report->Metric("ssp.bytes_in_per_op",
                 static_cast<double>(d.Counter("ssp.bytes_in")) / ops, "bytes");
  report->Metric("ssp.bytes_out_per_op",
                 static_cast<double>(d.Counter("ssp.bytes_out")) / ops,
                 "bytes");
}

void ReportStoreLayer(const obs::RegistrySnapshot& after, Report* report) {
  auto g = [&](const char* n) {
    return static_cast<double>(Lookup(after.gauges, n));
  };
  report->Metric("store.objects", g("ssp.store.objects"), "count");
  report->Metric("store.metadata_bytes", g("ssp.store.metadata_bytes"), "bytes");
  report->Metric("store.data_bytes", g("ssp.store.data_bytes"), "bytes");
  report->Metric("store.tombstones", g("ssp.store.tombstones"), "count");
}

void ReportWireLayer(const Tracer& tracer, const StatsDelta& client,
                     Report* report) {
  std::vector<double> calls;
  for (const auto& c : tracer.Calls()) {
    if (c.node < 0) calls.push_back(c.end_us - c.start_us);
  }
  std::fprintf(stderr, "perfbench: wire: %zu logical calls, p50 %.6g us, p99 %.6g us\n",
               calls.size(), Quantile(calls, 0.50), Quantile(calls, 0.99));
  report->Metric("wire.retries",
                 static_cast<double>(client.Counter("client.retry.retries")),
                 "count");
}

void ReportCacheLayer(const StatsDelta& client, Report* report) {
  const double hits = static_cast<double>(client.Counter("client.cache.hits"));
  const double misses =
      static_cast<double>(client.Counter("client.cache.misses"));
  report->Metric("client.cache_hit_ratio",
                 hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
}

void ReportWalLayer(const StatsDelta& d, uint64_t acked_ops,
                    uint64_t user_bytes, Report* report) {
  const obs::HistogramSnapshot fsync = d.Histogram("ssp.wal.fsync_us");
  std::fprintf(stderr, "perfbench: wal: %llu fsyncs, p50 %llu us, p99 %llu us\n",
               static_cast<unsigned long long>(fsync.count),
               static_cast<unsigned long long>(fsync.Percentile(0.5)),
               static_cast<unsigned long long>(fsync.Percentile(0.99)));
  report->Metric("wal.fsyncs_per_acked_op",
                 static_cast<double>(d.Counter("ssp.wal.fsyncs")) /
                     static_cast<double>(std::max<uint64_t>(1, acked_ops)),
                 "count");
  const double leads = static_cast<double>(d.Counter("ssp.wal.commit_leads"));
  const double rides = static_cast<double>(d.Counter("ssp.wal.commit_piggybacks"));
  report->Metric("wal.piggyback_ratio", leads + rides > 0 ? rides / (leads + rides) : 0,
                 "ratio");
  report->Metric("wal.bytes_per_user_byte",
                 user_bytes == 0 ? 0
                                 : static_cast<double>(d.Counter("ssp.wal.bytes")) /
                                       static_cast<double>(user_bytes),
                 "ratio");
}

void ReportUnused(const std::string& layer, Report* report) {
  static const std::map<std::string, std::vector<std::pair<const char*, const char*>>>
      kLayers = {
          {"wal",
           {{"wal.fsyncs_per_acked_op", "count"},
            {"wal.piggyback_ratio", "ratio"},
            {"wal.bytes_per_user_byte", "ratio"}}},
          {"sharded",
           {{"sharded.fanout_per_call", "count"},
            {"sharded.quorum_wait_share", "ratio"},
            {"sharded.read_repairs", "count"}}},
          {"scrub",
           {{"scrub.runs", "count"},
            {"scrub.examined", "count"},
            {"scrub.repaired", "count"},
            {"scrub.tombstones_gc", "count"},
            {"scrub.tombstones_left", "count"}}},
          {"migration", {{"migration.objects_per_s", "1/s"}}},
          {"paper", {{"paper.round_trips", "count"}, {"paper.wire_bytes", "bytes"}}},
      };
  for (const auto& [name, unit] : kLayers.at(layer)) report->Metric(name, 0, unit);
}

obs::RegistrySnapshot LocalStats() {
  return obs::MetricsRegistry::Global().Snapshot("client.");
}

void ReportGenerator(const OpenLoop::Window& w, Report* report) {
  std::vector<double> late;
  for (const Sample& s : w.samples) late.push_back(s.late_us);
  std::fprintf(stderr, "perfbench: generator lateness p99 %.6g us\n",
               Quantile(late, 0.99));
  report->Metric("gen.achieved_ratio",
                 w.scheduled == 0 ? 0
                                  : static_cast<double>(w.completed_in_time) /
                                        static_cast<double>(w.scheduled),
                 "ratio");
}

std::string HostFingerprint() {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  return "cpu=\"" + cpu + "\" nproc=" +
         std::to_string(std::thread::hardware_concurrency()) +
         " build=" PERFBENCH_BUILD_TYPE;
}

}  // namespace sharoes::perfbench
