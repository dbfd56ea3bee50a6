// The three live workloads: the deployed sharoes_sspd binary in its own
// process(es) with its deployed flags, driven over loopback TCP by
// SharoesClients configured as sharoes_cli configures them.

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "core/client.h"
#include "core/identity.h"
#include "core/migration.h"
#include "core/retrying_connection.h"
#include "core/sharded_channel.h"
#include "ssp/message.h"
#include "ssp/scrub.h"
#include "ssp/tcp_service.h"
#include "ssp/wal.h"
#include "workloads.h"

namespace sharoes::perfbench {
namespace {

constexpr fs::UserId kAlice = 100;  // Owner of the shared tree.
constexpr fs::UserId kBob = 101;    // staff
constexpr fs::UserId kCarol = 102;  // staff
constexpr fs::UserId kDave = 103;   // other
constexpr fs::GroupId kStaff = 500;
constexpr size_t kSmall = 4096;
constexpr size_t kLarge = 256 * 1024;

enum Kind { kRead = 0, kWrite = 1, kCreate = 2, kMeta = 3 };
const char* KindName(int k) {
  static const char* names[] = {"read", "write", "create", "meta"};
  return names[k];
}

net::TcpTimeouts CliTimeouts() {
  return net::TcpTimeouts{/*connect_ms=*/5000, /*send_ms=*/10000,
                          /*recv_ms=*/10000};
}

core::RetryingConnection::ChannelFactory TcpFactory(uint16_t port) {
  return [port]() -> Result<std::unique_ptr<ssp::SspChannel>> {
    auto ch = ssp::TcpSspChannel::Connect("127.0.0.1", port, CliTimeouts());
    if (!ch.ok()) return ch.status();
    return std::unique_ptr<ssp::SspChannel>(std::move(*ch));
  };
}

/// Zipf(s) over ranks [0, n): precomputed CDF.
class Zipf {
 public:
  Zipf(int n, double s) {
    double acc = 0;
    for (int i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(i + 1.0, s);
      cdf_.push_back(acc);
    }
    for (double& c : cdf_) c /= acc;
  }
  int Sample(std::mt19937_64& rng) const {
    double u = std::uniform_real_distribution<double>(0, 1)(rng);
    return static_cast<int>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                            cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// Where the client channels go: one daemon, or a placement ring.
struct Deployment {
  uint16_t port = 0;                   // Single daemon.
  const ssp::ClusterConfig* cluster = nullptr;
  std::vector<uint16_t> ports;         // Every daemon (stats reads).
};

/// One client's channel stack. Logical calls go through `top`; in
/// cluster mode `sharded` is the ShardedChannel beneath it, whose node
/// channels carry their own timing decorators.
struct ChannelStack {
  std::atomic<uint64_t> seq{0};
  std::atomic<uint64_t> op{0};
  core::ShardedChannel* sharded = nullptr;
  std::unique_ptr<TimedChannel> top;
};

std::unique_ptr<ChannelStack> MakeChannel(const Deployment& d,
                                          Tracer* tracer, uint64_t seed) {
  auto stack = std::make_unique<ChannelStack>();
  core::RetryOptions retry;
  retry.seed = seed;
  if (d.cluster == nullptr) {
    stack->top = std::make_unique<TimedChannel>(
        std::make_unique<core::RetryingConnection>(TcpFactory(d.port), retry),
        tracer, -1, &stack->seq, &stack->op);
    return stack;
  }
  core::ShardedChannelOptions sopts;
  sopts.seed = seed;
  sopts.timeouts = CliTimeouts();
  ChannelStack* raw = stack.get();
  auto sharded = core::ShardedChannel::Create(
      *d.cluster,
      [tracer, raw](const ssp::ClusterNode& node)
          -> core::RetryingConnection::ChannelFactory {
        const uint16_t port = node.port;
        const int id = static_cast<int>(node.id);
        return [tracer, raw, port, id]()
                   -> Result<std::unique_ptr<ssp::SspChannel>> {
          auto ch = TcpFactory(port)();
          if (!ch.ok()) return ch.status();
          return std::unique_ptr<ssp::SspChannel>(std::make_unique<TimedChannel>(
              std::move(*ch), tracer, id, &raw->seq, &raw->op));
        };
      },
      sopts);
  if (!sharded.ok()) return nullptr;
  stack->sharded = sharded->get();
  stack->top = std::make_unique<TimedChannel>(std::move(*sharded), tracer, -1,
                                              &stack->seq, &stack->op);
  return stack;
}

/// The enterprise side: identities and private keys (never at the SSP).
struct Enterprise {
  SimClock clock;
  std::unique_ptr<crypto::CryptoEngine> engine;
  core::IdentityDirectory identity;
  std::map<fs::UserId, crypto::RsaPrivateKey> keys;
  core::MigrationStats migration;
  double migrate_s = 0;
};

struct UserSpec {
  fs::UserId uid;
  const char* name;
};

/// Provisions users, an optional staff group, and migrates `root`
/// through the wire. Each user's 2048-bit identity key comes from an
/// engine of its own seeded from the workload seed, and the users' keys
/// are generated in parallel (one thread each, joined before anything
/// is timed).
std::unique_ptr<Enterprise> Provision(ssp::SspChannel* channel,
                                      uint64_t seed,
                                      const std::vector<UserSpec>& users,
                                      bool staff_group,
                                      const core::LocalNode& root) {
  auto ent = std::make_unique<Enterprise>();
  ent->engine = MakeEngine(&ent->clock, seed * 1000 + 1, false);
  core::Provisioner::Options popts;
  popts.user_key_bits = 2048;
  core::Provisioner prov(&ent->identity, nullptr, ent->engine.get(), popts);
  prov.set_remote_channel(channel);
  const auto keys_start = Clock::now();
  std::vector<crypto::RsaKeyPair> pairs(users.size());
  {
    std::vector<std::thread> keygens;
    for (size_t i = 0; i < users.size(); ++i) {
      keygens.emplace_back([&pairs, i, seed] {
        SimClock clock;
        pairs[i] = MakeEngine(&clock, seed * 1000 + 500 + i, false)
                       ->NewUserKeyPair(2048);
      });
    }
    for (auto& t : keygens) t.join();
  }
  for (size_t i = 0; i < users.size(); ++i) {
    core::UserInfo info;
    info.id = users[i].uid;
    info.name = users[i].name;
    info.public_key = pairs[i].pub;
    if (!ent->identity.AddUser(std::move(info)).ok()) return nullptr;
    ent->keys[users[i].uid] = pairs[i].priv;
  }
  if (staff_group &&
      !prov.CreateGroup(kStaff, "staff", {kAlice, kBob, kCarol}).ok()) {
    return nullptr;
  }
  const auto t0 = Clock::now();
  auto stats = prov.Migrate(root);
  if (!stats.ok()) {
    std::fprintf(stderr, "perfbench: migrate: %s\n",
                 stats.status().ToString().c_str());
    return nullptr;
  }
  ent->migrate_s = SecondsSince(t0);
  ent->migration = *stats;
  std::fprintf(stderr,
               "perfbench: provisioned %zu users in %.3f s, migrated %llu "
               "objects in %.3f s\n",
               users.size(), MicrosBetween(keys_start, t0) / 1e6,
               static_cast<unsigned long long>(stats->files + stats->directories),
               ent->migrate_s);
  return ent;
}

/// One benchmark user: its engine, channel stack and mounted client,
/// configured as sharoes_cli configures its client.
struct Worker {
  fs::UserId uid = 0;
  SimClock clock;
  std::unique_ptr<crypto::CryptoEngine> engine;
  std::unique_ptr<ChannelStack> channel;
  std::unique_ptr<core::SharoesClient> client;
};

std::unique_ptr<Worker> MakeWorker(Enterprise* ent, fs::UserId uid,
                                   const Deployment& d, Tracer* tracer,
                                   uint64_t seed, bool measured,
                                   fs::GroupId group) {
  auto w = std::make_unique<Worker>();
  w->uid = uid;
  w->engine = MakeEngine(&w->clock, seed, measured);
  w->channel = MakeChannel(d, tracer, seed + 77);
  if (w->channel == nullptr) return nullptr;
  core::ClientOptions copts;
  copts.default_group = group;
  copts.client_overhead_ms = 0;
  copts.batch_reads = true;
  copts.readahead_blocks = 32;
  copts.write_batch_ops = 16;
  w->client = std::make_unique<core::SharoesClient>(
      uid, ent->keys.at(uid), &ent->identity, w->channel->top.get(),
      w->engine.get(), copts);
  if (!w->client->Mount().ok()) return nullptr;
  return w;
}

std::string MakeDir(const std::string& workdir, const std::string& name) {
  std::string p = workdir + "/" + name;
  ::mkdir(p.c_str(), 0755);
  return p;
}

/// A shared read tree: `files` ranks spread over `dirs` directories;
/// every 16th popularity rank (15, 31, ...) is a 256 KiB file.
struct SharedTree {
  int dirs, files;
  std::string Path(int rank) const {
    return "/d" + std::to_string(rank % dirs) + "/f" +
           std::to_string(rank / dirs);
  }
  static size_t Size(int rank) { return rank % 16 == 15 ? kLarge : kSmall; }
  void AddTo(core::LocalNode* root, uint64_t seed, fs::GroupId group) const {
    for (int d = 0; d < dirs; ++d) {
      root->children.push_back(core::LocalNode::Dir(
          "d" + std::to_string(d), kAlice, group, fs::Mode::FromOctal(0755)));
    }
    for (int r = 0; r < files; ++r) {
      root->children[static_cast<size_t>(r % dirs)].children.push_back(
          core::LocalNode::File("f" + std::to_string(r / dirs), kAlice, group,
                                fs::Mode::FromOctal(0644),
                                Content(seed, static_cast<uint64_t>(r), 0,
                                        Size(r))));
    }
  }
};

/// Evict-then-read of one shared file, checked against its content.
Sample SharedRead(Worker* w, const SharedTree& tree, const Zipf& zipf,
                  uint64_t seed, Tracer* tracer, int worker,
                  std::mt19937_64& rng, Report* report) {
  const int rank = zipf.Sample(rng);
  const std::string path = tree.Path(rank);
  Sample s;
  s.kind = kRead;
  s.bulk = SharedTree::Size(rank) == kLarge;
  Result<Bytes> got = Status::Internal("unset");
  {
    OpTimer timer(tracer, w->engine.get(), worker, "read");
    (void)w->client->EvictPath(path);
    got = w->client->Read(path);
  }
  s.ok = got.ok() && *got == Content(seed, static_cast<uint64_t>(rank), 0,
                                     SharedTree::Size(rank));
  if (!s.ok) {
    report->Fail("read " + path + ": " +
                 (got.ok() ? std::string("wrong bytes") : got.status().ToString()));
  }
  return s;
}

/// Prints the median and the tail at `tail_q` of one op kind's latency
/// on standard error. Latencies are not gated on the single-daemon
/// workloads: on a shared host they are not steady enough (README.md).
void PrintLatency(const std::vector<Sample>& samples, int kind,
                  const char* name, double tail_q) {
  std::vector<double> v = LatenciesOf(samples, kind);
  std::fprintf(stderr,
               "perfbench: %s latency: %zu samples, p50 %.6g us, p%ld %.6g us "
               "(%zu beyond)\n",
               name, v.size(), Median(v), std::lround(tail_q * 100),
               Quantile(v, tail_q),
               static_cast<size_t>(static_cast<double>(v.size()) * (1 - tail_q)));
}

}  // namespace

// --- read_zipf ------------------------------------------------------------

int RunReadZipf(const RunOptions& opt, Report* report) {
  const auto setup_start = Clock::now();
  const uint64_t seed = opt.seed;
  Tracer tracer;
  const SharedTree tree{8, 128};
  const Zipf zipf(tree.files, 1.1);

  const uint16_t port = FreePort();
  std::vector<std::string> args = {std::to_string(port)};
  for (auto& a : WalArgs(MakeDir(opt.workdir, "wal"))) args.push_back(a);
  DaemonProcess daemon(opt.sspd, args, opt.workdir + "/sspd.log", port);
  if (daemon.Start() < 0) {
    std::fprintf(stderr, "perfbench: daemon did not start\n");
    return 1;
  }
  Deployment dep;
  dep.port = port;
  dep.ports = {port};

  core::LocalNode root =
      core::LocalNode::Dir("", kAlice, kStaff, fs::Mode::FromOctal(0755));
  tree.AddTo(&root, seed, kStaff);
  std::unique_ptr<Enterprise> ent;
  {
    auto admin = MakeChannel(dep, nullptr, seed);
    ent = Provision(admin->top.get(), seed,
                    {{kAlice, "alice"}, {kBob, "bob"}, {kCarol, "carol"},
                     {kDave, "dave"}},
                    /*staff_group=*/true, root);
  }
  if (ent == nullptr) return 1;
  const fs::UserId readers[] = {kAlice, kBob, kCarol, kDave};
  std::vector<std::unique_ptr<Worker>> workers;
  for (int i = 0; i < 4; ++i) {
    workers.push_back(MakeWorker(ent.get(), readers[i], dep, &tracer,
                                 seed * 1000 + 10 + static_cast<uint64_t>(i),
                                 opt.trace, kStaff));
    if (workers.back() == nullptr) return 1;
  }
  // Warm-up outside every timed window: each reader reads every file
  // once (checked), which also caches its directory chain.
  for (auto& w : workers) {
    for (int r = 0; r < tree.files; ++r) {
      report->Attempt(1);
      auto got = w->client->Read(tree.Path(r));
      if (!got.ok() || *got != Content(seed, static_cast<uint64_t>(r), 0,
                                        SharedTree::Size(r))) {
        report->Fail("warm-up read " + tree.Path(r));
      }
    }
  }
  OpenLoop loop(4, [&](int w, std::mt19937_64& rng) {
    return SharedRead(workers[static_cast<size_t>(w)].get(), tree, zipf, seed,
                      &tracer, w, rng, report);
  });
  const double setup_s = SecondsSince(setup_start);

  constexpr double kRate = 1200;  // ops/s offered, all readers.
  uint64_t salt = seed * 100;
  if (!opt.trace) {
    // One-second windows (~1200 reads, 12 beyond p99): the tail printed
    // is the median of the per-window p99s, so a burst of host noise
    // moves one window, not the run's figure.
    std::vector<OpenLoop::Window> windows;
    const double cpu0 = SelfCpuSeconds() + daemon.CpuSeconds();
    for (int i = 0; i < std::max(1, static_cast<int>(opt.seconds)); ++i) {
      windows.push_back(loop.Run(kRate, 1.0, ++salt));
    }
    const double cpu_s = SelfCpuSeconds() + daemon.CpuSeconds() - cpu0;
    std::vector<double> p99s;
    std::vector<Sample> all;
    for (const auto& w : windows) {
      report->Attempt(w.samples.size());
      p99s.push_back(Quantile(LatenciesOf(w.samples, kRead), 0.99));
      all.insert(all.end(), w.samples.begin(), w.samples.end());
    }
    std::vector<double> lat = LatenciesOf(all, kRead);
    std::vector<double> bulk;
    for (const Sample& x : all) {
      if (x.kind == kRead && x.ok && x.bulk) bulk.push_back(x.latency_us);
    }
    std::fprintf(stderr,
                 "perfbench: read latency: %zu samples, p50 %.6g us, p99 %.6g us "
                 "(median of %zu one-second windows); %zu bulk reads, p50 %.6g us\n",
                 lat.size(), Median(lat), Median(p99s), p99s.size(), bulk.size(),
                 Median(bulk));
    report->Metric("op_cpu_us", cpu_s * 1e6 / static_cast<double>(all.size()), "us");
    report->Metric("setup_s", setup_s, "s");
    auto stats = FetchStatsAll(dep.ports);
    if (!stats.ok()) return 1;
    uint64_t live_bytes = 0;
    for (int r = 0; r < tree.files; ++r) live_bytes += SharedTree::Size(r);
    report->Metric("store_bytes_per_user_byte",
                   static_cast<double>(stats->gauges["ssp.store.total_bytes"]) /
                       static_cast<double>(live_bytes),
                   "ratio");
  } else {
    // Traced run: an untraced and a traced window at the same rate; the
    // first gives the overhead baseline, the second the split.
    const double half = opt.seconds / 2;
    OpenLoop::Window plain = loop.Run(kRate, half, ++salt);
    report->Attempt(plain.samples.size());
    auto before = FetchStatsAll(dep.ports);
    const obs::RegistrySnapshot local_before = LocalStats();
    tracer.set_enabled(true);
    OpenLoop::Window traced = loop.Run(kRate, half, ++salt);
    tracer.set_enabled(false);
    report->Attempt(traced.samples.size());
    StatsDelta local{local_before, LocalStats()};
    auto after = FetchStatsAll(dep.ports);
    if (!before.ok() || !after.ok()) return 1;
    StatsDelta d{*before, *after};
    const double base = Median(LatenciesOf(plain.samples, kRead));
    report->Metric("trace_overhead_pct",
                   100 * (Median(LatenciesOf(traced.samples, kRead)) - base) / base,
                   "%");
    ReportGenerator(traced, report);
    ReportClientLayer(tracer, report);
    CheckSplit(tracer, report);
    ReportWireLayer(tracer, local, report);
    ReportCacheLayer(local, report);
    ReportServerLayer(d, static_cast<double>(traced.samples.size()), report);
    ReportStoreLayer(*after, report);
    ReportCryptoPrimitives(seed, report);
    ReportWalLayer(d, 0, 0, report);  // Reads only: the WAL stays idle.
    ReportUnused("sharded", report);
    ReportUnused("scrub", report);
    ReportUnused("paper", report);
    report->Metric("migration.objects_per_s",
                   (ent->migration.files + ent->migration.directories) /
                       ent->migrate_s,
                   "1/s");
    WriteTrace(tracer, opt.workdir + "/trace.jsonl");
  }
  workers.clear();
  daemon.Stop();
  return 0;
}


// --- write_churn ------------------------------------------------------------

namespace {

/// What a write_churn user believes its private directory holds: every
/// acknowledged overwrite, create, unlink and chmod.
struct PrivateFile {
  std::string name;
  uint64_t id = 0;
  uint64_t version = 0;
  uint16_t mode = 0644;
};

struct ChurnState {
  std::string dir;
  std::vector<PrivateFile> live;
  std::vector<std::string> unlinked;
  uint64_t next = 0;
  uint64_t ops = 0;         // Ops issued: picks the next action.
  uint64_t user_bytes = 0;  // Content bytes of acknowledged writes.
};

std::string FilePath(const ChurnState& st, const PrivateFile& f) {
  return st.dir + "/" + f.name;
}

/// Reads every live file back and checks its bytes and mode, and that
/// every unlinked file stays gone.
void ReadBack(core::SharoesClient* client, const ChurnState& st,
              uint64_t seed, Report* report) {
  for (const PrivateFile& f : st.live) {
    report->Attempt(1);
    auto got = client->Read(FilePath(st, f));
    if (!got.ok() || *got != Content(seed, f.id, f.version, kSmall)) {
      report->Fail("read-back " + FilePath(st, f) + ": " +
                   (got.ok() ? "wrong bytes" : got.status().ToString()));
      continue;
    }
    auto attrs = client->Getattr(FilePath(st, f));
    if (!attrs.ok() || attrs->mode.bits() != f.mode) {
      report->Fail("read-back mode " + FilePath(st, f));
    }
  }
  for (const std::string& name : st.unlinked) {
    report->Attempt(1);
    if (client->Exists(st.dir + "/" + name)) {
      report->Fail("unlinked file back: " + st.dir + "/" + name);
    }
  }
}

/// One write_churn op. Editors (`creator` false) overwrite seven ops in
/// eight and chmod the eighth; creators alternate create and unlink,
/// which keeps their population steady. A fixed cycle, not a draw, so
/// every run has the same mix.
Sample ChurnOp(Worker* w, ChurnState* st, bool creator, uint64_t seed,
               Tracer* tracer, int worker, std::mt19937_64& rng,
               Report* report) {
  core::SharoesClient* c = w->client.get();
  enum class Action { kOverwrite, kCreate, kUnlink, kChmod } action;
  const uint64_t n = st->ops++;
  if (!creator) {
    action = n % 8 == 7 ? Action::kChmod : Action::kOverwrite;
  } else {
    action = n % 2 == 0 ? Action::kCreate : Action::kUnlink;
  }
  Sample s;
  Status status;
  if (action == Action::kOverwrite) {  // Write + Close.
    s.kind = kWrite;
    PrivateFile& f = st->live[rng() % st->live.size()];
    const Bytes content = Content(seed, f.id, f.version + 1, kSmall);
    {
      OpTimer t(tracer, w->engine.get(), worker, "write");
      status = c->Write(FilePath(*st, f), content);
      if (status.ok()) status = c->Close(FilePath(*st, f));
    }
    if (status.ok()) {
      f.version += 1;
      st->user_bytes += kSmall;
    }
  } else if (action == Action::kCreate) {  // Create + Write + Close.
    s.kind = kCreate;
    PrivateFile f;
    f.name = "n" + std::to_string(st->next++);
    f.id = static_cast<uint64_t>(w->uid) * 1000000 + 1000 + st->next;
    const Bytes content = Content(seed, f.id, 0, kSmall);
    {
      OpTimer t(tracer, w->engine.get(), worker, "create");
      core::CreateOptions opts;
      opts.mode = fs::Mode::FromOctal(0644);
      status = c->Create(FilePath(*st, f), opts);
      if (status.ok()) status = c->Write(FilePath(*st, f), content);
      if (status.ok()) status = c->Close(FilePath(*st, f));
    }
    if (status.ok()) {
      st->live.push_back(f);
      st->user_bytes += kSmall;
    }
  } else if (action == Action::kUnlink) {  // An earlier file.
    s.kind = kMeta;
    const size_t i = rng() % st->live.size();
    const std::string path = FilePath(*st, st->live[i]);
    {
      OpTimer t(tracer, w->engine.get(), worker, "meta");
      status = c->Unlink(path);
      if (status.ok()) status = c->Fsync();
    }
    if (status.ok()) {
      st->unlinked.push_back(st->live[i].name);
      st->live.erase(st->live.begin() + static_cast<std::ptrdiff_t>(i));
    }
  } else {  // chmod 0644 <-> 0600.
    s.kind = kMeta;
    PrivateFile& f = st->live[rng() % st->live.size()];
    const uint16_t mode = f.mode == 0644 ? 0600 : 0644;
    {
      OpTimer t(tracer, w->engine.get(), worker, "meta");
      status = c->Chmod(FilePath(*st, f), fs::Mode::FromOctal(mode));
      if (status.ok()) status = c->Fsync();
    }
    if (status.ok()) f.mode = mode;
  }
  s.ok = status.ok();
  if (!s.ok) report->Fail(std::string(KindName(s.kind)) + ": " + status.ToString());
  return s;
}

}  // namespace

int RunWriteChurn(const RunOptions& opt, Report* report) {
  const auto setup_start = Clock::now();
  const uint64_t seed = opt.seed;
  Tracer tracer;
  constexpr int kInitialFiles = 16;
  const fs::UserId users[] = {kAlice, kBob, kCarol, kDave};
  const char* names[] = {"alice", "bob", "carol", "dave"};

  const uint16_t port = FreePort();
  std::vector<std::string> args = {std::to_string(port)};
  for (auto& a : WalArgs(MakeDir(opt.workdir, "wal"))) args.push_back(a);
  DaemonProcess daemon(opt.sspd, args, opt.workdir + "/sspd.log", port);
  if (daemon.Start() < 0) {
    std::fprintf(stderr, "perfbench: daemon did not start\n");
    return 1;
  }
  Deployment dep;
  dep.port = port;
  dep.ports = {port};

  std::vector<ChurnState> states(4);
  core::LocalNode root = core::LocalNode::Dir("", kAlice, fs::kInvalidGroup,
                                              fs::Mode::FromOctal(0755));
  for (int u = 0; u < 4; ++u) {
    ChurnState& st = states[static_cast<size_t>(u)];
    st.dir = std::string("/") + names[u];
    core::LocalNode dir = core::LocalNode::Dir(
        names[u], users[u], fs::kInvalidGroup, fs::Mode::FromOctal(0755));
    for (int i = 0; i < kInitialFiles; ++i) {
      PrivateFile f;
      f.name = std::string("f").append(std::to_string(i));
      f.id = static_cast<uint64_t>(users[u]) * 1000000 + static_cast<uint64_t>(i);
      dir.children.push_back(core::LocalNode::File(
          f.name, users[u], fs::kInvalidGroup, fs::Mode::FromOctal(0644),
          Content(seed, f.id, 0, kSmall)));
      st.live.push_back(f);
    }
    root.children.push_back(std::move(dir));
  }
  std::unique_ptr<Enterprise> ent;
  {
    auto admin = MakeChannel(dep, nullptr, seed);
    ent = Provision(admin->top.get(), seed,
                    {{kAlice, "alice"}, {kBob, "bob"}, {kCarol, "carol"},
                     {kDave, "dave"}},
                    /*staff_group=*/false, root);
  }
  if (ent == nullptr) return 1;
  std::vector<std::unique_ptr<Worker>> workers;
  for (int i = 0; i < 4; ++i) {
    workers.push_back(MakeWorker(ent.get(), users[i], dep, &tracer,
                                 seed * 1000 + 20 + static_cast<uint64_t>(i),
                                 opt.trace, fs::kInvalidGroup));
    if (workers.back() == nullptr) return 1;
  }
  // Warm-up outside the timed window: every user overwrites each of its
  // files once, so the client caches hold their metadata.
  for (int i = 0; i < 4; ++i) {
    Worker* w = workers[static_cast<size_t>(i)].get();
    ChurnState& st = states[static_cast<size_t>(i)];
    for (PrivateFile& f : st.live) {
      report->Attempt(1);
      Status s = w->client->Write(FilePath(st, f), Content(seed, f.id, f.version + 1, kSmall));
      if (s.ok()) s = w->client->Close(FilePath(st, f));
      if (s.ok()) {
        f.version += 1;
      } else {
        report->Fail("warm-up write " + FilePath(st, f) + ": " + s.ToString());
      }
    }
  }
  // Two editors (overwrite, chmod) and two creators (create, unlink):
  // the whole mix is 70 % overwrite, 10 % create, 10 % unlink, 10 %
  // chmod, and a 50 ms create never queues an overwrite behind it.
  OpenLoop loop(
      4,
      [&](int w, std::mt19937_64& rng) {
        return ChurnOp(workers[static_cast<size_t>(w)].get(),
                       &states[static_cast<size_t>(w)], /*creator=*/w >= 2,
                       seed, &tracer, w, rng, report);
      },
      {0.4, 0.4, 0.1, 0.1});
  const double setup_s = SecondsSince(setup_start);

  constexpr double kRate = 100;  // ops/s offered, all users.
  uint64_t salt = seed * 100;
  auto before = FetchStatsAll(dep.ports);
  const obs::RegistrySnapshot local_before = LocalStats();
  OpenLoop::Window plain;
  if (opt.trace) {
    plain = loop.Run(kRate, opt.seconds / 2, ++salt);
    report->Attempt(plain.samples.size());
    tracer.set_enabled(true);
  }
  const double cpu0 = SelfCpuSeconds() + daemon.CpuSeconds();
  OpenLoop::Window win = loop.Run(kRate, opt.trace ? opt.seconds / 2 : opt.seconds,
                                  ++salt);
  const double cpu_s = SelfCpuSeconds() + daemon.CpuSeconds() - cpu0;
  tracer.set_enabled(false);
  report->Attempt(win.samples.size());
  StatsDelta local{local_before, LocalStats()};
  auto after = FetchStatsAll(dep.ports);
  if (!before.ok() || !after.ok()) return 1;
  StatsDelta d{*before, *after};
  uint64_t user_bytes = 0, live_bytes = 0, acked_ops = 0;
  for (const ChurnState& st : states) {
    user_bytes += st.user_bytes;
    live_bytes += st.live.size() * kSmall;
  }
  for (const Sample& s : win.samples) acked_ops += s.ok ? 1 : 0;
  for (const Sample& s : plain.samples) acked_ops += s.ok ? 1 : 0;

  // Crash-restart on the WAL directory, three times; then every
  // acknowledged byte must read back from fresh clients.
  workers.clear();
  std::vector<double> recovery;
  for (int i = 0; i < 3; ++i) {
    daemon.Kill();
    const double r = daemon.Start();
    report->Check(r >= 0, "daemon restarts from its WAL");
    if (r < 0) return 1;
    recovery.push_back(r);
  }
  for (int i = 0; i < 4; ++i) {
    auto fresh = MakeWorker(ent.get(), users[i], dep, nullptr,
                            seed * 1000 + 40 + static_cast<uint64_t>(i), false,
                            fs::kInvalidGroup);
    report->Check(fresh != nullptr, "fresh client mounts after restart");
    if (fresh == nullptr) return 1;
    ReadBack(fresh->client.get(), states[static_cast<size_t>(i)], seed, report);
  }
  auto final_stats = FetchStatsAll(dep.ports);
  if (!final_stats.ok()) return 1;

  if (!opt.trace) {
    PrintLatency(win.samples, kWrite, "write", 0.99);
    PrintLatency(win.samples, kCreate, "create", 0.90);
    PrintLatency(win.samples, kMeta, "meta", 0.90);
    std::fprintf(stderr, "perfbench: recovery %.6g s (median of %zu restarts)\n",
                 Median(recovery), recovery.size());
    report->Metric("op_cpu_us", cpu_s * 1e6 / static_cast<double>(win.samples.size()),
                   "us");
    report->Metric("setup_s", setup_s, "s");
    report->Metric("store_bytes_per_user_byte",
                   static_cast<double>(final_stats->gauges["ssp.store.total_bytes"]) /
                       static_cast<double>(live_bytes),
                   "ratio");
  } else {
    const double base = Median(LatenciesOf(plain.samples, kWrite));
    report->Metric("trace_overhead_pct",
                   100 * (Median(LatenciesOf(win.samples, kWrite)) - base) / base,
                   "%");
    ReportGenerator(win, report);
    ReportClientLayer(tracer, report);
    CheckSplit(tracer, report);
    ReportWireLayer(tracer, local, report);
    ReportCacheLayer(local, report);
    ReportServerLayer(d, static_cast<double>(acked_ops), report);
    ReportStoreLayer(*final_stats, report);
    ReportCryptoPrimitives(seed, report);
    ReportWalLayer(d, acked_ops, user_bytes, report);
    ReportUnused("sharded", report);
    ReportUnused("scrub", report);
    ReportUnused("paper", report);
    report->Metric("migration.objects_per_s",
                   (ent->migration.files + ent->migration.directories) /
                       ent->migrate_s,
                   "1/s");
    WriteTrace(tracer, opt.workdir + "/trace.jsonl");
  }
  daemon.Stop();
  return 0;
}


// --- cluster_quorum ---------------------------------------------------------

namespace {

/// Times one anti-entropy pass per node through Scrubber::RunOnce. The
/// daemons have stopped; their WAL directories are recovered into
/// in-process servers that serve each other on fresh ports, so the pass
/// sees exactly the quiesced cluster state.
void ReportScrubPass(const ssp::ClusterConfig& config,
                     const std::vector<std::string>& wal_dirs,
                     Report* report) {
  const size_t n = wal_dirs.size();
  std::vector<std::unique_ptr<ssp::SspServer>> servers;
  std::vector<std::unique_ptr<ssp::Wal>> wals;
  std::vector<std::unique_ptr<ssp::TcpSspDaemon>> daemons;
  ssp::ClusterConfig local = config;
  for (size_t i = 0; i < n; ++i) {
    servers.push_back(std::make_unique<ssp::SspServer>());
    servers.back()->store().set_tombstones_enabled(true);
    auto wal = ssp::Wal::Open(wal_dirs[i], ssp::WalOptions{},
                              &servers.back()->store());
    report->Check(wal.ok(), "cluster WAL recovers in process");
    if (!wal.ok()) return;
    wals.push_back(std::move(*wal));
    auto daemon = ssp::TcpSspDaemon::Start(servers.back().get(), 0);
    if (!daemon.ok()) return;
    local.nodes[i].port = (*daemon)->port();
    daemons.push_back(std::move(*daemon));
  }
  auto ring = ssp::PlacementRing::Build(local);
  if (!ring.ok()) return;
  for (size_t i = 0; i < n; ++i) {
    servers[i]->set_placement(&*ring, local.nodes[i].id);
  }
  std::vector<double> pass_ms;
  uint64_t examined = 0;
  for (size_t i = 0; i < n; ++i) {
    ssp::Scrubber scrubber(
        servers[i].get(), &*ring, local.nodes[i].id,
        [](const ssp::ClusterNode& node)
            -> Result<std::unique_ptr<ssp::SspChannel>> {
          return TcpFactory(node.port)();
        });
    const auto t0 = Clock::now();
    ssp::ScrubPass pass = scrubber.RunOnce();
    pass_ms.push_back(SecondsSince(t0) * 1e3);
    examined += pass.examined;
  }
  std::fprintf(stderr, "perfbench: scrub pass %.6g ms (median over %zu nodes)\n",
               Median(pass_ms), n);
  report->Metric("scrub.examined", static_cast<double>(examined), "count");
  for (auto& d : daemons) d->Shutdown();
}

}  // namespace

int RunClusterQuorum(const RunOptions& opt, Report* report) {
  const auto setup_start = Clock::now();
  const uint64_t seed = opt.seed;
  Tracer tracer;
  constexpr int kNodes = 3;
  constexpr int kScrubIntervalS = 1;
  constexpr int kPrivateFiles = 8;
  // One thread at a rate it sustains: every logical cluster call takes
  // about 20 ms on this code (see README.md), so 11 op/s keeps it
  // about a quarter busy.
  constexpr double kRate = 11;  // ops/s offered, one client thread.
  constexpr int kReadPct = 75, kWritePct = 20;  // Rest: unlink of a pair.
  const SharedTree tree{4, 32};
  const Zipf zipf(tree.files, 1.1);

  ssp::ClusterConfig config;
  config.replication = 3;
  config.write_quorum = 2;
  config.read_quorum = 2;
  for (int i = 0; i < kNodes; ++i) {
    config.nodes.push_back(
        ssp::ClusterNode{static_cast<uint32_t>(i), "127.0.0.1", FreePort()});
  }
  const std::string config_path = opt.workdir + "/cluster.conf";
  if (!config.SaveToFile(config_path).ok()) return 1;
  std::vector<std::unique_ptr<DaemonProcess>> daemons;
  std::vector<std::string> wal_dirs;
  Deployment dep;
  dep.cluster = &config;
  for (int i = 0; i < kNodes; ++i) {
    std::vector<std::string> args = {"--cluster", config_path, "--node-id",
                                     std::to_string(i), "--scrub-interval-s",
                                     std::to_string(kScrubIntervalS)};
    wal_dirs.push_back(MakeDir(opt.workdir, "wal" + std::to_string(i)));
    for (auto& a : WalArgs(wal_dirs.back())) args.push_back(a);
    const uint16_t port = config.nodes[static_cast<size_t>(i)].port;
    daemons.push_back(std::make_unique<DaemonProcess>(
        opt.sspd, args, opt.workdir + "/sspd" + std::to_string(i) + ".log",
        port));
    dep.ports.push_back(port);
  }
  for (auto& d : daemons) {
    if (d->Start() < 0) {
      std::fprintf(stderr, "perfbench: cluster daemon did not start\n");
      return 1;
    }
  }

  // The create half of every unlink/create pair runs here, so that
  // keygen stays out of this workload's latency tail (write_churn
  // measures creates); the timed traffic unlinks them, leaving
  // tombstones for the scrubbers.
  const int scratch = static_cast<int>(
      std::ceil(kRate * opt.seconds * (100 - kReadPct - kWritePct) / 100.0 * 1.3)) + 4;
  core::LocalNode root = core::LocalNode::Dir("", kAlice, fs::kInvalidGroup,
                                              fs::Mode::FromOctal(0755));
  tree.AddTo(&root, seed, fs::kInvalidGroup);
  core::LocalNode priv = core::LocalNode::Dir("p", kAlice, fs::kInvalidGroup,
                                              fs::Mode::FromOctal(0755));
  ChurnState st;
  st.dir = "/p";
  for (int i = 0; i < kPrivateFiles + scratch; ++i) {
    PrivateFile f;
    f.name = (i < kPrivateFiles ? "w" : "x") + std::to_string(i);
    f.id = 900000 + static_cast<uint64_t>(i);
    priv.children.push_back(core::LocalNode::File(
        f.name, kAlice, fs::kInvalidGroup, fs::Mode::FromOctal(0644),
        Content(seed, f.id, 0, kSmall)));
    st.live.push_back(f);
  }
  root.children.push_back(std::move(priv));
  std::unique_ptr<Enterprise> ent;
  {
    auto admin = MakeChannel(dep, nullptr, seed);
    if (admin == nullptr) return 1;
    ent = Provision(admin->top.get(), seed, {{kAlice, "alice"}},
                    /*staff_group=*/false, root);
  }
  if (ent == nullptr) return 1;
  auto worker = MakeWorker(ent.get(), kAlice, dep, &tracer, seed * 1000 + 30,
                           opt.trace, fs::kInvalidGroup);
  if (worker == nullptr) return 1;
  for (int r = 0; r < tree.files; ++r) {  // Warm-up, checked.
    report->Attempt(1);
    auto got = worker->client->Read(tree.Path(r));
    if (!got.ok() || *got != Content(seed, static_cast<uint64_t>(r), 0,
                                      SharedTree::Size(r))) {
      report->Fail("warm-up read " + tree.Path(r));
    }
  }
  for (int i = 0; i < kPrivateFiles; ++i) {  // Warm the write path too.
    PrivateFile& f = st.live[static_cast<size_t>(i)];
    report->Attempt(1);
    Status s = worker->client->Write(FilePath(st, f),
                                     Content(seed, f.id, f.version + 1, kSmall));
    if (s.ok()) s = worker->client->Close(FilePath(st, f));
    if (s.ok()) {
      f.version += 1;
    } else {
      report->Fail("warm-up write " + FilePath(st, f) + ": " + s.ToString());
    }
  }
  size_t next_scratch = kPrivateFiles;
  uint64_t issued = 0;
  OpenLoop loop(1, [&](int w, std::mt19937_64& rng) {
    // A fixed cycle of twenty: fifteen reads, four overwrites, one
    // unlink, so every run has the same mix.
    const int pick = static_cast<int>(issued++ % 20) * 5;
    if (pick < kReadPct) {
      return SharedRead(worker.get(), tree, zipf, seed, &tracer, w, rng, report);
    }
    Sample s;
    Status status;
    if (pick >= kReadPct + kWritePct && next_scratch < st.live.size()) {
      s.kind = kMeta;
      PrivateFile& f = st.live[next_scratch];
      {
        OpTimer t(&tracer, worker->engine.get(), w, "meta");
        status = worker->client->Unlink(FilePath(st, f));
        if (status.ok()) status = worker->client->Fsync();
      }
      if (status.ok()) {
        st.unlinked.push_back(f.name);
        f.name.clear();  // Dropped from the live set after the run.
        ++next_scratch;
      }
    } else {
      s.kind = kWrite;
      PrivateFile& f = st.live[rng() % kPrivateFiles];
      const Bytes content = Content(seed, f.id, f.version + 1, kSmall);
      {
        OpTimer t(&tracer, worker->engine.get(), w, "write");
        status = worker->client->Write(FilePath(st, f), content);
        if (status.ok()) status = worker->client->Close(FilePath(st, f));
      }
      if (status.ok()) {
        f.version += 1;
        st.user_bytes += kSmall;
      }
    }
    s.ok = status.ok();
    if (!s.ok) report->Fail(std::string(KindName(s.kind)) + ": " + status.ToString());
    return s;
  });
  const double setup_s = SecondsSince(setup_start);

  uint64_t salt = seed * 100;
  auto before = FetchStatsAll(dep.ports);
  const obs::RegistrySnapshot local_before = LocalStats();
  const uint64_t repairs_before = worker->channel->sharded->read_repairs();
  const auto cpu_now = [&] {
    double cpu = SelfCpuSeconds();
    for (auto& dp : daemons) cpu += dp->CpuSeconds();
    return cpu;
  };
  OpenLoop::Window plain;
  if (opt.trace) {
    plain = loop.Run(kRate, opt.seconds / 2, ++salt);
    report->Attempt(plain.samples.size());
    tracer.set_enabled(true);
  }
  const double cpu0 = cpu_now();
  OpenLoop::Window win =
      loop.Run(kRate, opt.trace ? opt.seconds / 2 : opt.seconds, ++salt);
  const double cpu_s = cpu_now() - cpu0;
  tracer.set_enabled(false);
  report->Attempt(win.samples.size());
  StatsDelta local{local_before, LocalStats()};
  const uint64_t repairs = worker->channel->sharded->read_repairs() - repairs_before;
  auto after_load = FetchStatsAll(dep.ports);

  // Quiesce: two scrub intervals with no load, then no tombstone may be
  // left anywhere.
  std::this_thread::sleep_for(std::chrono::seconds(2 * kScrubIntervalS) +
                              std::chrono::milliseconds(200));
  auto quiet = FetchStatsAll(dep.ports);
  if (!before.ok() || !after_load.ok() || !quiet.ok()) return 1;
  const uint64_t left = quiet->gauges["ssp.store.tombstones"];
  std::fprintf(stderr, "perfbench: %llu unlinks, tombstones %llu after load, %llu after quiesce\n",
               static_cast<unsigned long long>(st.unlinked.size()),
               static_cast<unsigned long long>(after_load->gauges["ssp.store.tombstones"]),
               static_cast<unsigned long long>(left));
  report->Check(left == 0, "no tombstones left after two scrub intervals");
  std::erase_if(st.live, [](const PrivateFile& f) { return f.name.empty(); });
  {
    auto fresh = MakeWorker(ent.get(), kAlice, dep, nullptr, seed * 1000 + 50,
                            false, fs::kInvalidGroup);
    report->Check(fresh != nullptr, "fresh client mounts");
    if (fresh == nullptr) return 1;
    ReadBack(fresh->client.get(), st, seed, report);
  }
  uint64_t live_bytes = st.live.size() * kSmall;
  for (int r = 0; r < tree.files; ++r) live_bytes += SharedTree::Size(r);

  if (!opt.trace) {
    // One thread yields under two hundred ops per run: too few for a
    // tail with ten samples beyond it, so only medians (see README.md).
    PrintLatency(win.samples, kRead, "quorum read", 0.5);
    PrintLatency(win.samples, kWrite, "quorum write", 0.5);
    report->Metric("op_cpu_us", cpu_s * 1e6 / static_cast<double>(win.samples.size()),
                   "us");
    report->Metric("setup_s", setup_s, "s");
    report->Metric("store_bytes_per_user_byte",
                   static_cast<double>(quiet->gauges["ssp.store.total_bytes"]) /
                       static_cast<double>(live_bytes),
                   "ratio");
  } else {
    StatsDelta d{*before, *after_load};
    const double base = Median(LatenciesOf(plain.samples, kRead));
    report->Metric("trace_overhead_pct",
                   100 * (Median(LatenciesOf(win.samples, kRead)) - base) / base,
                   "%");
    uint64_t acked_ops = 0;
    for (const auto* w : {&plain, &win}) {
      for (const Sample& x : w->samples) acked_ops += x.ok ? 1 : 0;
    }
    ReportGenerator(win, report);
    ReportClientLayer(tracer, report);
    CheckSplit(tracer, report);
    ReportWireLayer(tracer, local, report);
    ReportCacheLayer(local, report);
    ReportServerLayer(d, static_cast<double>(acked_ops), report);
    ReportStoreLayer(*after_load, report);
    ReportCryptoPrimitives(seed, report);
    ReportWalLayer(d, acked_ops, st.user_bytes, report);
    ReportUnused("paper", report);
    // Fan-out and quorum wait: each logical call against its node calls.
    // The wait is the part of a logical call after its fastest node
    // call returned.
    std::map<uint64_t, std::pair<double, double>> logical;  // seq -> span
    std::map<uint64_t, double> fastest;
    std::map<int, std::vector<double>> per_node;
    uint64_t node_calls = 0;
    for (const auto& c : tracer.Calls()) {
      const double us = c.end_us - c.start_us;
      if (c.node < 0) {
        logical[c.call_seq] = {c.start_us, c.end_us};
        continue;
      }
      ++node_calls;
      per_node[c.node].push_back(us);
      auto it = fastest.find(c.call_seq);
      if (it == fastest.end() || us < it->second) fastest[c.call_seq] = us;
    }
    std::vector<double> wait;
    double wait_total = 0, call_total = 0;
    for (const auto& [seq, span] : logical) {
      auto it = fastest.find(seq);
      if (it == fastest.end()) continue;
      const double call = span.second - span.first;
      wait.push_back(std::max(0.0, call - it->second));
      wait_total += wait.back();
      call_total += call;
    }
    std::fprintf(stderr, "perfbench: quorum wait p50 %.6g us, p99 %.6g us\n",
                 Quantile(wait, 0.5), Quantile(wait, 0.99));
    for (const auto& [node, v] : per_node) {
      std::fprintf(stderr, "perfbench: node %d: %zu calls, p99 %.6g us\n", node,
                   v.size(), Quantile(v, 0.99));
    }
    report->Metric("sharded.fanout_per_call",
                   logical.empty() ? 0 : static_cast<double>(node_calls) / logical.size(),
                   "count");
    report->Metric("sharded.quorum_wait_share",
                   call_total > 0 ? wait_total / call_total : 0, "ratio");
    report->Metric("sharded.read_repairs", static_cast<double>(repairs), "count");
    StatsDelta scrub{*before, *quiet};
    report->Metric("scrub.runs", static_cast<double>(scrub.Counter("ssp.scrub.runs")),
                   "count");
    report->Metric("scrub.repaired",
                   static_cast<double>(scrub.Counter("ssp.scrub.repaired")), "count");
    report->Metric("scrub.tombstones_gc",
                   static_cast<double>(scrub.Counter("ssp.scrub.tombstones_gc")),
                   "count");
    report->Metric("scrub.tombstones_left", static_cast<double>(left), "count");
    worker.reset();
    for (auto& dp : daemons) dp->Stop();
    ReportScrubPass(config, wal_dirs, report);
    report->Metric("migration.objects_per_s",
                   (ent->migration.files + ent->migration.directories) /
                       ent->migrate_s,
                   "1/s");
    WriteTrace(tracer, opt.workdir + "/trace.jsonl");
  }
  worker.reset();
  for (auto& d : daemons) d->Stop();
  return 0;
}

}  // namespace sharoes::perfbench
