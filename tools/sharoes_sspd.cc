// sharoes_sspd: the SSP data-serving tool as a standalone network daemon
// (paper §IV, component 2). Serves the client <-> SSP protocol over TCP.
//
// Usage:
//   sharoes_sspd [port] [--cluster FILE --node-id N]
//                [--wal DIR [wal flags]] [fault flags]
//
// Default port 7070 (0 picks an ephemeral port).
//
// --cluster FILE --node-id N make the daemon one shard of a replicated
// fleet (DESIGN.md §15): FILE is a placement config (ssp/placement.h
// text format, the same file every daemon and client loads) and N is
// this daemon's node id in it. The daemon then refuses ops whose
// routing key the ring does not place on node N with kWrongShard —
// before touching the WAL — so a client with a stale ring can never
// scribble on the wrong shard — and refuses unstamped mutations (no
// writer version) with kBadRequest. Without an explicit positional
// port, the port of node N's config entry is used, so a fleet can be
// started as
// `sharoes_sspd --cluster c.conf --node-id 0` / `... --node-id 1` / ….
// Cluster mode also enables delete tombstones (DESIGN.md §16): deletes
// leave versioned tombstones instead of erasing, so a replica that
// slept through a delete is told the key is dead instead of
// resurrecting it.
//
// --scrub-interval-s N (cluster mode only) runs the anti-entropy
// scrubber every N seconds: each pass probes the versions of every owned
// key on all K replicas (batched, no blobs), fetches a blob only to
// repair a stale/missing/resurrected copy toward the freshest
// acknowledged state, and garbage-collects tombstones that a full quorum
// agrees are redundant (ssp/scrub.h; counters
// ssp.scrub.{runs,examined,repaired,tombstones_gc,unreachable} and the
// ssp.scrub.pass_us histogram). 0 (default) disables the background
// thread.
//
// --wal DIR makes the store durable: every mutating op is appended to a
// write-ahead log in DIR before it is acknowledged, and startup recovers
// snapshot + log (tolerating a torn tail from a crash). See DESIGN.md
// §10 for the guarantees per sync policy:
//   --wal-sync always|interval|off   durability point (default always)
//   --wal-interval-ms N              flush cadence for `interval` (def. 50)
//   --wal-compact-bytes N            segment size that triggers background
//                                    snapshot compaction (default 64 MiB)
//   --wal-group-commit-us N          group-commit window for `always`: the
//                                    commit leader lingers N µs so
//                                    concurrent requests share its fsync
//                                    (default 0 = pure piggybacking)
//
// Without --wal the store lives in memory only and the daemon starts
// empty; an enterprise provisions it remotely through the same wire
// protocol (see tools/sharoes_cli.cc).
//
// --stats-interval-s N dumps the metrics-registry snapshot (the same
// JSON that kGetStats returns) to stdout every N seconds — a
// poor man's scrape endpoint for watching a daemon under load.
//
// --slow-request-us N captures the span timeline of any traced request
// whose service time exceeds N µs into the slow-request ring (drained
// by kGetTraces / `sharoes_cli slow`; default 10000, 0 disables ring
// capture while the slowest-ever table keeps updating). The SHAROES_SLOW_US
// env var sets the same threshold; the flag wins.
//
// Fault flags turn the daemon into its own chaos monkey (percentages of
// requests, evaluated in this order; 0 disables each):
//   --fault-fail-pct P      reply kError without executing
//   --fault-delay-pct P     delay the reply by --fault-delay-ms (def. 5)
//   --fault-corrupt-pct P   flip one reply payload byte
//   --fault-drop-pct P      sever the connection mid-frame
//   --fault-seed N          deterministic schedule seed (default 1)
// Clients behind core::RetryingConnection ride out everything except
// corruption, which their integrity layer must reject instead.

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>

#include <memory>
#include <string>

#include "obs/metrics.h"
#include "obs/span.h"
#include "ssp/fault_injection.h"
#include "ssp/placement.h"
#include "ssp/scrub.h"
#include "ssp/tcp_service.h"
#include "ssp/wal.h"

namespace {
// SIGINT/SIGTERM may be delivered to any thread (WAL syncer, acceptor,
// connection workers, scrubber), so the handler does not set a flag that
// main() must happen to be awake to see: it writes one byte into a pipe
// that main() blocks on. The byte stays there until read, so a signal
// arriving before main() starts waiting is not lost either.
int g_stop_pipe[2] = {-1, -1};

void WakeMain(int) {
  int saved = errno;
  char byte = 1;
  ssize_t n = ::write(g_stop_pipe[1], &byte, 1);
  (void)n;  // A full pipe already holds a wake-up.
  errno = saved;
}

/// Installs WakeMain for SIGINT/SIGTERM. Called before any thread starts,
/// so a signal during WAL recovery or startup shuts down cleanly too.
bool InstallStopHandlers() {
  if (::pipe2(g_stop_pipe, O_CLOEXEC | O_NONBLOCK) != 0) return false;
  struct sigaction sa = {};
  sa.sa_handler = WakeMain;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  return ::sigaction(SIGINT, &sa, nullptr) == 0 &&
         ::sigaction(SIGTERM, &sa, nullptr) == 0;
}

/// Blocks until a stop signal arrives, or `timeout_ms` passes (-1 waits
/// forever). Returns true on a stop signal.
bool WaitForStop(int timeout_ms) {
  pollfd pfd = {g_stop_pipe[0], POLLIN, 0};
  int ready;
  do {
    ready = ::poll(&pfd, 1, timeout_ms);
  } while (ready < 0 && errno == EINTR);
  return ready != 0;
}
}  // namespace

int main(int argc, char** argv) {
  if (!InstallStopHandlers()) {
    std::perror("sharoes_sspd: cannot install signal handlers");
    return 1;
  }
  uint16_t port = 7070;
  bool explicit_port = false;
  std::string wal_dir;
  std::string cluster_path;
  int node_id = -1;
  sharoes::ssp::WalOptions wal_opts;
  int stats_interval_s = 0;
  int scrub_interval_s = 0;
  sharoes::ssp::FaultPolicy::Options fault_opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto pct = [&]() { return std::atof(argv[++i]) / 100.0; };
    if (arg == "--cluster" && i + 1 < argc) {
      cluster_path = argv[++i];
    } else if (arg == "--node-id" && i + 1 < argc) {
      node_id = std::atoi(argv[++i]);
    } else if (arg == "--wal" && i + 1 < argc) {
      wal_dir = argv[++i];
    } else if (arg == "--wal-sync" && i + 1 < argc) {
      if (!sharoes::ssp::ParseWalSyncPolicy(argv[++i], &wal_opts.sync)) {
        std::fprintf(stderr,
                     "sharoes_sspd: --wal-sync must be always|interval|off\n");
        return 1;
      }
    } else if (arg == "--wal-interval-ms" && i + 1 < argc) {
      wal_opts.interval_ms = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else if (arg == "--wal-compact-bytes" && i + 1 < argc) {
      wal_opts.compact_threshold_bytes =
          static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--wal-group-commit-us" && i + 1 < argc) {
      wal_opts.group_commit_us = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else if (arg == "--stats-interval-s" && i + 1 < argc) {
      stats_interval_s = std::atoi(argv[++i]);
    } else if (arg == "--scrub-interval-s" && i + 1 < argc) {
      scrub_interval_s = std::atoi(argv[++i]);
    } else if (arg == "--slow-request-us" && i + 1 < argc) {
      sharoes::obs::SetSlowRequestThresholdUs(
          static_cast<uint64_t>(std::atoll(argv[++i])));
    } else if (arg == "--fault-fail-pct" && i + 1 < argc) {
      fault_opts.fail_prob = pct();
    } else if (arg == "--fault-delay-pct" && i + 1 < argc) {
      fault_opts.delay_prob = pct();
    } else if (arg == "--fault-corrupt-pct" && i + 1 < argc) {
      fault_opts.corrupt_prob = pct();
    } else if (arg == "--fault-drop-pct" && i + 1 < argc) {
      fault_opts.drop_prob = pct();
    } else if (arg == "--fault-delay-ms" && i + 1 < argc) {
      fault_opts.delay_ms = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else if (arg == "--fault-seed" && i + 1 < argc) {
      fault_opts.seed = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "sharoes_sspd: unknown flag %s\n", arg.c_str());
      return 1;
    } else {
      port = static_cast<uint16_t>(std::atoi(arg.c_str()));
      explicit_port = true;
    }
  }

  if (cluster_path.empty() != (node_id < 0)) {
    std::fprintf(stderr,
                 "sharoes_sspd: --cluster and --node-id go together\n");
    return 1;
  }
  std::unique_ptr<sharoes::ssp::PlacementRing> ring;
  if (!cluster_path.empty()) {
    auto config = sharoes::ssp::ClusterConfig::LoadFromFile(cluster_path);
    if (!config.ok()) {
      std::fprintf(stderr, "sharoes_sspd: cannot load %s: %s\n",
                   cluster_path.c_str(),
                   config.status().ToString().c_str());
      return 1;
    }
    const sharoes::ssp::ClusterNode* self = nullptr;
    for (const auto& node : config->nodes) {
      if (node.id == static_cast<uint32_t>(node_id)) self = &node;
    }
    if (self == nullptr) {
      std::fprintf(stderr, "sharoes_sspd: node id %d is not in %s\n",
                   node_id, cluster_path.c_str());
      return 1;
    }
    if (!explicit_port) port = self->port;
    auto built = sharoes::ssp::PlacementRing::Build(std::move(*config));
    if (!built.ok()) {
      std::fprintf(stderr, "sharoes_sspd: bad cluster config: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    ring = std::make_unique<sharoes::ssp::PlacementRing>(std::move(*built));
  }

  sharoes::ssp::SspServer server;
  if (ring != nullptr) {
    server.set_placement(ring.get(), static_cast<uint32_t>(node_id));
    // Tombstones must be on BEFORE WAL recovery: the log holds
    // versioned deletes whose replay must leave tombstones, not erase,
    // or a restart silently re-opens the resurrection window.
    server.store().set_tombstones_enabled(true);
    std::printf("sharoes_sspd: shard node %d of a %zu-node cluster (%s)\n",
                node_id, ring->config().nodes.size(), cluster_path.c_str());
  }
  std::unique_ptr<sharoes::ssp::Wal> wal;
  if (!wal_dir.empty()) {
    auto opened =
        sharoes::ssp::Wal::Open(wal_dir, wal_opts, &server.store());
    if (!opened.ok()) {
      std::fprintf(stderr, "sharoes_sspd: wal recovery failed: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    wal = std::move(*opened);
    const auto& rec = wal->recovery();
    std::printf(
        "sharoes_sspd: wal recovered from %s (sync=%s): snapshot %s "
        "seq %llu, %llu records replayed, %llu skipped, last seq %llu%s\n",
        wal_dir.c_str(), sharoes::ssp::WalSyncPolicyName(wal_opts.sync),
        rec.had_snapshot ? "at" : "absent,",
        static_cast<unsigned long long>(rec.snapshot_seq),
        static_cast<unsigned long long>(rec.records_applied),
        static_cast<unsigned long long>(rec.records_skipped),
        static_cast<unsigned long long>(rec.last_seq),
        rec.tail_truncated ? " (torn tail truncated)" : "");
    server.set_wal(wal.get());
  }
  auto daemon = sharoes::ssp::TcpSspDaemon::Start(&server, port);
  if (!daemon.ok()) {
    std::fprintf(stderr, "sharoes_sspd: %s\n",
                 daemon.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<sharoes::ssp::FaultPolicy> faults;
  if (fault_opts.fail_prob + fault_opts.delay_prob +
          fault_opts.corrupt_prob + fault_opts.drop_prob >
      0) {
    faults = std::make_unique<sharoes::ssp::FaultPolicy>(fault_opts);
    (*daemon)->set_fault_injector(faults.get());
    std::printf(
        "sharoes_sspd: fault injection armed (fail %.1f%% delay %.1f%% "
        "corrupt %.1f%% drop %.1f%%, seed %llu)\n",
        fault_opts.fail_prob * 100, fault_opts.delay_prob * 100,
        fault_opts.corrupt_prob * 100, fault_opts.drop_prob * 100,
        static_cast<unsigned long long>(fault_opts.seed));
  }
  std::unique_ptr<sharoes::ssp::Scrubber> scrubber;
  if (scrub_interval_s > 0) {
    if (ring == nullptr) {
      std::fprintf(stderr,
                   "sharoes_sspd: --scrub-interval-s needs --cluster "
                   "(a lone daemon has no replicas to converge)\n");
      return 1;
    }
    sharoes::net::TcpTimeouts peer_timeouts{/*connect_ms=*/2000,
                                            /*send_ms=*/5000,
                                            /*recv_ms=*/5000};
    scrubber = std::make_unique<sharoes::ssp::Scrubber>(
        &server, ring.get(), static_cast<uint32_t>(node_id),
        [peer_timeouts](const sharoes::ssp::ClusterNode& node)
            -> sharoes::Result<std::unique_ptr<sharoes::ssp::SspChannel>> {
          auto channel = sharoes::ssp::TcpSspChannel::Connect(
              node.host, node.port, peer_timeouts);
          if (!channel.ok()) return channel.status();
          return std::unique_ptr<sharoes::ssp::SspChannel>(
              std::move(*channel));
        });
    scrubber->Start(static_cast<uint32_t>(scrub_interval_s));
    std::printf("sharoes_sspd: anti-entropy scrubber every %ds\n",
                scrub_interval_s);
  }
  std::printf("sharoes_sspd: serving on 127.0.0.1:%u (ctrl-c to stop)\n",
              (*daemon)->port());
  std::fflush(stdout);

  int timeout_ms = stats_interval_s > 0 ? stats_interval_s * 1000 : -1;
  while (!WaitForStop(timeout_ms)) {
    std::string json = sharoes::obs::MetricsRegistry::Global().SnapshotJson();
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }
  std::printf("sharoes_sspd: shutting down\n");
  std::fflush(stdout);
  // Scrubber first: its repair path calls server.Handle, which must not
  // race the WAL detach below.
  scrubber.reset();
  (*daemon)->Shutdown();
  if (faults != nullptr) {
    auto counts = faults->counts();
    std::printf(
        "sharoes_sspd: injected %llu faults over %llu requests "
        "(%llu failed, %llu delayed, %llu corrupted, %llu dropped)\n",
        static_cast<unsigned long long>(counts.injected()),
        static_cast<unsigned long long>(counts.requests),
        static_cast<unsigned long long>(counts.failed),
        static_cast<unsigned long long>(counts.delayed),
        static_cast<unsigned long long>(counts.corrupted),
        static_cast<unsigned long long>(counts.dropped));
  }
  if (wal != nullptr) {
    // Graceful exit: make everything appended durable, then fold the log
    // into a snapshot so the next startup replays nothing. Both are
    // best-effort — even without them the log already holds every
    // acknowledged op up to its sync-policy guarantee.
    sharoes::Status synced = wal->Sync();
    if (!synced.ok()) {
      std::fprintf(stderr, "sharoes_sspd: final wal sync failed: %s\n",
                   synced.ToString().c_str());
    }
    sharoes::Status compacted = wal->Compact();
    if (compacted.ok()) {
      std::printf("sharoes_sspd: wal compacted at seq %llu\n",
                  static_cast<unsigned long long>(wal->last_sequence()));
    } else {
      std::fprintf(stderr, "sharoes_sspd: final wal compaction failed: %s\n",
                   compacted.ToString().c_str());
    }
    server.set_wal(nullptr);
    wal.reset();
  }
  return 0;
}
