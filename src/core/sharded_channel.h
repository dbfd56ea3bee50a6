// ShardedChannel: client-side routing for a multi-daemon SSP cluster.
//
// An SspChannel over N daemons instead of one. Every Call is split by
// the placement ring (ssp/placement.h): sub-ops of a kBatch — and the
// single op of a plain request — are grouped by owning replica set,
// issued in parallel over per-node RetryingConnections, and the
// per-sub-op responses are re-stitched in submission order, so
// SharoesClient's whole batching machinery (MultiGet, the write-behind
// stage, readahead) works against a cluster unchanged. Because the
// fan-out happens inside one Call, the client's one-Call-one-round-trip
// accounting (`client.rpc.round_trips`) naturally counts a parallel
// per-shard fan-out as ONE logical round trip — max-per-shard, not the
// sum — which keeps the PR-5/PR-6 RTT gates meaningful; the fan-out
// width itself is observable as `client.rpc.shard_fanout`.
//
// Replication (DESIGN.md §15):
//   - Every mutation is stamped with one ssp::Version{ts, writer} per
//     Call, before any retry: `ts` comes from this channel's hybrid
//     logical clock (max(last_ts + 1, wall-clock µs)), `writer` is a
//     random nonzero id drawn once per channel. Sub-ops of one Call get
//     increasing versions in submission order, and every replica, quorum
//     round and transport retry of a sub-op sees the same version, which
//     the replica's store applies iff it is newer than what it holds.
//   - A write goes to all K replicas of its key and needs W acks; a
//     kBadRequest from any replica is definitive; fewer than W acks
//     after the round budget is a transient kError (the layers above
//     already treat kError as retry-me).
//   - A read asks the R preferred replicas, failing over to further
//     replicas when one is down, and needs R usable replies. Reads are
//     issued versioned (kExtensionTagWantVersion), so every reply
//     carries its copy's version and deletes are visible as kDeleted
//     tombstone replies instead of masquerading as absence. The freshest
//     copy is the reply with the greatest version (ssp::Freshest, shared
//     with the scrubber); a tombstone is just a versioned entry, so a
//     replicated delete stays deleted and a later re-create outranks it.
//     Every reply also raises the clock to at least its version, so a
//     write that follows a read of a key outranks what it read.
//   - Read repair re-puts a live winner onto the repliers below it, or
//     re-deletes a tombstone winner onto the LIVE repliers below it,
//     carrying the winner's own version so nothing fresher is ever
//     clobbered. Tombstones are never repaired onto replicas that
//     answered kNotFound: missing already agrees with deleted, and
//     re-creating the tombstone would fight the scrubber's GC forever.
//   - With R + W > K (enforced by ClusterConfig::Validate) every read
//     quorum overlaps every acknowledged write quorum, so the freshest
//     acked copy is always among the R replies.
//
// Between writers that do not read each other's writes, the greater
// timestamp wins: concurrent writers are last-writer-wins by clock, the
// same object-level semantics as the single daemon. The Sharoes trust
// model pins integrity client-side — per-block AEAD, Merkle roots, the
// client freshness map that fails a rolled-back write_gen closed as
// Corruption — which is exactly why the byte store could be sharded
// without touching the security argument.
//
// Threading: like RetryingConnection, a ShardedChannel is used by one
// client thread at a time; internally each Call spawns one short-lived
// thread per contacted node (the per-node connections are touched only
// by their node's thread within a Call).

#ifndef SHAROES_CORE_SHARDED_CHANNEL_H_
#define SHAROES_CORE_SHARDED_CHANNEL_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/retrying_connection.h"
#include "net/tcp_stream.h"
#include "ssp/placement.h"

namespace sharoes::core {

struct ShardedChannelOptions {
  /// Per-node transport retry. Deliberately shorter-fused than the
  /// single-daemon default: a dead replica should fail fast so the
  /// quorum layer can make progress with the live ones, instead of
  /// riding one node's full reconnect budget.
  RetryOptions node_retry = [] {
    RetryOptions r;
    r.max_attempts = 3;
    r.initial_backoff_ms = 5;
    r.max_backoff_ms = 100;
    return r;
  }();
  /// Stream deadlines for the TCP factories Open() builds.
  net::TcpTimeouts timeouts{/*connect_ms=*/2000, /*send_ms=*/5000,
                            /*recv_ms=*/5000};
  /// Cluster-level retry: how many rounds a Call may take to assemble
  /// its quorums, re-asking unacked/unanswered replicas with capped
  /// backoff between rounds (every sub-op keeps its version across
  /// rounds, so a re-asked replica that already applied it no-ops).
  /// 1 = no quorum retry: a round that misses its quorum fails the
  /// sub-op.
  int quorum_rounds = 6;
  /// Jitter seed for round backoff; 0 draws nondeterministically. The
  /// writer id of the version clock is always drawn nondeterministically,
  /// so channels sharing a seed still stamp distinct versions.
  uint64_t seed = 0;
};

class ShardedChannel : public ssp::SspChannel {
 public:
  /// Builds the RetryingConnection factory for one cluster node (tests
  /// route this at RestartableDaemons; Open() at host:port sockets).
  using NodeFactory = std::function<RetryingConnection::ChannelFactory(
      const ssp::ClusterNode&)>;
  /// Re-reads the cluster config after a kWrongShard told us ours is
  /// stale. May return an error (refresh failed: keep the old ring).
  using ConfigSource = std::function<Result<ssp::ClusterConfig>()>;

  /// The production path: load `config_path`, connect over TCP, and
  /// refresh placement by re-reading the same file.
  static Result<std::unique_ptr<ShardedChannel>> Open(
      const std::string& config_path, const ShardedChannelOptions& options);

  /// The assembled form (tests, benchmarks). `refresh` may be null: a
  /// kWrongShard then surfaces in the stitched response instead of
  /// triggering a reload.
  static Result<std::unique_ptr<ShardedChannel>> Create(
      ssp::ClusterConfig config, NodeFactory factory,
      const ShardedChannelOptions& options, ConfigSource refresh = nullptr);

  Result<ssp::Response> Call(const ssp::Request& req) override;

  /// Sends `req` to exactly the node with id `node_id` (admin tools
  /// inspecting one daemon: `sharoes_cli stats --node N`). Unknown ids
  /// are NotFound. No placement routing, no quorum.
  Result<ssp::Response> CallOnNode(uint32_t node_id,
                                   const ssp::Request& req);

  const ssp::ClusterConfig& config() const { return ring_.config(); }

  // Observability for tests and verbose tools (not thread-safe, like
  // the channel itself).
  uint64_t placement_refreshes() const { return placement_refreshes_; }
  uint64_t read_failovers() const { return read_failovers_; }
  uint64_t read_repairs() const { return read_repairs_; }
  uint64_t quorum_retry_rounds() const { return quorum_retry_rounds_; }

 private:
  struct SubState;

  /// One per-node connection plus the endpoint it was dialed for. The
  /// RetryingConnection factory captures host:port at creation, so a
  /// placement refresh that moves a node id to a new address must drop
  /// the old connection or it reconnects to the dead endpoint forever.
  struct NodeConnSlot {
    std::string host;
    uint16_t port = 0;
    std::unique_ptr<RetryingConnection> conn;
  };

  ShardedChannel(ssp::PlacementRing ring, NodeFactory factory,
                 const ShardedChannelOptions& options, ConfigSource refresh);

  /// One full quorum execution of the sub-op list, each mutation carrying
  /// its version from `versions`; returns true if any replica answered
  /// kWrongShard (the caller refreshes and re-runs).
  bool ExecuteSubOps(const std::vector<const ssp::Request*>& subs,
                     const std::vector<ssp::Version>& versions,
                     std::vector<ssp::Response>* finals);
  /// Answers a read from its freshest reply and read-repairs the
  /// repliers below it.
  void SettleRead(SubState* sub);
  /// Admin ops (kGetStats / kGetTraces): fan out to every configured
  /// node and merge — stats via the binary mergeable snapshot form,
  /// traces as one JSON object keyed by node id.
  Result<ssp::Response> CallAdmin(const ssp::Request& req);
  RetryingConnection* NodeConn(uint32_t node_index);
  Result<ssp::Response> CallNode(uint32_t node_index,
                                 const ssp::Request& req);
  void RebuildRing(ssp::ClusterConfig config);
  void BackoffRound(int round);
  /// The hybrid logical clock: the next mutation's version, and the
  /// catch-up to a version some replica reported.
  ssp::Version NextVersion();
  void Observe(const ssp::Version& seen);

  ssp::PlacementRing ring_;
  NodeFactory factory_;
  ShardedChannelOptions options_;
  ConfigSource refresh_;
  Rng rng_;
  const uint64_t writer_;  // Nonzero; drawn once per channel.
  uint64_t last_ts_ = 0;    // The clock: greatest ts stamped or seen.
  /// Per-node connections, keyed by node id so a refresh that reorders
  /// the config keeps live sockets (and drops ones whose node moved to
  /// a different endpoint — see NodeConnSlot).
  std::map<uint32_t, NodeConnSlot> conns_;
  obs::Histogram* fanout_hist_;
  uint64_t placement_refreshes_ = 0;
  uint64_t read_failovers_ = 0;
  uint64_t read_repairs_ = 0;
  uint64_t quorum_retry_rounds_ = 0;
};

}  // namespace sharoes::core

#endif  // SHAROES_CORE_SHARDED_CHANNEL_H_
