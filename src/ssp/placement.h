// Cluster placement: which sharoes_sspd daemon owns which object.
//
// The Sharoes trust model makes the SSP a dumb byte server — every
// confidentiality and integrity property lives client-side (per-block
// AEAD, per-file Merkle roots, the freshness map; DESIGN.md §13) — so
// the store can be sharded and replicated across N daemons without
// touching the security argument. This header is the shared vocabulary
// for that: a ClusterConfig (the serialized membership + quorum
// parameters both the daemons and the clients load) and a PlacementRing
// (a seeded consistent-hash ring with virtual nodes mapping routing
// keys to K distinct replica daemons).
//
// Determinism is a protocol property here, not a convenience: every
// client and every daemon must compute the identical ring from the
// identical config, across processes, platforms, and libstdc++
// versions. The ring therefore uses its own 64-bit mixer (splitmix64
// finalizer) — never std::hash, whose value is unspecified.

#ifndef SHAROES_SSP_PLACEMENT_H_
#define SHAROES_SSP_PLACEMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ssp/message.h"
#include "util/result.h"

namespace sharoes::ssp {

/// One daemon endpoint. Ids are stable names chosen by the operator —
/// the ring hashes the id, not the list position, so reordering the
/// config file or removing a node never remaps the survivors' vnodes.
struct ClusterNode {
  uint32_t id = 0;
  std::string host;
  uint16_t port = 0;
};

/// The cluster membership + quorum parameters, serialized as a small
/// line-based text file that `sharoes_sspd --cluster` and
/// `sharoes_cli --cluster` (through ShardedChannel::Open) both load. Invariants (checked by
/// Validate): 1 <= W,R <= K <= nodes, and R + W > K when K > 1 — the
/// quorum-intersection property that makes a read quorum overlap every
/// acknowledged write quorum in at least one replica.
struct ClusterConfig {
  uint32_t replication = 1;    // K: copies of every object.
  uint32_t write_quorum = 1;   // W: acks required before a write is ok.
  uint32_t read_quorum = 1;    // R: replies required before a read is ok.
  uint32_t virtual_nodes = 64; // Ring points per node (balance knob).
  uint64_t ring_seed = 0x5348415245533039ull;  // "SHARES09".
  std::vector<ClusterNode> nodes;

  Status Validate() const;
  const ClusterNode* FindNode(uint32_t id) const;

  /// Text form: `cluster v1` header, one `key value` line per scalar,
  /// one `node <id> <host> <port>` line per daemon. Parse accepts
  /// comments (#) and blank lines and validates the result.
  std::string Serialize() const;
  static Result<ClusterConfig> Parse(const std::string& text);
  static Result<ClusterConfig> LoadFromFile(const std::string& path);
  Status SaveToFile(const std::string& path) const;
};

/// The 64-bit routing coordinate of an object key. Inode-scoped
/// families route by inode (so all of a file's metadata replicas, table
/// copies, split blocks, and data blocks colocate — one shard serves a
/// whole path component); superblocks route by user and group-key blobs
/// by group, in disjoint tag domains so user 7 and inode 7 never collide
/// (inode numbers are counter-allocated well below 2^61, and
/// ObjectKey::Valid keeps user and group ids below 2^32). A ranged
/// delete routes by its key's k1 like every other store op; kBatch and
/// the admin ops have no routing key — callers split batches per sub-op
/// and pin admin ops.
uint64_t RoutingKeyOf(const ObjectKey& key);

/// Seeded splitmix64 finalizer — the ring's only hash. Public so tests
/// can pin golden values (cross-process determinism is load-bearing).
uint64_t PlacementHash(uint64_t seed, uint64_t value);

/// The consistent-hash ring: `virtual_nodes` points per daemon on a
/// 64-bit circle; a key's K replicas are the first K *distinct* daemons
/// clockwise from the key's hash, preferred-first. Adding a daemon
/// steals ~1/(N+1) of the keyspace from the others and reshuffles
/// nothing among them (the minimal-movement property placement_test
/// pins). Immutable after construction, so concurrent readers (every
/// serving thread checks ownership per request) need no locks.
class PlacementRing {
 public:
  PlacementRing() = default;
  /// Validates the config and builds the ring.
  static Result<PlacementRing> Build(ClusterConfig config);

  const ClusterConfig& config() const { return config_; }

  /// The K replica daemons for a key as indices into config().nodes,
  /// preferred (primary) first. K = min(replication, nodes).
  std::vector<uint32_t> ReplicaIndicesFor(uint64_t key) const;
  uint32_t PrimaryIndexFor(uint64_t key) const;
  /// True iff the daemon with node id `node_id` is one of the key's
  /// replicas — the server-side ownership check behind kWrongShard.
  bool Owns(uint32_t node_id, uint64_t key) const;

 private:
  ClusterConfig config_;
  /// (point, node index), sorted by point then index. Size = nodes × vnodes.
  std::vector<std::pair<uint64_t, uint32_t>> points_;
};

}  // namespace sharoes::ssp

#endif  // SHAROES_SSP_PLACEMENT_H_
