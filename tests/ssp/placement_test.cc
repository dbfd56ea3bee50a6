// Placement-ring proofs (satellite of the multi-daemon SSP PR): the
// ring is deterministic across processes, balanced enough to shard on,
// minimally disruptive on membership change, and its replica sets are
// K distinct daemons. Determinism is pinned with golden hash values —
// a libstdc++ upgrade or an accidental std::hash would change them and
// silently split the cluster's view of ownership, which is exactly the
// failure this file exists to catch before a daemon does.

#include "ssp/placement.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace sharoes::ssp {
namespace {

ClusterConfig ThreeNodes() {
  ClusterConfig config;
  config.replication = 3;
  config.write_quorum = 2;
  config.read_quorum = 2;
  config.nodes = {{0, "127.0.0.1", 7070},
                  {1, "127.0.0.1", 7071},
                  {2, "127.0.0.1", 7072}};
  return config;
}

// ---------------------------------------------------------------------
// Determinism.

TEST(PlacementHash, GoldenValues) {
  // Computed once by an independent splitmix64 implementation. If these
  // move, every deployed config file silently means something else.
  EXPECT_EQ(PlacementHash(0, 0), 0xe220a8397b1dcdafull);
  EXPECT_EQ(PlacementHash(0x5348415245533039ull, 1), 0x951216adb9606edaull);
  EXPECT_EQ(PlacementHash(0x5348415245533039ull, 0xDEADBEEFull),
            0x92216cd2c1b54686ull);
}

TEST(PlacementRing, DeterministicAcrossSerializeParse) {
  // The cross-process story in one process: a ring built from a config
  // that took a trip through the wire format places every key the same.
  ClusterConfig config = ThreeNodes();
  auto direct = PlacementRing::Build(config);
  ASSERT_TRUE(direct.ok());
  auto reparsed = ClusterConfig::Parse(config.Serialize());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  auto roundtrip = PlacementRing::Build(std::move(*reparsed));
  ASSERT_TRUE(roundtrip.ok());
  for (uint64_t key = 0; key < 10000; ++key) {
    ASSERT_EQ(direct->ReplicaIndicesFor(key),
              roundtrip->ReplicaIndicesFor(key))
        << "key " << key;
  }
}

TEST(PlacementRing, GoldenPrimaries) {
  // Pin actual placements, not just the hash: an ordering or
  // tie-breaking change in ring construction would slip past the
  // hash-only golden test.
  ClusterConfig config = ThreeNodes();
  auto ring = PlacementRing::Build(config);
  ASSERT_TRUE(ring.ok());
  std::string got;
  for (uint64_t key = 1; key <= 32; ++key) {
    got += static_cast<char>('0' + ring->PrimaryIndexFor(key));
  }
  // Recorded from the first correct build; any change is a wire break.
  EXPECT_EQ(got, "00010201020011112200111121022121");
}

// ---------------------------------------------------------------------
// Balance.

TEST(PlacementRing, VirtualNodesBalanceLoad) {
  // 100k sequential inode keys over 3 nodes at the default vnode count:
  // the fullest shard may carry at most 1.3x the emptiest. Sequential
  // ids are the realistic workload (inodes are counter-allocated) and
  // the adversarial one for a hash ring: any affinity between
  // neighboring ids would show up here as skew.
  ClusterConfig config = ThreeNodes();
  config.replication = 1;
  config.write_quorum = 1;
  config.read_quorum = 1;
  auto ring = PlacementRing::Build(config);
  ASSERT_TRUE(ring.ok());
  std::map<uint32_t, uint64_t> load;
  for (uint64_t inode = 1; inode <= 100000; ++inode) {
    ++load[ring->PrimaryIndexFor(inode)];
  }
  ASSERT_EQ(load.size(), 3u) << "a node owns nothing";
  uint64_t min = ~0ull, max = 0;
  for (const auto& [node, n] : load) {
    min = std::min(min, n);
    max = std::max(max, n);
  }
  EXPECT_LT(static_cast<double>(max) / static_cast<double>(min), 1.3)
      << "max " << max << " min " << min;
}

// ---------------------------------------------------------------------
// Minimal movement.

TEST(PlacementRing, AddingANodeOnlyMovesKeysToIt) {
  ClusterConfig small = ThreeNodes();
  small.replication = 1;
  small.write_quorum = 1;
  small.read_quorum = 1;
  ClusterConfig big = small;
  big.nodes.push_back({3, "127.0.0.1", 7073});
  auto before = PlacementRing::Build(small);
  auto after = PlacementRing::Build(big);
  ASSERT_TRUE(before.ok() && after.ok());
  uint64_t moved = 0;
  const uint64_t kKeys = 20000;
  for (uint64_t key = 1; key <= kKeys; ++key) {
    uint32_t was = before->PrimaryIndexFor(key);
    uint32_t now = after->PrimaryIndexFor(key);
    if (big.nodes[now].id != small.nodes[was].id) {
      // A key may only move to the node that joined; survivors never
      // trade keys among themselves.
      EXPECT_EQ(big.nodes[now].id, 3u) << "key " << key << " moved "
                                       << was << " -> " << now;
      ++moved;
    }
  }
  // The newcomer takes ~1/4 of the keyspace — not nothing, not half.
  double fraction = static_cast<double>(moved) / kKeys;
  EXPECT_GT(fraction, 0.15) << moved;
  EXPECT_LT(fraction, 0.35) << moved;
}

TEST(PlacementRing, RemovingANodeKeepsSurvivorsKeys) {
  ClusterConfig all = ThreeNodes();
  all.replication = 1;
  all.write_quorum = 1;
  all.read_quorum = 1;
  ClusterConfig without = all;
  without.nodes.erase(without.nodes.begin() + 1);  // Drop node id 1.
  auto before = PlacementRing::Build(all);
  auto after = PlacementRing::Build(without);
  ASSERT_TRUE(before.ok() && after.ok());
  for (uint64_t key = 1; key <= 20000; ++key) {
    uint32_t was_id = all.nodes[before->PrimaryIndexFor(key)].id;
    uint32_t now_id = without.nodes[after->PrimaryIndexFor(key)].id;
    if (was_id != 1) {
      // The ring hashes node ids, not list positions: every key a
      // survivor owned stays put when someone else leaves.
      ASSERT_EQ(now_id, was_id) << "key " << key;
    } else {
      ASSERT_NE(now_id, 1u) << "key " << key;
    }
  }
}

// ---------------------------------------------------------------------
// Replica sets.

TEST(PlacementRing, ReplicaSetsAreKDistinctNodes) {
  ClusterConfig config = ThreeNodes();
  config.nodes.push_back({3, "127.0.0.1", 7073});
  config.nodes.push_back({4, "127.0.0.1", 7074});
  auto ring = PlacementRing::Build(config);
  ASSERT_TRUE(ring.ok());
  for (uint64_t key = 1; key <= 5000; ++key) {
    std::vector<uint32_t> replicas = ring->ReplicaIndicesFor(key);
    ASSERT_EQ(replicas.size(), 3u) << "key " << key;
    std::set<uint32_t> unique(replicas.begin(), replicas.end());
    ASSERT_EQ(unique.size(), 3u) << "key " << key << " repeats a node";
    EXPECT_EQ(replicas[0], ring->PrimaryIndexFor(key));
    for (uint32_t idx : replicas) {
      EXPECT_TRUE(ring->Owns(config.nodes[idx].id, key));
    }
  }
}

TEST(PlacementRing, ReplicationClampedToClusterSize) {
  ClusterConfig config = ThreeNodes();
  auto ring = PlacementRing::Build(config);
  ASSERT_TRUE(ring.ok());
  // Every node is a replica of every key when K == N, so no key has a
  // non-owner to bounce off.
  for (uint64_t key = 1; key <= 100; ++key) {
    for (const ClusterNode& node : config.nodes) {
      EXPECT_TRUE(ring->Owns(node.id, key));
    }
  }
  EXPECT_FALSE(ring->Owns(/*node_id=*/99, /*key=*/1));
}

// ---------------------------------------------------------------------
// Routing keys.

TEST(RoutingKey, DomainsDoNotCollide) {
  Bytes payload{1, 2, 3};
  auto route = [](const Request& req) { return RoutingKeyOf(req.key); };
  // All of inode 7's spellings route together, on the inode itself...
  uint64_t inode_key = route(Request::Get(ObjectKey::Metadata(7, 0)));
  EXPECT_EQ(inode_key, 7u);
  EXPECT_EQ(route(Request::Put(ObjectKey::Data(7, 3), payload)), inode_key);
  EXPECT_EQ(route(Request::Get(ObjectKey::UserMetadata(7, 100))), inode_key);
  EXPECT_EQ(route(Request::DeleteRange(ObjectFamily::kMetadata, 7)), inode_key);
  EXPECT_EQ(route(Request::DeleteRange(ObjectFamily::kData, 7)), inode_key);
  // ...but user 7's superblock and group 7's key blob live in disjoint
  // tag domains: same small integer, three different shards allowed.
  // The literal values pin the placement of every existing deployment.
  uint64_t user_key = route(Request::Get(ObjectKey::Superblock(7)));
  uint64_t group_key = route(Request::Get(ObjectKey::GroupKey(7, 100)));
  EXPECT_EQ(user_key, (1ull << 62) | 7);
  EXPECT_EQ(group_key, (2ull << 62) | 7);
  EXPECT_EQ(route(Request::Put(ObjectKey::Superblock(7), payload)), user_key);
  EXPECT_EQ(route(Request::Delete(ObjectKey::Superblock(7))), user_key);
  EXPECT_EQ(route(Request::Put(ObjectKey::GroupKey(7, 100), payload)),
            group_key);
  EXPECT_EQ(route(Request::Delete(ObjectKey::GroupKey(7, 100))), group_key);
  EXPECT_EQ(route(Request::Delete(ObjectKey::UserMetadata(7, 100))), inode_key);
  EXPECT_EQ(route(Request::Delete(ObjectKey::Data(7, 3))), inode_key);
  // The widest legal ids stay inside their domain.
  EXPECT_EQ(RoutingKeyOf(ObjectKey::Superblock(UINT32_MAX)),
            (1ull << 62) | UINT32_MAX);
  EXPECT_EQ(RoutingKeyOf(ObjectKey::GroupKey(UINT32_MAX, 0)),
            (2ull << 62) | UINT32_MAX);
}

// ---------------------------------------------------------------------
// Config validation and wire format.

TEST(ClusterConfig, ValidateRejectsBrokenConfigs) {
  EXPECT_FALSE(ClusterConfig{}.Validate().ok()) << "no nodes";

  ClusterConfig config = ThreeNodes();
  EXPECT_TRUE(config.Validate().ok());

  ClusterConfig bad = config;
  bad.replication = 4;
  EXPECT_FALSE(bad.Validate().ok()) << "K > nodes";

  bad = config;
  bad.write_quorum = 4;
  EXPECT_FALSE(bad.Validate().ok()) << "W > K";

  bad = config;
  bad.read_quorum = 0;
  EXPECT_FALSE(bad.Validate().ok()) << "R < 1";

  bad = config;
  bad.write_quorum = 1;
  bad.read_quorum = 1;
  EXPECT_FALSE(bad.Validate().ok()) << "R + W <= K breaks intersection";

  bad = config;
  bad.virtual_nodes = 0;
  EXPECT_FALSE(bad.Validate().ok()) << "no vnodes";
  bad.virtual_nodes = 5000;
  EXPECT_FALSE(bad.Validate().ok()) << "absurd vnodes";

  bad = config;
  bad.nodes[2].id = bad.nodes[0].id;
  EXPECT_FALSE(bad.Validate().ok()) << "duplicate id";

  bad = config;
  bad.nodes[1].host.clear();
  EXPECT_FALSE(bad.Validate().ok()) << "empty host";
}

TEST(ClusterConfig, SerializeParseRoundTrip) {
  ClusterConfig config = ThreeNodes();
  config.virtual_nodes = 128;
  config.ring_seed = 12345;
  auto parsed = ClusterConfig::Parse(config.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->replication, config.replication);
  EXPECT_EQ(parsed->write_quorum, config.write_quorum);
  EXPECT_EQ(parsed->read_quorum, config.read_quorum);
  EXPECT_EQ(parsed->virtual_nodes, config.virtual_nodes);
  EXPECT_EQ(parsed->ring_seed, config.ring_seed);
  ASSERT_EQ(parsed->nodes.size(), config.nodes.size());
  for (size_t i = 0; i < config.nodes.size(); ++i) {
    EXPECT_EQ(parsed->nodes[i].id, config.nodes[i].id);
    EXPECT_EQ(parsed->nodes[i].host, config.nodes[i].host);
    EXPECT_EQ(parsed->nodes[i].port, config.nodes[i].port);
  }
}

TEST(ClusterConfig, ParseAcceptsCommentsAndRejectsGarbage) {
  auto ok = ClusterConfig::Parse(
      "# a comment\n"
      "cluster v1\n"
      "\n"
      "replication 1\n"
      "node 0 sspd-a.example.com 7070\n");
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->nodes[0].host, "sspd-a.example.com");

  EXPECT_FALSE(ClusterConfig::Parse("").ok()) << "empty";
  EXPECT_FALSE(ClusterConfig::Parse("node 0 h 1\n").ok()) << "no header";
  EXPECT_FALSE(ClusterConfig::Parse("cluster v2\nnode 0 h 1\n").ok())
      << "wrong version";
  EXPECT_FALSE(
      ClusterConfig::Parse("cluster v1\nflux 3\nnode 0 h 1\n").ok())
      << "unknown key";
  EXPECT_FALSE(ClusterConfig::Parse("cluster v1\nnode 0 h 99999\n").ok())
      << "port overflow";
  EXPECT_FALSE(ClusterConfig::Parse("cluster v1\nnode 0\n").ok())
      << "truncated node line";
}

TEST(ClusterConfig, FindNodeByStableId) {
  ClusterConfig config = ThreeNodes();
  ASSERT_NE(config.FindNode(2), nullptr);
  EXPECT_EQ(config.FindNode(2)->port, 7072);
  EXPECT_EQ(config.FindNode(9), nullptr);
}

}  // namespace
}  // namespace sharoes::ssp
