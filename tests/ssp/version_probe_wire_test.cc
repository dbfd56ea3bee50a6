// Wire behaviour of the version-only read flag (kExtensionTagVersionOnly).
//
// The flag turns a versioned read into a version probe: a live hit
// answers with the bare 16-byte version, no blob. It must round-trip,
// leave every request without it byte-identical to the pre-flag wire,
// mean nothing without kExtensionTagWantVersion, answer tombstones and
// misses as a plain versioned read does, and degrade gracefully: a
// legacy daemon that skips the unknown tag answers with full blobs, and
// the scrubber must still converge and GC against it.

#include <gtest/gtest.h>

#include <vector>

#include "ssp/message.h"
#include "ssp/scrub.h"
#include "ssp/ssp_server.h"
#include "testing/mem_cluster.h"
#include "util/binary_io.h"

namespace sharoes::ssp {
namespace {

using testing::MemCluster;

constexpr Version kV1{10, 1};
constexpr Version kV2{20, 2};
constexpr Version kV3{30, 3};

Request VersionProbe(std::vector<ObjectKey> keys) {
  std::vector<Request> gets;
  for (const ObjectKey& key : keys) gets.push_back(Request::Get(key));
  Request probe = Request::Batch(std::move(gets));
  probe.want_version = true;
  probe.version_only = true;
  return probe;
}

Bytes VersionBytes(Version v) {
  BinaryWriter w;
  w.PutU64(v.ts);
  w.PutU64(v.writer);
  return w.Take();
}

TEST(VersionProbeWire, FlagRoundTrips) {
  Request probe = VersionProbe({ObjectKey::Data(5, 0), ObjectKey::Metadata(6, 2)});
  probe.trace_id = 0x1234;
  Bytes wire = probe.Serialize();
  auto back = Request::Deserialize(wire);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(back->want_version);
  EXPECT_TRUE(back->version_only);
  EXPECT_EQ(back->trace_id, 0x1234u);
  ASSERT_EQ(back->batch.size(), 2u);
  EXPECT_EQ(back->batch[1].key, ObjectKey::Metadata(6, 2));
  EXPECT_EQ(back->Serialize(), wire);

  // Without the flag, nothing sets it on the way back.
  Request plain = Request::Get(ObjectKey::Data(5, 0));
  plain.want_version = true;
  auto plain_back = Request::Deserialize(plain.Serialize());
  ASSERT_TRUE(plain_back.ok());
  EXPECT_TRUE(plain_back->want_version);
  EXPECT_FALSE(plain_back->version_only);
}

TEST(VersionProbeWire, RequestWithoutTheFlagIsByteIdentical) {
  // The pre-flag encoding of a versioned Get, built by hand: base
  // encoding, then the extension block with the want-version entry only.
  const ObjectKey key = ObjectKey::Data(42, 3);
  BinaryWriter w;
  w.PutU8(static_cast<uint8_t>(OpCode::kGet));
  w.PutU8(static_cast<uint8_t>(key.family));
  w.PutU64(key.k1);
  w.PutU64(key.k2);
  w.PutBytes({});
  w.PutU32(0);
  Bytes unversioned = w.Take();
  w.PutRaw(unversioned);
  w.PutU32(kRequestExtensionMagic);
  w.PutU8(1);
  w.PutU8(kExtensionTagWantVersion);
  w.PutU8(0);
  Bytes versioned = w.Take();

  Request get = Request::Get(key);
  EXPECT_EQ(get.Serialize(), unversioned);
  get.want_version = true;
  EXPECT_EQ(get.Serialize(), versioned);
  // And the flag costs exactly one more two-byte entry.
  get.version_only = true;
  EXPECT_EQ(get.Serialize().size(), versioned.size() + 2);
}

TEST(VersionProbeWire, BatchAnswersVersionOnlyDeletedAndNotFound) {
  SspServer server;
  server.store().set_tombstones_enabled(true);
  const ObjectKey live = ObjectKey::Data(1, 0);
  const ObjectKey dead = ObjectKey::Data(2, 0);
  const ObjectKey missing = ObjectKey::Data(3, 0);
  const Bytes blob(300, 0xAB);
  server.store().Put(live, blob, kV1);
  server.store().Put(dead, blob, kV1);
  server.store().Delete(dead, kV2);

  auto resp = Response::Deserialize(
      server.HandleWire(VersionProbe({live, dead, missing}).Serialize()));
  ASSERT_TRUE(resp.ok()) << resp.status();
  ASSERT_EQ(resp->status, RespStatus::kOk);
  ASSERT_EQ(resp->batch.size(), 3u);
  EXPECT_EQ(resp->batch[0].status, RespStatus::kOk);
  EXPECT_EQ(resp->batch[0].payload, VersionBytes(kV1)) << "blob bytes leaked";
  EXPECT_EQ(resp->batch[1].status, RespStatus::kDeleted);
  EXPECT_EQ(resp->batch[1].payload, VersionBytes(kV2));
  EXPECT_EQ(resp->batch[2].status, RespStatus::kNotFound);
  EXPECT_TRUE(resp->batch[2].payload.empty());
  VersionedReply decoded;
  ASSERT_TRUE(DecodeVersionedReply(resp->batch[0], &decoded));
  EXPECT_EQ(decoded.version, kV1);
  EXPECT_TRUE(decoded.payload.empty());

  // Control: the same batch without the flag carries the blob.
  Request full = VersionProbe({live});
  full.version_only = false;
  auto full_resp = Response::Deserialize(server.HandleWire(full.Serialize()));
  ASSERT_TRUE(full_resp.ok());
  ASSERT_TRUE(DecodeVersionedReply(full_resp->batch[0], &decoded));
  EXPECT_EQ(decoded.payload, blob);
  EXPECT_EQ(decoded.version, kV1);
}

TEST(VersionProbeWire, FlagWithoutWantVersionIsIgnored) {
  SspServer server;
  const ObjectKey key = ObjectKey::Data(1, 0);
  const Bytes blob{1, 2, 3};
  server.store().Put(key, blob);
  Request get = Request::Get(key);
  get.version_only = true;
  auto resp = Response::Deserialize(server.HandleWire(get.Serialize()));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, RespStatus::kOk);
  EXPECT_EQ(resp->payload, blob) << "a plain read must stay a plain read";
}

TEST(VersionProbeWire, ScrubberConvergesAndGcsAgainstLegacyPeers) {
  // Every peer behaves like a daemon that predates the flag: it skips
  // tag 5 and sends full versioned blobs.
  MemCluster cluster;
  uint64_t stripped = 0;
  auto legacy = [&](uint32_t, const Request& req,
                    SspChannel* inner) -> Result<Response> {
    Request old = req;
    stripped += old.version_only ? 1 : 0;
    old.version_only = false;
    return inner->Call(old);
  };
  const ObjectKey stale = ObjectKey::Data(100, 0);      // v2 vs v1.
  const ObjectKey one_copy = ObjectKey::Data(101, 0);   // Only node 0.
  const ObjectKey dead = ObjectKey::Data(102, 0);       // Tombstone on all.
  const ObjectKey straggler = ObjectKey::Data(103, 0);  // Live on node 2.
  const Bytes old_bytes{1, 1, 1};
  const Bytes new_bytes{2, 2, 2, 2};
  for (uint32_t n : {0u, 1u}) cluster.Put(n, stale, new_bytes, kV2);
  cluster.Put(2, stale, old_bytes, kV1);
  cluster.Put(0, one_copy, new_bytes, kV1);
  for (uint32_t n : {0u, 1u, 2u}) cluster.Delete(n, dead, kV3);
  for (uint32_t n : {0u, 1u, 2u}) cluster.Put(n, straggler, old_bytes, kV1);
  for (uint32_t n : {0u, 1u}) cluster.Delete(n, straggler, kV2);

  uint64_t repaired = 0, gc = 0;
  for (int round = 0; round < 2; ++round) {
    for (uint32_t n = 0; n < 3; ++n) {
      ScrubPass pass = cluster.MakeScrubber(n, legacy)->RunOnce();
      EXPECT_EQ(pass.unreachable, 0u);
      repaired += pass.repaired;
      gc += pass.tombstones_gc;
    }
  }
  EXPECT_GT(stripped, 0u) << "the peers never saw a version-only probe";
  EXPECT_EQ(repaired, 4u) << "stale: 1 put, one_copy: 2 puts, straggler: 1 delete";
  EXPECT_EQ(gc, 6u) << "dead and straggler: one tombstone per node";
  for (uint32_t n = 0; n < 3; ++n) {
    auto s = cluster.Copy(n, stale);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->blob, new_bytes) << "node " << n;
    EXPECT_EQ(s->version, kV2) << "node " << n;
    auto c = cluster.Copy(n, one_copy);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->blob, new_bytes) << "node " << n;
    EXPECT_EQ(c->version, kV1) << "node " << n;
    EXPECT_FALSE(cluster.Copy(n, dead).has_value()) << "node " << n;
    EXPECT_FALSE(cluster.Copy(n, straggler).has_value()) << "node " << n;
    EXPECT_EQ(cluster.server(n)->store().Stats().tombstone_count, 0u);
  }
}

}  // namespace
}  // namespace sharoes::ssp
