// Tests for the SSP: protocol messages, object store, server dispatch,
// connection cost accounting.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "net/network_model.h"
#include "ssp/placement.h"
#include "ssp/ssp_server.h"
#include "ssp/wal.h"
#include "testing/scratch_dir.h"
#include "util/binary_io.h"

namespace sharoes::ssp {
namespace {

TEST(MessageTest, RequestRoundTripAllShapes) {
  std::vector<Request> requests = {
      Request::Get(ObjectKey::Superblock(7)),
      Request::Put(ObjectKey::Superblock(7), {1, 2, 3}),
      Request::Get(ObjectKey::Metadata(42, 3)),
      Request::Put(ObjectKey::Metadata(42, 3), {9, 9}),
      Request::Delete(ObjectKey::Metadata(42, 3)),
      Request::DeleteRange(ObjectFamily::kMetadata, 42),
      Request::Get(ObjectKey::UserMetadata(42, 7)),
      Request::Put(ObjectKey::UserMetadata(42, 7), {5}),
      Request::Get(ObjectKey::Data(42, 1)),
      Request::Put(ObjectKey::Data(42, 1), {0xAB}),
      Request::DeleteRange(ObjectFamily::kData, 42),
      Request::Get(ObjectKey::GroupKey(10, 7)),
      Request::Put(ObjectKey::GroupKey(10, 7), {1}),
      Request::Delete(ObjectKey::GroupKey(10, 7)),
  };
  for (const Request& req : requests) {
    auto back = Request::Deserialize(req.Serialize());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->op, req.op);
    EXPECT_EQ(back->key, req.key);
    EXPECT_EQ(back->payload, req.payload);
  }
}

TEST(MessageTest, BatchRoundTrip) {
  Request batch = Request::Batch(
      {Request::Get(ObjectKey::Metadata(1, 0)),
       Request::Put(ObjectKey::Data(2, 0), {7})});
  auto back = Request::Deserialize(batch.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->op, OpCode::kBatch);
  ASSERT_EQ(back->batch.size(), 2u);
  EXPECT_EQ(back->batch[0].op, OpCode::kGet);
  EXPECT_EQ(back->batch[0].key, ObjectKey::Metadata(1, 0));
  EXPECT_EQ(back->batch[1].payload, Bytes{7});
}

TEST(MessageTest, NestedBatchRejected) {
  Request inner = Request::Batch({Request::Get(ObjectKey::Metadata(1, 0))});
  Request outer = Request::Batch({inner});
  EXPECT_FALSE(Request::Deserialize(outer.Serialize()).ok());
}

TEST(MessageTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Request::Deserialize(ToBytes("garbage")).ok());
  EXPECT_FALSE(Response::Deserialize(ToBytes("zz")).ok());
  Bytes bad_op = Request::Get(ObjectKey::Metadata(1, 0)).Serialize();
  bad_op[0] = 0xEE;
  EXPECT_FALSE(Request::Deserialize(bad_op).ok());
}

TEST(MessageTest, DeserializeRejectsInvalidKeys) {
  auto rejects = [](ObjectKey key) {
    Request req = Request::Get(key);
    auto back = Request::Deserialize(req.Serialize());
    return !back.ok() && back.status().IsCorruption();
  };
  // Unknown family.
  EXPECT_TRUE(rejects({static_cast<ObjectFamily>(kNumObjectFamilies), 1, 0}));
  EXPECT_TRUE(rejects({static_cast<ObjectFamily>(0xFF), 1, 0}));
  // A superblock has no second component.
  EXPECT_TRUE(rejects({ObjectFamily::kSuperblock, 7, 1}));
  // u32 slots above UINT32_MAX: a superblock user or group id that wide
  // would reach the placement domain bits.
  const uint64_t wide = uint64_t{UINT32_MAX} + 1;
  EXPECT_TRUE(rejects({ObjectFamily::kSuperblock, wide, 0}));
  EXPECT_TRUE(rejects({ObjectFamily::kSuperblock, 1ull << 62, 0}));
  EXPECT_TRUE(rejects({ObjectFamily::kGroupKey, wide, 1}));
  EXPECT_TRUE(rejects({ObjectFamily::kGroupKey, 1, wide}));
  EXPECT_TRUE(rejects({ObjectFamily::kUserMetadata, 1, wide}));
  EXPECT_TRUE(rejects({ObjectFamily::kData, 1, wide}));
  // The widest legal keys pass, and so does a batch sub-op check.
  EXPECT_FALSE(rejects(ObjectKey::Superblock(UINT32_MAX)));
  EXPECT_FALSE(rejects(ObjectKey::GroupKey(UINT32_MAX, UINT32_MAX)));
  EXPECT_FALSE(rejects(ObjectKey::Metadata(~0ull, ~0ull)));
  EXPECT_FALSE(rejects(ObjectKey::Data(~0ull, UINT32_MAX)));
  Request bad_sub = Request::Get(ObjectKey::Superblock(1));
  bad_sub.key.k2 = 5;
  EXPECT_FALSE(
      Request::Deserialize(Request::Batch({bad_sub}).Serialize()).ok());
}

TEST(MessageTest, RequestHeaderIs26Bytes) {
  // verb u8 | family u8 | k1 u64 | k2 u64 | payload length u32 | batch
  // count u32, then the payload bytes.
  EXPECT_EQ(Request::Get(ObjectKey::Data(1, 2)).Serialize().size(), 26u);
  EXPECT_EQ(Request::Put(ObjectKey::Data(1, 2), {1, 2, 3}).Serialize().size(),
            29u);
}

TEST(MessageTest, StampedMutationsRoundTripUnstampedStayByteIdentical) {
  const Version v{0x0123456789ull, 0xFEEDull};
  for (Request req : {Request::Put(ObjectKey::Data(4, 2), {1, 2, 3}),
                      Request::Delete(ObjectKey::Metadata(4, 1)),
                      Request::DeleteRange(ObjectFamily::kData, 4)}) {
    const Bytes plain = req.Serialize();
    req.version = v;
    const Bytes stamped = req.Serialize();
    // The verb byte gains the flag and 16 version bytes follow the key;
    // everything else is the unstamped encoding.
    ASSERT_EQ(stamped.size(), plain.size() + 16);
    EXPECT_EQ(stamped[0], plain[0] | kOpVersionFlag);
    EXPECT_EQ(Bytes(stamped.begin() + 1, stamped.begin() + 18),
              Bytes(plain.begin() + 1, plain.begin() + 18));
    EXPECT_EQ(Bytes(stamped.begin() + 34, stamped.end()),
              Bytes(plain.begin() + 18, plain.end()));
    auto back = Request::Deserialize(stamped);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(back->op, req.op);
    EXPECT_EQ(back->key, req.key);
    EXPECT_EQ(back->payload, req.payload);
    EXPECT_EQ(back->version, v);
    EXPECT_EQ(back->Serialize(), stamped);
  }
  // A sub-op keeps its own version inside a batch.
  Request sub = Request::Put(ObjectKey::Data(2, 0), {7});
  sub.version = v;
  auto back = Request::Deserialize(
      Request::Batch({Request::Get(ObjectKey::Data(2, 0)), sub}).Serialize());
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->batch.size(), 2u);
  EXPECT_FALSE(back->batch[0].version.stamped());
  EXPECT_EQ(back->batch[1].version, v);
}

TEST(MessageTest, DeserializeRejectsMisplacedVersions) {
  // Splices a flag and 16 version bytes into an unstamped encoding.
  auto stamp = [](Bytes wire, size_t at, Version v) {
    wire[at] |= kOpVersionFlag;
    BinaryWriter w;
    w.PutU64(v.ts);
    w.PutU64(v.writer);
    const Bytes raw = w.Take();
    wire.insert(wire.begin() + static_cast<ptrdiff_t>(at + 18), raw.begin(),
                raw.end());
    return wire;
  };
  auto corrupt = [](const Bytes& wire) {
    auto back = Request::Deserialize(wire);
    return !back.ok() && back.status().IsCorruption();
  };
  const Version v{5, 9};
  // A version on a read, top-level or as a batch sub-op.
  EXPECT_TRUE(corrupt(stamp(Request::Get(ObjectKey::Data(1, 0)).Serialize(),
                            0, v)));
  EXPECT_TRUE(corrupt(stamp(
      Request::Batch({Request::Get(ObjectKey::Data(1, 0))}).Serialize(), 26,
      v)));
  // A version on the batch envelope or an admin verb.
  EXPECT_TRUE(corrupt(stamp(
      Request::Batch({Request::Put(ObjectKey::Data(1, 0), {1})}).Serialize(),
      0, v)));
  EXPECT_TRUE(corrupt(stamp(Request::GetStats().Serialize(), 0, v)));
  // The flag with a zero version behind it.
  EXPECT_TRUE(corrupt(
      stamp(Request::Put(ObjectKey::Data(1, 0), {1}).Serialize(), 0, {})));
  // The same splice with a real version on a put is the valid encoding.
  EXPECT_FALSE(corrupt(
      stamp(Request::Put(ObjectKey::Data(1, 0), {1}).Serialize(), 0, v)));
}

TEST(MessageTest, VersionedRepliesCarryTheVersion) {
  const Version v{99, 5};
  VersionedReply r;
  ASSERT_TRUE(DecodeVersionedReply(Response::Versioned({1, 2}, v), &r));
  EXPECT_EQ(r.status, RespStatus::kOk);
  EXPECT_EQ(r.payload, (Bytes{1, 2}));
  EXPECT_EQ(r.version, v);
  ASSERT_TRUE(DecodeVersionedReply(Response::Deleted(v), &r));
  EXPECT_EQ(r.status, RespStatus::kDeleted);
  EXPECT_TRUE(r.payload.empty());
  EXPECT_EQ(r.version, v);
  ASSERT_TRUE(DecodeVersionedReply(Response::NotFound(), &r));
  EXPECT_FALSE(r.version.stamped());
  // Too short to hold a version, or a status that says nothing.
  EXPECT_FALSE(DecodeVersionedReply(Response::Ok(Bytes(15, 0)), &r));
  EXPECT_FALSE(DecodeVersionedReply(Response::Error(), &r));
}

TEST(MessageTest, FreshestIsTheGreatestVersion) {
  auto reply = [](RespStatus status, Version v) {
    VersionedReply r;
    r.status = status;
    r.version = v;
    return r;
  };
  std::vector<VersionedReply> replies = {
      reply(RespStatus::kNotFound, {}),
      reply(RespStatus::kDeleted, {20, 1}),
      reply(RespStatus::kOk, {20, 2}),  // Same tick, greater writer id.
      reply(RespStatus::kOk, {10, 9}),
  };
  EXPECT_EQ(Freshest(replies.begin(), replies.end()) - replies.begin(), 2);
  replies[1].version = {21, 0};  // A later delete beats the live copies.
  EXPECT_EQ(Freshest(replies.begin(), replies.end()) - replies.begin(), 1);
  // Anything stored beats a replica that never heard of the key.
  std::vector<VersionedReply> sparse = {reply(RespStatus::kNotFound, {}),
                                        reply(RespStatus::kDeleted, {1, 0})};
  EXPECT_EQ(Freshest(sparse.begin(), sparse.end()) - sparse.begin(), 1);
  EXPECT_EQ(Freshest(sparse.begin(), sparse.begin()), sparse.begin());
}

TEST(MessageTest, ResponseRoundTrip) {
  Response ok = Response::Ok({1, 2});
  auto back = Response::Deserialize(ok.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ok());
  EXPECT_EQ(back->payload, (Bytes{1, 2}));
  Response nf = Response::NotFound();
  back = Response::Deserialize(nf.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->status, RespStatus::kNotFound);
}

TEST(ObjectStoreTest, MetadataCrud) {
  ObjectStore store;
  EXPECT_FALSE(store.Get(ObjectKey::Metadata(1, 0)).has_value());
  store.Put(ObjectKey::Metadata(1, 0), {1});
  store.Put(ObjectKey::Metadata(1, 1), {2});
  store.Put(ObjectKey::Metadata(2, 0), {3});
  EXPECT_EQ(store.Get(ObjectKey::Metadata(1, 1)),
            std::optional<Bytes>(Bytes{2}));
  EXPECT_EQ(store.LiveCount(ObjectFamily::kMetadata, 1), 2u);
  store.Delete(ObjectKey::Metadata(1, 0));
  EXPECT_EQ(store.LiveCount(ObjectFamily::kMetadata, 1), 1u);
  store.DeleteRange(ObjectFamily::kMetadata, 1);
  EXPECT_EQ(store.LiveCount(ObjectFamily::kMetadata, 1), 0u);
  EXPECT_TRUE(store.Get(ObjectKey::Metadata(2, 0)).has_value());  // Untouched.
}

TEST(ObjectStoreTest, DataCrudAndStats) {
  ObjectStore store;
  store.Put(ObjectKey::Data(5, 0), Bytes(100, 1));
  store.Put(ObjectKey::Data(5, 1), Bytes(50, 2));
  store.Put(ObjectKey::Superblock(1), Bytes(10, 3));
  StorageStats stats = store.Stats();
  EXPECT_EQ(stats.bytes(ObjectFamily::kData), 150u);
  EXPECT_EQ(stats.bytes(ObjectFamily::kSuperblock), 10u);
  EXPECT_EQ(stats.object_count, 3u);
  EXPECT_EQ(stats.total_bytes(), 160u);
  store.DeleteRange(ObjectFamily::kData, 5);
  EXPECT_FALSE(store.Get(ObjectKey::Data(5, 0)).has_value());
}

TEST(ObjectStoreTest, CorruptionInjection) {
  ObjectStore store;
  store.Put(ObjectKey::Metadata(1, 0), Bytes(16, 0xAA));
  EXPECT_TRUE(store.Corrupt(ObjectKey::Metadata(1, 0), 3, 0x01));
  EXPECT_EQ((*store.Get(ObjectKey::Metadata(1, 0)))[3], 0xAB);
  EXPECT_FALSE(store.Corrupt(ObjectKey::Metadata(9, 0), 0));
  store.Put(ObjectKey::Data(1, 0), Bytes(8, 0));
  // The offset wraps modulo the blob size.
  EXPECT_TRUE(store.Corrupt(ObjectKey::Data(1, 0), 100));
  EXPECT_TRUE(store.Replace(ObjectKey::Data(1, 0), Bytes{1, 2, 3}));
  EXPECT_EQ(store.Get(ObjectKey::Data(1, 0)),
            std::optional<Bytes>(Bytes{1, 2, 3}));
}

// --- Version gating ---------------------------------------------------

const ObjectKey kGated = ObjectKey::Data(9, 0);

Version VersionOf(const ObjectStore& store, const ObjectKey& key) {
  auto v = store.GetVersioned(key);
  return v.has_value() ? v->version : Version{};
}

TEST(ObjectStoreVersionTest, OlderStampedPutIsRejected) {
  ObjectStore store;
  EXPECT_TRUE(store.Put(kGated, {2}, {20, 1}));
  EXPECT_FALSE(store.Put(kGated, {1}, {10, 1}));
  EXPECT_FALSE(store.Put(kGated, {1}, {20, 0}));  // Same tick, lower writer.
  EXPECT_EQ(store.Get(kGated), std::optional<Bytes>(Bytes{2}));
  EXPECT_EQ(VersionOf(store, kGated), (Version{20, 1}));
  EXPECT_TRUE(store.Put(kGated, {3}, {20, 2}));   // Same tick, higher writer.
  EXPECT_EQ(store.Get(kGated), std::optional<Bytes>(Bytes{3}));
  EXPECT_EQ(store.Stats().bytes(ObjectFamily::kData), 1u);
}

TEST(ObjectStoreVersionTest, EqualStampedPutIsANoOp) {
  ObjectStore store;
  ASSERT_TRUE(store.Put(kGated, {1}, {20, 1}));
  const Bytes before = store.Serialize();
  // The same mutation arriving again (retry, quorum round, repair)
  // reports success and changes nothing — even with other bytes.
  EXPECT_TRUE(store.Put(kGated, {1}, {20, 1}));
  EXPECT_TRUE(store.Put(kGated, {9, 9}, {20, 1}));
  EXPECT_EQ(store.Serialize(), before);
}

TEST(ObjectStoreVersionTest, StampedDeleteEntombs) {
  ObjectStore store;
  store.set_tombstones_enabled(true);
  ASSERT_TRUE(store.Put(kGated, {1, 2}, {10, 1}));
  EXPECT_FALSE(store.Delete(kGated, {9, 1}));  // Older: the value stays.
  EXPECT_TRUE(store.Get(kGated).has_value());
  EXPECT_TRUE(store.Delete(kGated, {11, 1}));
  EXPECT_FALSE(store.Get(kGated).has_value());
  auto v = store.GetVersioned(kGated);
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->tombstone);
  EXPECT_EQ(v->version, (Version{11, 1}));
  StorageStats stats = store.Stats();
  EXPECT_EQ(stats.tombstone_count, 1u);
  EXPECT_EQ(stats.object_count, 0u);
  EXPECT_EQ(stats.total_bytes(), 0u);
  // A put older than the tombstone cannot resurrect the key; a newer
  // one re-creates it.
  EXPECT_FALSE(store.Put(kGated, {1, 2}, {10, 5}));
  EXPECT_FALSE(store.Get(kGated).has_value());
  EXPECT_TRUE(store.Put(kGated, {3}, {12, 1}));
  EXPECT_EQ(store.Get(kGated), std::optional<Bytes>(Bytes{3}));
  EXPECT_EQ(store.Stats().tombstone_count, 0u);
  // Deleting a key the replica never held still records the death.
  EXPECT_TRUE(store.Delete(ObjectKey::Data(9, 7), {13, 1}));
  EXPECT_EQ(VersionOf(store, ObjectKey::Data(9, 7)), (Version{13, 1}));
}

TEST(ObjectStoreVersionTest, StampedDeleteRangeSparesANewerEntry) {
  ObjectStore store;
  store.set_tombstones_enabled(true);
  ASSERT_TRUE(store.Put(ObjectKey::Data(5, 0), {1}, {10, 1}));
  ASSERT_TRUE(store.Put(ObjectKey::Data(5, 1), {2}, {30, 1}));
  ASSERT_TRUE(store.Delete(ObjectKey::Data(5, 2), {15, 1}));
  store.DeleteRange(ObjectFamily::kData, 5, {20, 1});
  auto older = store.GetVersioned(ObjectKey::Data(5, 0));
  ASSERT_TRUE(older.has_value());
  EXPECT_TRUE(older->tombstone);
  EXPECT_EQ(older->version, (Version{20, 1}));
  // The re-create that outran the range delete survives it.
  EXPECT_EQ(store.Get(ObjectKey::Data(5, 1)), std::optional<Bytes>(Bytes{2}));
  EXPECT_EQ(VersionOf(store, ObjectKey::Data(5, 1)), (Version{30, 1}));
  // An older tombstone moves up to the range delete's version.
  EXPECT_EQ(VersionOf(store, ObjectKey::Data(5, 2)), (Version{20, 1}));
  // A key this replica never held gets no tombstone.
  EXPECT_FALSE(store.GetVersioned(ObjectKey::Data(5, 3)).has_value());
  EXPECT_EQ(store.LiveCount(ObjectFamily::kData, 5), 1u);
}

TEST(ObjectStoreVersionTest, RemoveTombstoneOnlyAtTheExactVersion) {
  ObjectStore store;
  store.set_tombstones_enabled(true);
  ASSERT_TRUE(store.Delete(kGated, {20, 1}));
  EXPECT_FALSE(store.RemoveTombstone(kGated, {19, 1}));
  EXPECT_FALSE(store.RemoveTombstone(kGated, {21, 1}));
  EXPECT_FALSE(store.RemoveTombstone(kGated, {20, 2}));
  EXPECT_EQ(store.Stats().tombstone_count, 1u);
  EXPECT_TRUE(store.RemoveTombstone(kGated, {20, 1}));
  EXPECT_FALSE(store.GetVersioned(kGated).has_value());
  EXPECT_EQ(store.Stats().tombstone_count, 0u);
  // A live entry is never purged, whatever its version.
  ASSERT_TRUE(store.Put(kGated, {1}, {30, 1}));
  EXPECT_FALSE(store.RemoveTombstone(kGated, {30, 1}));
  EXPECT_TRUE(store.Get(kGated).has_value());
}

TEST(ObjectStoreVersionTest, UnstampedBumpReplaysWithoutChange) {
  ObjectStore store;
  store.set_tombstones_enabled(true);
  store.Put(kGated, {1});
  EXPECT_EQ(VersionOf(store, kGated), (Version{1, 0}));
  store.Put(kGated, {2});
  EXPECT_EQ(VersionOf(store, kGated), (Version{2, 0}));
  // Replaying an applied put or delete leaves the store byte-identical.
  Bytes before = store.Serialize();
  store.Put(kGated, {2});
  EXPECT_EQ(store.Serialize(), before);
  store.Delete(kGated);
  EXPECT_EQ(VersionOf(store, kGated), (Version{3, 0}));
  before = store.Serialize();
  store.Delete(kGated);
  store.DeleteRange(ObjectFamily::kData, 9);
  EXPECT_EQ(store.Serialize(), before);
  // A stamped write outranks any local bump.
  EXPECT_TRUE(store.Put(kGated, {4}, {1000, 7}));
  EXPECT_EQ(store.Get(kGated), std::optional<Bytes>(Bytes{4}));
}

TEST(SspServerTest, PlacementArmedServerRejectsUnstampedMutations) {
  sharoes::testing::ScratchDir scratch("unstamped");
  const std::string& dir = scratch.path();
  ClusterConfig config;
  config.replication = 1;
  config.write_quorum = 1;
  config.read_quorum = 1;
  config.nodes.push_back({0, "127.0.0.1", 1});
  auto ring = PlacementRing::Build(config);
  ASSERT_TRUE(ring.ok()) << ring.status();
  SspServer server;
  auto wal = Wal::Open(dir, WalOptions{}, &server.store());
  ASSERT_TRUE(wal.ok()) << wal.status();
  server.set_wal(wal->get());
  server.set_placement(&*ring, 0);

  EXPECT_EQ(server.Handle(Request::Put(kGated, {1})).status,
            RespStatus::kBadRequest);
  EXPECT_EQ(server.Handle(Request::Delete(kGated)).status,
            RespStatus::kBadRequest);
  Response batch = server.Handle(
      Request::Batch({Request::Put(kGated, {1}), Request::Get(kGated)}));
  ASSERT_EQ(batch.batch.size(), 2u);
  EXPECT_EQ(batch.batch[0].status, RespStatus::kBadRequest);
  EXPECT_EQ(batch.batch[1].status, RespStatus::kNotFound);
  EXPECT_EQ(server.store().Serialize(), ObjectStore().Serialize());
  EXPECT_EQ((*wal)->last_sequence(), 0u) << "an unstamped op reached the WAL";

  // The same put, stamped, is served and logged.
  Request stamped = Request::Put(kGated, {1});
  stamped.version = {5, 1};
  EXPECT_EQ(server.Handle(stamped).status, RespStatus::kOk);
  EXPECT_EQ(server.store().Get(kGated), std::optional<Bytes>(Bytes{1}));
  EXPECT_EQ((*wal)->last_sequence(), 1u);
  server.set_wal(nullptr);
}

TEST(SspServerTest, GetPutDeleteThroughWire) {
  SspServer server;
  Bytes resp_wire = server.HandleWire(Request::Put(ObjectKey::Metadata(1, 0),
                                                   {42}).Serialize());
  auto resp = Response::Deserialize(resp_wire);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->ok());
  resp = Response::Deserialize(
      server.HandleWire(Request::Get(ObjectKey::Metadata(1, 0)).Serialize()));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->payload, Bytes{42});
  resp = Response::Deserialize(
      server.HandleWire(Request::Get(ObjectKey::Metadata(1, 9)).Serialize()));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, RespStatus::kNotFound);
}

TEST(SspServerTest, MalformedWireGetsBadRequest) {
  SspServer server;
  auto resp = Response::Deserialize(server.HandleWire(ToBytes("junk")));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, RespStatus::kBadRequest);
}

TEST(SspServerTest, BatchExecution) {
  SspServer server;
  Response resp = server.Handle(Request::Batch({
      Request::Put(ObjectKey::Metadata(1, 0), {1}),
      Request::Get(ObjectKey::Metadata(1, 0)),
      Request::Get(ObjectKey::Metadata(2, 0)),
  }));
  ASSERT_EQ(resp.batch.size(), 3u);
  EXPECT_TRUE(resp.batch[0].ok());
  EXPECT_EQ(resp.batch[1].payload, Bytes{1});
  EXPECT_EQ(resp.batch[2].status, RespStatus::kNotFound);
}

TEST(SspServerTest, BatchRejectsNonBatchableSubOps) {
  // Only store-level gets/puts/deletes may ride inside a batch. An admin
  // op like kGetStats smuggled in as a sub-op is answered kBadRequest per
  // slot — and the rest of the batch still executes.
  SspServer server;
  Response resp = server.Handle(Request::Batch({
      Request::GetStats(),
      Request::Put(ObjectKey::Metadata(1, 0), {1}),
      Request::Get(ObjectKey::Metadata(1, 0)),
  }));
  ASSERT_EQ(resp.status, RespStatus::kOk);
  ASSERT_EQ(resp.batch.size(), 3u);
  EXPECT_EQ(resp.batch[0].status, RespStatus::kBadRequest);
  EXPECT_TRUE(resp.batch[1].ok());
  EXPECT_EQ(resp.batch[2].payload, Bytes{1});
  // The opcode predicate itself: admin + nesting excluded, reads and
  // mutations allowed.
  EXPECT_FALSE(IsBatchableOp(OpCode::kGetStats));
  EXPECT_FALSE(IsBatchableOp(OpCode::kBatch));
  EXPECT_TRUE(IsBatchableOp(OpCode::kGet));
  EXPECT_TRUE(IsBatchableOp(OpCode::kPut));
  EXPECT_TRUE(IsBatchableOp(OpCode::kDelete));
  EXPECT_TRUE(IsBatchableOp(OpCode::kDeleteRange));
}

TEST(SspServerTest, GroupKeyOps) {
  SspServer server;
  server.Handle(Request::Put(ObjectKey::GroupKey(10, 1), {9}));
  EXPECT_TRUE(server.Handle(Request::Get(ObjectKey::GroupKey(10, 1))).ok());
  server.Handle(Request::Delete(ObjectKey::GroupKey(10, 1)));
  EXPECT_EQ(server.Handle(Request::Get(ObjectKey::GroupKey(10, 1))).status,
            RespStatus::kNotFound);
}

TEST(SspConnectionTest, ChargesRoundTripsAndCountsBytes) {
  SimClock clock;
  net::Transport transport(&clock, net::NetworkModel::PaperDsl());
  SspServer server;
  SspConnection conn(&server, &transport);
  auto resp = conn.Call(Request::Put(ObjectKey::Metadata(1, 0),
                                     Bytes(1000, 1)));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(transport.counters().round_trips, 1u);
  EXPECT_GT(transport.counters().bytes_up, 1000u);
  // 2 x 45 ms latency + 8 ms overhead + ~1 KB at 850 kbit/s (~9.8 ms).
  double ms = clock.snapshot().total_ms();
  EXPECT_GT(ms, 105);
  EXPECT_LT(ms, 115);
  EXPECT_EQ(clock.snapshot().network_ns(), clock.snapshot().total_ns);
}

TEST(NetworkModelTest, RoundTripMath) {
  net::NetworkModel m;
  m.latency_ms = 10;
  m.uplink_bps = 8000;    // 1 byte per ms.
  m.downlink_bps = 4000;  // 0.5 bytes per ms.
  m.per_request_ms = 1;
  EXPECT_DOUBLE_EQ(m.RoundTripMs(100, 50), 20 + 1 + 100 + 100);
  net::NetworkModel zero = net::NetworkModel::Zero();
  EXPECT_DOUBLE_EQ(zero.RoundTripMs(1 << 20, 1 << 20), 0);
}

}  // namespace
}  // namespace sharoes::ssp

namespace sharoes::ssp {
namespace {

TEST(ObjectStorePersistenceTest, SnapshotRoundTrip) {
  ObjectStore store;
  store.Put(ObjectKey::Superblock(1), {1, 2, 3});
  store.Put(ObjectKey::Metadata(10, 0), {4, 5});
  store.Put(ObjectKey::Metadata(10, 2), {6});
  store.Put(ObjectKey::UserMetadata(10, 7), {7, 7});
  store.Put(ObjectKey::Data(10, 0), Bytes(100, 9));
  store.Put(ObjectKey::GroupKey(500, 1), {8});
  Bytes snap = store.Serialize();
  auto back = ObjectStore::Deserialize(snap);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->Get(ObjectKey::Superblock(1)),
            std::optional<Bytes>(Bytes{1, 2, 3}));
  EXPECT_EQ(back->Get(ObjectKey::Metadata(10, 2)),
            std::optional<Bytes>(Bytes{6}));
  EXPECT_EQ(back->Get(ObjectKey::UserMetadata(10, 7)),
            std::optional<Bytes>(Bytes{7, 7}));
  EXPECT_EQ(back->Get(ObjectKey::Data(10, 0)),
            std::optional<Bytes>(Bytes(100, 9)));
  EXPECT_EQ(back->Get(ObjectKey::GroupKey(500, 1)),
            std::optional<Bytes>(Bytes{8}));
  EXPECT_EQ(back->Stats().object_count, store.Stats().object_count);
}

TEST(ObjectStorePersistenceTest, SnapshotKeepsVersionsAndTombstones) {
  ObjectStore store;
  store.set_tombstones_enabled(true);
  store.Put(ObjectKey::Data(1, 0), {1}, {0xABCDEF0123ull, 0x77ull});
  store.Delete(ObjectKey::Data(1, 1), {40, 3});
  store.Put(ObjectKey::Metadata(2, 0), {2});  // Local bump {1, 0}.
  auto back = ObjectStore::Deserialize(store.Serialize());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(VersionOf(*back, ObjectKey::Data(1, 0)),
            (Version{0xABCDEF0123ull, 0x77ull}));
  auto dead = back->GetVersioned(ObjectKey::Data(1, 1));
  ASSERT_TRUE(dead.has_value());
  EXPECT_TRUE(dead->tombstone);
  EXPECT_EQ(dead->version, (Version{40, 3}));
  EXPECT_EQ(VersionOf(*back, ObjectKey::Metadata(2, 0)), (Version{1, 0}));
  EXPECT_EQ(back->Serialize(), store.Serialize());
}

TEST(ObjectStorePersistenceTest, RefusesEarlierSnapshotVersions) {
  // The per-family-section images ("SSP1", "SSP2") and the image with a
  // replica-local generation per entry ("SSP3") are not loaded: the one
  // snapshot format is the key-sorted single map of versioned entries.
  for (uint32_t magic : {0x53535031u, 0x53535032u, 0x53535033u}) {
    BinaryWriter w;
    w.PutU32(magic);
    w.PutU32(0);  // An empty superblock section, as those images began.
    auto back = ObjectStore::Deserialize(w.Take());
    ASSERT_FALSE(back.ok());
    EXPECT_TRUE(back.status().IsCorruption());
    EXPECT_NE(back.status().ToString().find("unsupported"), std::string::npos)
        << back.status();
  }
  // The current format round-trips even when empty.
  EXPECT_TRUE(ObjectStore::Deserialize(ObjectStore().Serialize()).ok());
}

TEST(ObjectStorePersistenceTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(ObjectStore::Deserialize(ToBytes("junk")).ok());
  EXPECT_FALSE(ObjectStore::Deserialize(Bytes{}).ok());
  ObjectStore store;
  store.Put(ObjectKey::Data(1, 0), {1});
  Bytes snap = store.Serialize();
  snap.pop_back();  // Truncate.
  EXPECT_FALSE(ObjectStore::Deserialize(snap).ok());
}

}  // namespace
}  // namespace sharoes::ssp
