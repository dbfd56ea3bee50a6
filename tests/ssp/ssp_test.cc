// Tests for the SSP: protocol messages, object store, server dispatch,
// connection cost accounting.

#include <gtest/gtest.h>

#include "net/network_model.h"
#include "ssp/ssp_server.h"
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

TEST(ObjectStorePersistenceTest, RefusesEarlierSnapshotVersions) {
  // The per-family-section images ("SSP1", "SSP2") are not loaded: the
  // one snapshot format is the key-sorted single map.
  for (uint32_t magic : {0x53535031u, 0x53535032u}) {
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
